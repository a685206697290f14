"""Well-annotatedness linting for Annotated Core Scheme.

Offline partial evaluation comes with a static obligation: the division
must be *congruent* — no dynamic value may flow into a static position,
every static value landing in a code position must pass through ``lift``,
and only first-order values may be lifted (lambdas cannot).  The
binding-time analysis (:mod:`repro.pe.bta`) is supposed to deliver exactly
that discipline; this module re-checks its output *after the fact*, as an
independent, redundant linter, so that a BTA bug is caught here as a
structured :class:`AnnotationViolation` with an expression path instead of
surfacing as a mis-specialized program (or a crash in the specializer's
guts).

The linter re-derives binding times syntactically from the annotation
itself, on a three-point domain S / D / unknown:

* ``lift``, dynamic primitives/applications/conditionals/lambdas, and
  memoized calls are definitely dynamic;
* constants, lambdas, and static primitive applications are definitely
  static;
* variables take the binding time of their binder (top-level parameter
  binding times from the division, ``lambda^D`` parameters dynamic,
  ``let``-bound variables their right-hand side's); static ``lambda``
  parameters — whose binding times only a whole-program analysis knows —
  are *unknown*, so the linter reports only definite violations, never
  false positives.

Each position is checked against what the specializer will demand there:

* **value positions** (static primitive arguments, static conditional
  tests, static operators, ``lift`` bodies, memoized static arguments)
  reject definitely-dynamic expressions;
* **code positions** (dynamic primitive/application arguments, dynamic
  conditional tests and branches, ``lambda^D`` and residual-definition
  bodies, memoized dynamic arguments) reject definitely-static
  expressions — an unlifted constant or a static lambda there means the
  annotator failed to insert a coercion;
* **memoization points** must be closed under the division: the callee
  exists, is marked residual, has matching arity, and receives static
  values in its static parameter positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.obs import traced
from repro.lang.ast import (
    App,
    Const,
    DApp,
    DIf,
    DLam,
    DPrim,
    Expr,
    If,
    Lam,
    Let,
    Lift,
    MemoCall,
    Prim,
    Var,
)
from repro.lang.prims import PRIMITIVES
from repro.pe.annprog import AnnotatedProgram, BindingTime
from repro.pe.errors import BindingTimeError
from repro.sexp.datum import Symbol

S = BindingTime.STATIC
D = BindingTime.DYNAMIC
_UNKNOWN = None   # binding time the linter cannot determine locally


class CongruenceKind(Enum):
    """The linter's violation classes."""

    STATIC_PRIM_DYNAMIC_ARG = "static-prim-dynamic-arg"
    STATIC_IF_DYNAMIC_TEST = "static-if-dynamic-test"
    STATIC_APP_DYNAMIC_OPERATOR = "static-app-dynamic-operator"
    LIFT_OF_DYNAMIC = "lift-of-dynamic"
    LIFT_OF_LAMBDA = "lift-of-lambda"
    UNLIFTED_STATIC = "unlifted-static-in-code-position"
    STATIC_LAMBDA_IN_CODE = "static-lambda-in-code-position"
    MEMO_UNKNOWN_FUNCTION = "memo-unknown-function"
    MEMO_ARITY_MISMATCH = "memo-arity-mismatch"
    MEMO_STATIC_ARG_DYNAMIC = "memo-static-arg-dynamic"
    MEMO_TO_UNFOLDED = "memo-to-unfolded-function"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


@dataclass(frozen=True, slots=True)
class CongruenceViolation:
    """One congruence finding, anchored to an expression path."""

    kind: CongruenceKind
    def_name: Symbol
    path: str                # e.g. "if.then/let.rhs/prim.arg0"
    message: str
    # Polyvariant context: the variant display name ("fn@SDr") and the
    # call-site paths whose abstract signatures created the variant, so a
    # finding in a clone can be traced back to the calls responsible.
    variant: str = ""
    call_sites: tuple[str, ...] = ()

    def __str__(self) -> str:
        name = self.variant or str(self.def_name)
        text = f"[{self.kind.value}] {name} at {self.path or '<body>'}: {self.message}"
        if self.call_sites:
            text += f" (variant from {', '.join(self.call_sites)})"
        return text


class AnnotationViolation(BindingTimeError):
    """An annotated program violates the congruence discipline."""

    def __init__(self, violations: tuple[CongruenceViolation, ...]):
        self.violations = violations
        summary = "; ".join(str(v) for v in violations)
        super().__init__(f"annotation is not congruent: {summary}")


@traced("pe.congruence")
def check_annotated(
    annotated: AnnotatedProgram, variants: dict | None = None
) -> list[CongruenceViolation]:
    """Lint ``annotated``; return every violation instead of raising.

    ``variants`` is the ``name -> VariantInfo`` map from a polyvariant
    :class:`~repro.pe.bta.BTAResult`; when given, violations carry the
    variant display name and originating call-site paths.
    """
    out: list[CongruenceViolation] = []
    for d in annotated.defs:
        env: dict[Symbol, BindingTime | None] = {
            p: bt for p, bt in zip(d.params, d.bts)
        }
        info = (variants or {}).get(d.name)
        checker = _Checker(
            annotated,
            d.name,
            out,
            variant=info.display if info is not None else "",
            call_sites=tuple(info.call_sites) if info is not None else (),
        )
        # A residual definition's body becomes residual code; an unfolded
        # definition's body is consumed at specialization time and may be
        # either.
        checker.check(d.body, env, _CODE if d.residual else _ANY, ())
    return out


def verify_annotated(
    annotated: AnnotatedProgram, variants: dict | None = None
) -> None:
    """Lint ``annotated``; raise :class:`AnnotationViolation` on findings."""
    violations = check_annotated(annotated, variants)
    if violations:
        raise AnnotationViolation(tuple(violations))


def check_bta(result) -> list[CongruenceViolation]:
    """Lint a :class:`~repro.pe.bta.BTAResult`'s annotated output."""
    return check_annotated(result.annotated, getattr(result, "variants", None))


# Position disciplines.
_ANY = "any"        # no local requirement (e.g. unfold-call arguments)
_VALUE = "value"    # must be a specialization-time value: rejects definite D
_CODE = "code"      # must be residual code: rejects definite S


class _Checker:
    """One definition's linting pass."""

    def __init__(
        self,
        annotated: AnnotatedProgram,
        def_name: Symbol,
        out: list[CongruenceViolation],
        variant: str = "",
        call_sites: tuple[str, ...] = (),
    ):
        self.annotated = annotated
        self.def_name = def_name
        self.out = out
        self.variant = variant
        self.call_sites = call_sites

    def _report(
        self, kind: CongruenceKind, path: tuple[str, ...], message: str
    ) -> None:
        self.out.append(
            CongruenceViolation(
                kind,
                self.def_name,
                "/".join(path),
                message,
                variant=self.variant,
                call_sites=self.call_sites,
            )
        )

    def check(
        self,
        e: Expr,
        env: dict[Symbol, BindingTime | None],
        ctx: str,
        path: tuple[str, ...],
    ) -> BindingTime | None:
        """Check ``e`` against its position; return its binding time."""
        bt = self._dispatch(e, env, ctx, path)
        if ctx is _CODE and bt is S:
            if isinstance(e, (Lam, DLam)):
                # DLam never reports S; only a static lambda lands here.
                self._report(
                    CongruenceKind.STATIC_LAMBDA_IN_CODE, path,
                    "static lambda in a code position must be lambda^D",
                )
            else:
                self._report(
                    CongruenceKind.UNLIFTED_STATIC, path,
                    f"static {type(e).__name__} in a code position"
                    " lacks a lift",
                )
        return bt

    # -- per-node rules -------------------------------------------------------

    def _dispatch(
        self,
        e: Expr,
        env: dict[Symbol, BindingTime | None],
        ctx: str,
        path: tuple[str, ...],
    ) -> BindingTime | None:
        if isinstance(e, Const):
            return S

        if isinstance(e, Var):
            if e.name in env:
                return env[e.name]
            # Free names: top-level functions and primitives are static
            # specialization-time values; anything else is unknown.
            if self.annotated.has(e.name) or e.name in PRIMITIVES:
                return S
            return _UNKNOWN

        if isinstance(e, Lam):
            inner = {**env, **{p: _UNKNOWN for p in e.params}}
            self.check(e.body, inner, _ANY, path + ("lam.body",))
            return S

        if isinstance(e, DLam):
            inner = {**env, **{p: D for p in e.params}}
            self.check(e.body, inner, _CODE, path + ("dlam.body",))
            return D

        if isinstance(e, Lift):
            sub = path + ("lift",)
            inner_bt = self.check(e.expr, env, _VALUE, sub)
            if inner_bt is D:
                self._report(
                    CongruenceKind.LIFT_OF_DYNAMIC, sub,
                    "lift applied to an already-dynamic expression",
                )
            if isinstance(e.expr, (Lam, DLam)):
                self._report(
                    CongruenceKind.LIFT_OF_LAMBDA, sub,
                    "lift applied to a lambda; only first-order values"
                    " can be lifted",
                )
            return D

        if isinstance(e, Let):
            rhs_bt = self.check(e.rhs, env, _ANY, path + ("let.rhs",))
            inner = {**env, e.var: rhs_bt}
            return self.check(e.body, inner, ctx, path + ("let.body",))

        if isinstance(e, If):
            test_bt = self.check(e.test, env, _VALUE, path + ("if.test",))
            if test_bt is D:
                self._report(
                    CongruenceKind.STATIC_IF_DYNAMIC_TEST,
                    path + ("if.test",),
                    "static conditional tests a dynamic value"
                    " (should be if^D)",
                )
            then_bt = self.check(e.then, env, ctx, path + ("if.then",))
            alt_bt = self.check(e.alt, env, ctx, path + ("if.alt",))
            if then_bt is alt_bt:
                return then_bt
            return _UNKNOWN

        if isinstance(e, DIf):
            self.check(e.test, env, _CODE, path + ("dif.test",))
            self.check(e.then, env, _CODE, path + ("dif.then",))
            self.check(e.alt, env, _CODE, path + ("dif.alt",))
            return D

        if isinstance(e, Prim):
            for i, a in enumerate(e.args):
                sub = path + (f"prim.arg{i}",)
                if self.check(a, env, _VALUE, sub) is D:
                    self._report(
                        CongruenceKind.STATIC_PRIM_DYNAMIC_ARG, sub,
                        f"dynamic argument to static primitive {e.op}",
                    )
            return S

        if isinstance(e, DPrim):
            for i, a in enumerate(e.args):
                self.check(a, env, _CODE, path + (f"dprim.arg{i}",))
            return D

        if isinstance(e, App):
            fn_bt = self.check(e.fn, env, _VALUE, path + ("app.fn",))
            if fn_bt is D:
                self._report(
                    CongruenceKind.STATIC_APP_DYNAMIC_OPERATOR,
                    path + ("app.fn",),
                    "static application of a dynamic operator"
                    " (should be @^D)",
                )
            for i, a in enumerate(e.args):
                self.check(a, env, _ANY, path + (f"app.arg{i}",))
            # The unfolded body's binding time needs whole-program
            # knowledge; stay agnostic.
            return _UNKNOWN

        if isinstance(e, DApp):
            self.check(e.fn, env, _CODE, path + ("dapp.fn",))
            for i, a in enumerate(e.args):
                self.check(a, env, _CODE, path + (f"dapp.arg{i}",))
            return D

        if isinstance(e, MemoCall):
            return self._check_memo(e, env, path)

        # Unknown node type: nothing to say about congruence.
        for i, c in enumerate(e.children()):
            self.check(c, env, _ANY, path + (f"child{i}",))
        return _UNKNOWN

    def _check_memo(
        self,
        e: MemoCall,
        env: dict[Symbol, BindingTime | None],
        path: tuple[str, ...],
    ) -> BindingTime | None:
        sub = path + (f"memo-call:{e.name}",)
        if not self.annotated.has(e.name):
            self._report(
                CongruenceKind.MEMO_UNKNOWN_FUNCTION, sub,
                f"memoized call to undefined function {e.name}",
            )
            for i, a in enumerate(e.args):
                self.check(a, env, _ANY, sub + (f"arg{i}",))
            return D
        callee = self.annotated.lookup(e.name)
        if not callee.residual:
            self._report(
                CongruenceKind.MEMO_TO_UNFOLDED, sub,
                f"{e.name} is not a memoization point (not residual)",
            )
        if len(e.args) != len(callee.params):
            self._report(
                CongruenceKind.MEMO_ARITY_MISMATCH, sub,
                f"{e.name} takes {len(callee.params)} argument(s),"
                f" call passes {len(e.args)}",
            )
            for i, a in enumerate(e.args):
                self.check(a, env, _ANY, sub + (f"arg{i}",))
            return D
        for i, (a, bt) in enumerate(zip(e.args, callee.bts)):
            arg_path = sub + (f"arg{i}",)
            if bt is S:
                if self.check(a, env, _VALUE, arg_path) is D:
                    self._report(
                        CongruenceKind.MEMO_STATIC_ARG_DYNAMIC, arg_path,
                        f"dynamic value for static parameter"
                        f" {callee.params[i]} of {e.name}: the division is"
                        " not closed at this memoization point",
                    )
            else:
                self.check(a, env, _CODE, arg_path)
        return D
