"""Direct-style evaluation of static subterms in both engines.

The static-subterm table (:func:`repro.pe.annprog.static_subterms`)
marks the nodes that can emit no residual code; the interpretive
specializer and the compiled generating extension evaluate those in
direct style and keep continuation passing for the rest.  These tests
pin the table's classification rules, and check that the change is
invisible from outside: residual code, error messages and budget trips
are those of the all-CPS engines.
"""

from __future__ import annotations

import functools
import hashlib

import pytest

from repro.compiler.fusion import ObjectCodeBackend
from repro.lang.ast import (
    App,
    Const,
    DPrim,
    If,
    Lam,
    Let,
    Lift,
    MemoCall,
    Prim,
    Var,
)
from repro.pe.annprog import D, S, AnnDef, AnnotatedProgram
from repro.pe.errors import BindingTimeError, BudgetExceeded
from repro.runtime.values import datum_to_value
from repro.sexp.datum import sym
from repro.sexp.reader import read
from repro.workloads import (
    LAZY_GOAL,
    LAZY_SIGNATURE,
    LAZY_SOURCE,
    MIXWELL_GOAL,
    MIXWELL_SIGNATURE,
    MIXWELL_SOURCE,
    lazy_primes_program,
    mixwell_tm_program,
)
from tests.corpus_termination import DIVERGING
from tests.routes import annotate, specialize

f, g, h, x, y, s, d = (sym(n) for n in ("f", "g", "h", "x", "y", "s", "d"))
even, odd = sym("even"), sym("odd")


def _program(*defs: AnnDef) -> AnnotatedProgram:
    return AnnotatedProgram(defs, defs[0].name)


# -- the table ------------------------------------------------------------------


class TestClassification:
    def test_values_are_static_and_lambda_bodies_are_classified(self):
        body = DPrim(sym("+"), (Var(x), Const(1)))
        lam = Lam((x,), body)
        ann = _program(AnnDef(f, (y,), (D,), Let(x, lam, Var(x)), True))
        assert ann.is_static(lam)
        assert not ann.is_static(body)
        assert ann.is_static(ann.goal_def().body)

    def test_call_to_static_def_is_static(self):
        call = App(Var(g), (Const(2),))
        ann = _program(
            AnnDef(f, (y,), (D,), DPrim(sym("+"), (call, Var(y))), True),
            AnnDef(g, (x,), (S,), Prim(sym("*"), (Var(x), Var(x))), False),
        )
        assert ann.is_static(call)

    def test_shadowed_def_name_is_not_static(self):
        call = App(Var(g), (Const(2),))
        ann = _program(
            AnnDef(f, (g,), (S,), call, True),
            AnnDef(g, (x,), (S,), Var(x), False),
        )
        assert not ann.is_static(call)
        let_bound = App(Var(g), (Const(2),))
        ann = _program(
            AnnDef(f, (y,), (S,), Let(g, Var(y), let_bound), True),
            AnnDef(g, (x,), (S,), Var(x), False),
        )
        assert not ann.is_static(let_bound)

    def test_def_reaching_memo_call_is_not_static(self):
        memo = MemoCall(h, (Var(x),))
        call_g = App(Var(g), (Var(y),))
        ann = _program(
            AnnDef(f, (y,), (S,), call_g, True),
            AnnDef(g, (x,), (S,), If(Var(x), Const(1), memo), False),
            AnnDef(h, (x,), (S,), Var(x), True),
        )
        assert not ann.is_static(memo)
        assert not ann.is_static(ann.lookup(g).body)
        assert not ann.is_static(call_g)

    def test_mutual_static_recursion_is_static(self):
        def step(other):
            return If(
                Prim(sym("zero?"), (Var(x),)),
                Const(True),
                App(Var(other), (Prim(sym("-"), (Var(x), Const(1))),)),
            )

        ann = _program(
            AnnDef(f, (y,), (S,), App(Var(even), (Var(y),)), True),
            AnnDef(even, (x,), (S,), step(odd), False),
            AnnDef(odd, (x,), (S,), step(even), False),
        )
        for d_ in ann.defs:
            assert ann.is_static(d_.body), d_.name

    def test_node_shared_with_a_shadowing_context_is_not_static(self):
        shared = App(Var(g), ())
        ann = _program(
            AnnDef(
                f, (y,), (S,),
                Let(x, shared, App(Lam((g,), shared), (Var(y),))), True,
            ),
            AnnDef(g, (), (), Const(1), False),
        )
        assert not ann.is_static(shared)
        # The same call built as its own node is static where unshadowed.
        alone = App(Var(g), ())
        ann = _program(
            AnnDef(f, (y,), (S,), alone, True),
            AnnDef(g, (), (), Const(1), False),
        )
        assert ann.is_static(alone)

    def test_dynamic_constructs_are_never_static(self):
        lift = Lift(Const(1))
        dprim = DPrim(sym("+"), (Const(1), Const(2)))
        ann = _program(AnnDef(f, (y,), (D,), Let(x, lift, dprim), True))
        assert not ann.is_static(lift)
        assert not ann.is_static(dprim)


# -- residual code is unchanged ---------------------------------------------------

WORKLOADS = {
    "mixwell": (MIXWELL_SOURCE, MIXWELL_SIGNATURE, MIXWELL_GOAL,
                mixwell_tm_program),
    "lazy": (LAZY_SOURCE, LAZY_SIGNATURE, LAZY_GOAL, lazy_primes_program),
}

# (workload, bta, dif_strategy or "cogen", route) -> (digest,
# residual_defs, residual_size), as the all-CPS engines produced them.
# MIXWELL under the monovariant BTA is covered with "join" only: Fig. 3's
# duplicating rule is exponential there.
PINNED = {
    ("mixwell", "mono", "join", "object"): ("c7d336f319143e54", 12, 621),
    ("mixwell", "mono", "join", "source"): ("99ae1a8065710c98", 12, 621),
    ("mixwell", "poly", "duplicate", "object"): ("6836e82c91af5b35", 11, 329),
    ("mixwell", "poly", "duplicate", "source"): ("c4e1252996494526", 11, 329),
    ("mixwell", "poly", "join", "object"): ("6836e82c91af5b35", 11, 329),
    ("mixwell", "poly", "join", "source"): ("c4e1252996494526", 11, 329),
    ("mixwell", "poly", "cogen", "object"): ("6836e82c91af5b35", 11, 329),
    ("mixwell", "poly", "cogen", "source"): ("c4e1252996494526", 11, 329),
    ("lazy", "mono", "duplicate", "object"): ("88a458153ae5677b", 5, 137),
    ("lazy", "mono", "duplicate", "source"): ("582dfbf81ecc3841", 5, 137),
    ("lazy", "mono", "join", "object"): ("88a458153ae5677b", 5, 137),
    ("lazy", "mono", "join", "source"): ("582dfbf81ecc3841", 5, 137),
    ("lazy", "mono", "cogen", "object"): ("88a458153ae5677b", 5, 137),
    ("lazy", "mono", "cogen", "source"): ("582dfbf81ecc3841", 5, 137),
    ("lazy", "poly", "duplicate", "object"): ("20bc577ee79e2f38", 5, 137),
    ("lazy", "poly", "duplicate", "source"): ("729a839b5b3e53ab", 5, 137),
    ("lazy", "poly", "join", "object"): ("20bc577ee79e2f38", 5, 137),
    ("lazy", "poly", "join", "source"): ("729a839b5b3e53ab", 5, 137),
    ("lazy", "poly", "cogen", "object"): ("20bc577ee79e2f38", 5, 137),
    ("lazy", "poly", "cogen", "source"): ("729a839b5b3e53ab", 5, 137),
}


def _digest(residual) -> str:
    """Object code by every global template's content digest, source by
    its unparsed text."""
    if residual.machine is not None:
        globals_ = residual.machine.globals
        text = "\n".join(
            f"{name}={globals_[name].template.content_digest()}"
            for name in sorted(globals_, key=str)
            if hasattr(globals_[name], "template")
        )
    else:
        text = residual.fingerprint()
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@functools.cache
def _annotated(workload: str, bta: str) -> AnnotatedProgram:
    source, signature, goal, _ = WORKLOADS[workload]
    return annotate(source, signature, goal, bta=bta)


@pytest.mark.parametrize(
    "key", sorted(PINNED), ids=lambda k: "-".join(k)
)
def test_section7_residuals_are_unchanged(key):
    workload, bta, strategy, route = key
    # A strategy row runs the interpretive specializer, a "cogen" row
    # the compiled extension under the default strategy.
    cogen = strategy == "cogen"
    residual = specialize(
        _annotated(workload, bta), [WORKLOADS[workload][3]()],
        "compiled" if cogen else "specializer",
        ObjectCodeBackend() if route == "object" else None,
        "duplicate" if cogen else strategy,
    )
    stats = residual.stats
    assert (
        _digest(residual), stats["residual_defs"], stats["residual_size"]
    ) == PINNED[key]


# -- errors are unchanged ---------------------------------------------------------


SPEC_TIME_ERRORS = {
    # name: (source, statics, failing primitive, primitive's message)
    "static-prim-under-dynamic-prim": (
        "(define (f s d) (+ (car s) d))", [()], "car",
        "car: expected a pair, got ()",
    ),
    "static-prim-in-static-unfold": (
        "(define (h x) (quotient 1 x)) (define (f s d) (+ (h s) d))", [0],
        "quotient", "quotient: division by zero",
    ),
    "static-prim-in-static-test": (
        "(define (f s d) (if (car s) d d))", [()], "car",
        "car: expected a pair, got ()",
    ),
}

@pytest.mark.parametrize("engine", ["cogen", "specializer"])
@pytest.mark.parametrize("case", sorted(SPEC_TIME_ERRORS))
def test_static_primitive_error_message(engine, case):
    from repro.pe.errors import SpecializationError

    source, statics, prim, message = SPEC_TIME_ERRORS[case]
    with pytest.raises(SpecializationError) as exc:
        specialize(annotate(source, "SD", "f"), statics, engine)
    assert str(exc.value) == (
        f"specialization-time error in ({prim} ...): {message}"
    )


def _ill_annotated() -> dict:
    """Hand-annotated programs in which a dynamic value reaches a static
    primitive or a static conditional (the BTA never produces these)."""

    def goal(body, *more):
        return AnnotatedProgram(
            (AnnDef(f, (s, d), (S, D), body, True), *more), f
        )

    plus, car = sym("+"), sym("car")
    return {
        "prim": goal(Prim(plus, (Var(d), Const(1)))),
        "if": goal(If(Var(d), Const(1), Const(2))),
        "prim-under-dynamic-prim": goal(
            DPrim(plus, (Prim(car, (Var(d),)), Var(d)))
        ),
        "if-under-lift": goal(Lift(If(Var(d), Var(s), Const(2)))),
        "prim-in-static-unfold": goal(
            DPrim(plus, (App(Var(g), (Var(d),)), Var(d))),
            AnnDef(g, (x,), (S,), Prim(plus, (Var(x), Const(1))), False),
        ),
    }


BINDING_TIME_MESSAGES = {
    ("prim", "specializer"): "dynamic argument to static primitive +",
    ("prim", "cogen"): "dynamic argument to static primitive +",
    ("if", "specializer"): "dynamic test in a static conditional",
    ("if", "cogen"): "dynamic test in a static conditional",
    ("prim-under-dynamic-prim", "specializer"):
        "dynamic argument to static primitive car",
    ("prim-under-dynamic-prim", "cogen"):
        "dynamic argument to static primitive car",
    ("if-under-lift", "specializer"): "dynamic test in a static conditional",
    ("if-under-lift", "cogen"): "dynamic test in a static conditional",
    ("prim-in-static-unfold", "specializer"):
        "dynamic argument to static primitive +",
    ("prim-in-static-unfold", "cogen"):
        "dynamic argument to static primitive +",
}


@pytest.mark.parametrize(
    "key", sorted(BINDING_TIME_MESSAGES), ids=lambda k: "-".join(k)
)
def test_dynamic_value_in_static_position(key):
    case, engine = key
    with pytest.raises(BindingTimeError) as exc:
        specialize(_ill_annotated()[case], [1], engine)
    assert str(exc.value) == BINDING_TIME_MESSAGES[key]


# -- budgets are unchanged --------------------------------------------------------

# The budget each diverger trips under max_unfold_depth=300 and
# max_residual_size=2_000, and the head of the cycle it names, identical
# for both engines and as the all-CPS engines reported them.
BUDGETS = {
    "count-up": ("max_residual_size", "f"),
    "accumulate": ("max_residual_size", "g"),
    "num-descent-dynamic-guard": ("max_unfold_depth", "down@SDv"),
    "poly-explosion": ("max_residual_size", "poly"),
    "ping-pong": ("max_residual_size", "ping"),
    "spin-unfold-hint": ("max_unfold_depth", "spin@SDv"),
    "lambda-self-app": ("max_unfold_depth", "lambda"),
}


def test_budget_table_covers_the_corpus():
    assert set(BUDGETS) == {entry.name for entry in DIVERGING}


@pytest.mark.parametrize("engine", ["specializer", "cogen"])
@pytest.mark.parametrize("entry", DIVERGING, ids=lambda e: e.name)
def test_divergers_trip_the_same_budget(engine, entry):
    annotated = annotate(
        entry.source, entry.signature, entry.goal,
        memo_hints=entry.memo_hints, unfold_hints=entry.unfold_hints,
    )
    statics = [datum_to_value(read(text)) for text in entry.static_args]
    with pytest.raises(BudgetExceeded) as exc:
        specialize(annotated, statics, engine,
                   max_unfold_depth=300, max_residual_size=2_000)
    assert (exc.value.budget, exc.value.cycle[0]) == BUDGETS[entry.name]


@pytest.mark.parametrize("engine", ["specializer", "cogen"])
def test_static_unfold_depth_bounds_active_unfolds(engine):
    # A static unfold leaves the unfold stack when its body returns, so
    # the budget bounds the nesting of active unfolds: 200 nested loop
    # calls plus 10 nested helper calls fit 250.  Continuation passing
    # kept every finished helper unfold on the stack while the rest of
    # the loop was specialized (200 * 11 entries).
    source = """
(define (f s d) (+ (loop s 0) d))
(define (loop n acc) (if (zero? n) acc (loop (- n 1) (+ acc (nest 10)))))
(define (nest k) (if (zero? k) 1 (nest (- k 1))))"""
    annotated = annotate(source, "SD", "f")
    loop = next(dd for dd in annotated.defs if "loop" in str(dd.name))
    assert annotated.is_static(loop.body)
    residual = specialize(annotated, [200], engine, max_unfold_depth=250)
    assert residual.run([1]) == 201
