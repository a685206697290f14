"""Tests for the binding-time analysis."""

import pytest
from hypothesis import given, settings

from repro.lang import DApp, DIf, DLam, DPrim, Lam, Lift, MemoCall, parse_program, walk
from repro.pe import BindingTime, BindingTimeError, analyze, parse_signature
from repro.pe.bta import _Analysis, prepare
from repro.sexp import sym
from tests.routes import annotate, specialize
from tests.strategies import guarded_descent_programs

S, D = BindingTime.STATIC, BindingTime.DYNAMIC
POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"


def ann_body(src, signature, goal=None, **kw):
    program = parse_program(src, goal=goal)
    res = analyze(program, signature, **kw)
    return res, res.annotated.goal_def().body


class TestSignature:
    def test_parse_signature(self):
        assert parse_signature("SD s d") == (S, D, S, D)

    def test_bad_signature_char(self):
        with pytest.raises(ValueError):
            parse_signature("SX")

    def test_arity_mismatch(self):
        with pytest.raises(BindingTimeError, match="arity"):
            analyze(parse_program("(define (f x) x)"), "SS")


class TestBasicDivisions:
    def test_fully_static_prim_stays_static(self):
        res, body = ann_body("(define (f s d) (+ d (* s s)))", "SD")
        # (* s s) static → appears under a lift; (+ d ...) dynamic.
        assert any(isinstance(n, Lift) for n in walk(body))
        assert any(isinstance(n, DPrim) and n.op is sym("+") for n in walk(body))
        assert not any(isinstance(n, DPrim) and n.op is sym("*") for n in walk(body))

    def test_dynamic_poisons_upward(self):
        res, body = ann_body("(define (f s d) (* s (+ s d)))", "SD")
        assert any(isinstance(n, DPrim) and n.op is sym("*") for n in walk(body))

    def test_static_conditional_selected_at_spec_time(self):
        res, body = ann_body("(define (f s d) (if (zero? s) d (+ d 1)))", "SD")
        assert not any(isinstance(n, DIf) for n in walk(body))

    def test_dynamic_conditional(self):
        res, body = ann_body("(define (f s d) (if (zero? d) s (+ s 1)))", "SD")
        assert any(isinstance(n, DIf) for n in walk(body))

    def test_impure_prim_always_dynamic(self):
        res, body = ann_body('(define (f s) (display s))', "S")
        assert any(isinstance(n, DPrim) for n in walk(body))

    def test_all_static_program_needs_lift_at_residual_boundary(self):
        # The goal is a specialization point: its (static) result must be
        # lifted into the residual code.
        res, body = ann_body("(define (f s) (* s 2))", "S")
        assert any(isinstance(n, Lift) for n in walk(body))


class TestCallAnnotations:
    def test_nonrecursive_call_unfolds(self):
        src = """
        (define (helper x) (+ x 1))
        (define (main d) (helper d))
        """
        res, body = ann_body(src, "D", goal="main")
        assert not any(isinstance(n, MemoCall) for n in walk(body))

    def test_structural_descent_unfolds(self):
        src = """
        (define (len xs d) (if (null? xs) d (len (cdr xs) (+ d 1))))
        """
        res, body = ann_body(src, "SD", goal="len")
        assert not any(isinstance(n, MemoCall) for n in walk(body))

    # The edges of the descent criterion: a static argument counts as
    # descent through let-bound names, a quotient by 2 or more, or sub1;
    # a quotient by 1, a subtraction of 0, or a destructor over a
    # constructed pair does not.
    @pytest.mark.parametrize(
        "body",
        [
            "(if (null? s) d (let ((t (cdr s))) (g t (+ d (length t)))))",
            "(if (null? s) d (let ((t (let ((u (cdr s))) u))) (g t d)))",
            "(if (zero? s) d (g (quotient s 2) d))",
            "(if (zero? s) d (g (sub1 s) d))",
        ],
        ids=["let-used-twice", "let-of-let", "quotient-2", "sub1"],
    )
    def test_descent_edge_unfolds(self, body):
        res, ann = ann_body(f"(define (g s d) {body})", "SD", goal="g")
        assert not any(isinstance(n, MemoCall) for n in walk(ann))

    @pytest.mark.parametrize(
        "body",
        [
            "(if (zero? s) d (g (quotient s 1) d))",
            "(if (zero? s) d (g (- s 0) d))",
            "(if (null? s) d (let ((t (cdr s))) (g (car (cons t t)) d)))",
        ],
        ids=["quotient-1", "minus-0", "car-of-cons"],
    )
    def test_non_descent_edge_memoizes(self, body):
        res, ann = ann_body(f"(define (g s d) {body})", "SD", goal="g")
        assert any(isinstance(n, MemoCall) for n in walk(ann))

    def test_numeric_descent_unfolds(self):
        res, body = ann_body(
            "(define (p x n) (if (zero? n) 1 (* x (p x (- n 1)))))", "DS"
        )
        assert not any(isinstance(n, MemoCall) for n in walk(body))

    def test_non_descending_recursion_memoizes(self):
        src = """
        (define (iter s d) (if (zero? d) s (iter s (- d 1))))
        """
        res, body = ann_body(src, "SD", goal="iter")
        assert any(isinstance(n, MemoCall) for n in walk(body))

    def test_memo_hint_forces_memoization(self):
        src = "(define (p x n) (if (zero? n) 1 (* x (p x (- n 1)))))"
        res, body = ann_body(src, "DS", memo_hints=["p"])
        assert any(isinstance(n, MemoCall) for n in walk(body))

    def test_unfold_hint_forces_unfolding(self):
        src = "(define (iter s d) (if (zero? d) s (iter s (- d 1))))"
        res, body = ann_body(src, "SD", goal="iter", unfold_hints=["iter"])
        assert not any(isinstance(n, MemoCall) for n in walk(body))

    def test_residual_set(self):
        src = """
        (define (f s d) (g s d))
        (define (g s d) (if (zero? d) s (f s (- d 1))))
        """
        res, _ = ann_body(src, "SD", goal="f")
        names = {n.name.split("%")[0] for n in res.residual_defs}
        assert "f" in names  # the goal is always residual


class TestHigherOrderBTA:
    def test_static_lambda_stays_static(self):
        res, body = ann_body(
            "(define (f d) ((lambda (x) (+ x d)) 1))", "D"
        )
        assert not any(isinstance(n, DLam) for n in walk(body))

    def test_lambda_forced_dynamic_by_context(self):
        # The lambda is consed into a dynamic structure: it must become
        # a residual lambda.
        res, body = ann_body(
            "(define (f d) (cons (lambda (x) (+ x 1)) d))", "D"
        )
        assert any(isinstance(n, DLam) for n in walk(body))

    def test_application_of_dynamic_closure(self):
        src = """
        (define (f d)
          (let ((g (if (zero? d) (lambda (x) x) (lambda (x) (+ x 1)))))
            (g d)))
        """
        res, body = ann_body(src, "D")
        assert any(isinstance(n, DApp) for n in walk(body))
        assert sum(isinstance(n, DLam) for n in walk(body)) == 2

    def test_static_closure_in_static_container_unfolds(self):
        # A closure in a *static* container comes back out statically and
        # unfolds: no residual lambda is needed.
        src = """
        (define (f d)
          (let ((env (cons (lambda () d) '())))
            (let ((th (car env)))
              (th))))
        """
        res, body = ann_body(src, "D")
        assert not any(isinstance(n, DLam) for n in walk(body))
        assert not any(isinstance(n, DApp) for n in walk(body))

    def test_closure_through_dynamic_container_forced(self):
        # The LAZY pattern: a closure stored in a *dynamic* structure must
        # be residualized, and its extraction applied dynamically.
        src = """
        (define (f d)
          (let ((env (cons (lambda () (+ d 1)) d)))
            (let ((th (car env)))
              (th))))
        """
        res, body = ann_body(src, "D")
        assert any(isinstance(n, DLam) for n in walk(body))
        assert any(isinstance(n, DApp) for n in walk(body))


class TestPrepare:
    def test_unique_names(self):
        from repro.lang import Lam, Let

        program = parse_program(
            """
            (define (f x) (let ((y x)) ((lambda (y) y) y)))
            (define (g x) (let ((y x)) y))
            """
        )
        prepared = prepare(program)
        names = []
        for d in prepared.defs:
            names.extend(d.params)
            for node in walk(d.body):
                if isinstance(node, Lam):
                    names.extend(node.params)
                elif isinstance(node, Let):
                    names.append(node.var)
        assert len(names) == len(set(names))

    def test_eta_expansion_of_escaping_defs(self):
        from repro.lang import App

        program = parse_program(
            """
            (define (inc x) (+ x 1))
            (define (main d) (cons inc d))
            """
        )
        prepared = prepare(program)
        main = prepared.lookup(prepared.goal)
        # The bare `inc` reference became (lambda (x) (inc x)).
        lams = [n for n in walk(main.body) if isinstance(n, Lam)]
        assert len(lams) == 1
        assert isinstance(lams[0].body, App)

    def test_semantics_preserved_by_preparation(self):
        from repro.interp import run_program
        from repro.lang import eliminate_assignments

        src = """
        (define (f a)
          (let loop ((i 0) (acc 1))
            (if (= i a) acc (loop (+ i 1) (* acc 2)))))
        """
        program = parse_program(src, goal="f")
        prepared = prepare(program)
        baseline = eliminate_assignments(program)
        assert run_program(prepared, [10]) == run_program(baseline, [10]) == 1024


class TestDivisionReporting:
    def test_division_contains_goal_params(self):
        program = parse_program("(define (f s d) (+ s d))")
        res = analyze(program, "SD")
        bts = sorted(
            (name.name.split("%")[0], bt) for name, bt in res.division.items()
        )
        assert ("d", D) in bts
        assert ("s", S) in bts


class TestPolyvariantProperties:
    """Properties relating the polyvariant division to the mono join."""

    @staticmethod
    def _assert_pointwise_refinement(program, signature):
        mono = analyze(program, signature, bta="mono")
        poly = analyze(program, signature, bta="poly")
        mono_bts = {d.name: d.bts for d in mono.annotated.defs}
        for d in poly.annotated.defs:
            baseline = mono_bts.get(poly.origin_of(d.name))
            if baseline is None:
                continue  # unreachable under mono: nothing to refine
            for pb, mb in zip(d.bts, baseline):
                # Refinement: a variant may recover S where mono joined
                # to D, but must never dynamize what mono kept static.
                assert not (pb is D and mb is S), (
                    d.name, d.bts, baseline,
                )
        return mono, poly

    @given(entry=guarded_descent_programs())
    @settings(max_examples=30, deadline=None)
    def test_poly_is_a_pointwise_refinement_of_mono(self, entry):
        src, sig, goal, _static_args = entry
        program = parse_program(src, goal=goal)
        self._assert_pointwise_refinement(program, sig)

    def test_refinement_is_strict_on_a_shared_helper(self):
        # One dynamic call site must not poison the static uses of h:
        # poly splits h into an SS and a DS variant where mono joins
        # the first parameter to D for every caller.
        src = """
        (define (main s d) (+ (h s s) (h d s)))
        (define (h a b) (+ a b))
        """
        program = parse_program(src, goal="main")
        mono, poly = self._assert_pointwise_refinement(program, "SD")
        origins = {}
        for d in poly.annotated.defs:
            origins.setdefault(str(poly.origin_of(d.name)), []).append(d)
        assert len(origins.get("h", ())) >= 2
        mono_h = next(
            d for d in mono.annotated.defs if str(d.name) == "h"
        )
        assert mono_h.bts == (D, S)
        assert any(d.bts == (S, S) for d in origins["h"])


class TestMonoLiftInfelicity:
    """Pinned regression: the monovariant join's lift infelicity.

    Ackermann (and POWER) under an all-static signature with the goal
    itself as the specialization point: the goal is residual, so its
    branches lift — and under the monovariant join the lifted (now
    dynamic) recursion result flows back into a static parameter, a
    congruence dead-end the seed BTA reported as a BindingTimeError.  The
    polyvariant BTA splits a value variant for the inner calls and
    folds the whole tower to a constant instead.
    """

    @staticmethod
    def _ackermann():
        from tests.corpus_termination import SAFE

        return next(e for e in SAFE if e.name == "ackermann")

    def test_mono_reproduces_the_binding_time_error(self):
        entry = self._ackermann()
        annotated = annotate(
            entry.source, entry.signature, entry.goal, bta="mono"
        )
        with pytest.raises(
            BindingTimeError, match="dynamic argument to static"
        ):
            specialize(annotated, [2, 3])

    def test_mono_power_under_ss_hits_it_too(self):
        # The lifted result of the residual goal's recursion reaches
        # the static multiplication.
        annotated = annotate(POWER, "SS", "power", bta="mono")
        with pytest.raises(
            BindingTimeError, match=r"dynamic argument to static primitive \*"
        ):
            specialize(annotated, [2, 5])

    def test_poly_folds_ackermann_to_a_constant(self):
        from repro.rtcg import GeneratingExtension

        entry = self._ackermann()
        gen = GeneratingExtension(
            entry.source, entry.signature, goal=entry.goal
        )
        rp = gen.to_source([2, 3])
        assert rp.run([]) == 9


class TestVariantCap:
    """The polyvariant fan-out cap, ``MAX_VARIANTS`` clones per function.

    ``main`` calls ``f`` under distinct S/D patterns of its four
    arguments: up to the cap each pattern gets its own clone, one
    pattern more widens ``f`` back to its monovariant join.
    """

    # a is static in the first eight patterns, dynamic in the ninth.
    PATTERNS = [
        (a, b, c, e)
        for a in "sd" for b in "sd" for c in "sd" for e in "sd"
    ][:8] + [("d", "s", "s", "s")]

    @classmethod
    def _program(cls, n):
        calls = " ".join(f"(f {' '.join(p)})" for p in cls.PATTERNS[:n])
        return parse_program(
            f"""
            (define (main s d) (list {calls}))
            (define (f a b c e) (+ a b c e))
            """,
            goal="main",
        )

    def test_eight_patterns_do_not_widen(self):
        from repro.pe.bta import MAX_VARIANTS

        res = analyze(self._program(8), "SD")
        assert res.widened == frozenset()
        f_variants = [
            info for info in res.variants.values() if str(info.origin) == "f"
        ]
        assert len(f_variants) == MAX_VARIANTS == 8

    def test_nine_patterns_widen_f(self):
        from repro.interp import run_program
        from repro.lang.prims import write_value
        from repro.pe.check import check_bta
        from repro.rtcg import GeneratingExtension

        program = self._program(9)
        res = analyze(program, "SD")
        assert {str(o) for o in res.widened} == {"f"}
        assert check_bta(res) == []
        residual = GeneratingExtension(program, "SD").to_object_code([3])
        value = write_value(residual.run([5]))
        assert value == write_value(run_program(program, [3, 5]))
        assert value == "(12 14 14 16 14 16 16 18 14)"


class TestSolveSchedule:
    """The dirty-definition schedule of ``_Analysis.solve``."""

    def test_memo_set_growth_is_a_change(self):
        # g is not recursive, so its call unfolds and g is not residual.
        program = prepare(parse_program(
            "(define (f s d) (g s d)) (define (g s d) (+ s d))", goal="f"
        ))
        analysis = _Analysis(program, parse_signature("SD"),
                             frozenset(), frozenset())
        analysis.solve()
        g = sym("g")
        assert not analysis.is_residual(g)
        analysis.changed = False
        analysis._memo_called(g)
        assert analysis.changed and analysis.is_residual(g)
        analysis.changed = False
        analysis._memo_called(g)
        assert not analysis.changed

    def test_demand_reaches_a_deep_cond_in_one_round(self):
        # The residual goal's body is demanded after its first walk.  The
        # 20 nested ifs pass that demand to their branches before walking
        # them, so the second round lifts every arm and the third finds
        # nothing to change; a walk that pushes only after descending
        # would move the demand down one arm per round.
        from repro import obs

        arms = " ".join(f"((= s {i}) {i})" for i in range(20))
        program = prepare(parse_program(
            f"(define (f s d) (cond {arms} (else d)))", goal="f"
        ))
        analysis = _Analysis(program, parse_signature("SD"),
                             frozenset(), frozenset())
        with obs.tracing() as (_, metrics):
            analysis.solve()
        assert metrics.counter_value("pe.bta.rounds") <= 3
