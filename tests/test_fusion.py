"""Tests for the composition (fusion): the paper's central theorem.

For every program p and static input s::

    compile(specialize_src(p, s))  ≅  specialize_obj(p, s)

We check it both *observationally* (same results on the VM) and
*structurally* (identical disassembled templates) — structural equality is
exactly what the deforestation argument of §5.4 promises.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import ObjectCodeBackend, compile_program
from repro.lang import parse_program
from repro.pe import SourceBackend, Specializer, analyze
from repro.runtime.values import datum_to_value, scheme_equal
from repro.vm import disassemble


def both_routes(src, signature, static_args, goal=None, **kw):
    program = parse_program(src, goal=goal)
    res = analyze(program, signature, **kw)
    rp_src = Specializer(res.annotated, SourceBackend()).run(static_args)
    compiled = compile_program(rp_src.program)
    be = ObjectCodeBackend()
    rp_obj = Specializer(res.annotated, be).run(static_args)
    return program, rp_src, compiled, rp_obj, be


def assert_fused(src, signature, static_args, dynamic_args, goal=None, **kw):
    program, rp_src, compiled, rp_obj, be = both_routes(
        src, signature, static_args, goal=goal, **kw
    )
    r1 = compiled.run(dynamic_args)
    r2 = rp_obj.run(dynamic_args)
    assert scheme_equal(r1, r2), f"{r1!r} != {r2!r}"
    # Structural equality of the emitted object code.
    names1 = sorted(compiled.templates, key=lambda s: s.name)
    names2 = sorted(be.templates, key=lambda s: s.name)
    assert [n.name for n in names1] == [n.name for n in names2]
    for n1, n2 in zip(names1, names2):
        assert disassemble(compiled.templates[n1]) == disassemble(
            be.templates[n2]
        ), f"template {n1} differs"
    return r2


POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"


class TestFusionTheorem:
    def test_power(self):
        assert_fused(POWER, "DS", [7], [2])

    def test_power_dynamic_recursion(self):
        assert_fused(POWER, "SD", [3], [5])

    def test_list_program(self):
        src = """
        (define (app xs ys) (if (null? xs) ys (cons (car xs) (app (cdr xs) ys))))
        """
        assert_fused(
            src, "SD", [datum_to_value([1, 2])], [datum_to_value([3])],
            goal="app",
        )

    def test_residual_closures(self):
        src = """
        (define (make-add d) (lambda (x) (+ x d)))
        (define (main d e) (let ((f (make-add d))) (f (f e))))
        """
        assert_fused(src, "DD", [], [10, 1], goal="main")

    def test_memoized_loops(self):
        src = """
        (define (iter s d) (if (zero? d) s (iter (cons 'x s) (- d 1))))
        """
        # s static but growing is caught elsewhere; here s dynamic:
        assert_fused(src, "DD", [], [datum_to_value([]), 4], goal="iter")

    def test_conditionals_in_value_position(self):
        src = """
        (define (f s d) (+ (if (zero? d) 1 2) s))
        """
        program = parse_program(src, goal="f")
        res = analyze(program, "SD")
        be = ObjectCodeBackend()
        rp = Specializer(res.annotated, be).run([100])
        assert rp.run([0]) == 101
        assert rp.run([9]) == 102

    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=-20, max_value=20),
    )
    @settings(max_examples=20)
    def test_fusion_random_power(self, n, x):
        result = assert_fused(POWER, "DS", [n], [x])
        assert result == x**n

    def test_workload_mixwell(self):
        from repro.workloads import (
            MIXWELL_SIGNATURE,
            MIXWELL_SOURCE,
            MIXWELL_GOAL,
            mixwell_tm_program,
        )

        tape = datum_to_value([1, 0, 1, 1])
        assert_fused(
            MIXWELL_SOURCE,
            MIXWELL_SIGNATURE,
            [mixwell_tm_program()],
            [tape],
            goal=MIXWELL_GOAL,
        )

    def test_workload_lazy(self):
        from repro.workloads import (
            LAZY_SIGNATURE,
            LAZY_SOURCE,
            LAZY_GOAL,
            lazy_primes_program,
        )

        assert_fused(
            LAZY_SOURCE,
            LAZY_SIGNATURE,
            [lazy_primes_program()],
            [3],
            goal=LAZY_GOAL,
        )


class TestObjectBackendBehaviour:
    def test_residual_program_reports_machine(self):
        program = parse_program(POWER, goal="power")
        res = analyze(program, "DS")
        rp = Specializer(res.annotated, ObjectCodeBackend()).run([4])
        assert rp.machine is not None
        assert rp.program is None
        assert rp.run([3]) == 81

    def test_many_specializations_share_backend_machine(self):
        # Incremental specialization: several residual programs can be
        # installed in one machine (they get distinct specialized names).
        program = parse_program(POWER, goal="power")
        res = analyze(program, "DS")
        be = ObjectCodeBackend()
        rp2 = Specializer(res.annotated, be).run([2])
        rp3 = Specializer(res.annotated, be).run([3])
        assert rp2.run([5]) == 25
        assert rp3.run([5]) == 125

    def test_deep_residual_loop_is_tail_recursive(self):
        src = "(define (loop n acc) (if (zero? n) acc (loop (- n 1) (+ acc 1))))"
        program = parse_program(src, goal="loop")
        res = analyze(program, "DD")
        rp = Specializer(res.annotated, ObjectCodeBackend()).run([])
        assert rp.run([300000, 0]) == 300000

    def test_unknown_primitive_rejected(self):
        from repro.compiler import CompileError
        from repro.sexp import sym

        be = ObjectCodeBackend()
        with pytest.raises(CompileError):
            be.prim(sym("definitely-not-a-prim"), [])
