"""Edge-case and small-unit tests across the system."""

import pytest

from repro.lang import Gensym, parse_expr, parse_program
from repro.runtime.errors import PrimitiveError, SchemeError
from repro.sexp import sym
from tests.helpers import interp_expr


class TestGensym:
    def test_fresh_names_are_distinct(self):
        gs = Gensym()
        names = {gs.fresh() for _ in range(100)}
        assert len(names) == 100

    def test_hint_prefix_survives(self):
        gs = Gensym()
        name = gs.fresh("loop")
        assert name.name.startswith("loop%")

    def test_hint_stripped_of_previous_counter(self):
        gs = Gensym()
        first = gs.fresh("x")
        second = gs.fresh(first)
        assert second.name.startswith("x%")
        assert second.name.count("%") == 1

    def test_reset(self):
        gs = Gensym()
        a = gs.fresh()
        gs.reset()
        assert gs.fresh() is a


class TestPrimEdgeCases:
    def test_unary_minus(self):
        assert interp_expr("(- 5)") == -5

    def test_unary_division_is_reciprocal(self):
        assert interp_expr("(/ 4)") == 0.25
        assert interp_expr("(/ 1)") == 1

    def test_plus_with_no_args(self):
        assert interp_expr("(+)") == 0

    def test_times_with_no_args(self):
        assert interp_expr("(*)") == 1

    def test_booleans_are_not_numbers(self):
        with pytest.raises(PrimitiveError):
            interp_expr("(+ #t 1)")

    def test_append_no_args(self):
        from repro.runtime.values import NIL

        assert interp_expr("(append)") is NIL

    def test_append_shares_last(self):
        # (append '() xs) returns xs itself.
        assert interp_expr("(let ((xs '(1))) (eq? (append '() xs) xs))") is True

    def test_expt_negative_exponent(self):
        assert interp_expr("(expt 2 -1)") == 0.5

    def test_min_max_mixed(self):
        assert interp_expr("(min 3 1 2)") == 1
        assert interp_expr("(max 3 1 2)") == 3

    def test_string_to_number_failure_is_false(self):
        assert interp_expr('(string->number "nope")') is False

    def test_number_to_string(self):
        assert interp_expr("(number->string 42)") == "42"

    def test_length_of_improper_raises(self):
        with pytest.raises(PrimitiveError):
            interp_expr("(length (cons 1 2))")

    def test_deep_accessors(self):
        assert interp_expr("(caddr '(1 2 3))") == 3
        assert interp_expr("(cadddr '(1 2 3 4))") == 4
        assert interp_expr("(cddr '(1 2 3))") is not False

    def test_list_predicate(self):
        assert interp_expr("(list? '(1 2))") is True
        assert interp_expr("(list? (cons 1 2))") is False
        assert interp_expr("(list? '())") is True

    def test_atom_p(self):
        assert interp_expr("(atom? 1)") is True
        assert interp_expr("(atom? '(1))") is False


class TestWriteValue:
    def test_improper_pair_rendering(self):
        from repro.lang.prims import write_value
        from repro.runtime.values import Pair

        assert write_value(Pair(1, 2)) == "(1 . 2)"

    def test_procedure_rendering(self):
        from repro.lang.prims import write_value
        from repro.interp import Interpreter

        clo = Interpreter().eval(parse_expr("(lambda (x) x)"), None)
        assert write_value(clo) == "#<procedure>"

    def test_nested_list_rendering(self):
        from repro.lang.prims import write_value
        from repro.runtime.values import datum_to_value

        assert write_value(datum_to_value([1, [sym("a")], "s"])) == '(1 (a) "s")'


class TestCompileTimeEnvChain:
    def test_shadowing_finds_innermost(self):
        from repro.compiler.cenv import CompileTimeEnv, Local

        x = sym("x")
        env = CompileTimeEnv.for_procedure((x,))
        inner = env.bind_local(x, 5)
        assert inner.lookup(x) == Local(5)
        assert env.lookup(x) == Local(0)

    def test_deep_chains(self):
        from repro.compiler.cenv import CompileTimeEnv, Global, Local

        env = CompileTimeEnv()
        names = [sym(f"v{i}") for i in range(200)]
        for i, n in enumerate(names):
            env = env.bind_local(n, i)
        assert env.lookup(names[0]) == Local(0)
        assert env.lookup(names[199]) == Local(199)
        assert isinstance(env.lookup(sym("missing")), Global)

    def test_is_bound_locally_through_chain(self):
        from repro.compiler.cenv import CompileTimeEnv

        x, y = sym("x"), sym("y")
        env = CompileTimeEnv.for_procedure((x,)).bind_local(y, 1)
        assert env.is_bound_locally(x)
        assert env.is_bound_locally(y)
        assert not env.is_bound_locally(sym("z"))


class TestProgramContainer:
    def test_duplicate_goal_check(self):
        from repro.lang.ast import Def, Program
        from repro.lang import Const

        d = Def(sym("f"), (), Const(1))
        with pytest.raises(ValueError):
            Program((d,), sym("missing"))

    def test_goal_def(self):
        p = parse_program("(define (f x) x)")
        assert p.goal_def().name is sym("f")

    def test_walk_and_count(self):
        from repro.lang import count_nodes, walk

        e = parse_expr("(+ 1 (* 2 3))")
        assert count_nodes(e) == 5
        kinds = [type(n).__name__ for n in walk(e)]
        assert kinds[0] == "Prim"


class TestTemplateAndDisasm:
    def test_instruction_count_recursive(self):
        from repro.anf import anf_convert
        from repro.compiler.anf_compiler import compile_anf_expr

        t = compile_anf_expr(anf_convert(parse_expr("((lambda (x) x) 1)")))
        assert t.instruction_count(recursive=True) > t.instruction_count(
            recursive=False
        )

    def test_instruction_count_dedupes_shared_nested_templates(self):
        """A nested template referenced from several literal slots is
        counted once, not once per slot."""
        from repro.vm.instructions import Op
        from repro.vm.template import Template

        inner = Template(
            code=((Op.CONST, 0), (Op.RETURN,)),
            literals=(1,),
            arity=0,
            nlocals=0,
            name="inner",
        )
        outer = Template(
            code=(
                (Op.MAKE_CLOSURE, 0, 0),
                (Op.MAKE_CLOSURE, 1, 0),
                (Op.RETURN,),
            ),
            literals=(inner, inner),  # same template, two slots
            arity=0,
            nlocals=0,
            name="outer",
        )
        assert outer.instruction_count(recursive=False) == 3
        assert outer.instruction_count(recursive=True) == 3 + 2

    def test_instruction_count_merges_distinct_equal_templates(self):
        """Dedup is by *content digest*, not object identity: two
        structurally identical nested templates are one piece of code
        however many copies exist.  This keeps the fig7 before/after
        comparison fair whichever side shares identical subtemplates:
        counting an unshared side per object would inflate it."""
        from repro.vm.instructions import Op
        from repro.vm.template import Template

        def leaf(value=1):
            return Template(
                code=((Op.CONST, 0), (Op.RETURN,)),
                literals=(value,),
                arity=0,
                nlocals=0,
                name="leaf",
            )

        def outer(*leaves):
            return Template(
                code=tuple(
                    (Op.MAKE_CLOSURE, i, 0) for i in range(len(leaves))
                ) + ((Op.RETURN,),),
                literals=tuple(leaves),
                arity=0,
                nlocals=0,
                name="outer",
            )

        # Distinct objects, identical content: counted once.
        shared = outer(leaf(), leaf())
        assert shared.instruction_count(recursive=True) == 3 + 2
        # Same shape, different literal content: counted separately.
        distinct = outer(leaf(1), leaf(2))
        assert distinct.instruction_count(recursive=True) == 3 + 2 + 2
        # The two sides of a before/after comparison agree whether or
        # not equal subtemplates are object-shared.
        one = leaf()
        assert outer(one, one).instruction_count(
            recursive=True
        ) == shared.instruction_count(recursive=True)

    def test_content_digest_contract(self):
        """Equal content ⇔ equal digest; any content change flips it."""
        from repro.vm.instructions import Op
        from repro.vm.template import Template

        def make(value=1, name="t"):
            return Template(
                code=((Op.CONST, 0), (Op.RETURN,)),
                literals=(value,),
                arity=0,
                nlocals=0,
                name=name,
            )

        assert make().content_digest() == make().content_digest()
        assert make(1).content_digest() != make(2).content_digest()
        assert make(name="a").content_digest() != make(name="b").content_digest()

    def test_disassemble_shows_globals_and_prims(self):
        from repro.anf import anf_convert
        from repro.compiler.anf_compiler import compile_anf_expr
        from repro.vm import disassemble

        t = compile_anf_expr(anf_convert(parse_expr("(+ 1 (g 2))")))
        text = disassemble(t)
        assert "GLOBAL" in text
        assert "prim +" in text


class TestResidualOfVoidAndBooleans:
    def test_booleans_survive_specialization(self):
        from repro.rtcg import specialize_to_object_code

        src = "(define (f s d) (if (eq? s #t) (not d) d))"
        rp = specialize_to_object_code(src, "SD", [True], goal="f")
        assert rp.run([False]) is True

    def test_lifting_zero_vs_false_distinct(self):
        # The literal-interning regression: lifted 0 and #f must stay
        # distinct through the fused backend.
        from repro.rtcg import specialize_to_object_code

        src = "(define (f s d) (cons (car s) (cons (cadr s) d)))"
        from repro.runtime.values import datum_to_value, value_to_datum

        rp = specialize_to_object_code(
            src, "SD", [datum_to_value([0, False])], goal="f"
        )
        out = value_to_datum(rp.run([datum_to_value([])]))
        assert out == [0, False]
        assert out[0] is not False
        assert out[1] is False


class TestStockCompilerValueContexts:
    def test_conditional_in_operator_position(self):
        from repro.compiler import StockCompiler
        from repro.vm import Machine, VmClosure

        e = parse_expr("((if #t (lambda (x) (+ x 1)) (lambda (x) x)) 4)")
        t = StockCompiler().compile_procedure((), e, name="t")
        assert Machine().call(VmClosure(t, ()), []) == 5

    def test_deeply_nested_value_ifs(self):
        from repro.compiler import StockCompiler
        from repro.vm import Machine, VmClosure

        src = "(+ (if (< 1 2) (if (< 2 3) 1 2) 3) (if #f 10 (if #t 20 30)))"
        t = StockCompiler().compile_procedure((), parse_expr(src), name="t")
        assert Machine().call(VmClosure(t, ()), []) == 21


class TestInterpreterMisc:
    def test_env_lookup_through_parents(self):
        from repro.interp import Env

        x, y = sym("x"), sym("y")
        parent = Env({x: 1}, None)
        child = Env({y: 2}, parent)
        assert child.lookup(x) == 1
        assert child.lookup(y) == 2
        with pytest.raises(SchemeError):
            child.lookup(sym("z"))

    def test_env_child(self):
        from repro.interp import Env

        x = sym("x")
        env = Env({x: 1}, None).child({x: 2})
        assert env.lookup(x) == 2

    def test_interpreter_call_by_string_name(self):
        from repro.interp import Interpreter

        interp = Interpreter(parse_program("(define (f x) (* x 3))"))
        assert interp.call("f", [4]) == 12

    def test_undefined_function_call(self):
        from repro.interp import Interpreter

        with pytest.raises(SchemeError):
            Interpreter(parse_program("(define (f) 1)")).call("g", [])
