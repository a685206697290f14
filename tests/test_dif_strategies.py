"""Tests for the dynamic-conditional strategies.

Fig. 3's rule for ``if^D`` passes the continuation to *both* branches; in
value position that duplicates the residual continuation, exponentially
for chains of conditionals.  The ``join`` strategy binds the continuation
once as a residual join-point lambda.  Both strategies must agree
semantically; only their residual sizes differ.

Every check runs on both engines: the interpretive specializer and the
compiled generating extension (``GeneratingExtension.compiled()``).
"""

import pytest

from repro.anf import is_anf_program
from repro.compiler import ObjectCodeBackend
from repro.lang import count_nodes, parse_program
from repro.pe import SourceBackend, Specializer, analyze
from repro.pe.cogen import compile_generating_extension
from repro.runtime.values import scheme_equal

ENGINES = ("specializer", "compiled")


def make_chain(n: int) -> str:
    """A chain of n value-position dynamic conditionals.

    Each (step k d) contributes a dynamic conditional whose value feeds
    the next addition — the worst case for continuation duplication.
    """
    body = "0"
    for i in range(n):
        body = f"(+ (if (zero? (remainder d {i + 2})) 1 2) {body})"
    return f"(define (chain d) {body})"


def run_engine(engine, annotated, static_args, strategy, backend=None):
    if engine == "specializer":
        return Specializer(
            annotated, backend, dif_strategy=strategy
        ).run(static_args)
    return compile_generating_extension(annotated).generate(
        static_args, backend, dif_strategy=strategy
    )


def specialize_with(src, signature, static_args, strategy, engine, goal=None):
    program = parse_program(src, goal=goal)
    res = analyze(program, signature)
    return run_engine(engine, res.annotated, static_args, strategy)


class TestSemanticAgreement:
    CASES = [
        (make_chain(3), "D", [], [6]),
        (make_chain(3), "D", [], [35]),
        (
            "(define (f s d) (* s (+ (if (zero? d) 10 20) 1)))",
            "SD",
            [7],
            [0],
        ),
        (
            "(define (g d) (+ (if (zero? d) (if (zero? d) 1 2) 3) 100))",
            "D",
            [],
            [0],
        ),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_same_results(self, case):
        src, sig, static, dyn = self.CASES[case]
        for engine in ENGINES:
            rp_dup = specialize_with(src, sig, static, "duplicate", engine)
            rp_join = specialize_with(src, sig, static, "join", engine)
            assert scheme_equal(rp_dup.run(dyn), rp_join.run(dyn)), engine

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_join_residual_is_anf(self, case):
        src, sig, static, dyn = self.CASES[case]
        for engine in ENGINES:
            rp = specialize_with(src, sig, static, "join", engine)
            assert is_anf_program(rp.program), engine


class TestSizeBehaviour:
    def _sizes(self, n, strategy):
        """The residual size of an ``n``-chain, equal in both engines."""
        sizes = {
            engine: sum(
                count_nodes(d.body)
                for d in specialize_with(
                    make_chain(n), "D", [], strategy, engine
                ).program.defs
            )
            for engine in ENGINES
        }
        assert len(set(sizes.values())) == 1, sizes
        return sizes["specializer"]

    def test_duplication_grows_exponentially(self):
        s4 = self._sizes(4, "duplicate")
        s8 = self._sizes(8, "duplicate")
        # Each added conditional roughly doubles the duplicated tail.
        assert s8 > 8 * s4

    def test_join_grows_linearly(self):
        s4 = self._sizes(4, "join")
        s8 = self._sizes(8, "join")
        assert s8 < 3 * s4

    def test_join_much_smaller_on_deep_chains(self):
        dup = self._sizes(8, "duplicate")
        join = self._sizes(8, "join")
        assert join * 5 < dup

    def test_tail_conditionals_unaffected(self):
        # In tail position no duplication happens, so both strategies
        # produce the same residual program.
        src = "(define (f d) (if (zero? d) 'a 'b))"
        for engine in ENGINES:
            a = specialize_with(src, "D", [], "duplicate", engine)
            b = specialize_with(src, "D", [], "join", engine)
            assert a.fingerprint() == b.fingerprint(), engine


class TestJoinWithObjectBackend:
    def test_fused_backend_supports_joins(self):
        program = parse_program(make_chain(5), goal="chain")
        res = analyze(program, "D")
        baseline = Specializer(res.annotated, SourceBackend()).run([])
        for engine in ENGINES:
            rp = run_engine(
                engine, res.annotated, [], "join", ObjectCodeBackend()
            )
            for d in (0, 6, 30, 209):
                assert rp.run([d]) == baseline.run([d]), engine

    def test_rtcg_api_exposes_strategy(self):
        from repro.rtcg import make_generating_extension

        gen = make_generating_extension(make_chain(4), "D", goal="chain")
        rp = gen.to_object_code([], dif_strategy="join")
        rp2 = gen.to_source([], dif_strategy="join")
        assert rp.run([12]) == rp2.run([12])

    def test_bad_strategy_rejected(self):
        program = parse_program(make_chain(1), goal="chain")
        res = analyze(program, "D")
        for engine in ENGINES:
            with pytest.raises(ValueError):
                run_engine(engine, res.annotated, [], "nope")
