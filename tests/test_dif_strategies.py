"""Tests for the dynamic-conditional strategies.

Fig. 3's rule for ``if^D`` passes the continuation to *both* branches; in
value position that duplicates the residual continuation, exponentially
for chains of conditionals.  The ``join`` strategy binds the continuation
once as a residual join-point lambda.  Both strategies must agree
semantically (``tests/test_routes.py`` runs both); only their residual
sizes differ.

Every check runs on both engines: the interpretive specializer and the
compiled generating extension (``GeneratingExtension.compiled()``).
"""

import pytest

from repro.anf import is_anf_program
from repro.compiler import ObjectCodeBackend
from repro.lang import count_nodes
from tests.routes import ENGINES, annotate, specialize


def make_chain(n: int) -> str:
    """A chain of n value-position dynamic conditionals.

    Each (step k d) contributes a dynamic conditional whose value feeds
    the next addition — the worst case for continuation duplication.
    """
    body = "0"
    for i in range(n):
        body = f"(+ (if (zero? (remainder d {i + 2})) 1 2) {body})"
    return f"(define (chain d) {body})"


class TestSemanticAgreement:
    CASES = [
        (make_chain(3), "D", []),
        (make_chain(4), "D", []),
        ("(define (f s d) (* s (+ (if (zero? d) 10 20) 1)))", "SD", [7]),
        (
            "(define (g d) (+ (if (zero? d) (if (zero? d) 1 2) 3) 100))",
            "D",
            [],
        ),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_join_residual_is_anf(self, case):
        src, sig, static = self.CASES[case]
        for engine in ENGINES:
            rp = specialize(annotate(src, sig), static, engine, None, "join")
            assert is_anf_program(rp.program), engine


class TestSizeBehaviour:
    def _sizes(self, n, strategy):
        """The residual size of an ``n``-chain, equal in both engines."""
        sizes = {
            engine: sum(
                count_nodes(d.body)
                for d in specialize(
                    annotate(make_chain(n), "D"), [], engine, None, strategy
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
            a = specialize(annotate(src, "D"), [], engine, None, "duplicate")
            b = specialize(annotate(src, "D"), [], engine, None, "join")
            assert a.fingerprint() == b.fingerprint(), engine


class TestJoinWithObjectBackend:
    def test_fused_backend_supports_joins(self):
        annotated = annotate(make_chain(5), "D")
        baseline = specialize(annotated, [], "specializer")
        for engine in ENGINES:
            rp = specialize(annotated, [], engine, ObjectCodeBackend(), "join")
            for d in (0, 6, 30, 209):
                assert rp.run([d]) == baseline.run([d]), engine

    def test_rtcg_api_exposes_strategy(self):
        from repro.rtcg import make_generating_extension

        gen = make_generating_extension(make_chain(4), "D", goal="chain")
        rp = gen.to_object_code([], dif_strategy="join")
        rp2 = gen.to_source([], dif_strategy="join")
        assert rp.run([12]) == rp2.run([12])

    def test_bad_strategy_rejected(self):
        for engine in ENGINES:
            with pytest.raises(ValueError):
                specialize(annotate(make_chain(1), "D"), [], engine, None, "nope")
