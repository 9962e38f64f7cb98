"""Trace words, tau/sigma/Delta agreement, Drensky generators and relations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matseq import (
    GF,
    MatSeq,
    Q,
    Z,
    all_trace_words,
    big_delta,
    big_delta_explicit,
    big_delta_from_gram,
    check_drensky_relations,
    commutes,
    conjugate,
    drensky_relation_linear,
    drensky_relation_product,
    drensky_s,
    drensky_u,
    mat2,
    seq,
    sigma,
    sigma_explicit,
    sigma_from_tau,
    tau,
    tau_explicit,
    trace_word,
)
from matseq.errors import BadIndex, Char2Unsupported, LengthTooShort, RingMismatch

from genseq import rand_group_element, rand_mat, rand_seq

# A triple whose pairs are all unobstructed but whose triple is:
# every sigma vanishes while Delta_123 = 1.
TRIPLE = [[[1, 0], [0, 0]], [[1, 1], [0, 0]], [[0, 0], [1, 1]]]


def pair(rng, ring):
    return rand_mat(rng, ring), rand_mat(rng, ring)


class TestTraceWord:
    def test_basic_words(self):
        s = seq(Z, [[[1, 2], [3, 4]], [[0, 1], [1, 0]]])
        assert trace_word(s, (1,)) == Z(5)
        assert trace_word(s, (2,)) == Z(0)
        assert trace_word(s, (1, 2)) == Z(5)  # tr([[2,1],[4,3]])
        assert trace_word(s, (1, 1)) == Z(29)  # tr of the square
        assert trace_word(s, (2, 1)) == trace_word(s, (1, 2))

    def test_empty_word_rejected(self):
        s = seq(Z, [[[1, 0], [0, 1]]])
        with pytest.raises(BadIndex):
            trace_word(s, ())

    @given(st.integers(0, 10_000))
    @settings(max_examples=80)
    def test_cyclic_invariance(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Z, Q, GF(5)])
        s = rand_seq(rng, ring, 3)
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        rotated = word[1:] + word[:1]
        assert trace_word(s, word) == trace_word(s, rotated)


class TestTauSigmaDelta:
    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_tau_closed_form(self, seed_value):
        rng = random.Random(seed_value)
        from genseq import RING_POOL
        ring = rng.choice(RING_POOL)
        x, y = pair(rng, ring)
        assert tau(x, y) == tau_explicit(x, y)
        assert tau(x, y) == tau(y, x)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_tau_self_is_discriminant(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Z, Q, GF(7)])
        x = rand_mat(rng, ring)
        assert tau(x, x) == x.disc()

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_sigma_closed_forms(self, seed_value):
        rng = random.Random(seed_value)
        from genseq import RING_POOL
        ring = rng.choice(RING_POOL)
        x, y = pair(rng, ring)
        want = sigma(x, y)
        assert sigma_explicit(x, y) == want
        if ring.characteristic() != 2:
            assert sigma_from_tau(x, y) == want

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_big_delta_closed_forms(self, seed_value):
        rng = random.Random(seed_value)
        from genseq import RING_POOL
        ring = rng.choice(RING_POOL)
        x, y, z = rand_mat(rng, ring), rand_mat(rng, ring), rand_mat(rng, ring)
        want = big_delta(x, y, z)
        assert big_delta_explicit(x, y, z) == want
        if ring.characteristic() != 2:
            assert big_delta_from_gram(x, y, z) == want

    @given(st.integers(0, 10_000))
    @settings(max_examples=80)
    def test_conjugation_invariance(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(5), GF(7)])
        s = rand_seq(rng, ring, 3)
        g = rand_group_element(rng, ring)
        t = conjugate(g, s)
        assert sigma(t.term(1), t.term(2)) == sigma(s.term(1), s.term(2))
        assert tau(t.term(1), t.term(2)) == tau(s.term(1), s.term(2))
        assert big_delta(t.term(1), t.term(2), t.term(3)) == big_delta(
            s.term(1), s.term(2), s.term(3))

    def test_char2_gates(self):
        x = mat2(GF(2), [[1, 1], [0, 1]])
        y = mat2(GF(2), [[1, 0], [1, 1]])
        with pytest.raises(Char2Unsupported):
            sigma_from_tau(x, y)
        with pytest.raises(Char2Unsupported):
            big_delta_from_gram(x, y, y)

    def test_obstructed_triple_with_clean_pairs(self):
        s = seq(Q, TRIPLE)
        for j, k in ((1, 2), (1, 3), (2, 3)):
            assert sigma(s.term(j), s.term(k)) == Q(0)
        assert big_delta(s.term(1), s.term(2), s.term(3)) == Q(1)

    def test_sigma_of_commuting_pair_vanishes(self):
        x = mat2(Z, [[1, 2], [3, 4]])
        p = x * x + x.scale(Z(3))
        assert sigma(x, p) == Z(0)


class TestKernelWrappersCheckTheRing:
    """The entry-vector closed forms refuse operands over different rings,
    even when the matrices have the same entries."""

    @pytest.mark.parametrize("other", [GF(5), Z], ids=repr)
    @pytest.mark.parametrize("func, arity", [(commutes, 2), (sigma_explicit, 2),
                                             (big_delta_explicit, 3)],
                             ids=["commutes", "sigma_explicit", "big_delta_explicit"])
    def test_mixed_rings_raise(self, func, arity, other):
        x = mat2(Q, [[1, 2], [3, 4]])
        y = mat2(other, [[1, 2], [3, 4]])
        for pos in range(arity):
            args = [x] * arity
            args[pos] = y
            with pytest.raises(RingMismatch):
                func(*args)


class TestDrensky:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80)
    def test_u_equals_tau_and_s_squares_to_delta(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Z, Q, GF(5)])
        s = rand_seq(rng, ring, 4)
        j, k, l = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        assert drensky_u(s, j, k) == tau(s.term(j), s.term(k))
        skl = drensky_s(s, j, k, l)
        assert skl * skl == big_delta(s.term(j), s.term(k), s.term(l))

    @given(st.integers(0, 10_000))
    @settings(max_examples=80)
    def test_relations_vanish(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(5), Z])
        s = rand_seq(rng, ring, 4)
        idx = tuple(rng.randint(1, 4) for _ in range(6))
        assert drensky_relation_product(s, idx).is_zero()
        assert drensky_relation_linear(s, idx[:5]).is_zero()
        assert check_drensky_relations(s, idx)

    def test_index_arity_checked(self):
        s = seq(Z, [[[1, 0], [0, 1]]])
        with pytest.raises(BadIndex):
            check_drensky_relations(s, (1, 1, 1))


class TestAllTraceWords:
    def test_enumerates_every_word(self):
        s = seq(Z, [[[1, 1], [0, 1]], [[0, 1], [1, 0]]])
        words = all_trace_words(s, 3)
        assert len(words) == 2 + 4 + 8
        assert words[(1,)] == Z(2)
        assert words[(1, 2)] == trace_word(s, (1, 2))
        assert words[(2, 1, 2)] == trace_word(s, (2, 1, 2))

    def test_zero_bound_rejected(self):
        s = seq(Z, [[[1, 0], [0, 1]]])
        with pytest.raises(LengthTooShort):
            all_trace_words(s, 0)
