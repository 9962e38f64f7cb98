"""Similarity decision, stability/semisimplicity, and the Phi'/Psi' maps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matseq import (
    GF,
    Mat2,
    MatSeq,
    PhiVector,
    PsiValue,
    Q,
    QT,
    Z,
    are_similar,
    commutes,
    conjugate,
    in_phi_domain,
    in_psi_domain,
    is_semisimple,
    is_stable,
    lift_seq,
    mat2,
    phi_prime,
    psi_prime,
    seq,
    triple_reduction_check,
)
from matseq.errors import (
    Char2Unsupported,
    CommutativeInput,
    LengthMismatch,
    LengthTooShort,
    NotTriangularizable,
    RingMismatch,
    UnsupportedRing,
)
from matseq.similarity import _first_noncommuting_pair, _intertwiner_nullspace

from genseq import (
    eflip,
    rand_group_element,
    rand_mat,
    rand_scalar,
    rand_seq,
    rand_triangularizable_seq,
    rand_upper_seq,
)

OBSTRUCTED_TRIPLE = [[[1, 0], [0, 0]], [[1, 1], [0, 0]], [[0, 0], [1, 1]]]


class TestAreSimilar:
    def test_swapped_diagonal(self):
        s1 = seq(Q, [[[1, 0], [0, 0]]])
        s2 = seq(Q, [[[0, 0], [0, 1]]])
        w = are_similar(s1, s2)
        assert w is not None
        assert w.apply(s1).terms == s2.terms

    def test_different_trace_not_similar(self):
        s1 = seq(Q, [[[1, 0], [0, 0]]])
        s2 = seq(Q, [[[2, 0], [0, 0]]])
        assert are_similar(s1, s2) is None

    def test_scalar_sequences_compare_by_equality(self):
        s1 = seq(Q, [[[2, 0], [0, 2]], [[0, 0], [0, 0]]])
        s2 = seq(Q, [[[2, 0], [0, 2]], [[0, 0], [0, 0]]])
        s3 = seq(Q, [[[0, 0], [0, 0]], [[2, 0], [0, 2]]])
        assert are_similar(s1, s2) is not None
        assert are_similar(s1, s3) is None

    def test_shape_errors(self):
        s1 = seq(Q, [[[1, 0], [0, 0]]])
        with pytest.raises(LengthMismatch):
            are_similar(s1, seq(Q, [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]))
        with pytest.raises(RingMismatch):
            are_similar(s1, seq(Z, [[[1, 0], [0, 0]]]))

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_conjugates_are_similar(self, seed_value):
        rng = random.Random(seed_value)
        from genseq import RING_POOL
        ring = rng.choice(RING_POOL)
        s = rand_seq(rng, ring, rng.randint(1, 4))
        g = rand_group_element(rng, ring)
        t = conjugate(g, s)
        w = are_similar(s, t)
        assert w is not None
        assert w.apply(s).terms == t.terms

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_witness_is_exact(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(3), GF(5), Z])
        s1 = rand_seq(rng, ring, rng.randint(1, 3))
        s2 = rand_seq(rng, ring, s1.n)
        w = are_similar(s1, s2)
        if w is not None:
            assert w.apply(s1).terms == s2.terms

    def test_integer_similarity_uses_fraction_field_semantics(self):
        # [[0,2],[2,0]] and [[0,1],[4,0]] are conjugate over Q but every
        # integer intertwiner has determinant 2(p^2 - q^2), never a unit.
        s1 = seq(Z, [[[0, 2], [2, 0]]])
        s2 = seq(Z, [[[0, 1], [4, 0]]])
        w = are_similar(s1, s2)
        assert w is not None
        assert not w.det_is_unit()
        assert w.apply(s1).terms == s2.terms
        # the same decision over Q yields an honest group element
        wq = are_similar(lift_seq(s1, Q), lift_seq(s2, Q))
        assert wq is not None and wq.det_is_unit()
        assert wq.group_element() is not None

    def test_rigidity_of_non_commuting_pairs(self):
        rng = random.Random(11)
        for _ in range(50):
            ring = rng.choice([Q, GF(5), GF(7)])
            while True:
                a, b = rand_mat(rng, ring), rand_mat(rng, ring)
                if (a * b - b * a) != Mat2.zero(ring):
                    break
            basis = _intertwiner_nullspace([(a, a), (b, b)], ring)
            assert len(basis) == 1  # only scalars fix both


def _quadratic_first_noncommuting_pair(s):
    """Reference: the first pair found by testing every pair in order."""
    for j in range(s.n):
        for k in range(j + 1, s.n):
            if not commutes(s[j], s[k]):
                return (j, k)
    return None


def _scalar_and_commuting_runs(rng, ring, n):
    """Scalar terms, then polynomials y A + x I in one random A, with a
    random term mixed in now and then."""
    a = rand_mat(rng, ring)
    terms = []
    for i in range(n):
        r = rng.random()
        x, y = rand_scalar(rng, ring), rand_scalar(rng, ring)
        if i < rng.randint(0, 3) or r < 0.2:
            terms.append(Mat2.identity(ring).scale(x))
        elif r < 0.85:
            terms.append(a.scale(y) + Mat2.identity(ring).scale(x))
        else:
            terms.append(rand_mat(rng, ring))
    return MatSeq(terms)


class TestFirstNoncommutingPair:
    @pytest.mark.parametrize("ring", [Q, Z, GF(3)], ids=["Q", "Z", "GF3"])
    def test_matches_quadratic_scan(self, ring):
        rng = random.Random(51)
        for _ in range(400):
            s = _scalar_and_commuting_runs(rng, ring, rng.randint(1, 9))
            assert _first_noncommuting_pair(s) == _quadratic_first_noncommuting_pair(s)

    def test_linear_number_of_commutation_tests(self, count_calls):
        a = mat2(Q, [[1, 2], [3, 4]])
        n = 40
        s = MatSeq([Mat2.identity(Q).scale(Q(3))]
                   + [a.scale(Q(k)) + Mat2.identity(Q).scale(Q(k * k)) for k in range(1, n)])
        calls = count_calls(commutes)
        assert are_similar(s, s) is not None
        assert 0 < len(calls) <= n


class TestTripleReduction:
    def test_identical(self):
        s = seq(Q, [[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
        assert triple_reduction_check(s, s)

    def test_trace_mismatch(self):
        s1 = seq(Q, [[[1, 0], [0, 0]], [[1, 2], [3, 4]]])
        s2 = seq(Q, [[[2, 0], [0, 0]], [[1, 2], [3, 4]]])
        assert not triple_reduction_check(s1, s2)

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_full_similarity(self, seed_value):
        rng = random.Random(seed_value)
        s1 = rand_seq(rng, GF(3), 5)
        if rng.random() < 0.5:
            g = rand_group_element(rng, GF(3))
            s2 = conjugate(g, s1)
        else:
            s2 = rand_seq(rng, GF(3), 5)
        assert (are_similar(s1, s2) is not None) == triple_reduction_check(s1, s2)


class TestStableSemisimple:
    def test_examples(self):
        assert is_stable(seq(Q, [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]))
        assert not is_stable(seq(Q, [[[1, 2], [0, 3]], [[4, 5], [0, 6]]]))
        assert is_stable(seq(Q, OBSTRUCTED_TRIPLE))

    def test_stability_sees_through_irrational_eigenvalues(self):
        # single matrix with non-square discriminant: triangularizable over
        # a quadratic extension, hence not stable.
        assert not is_stable(seq(Q, [[[0, 2], [1, 0]]]))

    def test_semisimple_examples(self):
        assert is_semisimple(seq(Q, [[[3, 0], [0, 3]]]))
        assert is_semisimple(seq(Q, [[[1, 0], [0, 2]], [[3, 0], [0, 4]]]))
        assert not is_semisimple(seq(Q, [[[0, 1], [0, 0]]]))

    def test_ring_gate(self):
        with pytest.raises(UnsupportedRing):
            is_stable(seq(Z, [[[1, 0], [0, 0]]]))
        with pytest.raises(UnsupportedRing):
            is_semisimple(seq(QT, [[[0, 1], [0, 0]]]))

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_conjugation_invariant_verdicts(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(3), GF(5)])
        s = rand_seq(rng, ring, rng.randint(1, 3))
        g = rand_group_element(rng, ring)
        t = conjugate(g, s)
        assert is_stable(s) == is_stable(t)
        assert is_semisimple(s) == is_semisimple(t)


class TestPhiPrime:
    def test_worked_pair(self):
        s = seq(Q, [[[2, 0], [0, 0]], [[1, 1], [3, 0]]])
        v = phi_prime(s)
        assert v.values == (Q(2), Q(4), Q(1), Q(7), Q(2))
        assert v.n == 2

    def test_length_formula(self):
        rng = random.Random(2)
        for n in (2, 3, 5):
            s = rand_seq(rng, Q, n)
            assert len(phi_prime(s).values) == 4 * n - 3

    def test_gates(self):
        with pytest.raises(LengthTooShort):
            phi_prime(seq(Q, [[[1, 0], [0, 0]]]))
        with pytest.raises(Char2Unsupported):
            phi_prime(seq(GF(2), [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]))

    @given(st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_conjugation_invariance(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(3), GF(5)])
        s = rand_seq(rng, ring, rng.randint(2, 4))
        g = rand_group_element(rng, ring)
        assert phi_prime(conjugate(g, s)) == phi_prime(s)

    def test_json_round_trip(self):
        s = seq(Q, [[[2, 0], [0, 0]], [[1, 1], [3, 0]]])
        v = phi_prime(s)
        assert PhiVector.from_json(v.to_json()) == v

    def test_domain_flag(self):
        assert in_phi_domain(seq(Q, [[[1, 0], [0, 0]], [[1, 1], [6, 0]]]))
        # commuting pair is outside the guaranteed-injectivity domain
        assert not in_phi_domain(seq(Q, [[[1, 0], [0, 2]], [[3, 0], [0, 4]]]))


class TestPsiPrime:
    def test_worked_triple(self):
        s = seq(Q, [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 2], [0, 1]]])
        v = psi_prime(s)
        assert v.proj == (Q(1), Q(2))
        assert v.traces == (Q(1), Q(1), Q(0), Q(0), Q(1), Q(0))

    def test_gates(self):
        with pytest.raises(NotTriangularizable):
            psi_prime(seq(Q, [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]))
        with pytest.raises(CommutativeInput):
            psi_prime(seq(Q, [[[1, 0], [0, 2]], [[3, 0], [0, 4]]]))
        with pytest.raises(Char2Unsupported):
            psi_prime(seq(GF(2), [[[1, 1], [0, 0]], [[0, 1], [0, 1]]]))

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_conjugation_invariance(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(5), GF(7)])
        s = rand_triangularizable_seq(rng, ring, rng.randint(2, 4))
        from matseq import is_commutative
        if is_commutative(s):
            return
        g = rand_group_element(rng, ring)
        assert psi_prime(conjugate(g, s)) == psi_prime(s)

    def test_eflip_shares_value_but_not_class(self):
        rng = random.Random(9)
        hits = 0
        for _ in range(40):
            s = rand_upper_seq(rng, Q, 3)
            from matseq import is_commutative
            if is_commutative(s):
                continue
            f = eflip(s)
            assert psi_prime(f) == psi_prime(s)
            if not in_psi_domain(s):
                continue
            hits += 1
            assert are_similar(s, f) is None
        assert hits > 5

    def test_json_round_trip(self):
        s = seq(Q, [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 2], [0, 1]]])
        v = psi_prime(s)
        assert PsiValue.from_json(v.to_json()) == v
