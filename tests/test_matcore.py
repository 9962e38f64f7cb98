"""2x2 matrices, group elements, sequences, conjugation, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matseq import (
    GF,
    GroupElement,
    Mat2,
    MatSeq,
    Q,
    QT,
    QSqrt,
    Scalar,
    Z,
    commutator,
    concat,
    conjugate,
    conjugate_mat,
    lift_seq,
    mat2,
    matseq_from_json,
    seq,
    subsequence,
)
from matseq.errors import BadIndex, ExactDivisionError, RingMismatch
from matseq.rings import RingDescriptor
from matseq.similarity import SimilarityWitness

from genseq import rand_group_element, rand_mat, rand_seq

import random


def mats(ring, lo=-6, hi=6):
    entry = st.integers(lo, hi).map(ring)
    return st.tuples(entry, entry, entry, entry).map(
        lambda t: Mat2(t[0], t[1], t[2], t[3]))


class TestMat2Arithmetic:
    def test_construction_and_entries(self):
        m = mat2(Q, [[1, 2], [3, 4]])
        assert (m.a, m.b, m.c, m.d) == (Q(1), Q(2), Q(3), Q(4))
        assert m.entries() == (Q(1), Q(2), Q(3), Q(4))

    def test_trace_det_disc(self):
        m = mat2(Z, [[1, 2], [3, 4]])
        assert m.trace() == Z(5)
        assert m.det() == Z(-2)
        # disc = (a - d)^2 + 4bc = trace^2 - 4 det
        assert m.disc() == Z(33)
        assert m.disc() == m.trace() ** 2 - 4 * m.det()

    def test_e_is_diagonal_gap(self):
        m = mat2(Z, [[7, 0], [0, 3]])
        assert m.e == Z(4)

    def test_adjugate_identity(self):
        m = mat2(Q, [[1, 2], [3, 4]])
        assert m * m.adjugate() == Mat2.identity(Q).scale(m.det())

    def test_shape_predicates(self):
        assert mat2(Z, [[1, 2], [0, 3]]).is_upper_triangular()
        assert not mat2(Z, [[1, 2], [1, 3]]).is_upper_triangular()
        assert mat2(Z, [[1, 0], [2, 3]]).is_lower_triangular()
        assert mat2(Z, [[5, 0], [0, 5]]).is_scalar()
        assert not mat2(Z, [[5, 0], [0, 4]]).is_scalar()
        assert mat2(Z, [[5, 0], [0, 4]]).is_diagonal()

    @given(st.sampled_from([Z, GF(5)]).flatmap(
        lambda r: st.tuples(mats(r), mats(r), mats(r))))
    @settings(max_examples=100)
    def test_matrix_ring_laws(self, data):
        x, y, z = data
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        one = Mat2.identity(x.ring)
        assert x * one == x and one * x == x

    @given(st.sampled_from([Z, Q, GF(7)]).flatmap(
        lambda r: st.tuples(mats(r), mats(r))))
    @settings(max_examples=100)
    def test_det_and_trace_laws(self, data):
        x, y = data
        assert (x * y).det() == x.det() * y.det()
        assert (x * y).trace() == (y * x).trace()
        assert (x + y).trace() == x.trace() + y.trace()

    def test_ring_mismatch_rejected(self):
        with pytest.raises(RingMismatch):
            mat2(Z, [[1, 0], [0, 1]]) + mat2(Q, [[1, 0], [0, 1]])


class TestCommutator:
    def test_example(self):
        a = mat2(Z, [[1, 1], [0, 1]])
        b = mat2(Z, [[1, 0], [1, 1]])
        assert commutator(a, b) == mat2(Z, [[1, 0], [0, -1]])

    @given(st.sampled_from([Z, GF(3)]).flatmap(
        lambda r: st.tuples(mats(r), mats(r))))
    @settings(max_examples=100)
    def test_traceless_and_antisymmetric(self, data):
        x, y = data
        c = commutator(x, y)
        assert c.trace() == x.ring.zero()
        assert c == -commutator(y, x)


class TestGroupElement:
    def test_requires_unit_determinant(self):
        GroupElement(mat2(Z, [[1, 1], [0, 1]]))  # det 1, fine
        with pytest.raises(ExactDivisionError):
            GroupElement(mat2(Z, [[2, 0], [0, 1]]))
        GroupElement(mat2(Q, [[2, 0], [0, 1]]))  # unit over a field

    def test_inverse(self):
        g = GroupElement(mat2(Q, [[1, 2], [3, 4]]))
        gi = g.inverse()
        assert g.m * gi.m == Mat2.identity(Q)
        assert (g * gi).m == Mat2.identity(Q)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_random_inverse_round_trip(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(5), Z])
        g = rand_group_element(rng, ring)
        assert g.m * g.inverse_matrix() == Mat2.identity(ring)


class TestConjugation:
    def test_conjugate_mat(self):
        g = GroupElement(mat2(Q, [[1, 1], [0, 1]]))
        a = mat2(Q, [[1, 0], [0, 2]])
        got = conjugate_mat(g, a)
        assert got == mat2(Q, [[1, 1], [0, 2]])
        assert got.trace() == a.trace()
        assert got.det() == a.det()

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_conjugation_is_group_action(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(7)])
        s = rand_seq(rng, ring, 3)
        g = rand_group_element(rng, ring)
        h = rand_group_element(rng, ring)
        left = conjugate(g, conjugate(h, s))
        right = conjugate(g * h, s)
        assert left.terms == right.terms
        # conjugating back recovers the input
        back = conjugate(g.inverse(), conjugate(g, s))
        assert back.terms == s.terms


# reference formulas: entrywise Scalar arithmetic, independent of the 2x2 kernels


def boxed_mul(x, y):
    return Mat2(x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
                x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d)


def boxed_det(x):
    return x.a * x.d - x.b * x.c


def boxed_conjugate(g, t):
    dinv = boxed_det(g).inverse()
    ginv = Mat2(g.d * dinv, -g.b * dinv, -g.c * dinv, g.a * dinv)
    return boxed_mul(boxed_mul(g, t), ginv)


KERNEL_RINGS = [Z, Q, GF(2), GF(5), QSqrt(2), QSqrt(-3), QT]
BIG = 2**64


def kernel_rational(rng):
    """Zero, small, or with a numerator or denominator over 64 bits."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Fraction(rng.randint(-BIG**2, BIG**2) if kind == 2 else rng.randint(-9, 9),
                    rng.randint(BIG, 2 * BIG) if kind == 3 else rng.randint(1, 9))


def kernel_raw(rng, ring):
    """A canonical raw value of ring, zero about one time in four."""
    if ring is Z:
        return rng.choice((0, rng.randint(-9, 9), rng.randint(-BIG**2, BIG**2)))
    if ring is Q:
        return kernel_rational(rng)
    if ring is QT:
        return ring.coerce([kernel_rational(rng) for _ in range(rng.randrange(4))])
    if ring.is_finite:
        return rng.randrange(ring.characteristic())
    return (kernel_rational(rng), kernel_rational(rng))


def kernel_unit(rng, ring):
    while True:
        u = kernel_raw(rng, ring)
        if ring.is_unit(u):
            return u
        if ring is Z:
            return rng.choice((1, -1))


def kernel_mat(rng, ring):
    return Mat2._of(ring, [kernel_raw(rng, ring) for _ in range(4)])


def kernel_group(rng, ring):
    """[[1, x], [0, 1]] [[1, 0], [y, 1]] diag(u, 1), built with boxed products."""
    one, zero = ring.one(), ring.zero()
    x, y, u = (Scalar(ring, kernel_raw(rng, ring)), Scalar(ring, kernel_raw(rng, ring)),
               Scalar(ring, kernel_unit(rng, ring)))
    m = boxed_mul(boxed_mul(Mat2(one, x, zero, one), Mat2(one, zero, y, one)),
                  Mat2(u, zero, zero, one))
    return GroupElement(m)


def assert_same(got, want):
    assert got == want
    assert hash(got) == hash(want)


class TestKernelsAgainstBoxed:
    """Mat2 arithmetic through ``ring.mat_mul`` equals the entrywise Scalar
    formulas, value and canonical raw form, on seeded inputs with zero
    entries, negative values and 64-bit-plus numerators and denominators."""

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=repr)
    def test_product_det_trace_conjugate(self, ring):
        rng = random.Random(f"kernels/{ring!r}")
        for _ in range(100):
            x, y = kernel_mat(rng, ring), kernel_mat(rng, ring)
            assert_same(x * y, boxed_mul(x, y))
            assert_same(x.det(), boxed_det(x))
            assert_same(x.trace(), x.a + x.d)
            # the base-class kernels, on the descriptor's own add, sub and mul
            assert RingDescriptor.mat_mul(ring, x.raw, y.raw) == (x * y).raw
            assert RingDescriptor.mat_det(ring, x.raw) == x.det().value
            assert_same(commutator(x, y), boxed_mul(x, y) - boxed_mul(y, x))
        for _ in range(25):
            g = kernel_group(rng, ring)
            s = MatSeq(kernel_mat(rng, ring) for _ in range(2))
            got = conjugate(g, s)
            for t, u in zip(s.terms, got.terms):
                assert_same(u, boxed_conjugate(g.m, t))
            assert SimilarityWitness(g.m).apply(s) == got

    def test_polynomial_sums_cancel_to_lower_degree(self):
        rng = random.Random("kernels/cancel")
        for _ in range(30):
            f, g, h1, h2 = (Scalar(QT, kernel_raw(rng, QT)) for _ in range(4))
            x = Mat2(f, g, g, f)
            y = Mat2(g + h1, g, h2 - f, -f)
            xy = x * y
            assert_same(xy, boxed_mul(x, y))
            # entry a is f*h1 + g*h2, of lower degree than f*g or the zero polynomial
            assert xy.a == f * h1 + g * h2
            assert xy.b == QT.zero()

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=repr)
    def test_mixed_rings_raise(self, ring):
        other = Q if ring is not Q else Z
        x, y = Mat2.identity(ring), Mat2.identity(other)
        for op in (lambda: x * y, lambda: y * x, lambda: x + y, lambda: x - y,
                   lambda: commutator(x, y), lambda: x.scale(other.one()),
                   lambda: conjugate(GroupElement(x), MatSeq([y])),
                   lambda: SimilarityWitness(x).apply(MatSeq([y]))):
            with pytest.raises(RingMismatch):
                op()


class TestMatSeq:
    def test_term_indexing_is_one_based(self):
        s = seq(Z, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
        assert s.n == 2
        assert s.term(1) == mat2(Z, [[1, 0], [0, 1]])
        assert s.term(2) == mat2(Z, [[0, 1], [1, 0]])
        with pytest.raises(BadIndex):
            s.term(0)
        with pytest.raises(BadIndex):
            s.term(3)

    def test_entry_vectors(self):
        s = seq(Z, [[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
        assert s.a == (Z(1), Z(5))
        assert s.b == (Z(2), Z(6))
        assert s.c == (Z(3), Z(7))
        assert s.d == (Z(4), Z(8))
        assert s.e == (Z(-3), Z(-3))

    def test_permuted(self):
        s = seq(Z, [[[1, 0], [0, 1]], [[2, 0], [0, 2]], [[3, 0], [0, 3]]])
        p = s.permuted((3, 1, 2))
        assert p.term(1) == s.term(3)
        assert p.term(2) == s.term(1)
        assert p.term(3) == s.term(2)
        with pytest.raises(BadIndex):
            s.permuted((1, 1, 2))

    def test_all_scalar(self):
        assert seq(Q, [[[2, 0], [0, 2]], [[0, 0], [0, 0]]]).all_scalar()
        assert not seq(Q, [[[2, 0], [0, 2]], [[1, 1], [0, 1]]]).all_scalar()

    def test_subsequence_and_concat(self):
        s = seq(Z, [[[1, 0], [0, 1]], [[2, 0], [0, 2]], [[3, 0], [0, 3]]])
        sub = subsequence(s, (1, 3))
        assert sub.n == 2 and sub.term(2) == s.term(3)
        joined = concat(sub, subsequence(s, (2,)))
        assert joined.n == 3 and joined.term(3) == s.term(2)

    def test_upper_triangular_predicate(self):
        assert seq(Z, [[[1, 2], [0, 1]], [[3, 0], [0, 3]]]).is_upper_triangular()
        assert not seq(Z, [[[1, 2], [0, 1]], [[3, 0], [1, 3]]]).is_upper_triangular()


class TestLiftAndJson:
    def test_lift_seq(self):
        s = seq(Z, [[[1, 2], [3, 4]]])
        lifted = lift_seq(s, Q)
        assert lifted.ring == Q
        assert lifted.term(1) == mat2(Q, [[1, 2], [3, 4]])

    def test_json_round_trip(self):
        s = seq(Q, [[[Fraction(1, 2), 0], [0, 1]], [[0, 1], [1, 0]]])
        doc = s.to_json()
        assert doc["ring"] == {"kind": "Q"}
        back = matseq_from_json(doc)
        assert back.ring == s.ring and back.terms == s.terms

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_random_json_round_trip(self, seed_value):
        rng = random.Random(seed_value)
        from genseq import RING_POOL
        ring = rng.choice(RING_POOL)
        s = rand_seq(rng, ring, rng.randint(1, 4))
        back = matseq_from_json(s.to_json())
        assert back.ring == s.ring and back.terms == s.terms

    def test_sort_key_total_order(self):
        xs = [mat2(Z, [[0, 1], [0, 0]]), mat2(Z, [[1, 0], [0, 0]]),
              mat2(Z, [[0, 0], [0, 0]])]
        ordered = sorted(xs, key=lambda m: m.sort_key())
        assert ordered[0] == mat2(Z, [[0, 0], [0, 0]])
