"""Similarity decision, stability/semisimplicity, and the Phi'/Psi' maps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matseq import (
    GF,
    GroupElement,
    Mat2,
    MatSeq,
    PhiVector,
    PsiValue,
    Q,
    QSqrt,
    QT,
    Scalar,
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
    maximal_reduction,
    phi_prime,
    primitive_vector,
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
from matseq.invariants import _greedy_pair, _minors, _vector, drensky_s, trace_word
from matseq.similarity import (
    _anchor_intertwiner,
    _pair_intertwiner,
)

from genseq import (
    eflip,
    rand_group_element,
    rand_mat,
    rand_scalar,
    rand_seq,
    rand_triangularizable_seq,
    rand_upper_seq,
    rand_wide_fraction,
)

OBSTRUCTED_TRIPLE = [[[1, 0], [0, 0]], [[1, 1], [0, 0]], [[0, 0], [1, 1]]]


def _first_noncommuting_pair(s):
    """The pair (a, b) of the greedy-pair helper: the first non-scalar term
    and the first later term that does not commute with it, or None."""
    a, b, _ = _greedy_pair(s.ring, [_vector(s.ring, t.raw) for t in s.terms])
    return None if b is None else (a, b)


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
        # only scalars fix a non-commuting pair, and the primitive one is I
        rng = random.Random(11)
        for _ in range(50):
            ring = rng.choice([Q, GF(5), GF(7), Z, QT])
            while True:
                a, b = rand_mat(rng, ring), rand_mat(rng, ring)
                if (a * b - b * a) != Mat2.zero(ring):
                    break
            identity = Mat2.identity(ring)
            assert _pair_intertwiner(a, b, a, b) == Mat2(*primitive_vector(identity.entries()))

    @pytest.mark.parametrize("which", ["trace", "det"])
    def test_screen_decides_before_any_intertwiner(self, which, count_calls):
        s1 = seq(Q, [[[1, 2], [3, 4]], [[0, 1], [1, 0]], [[2, 0], [0, 5]], [[1, 1], [0, 3]]])
        last = [[1, 1], [0, 4]] if which == "trace" else [[2, 1], [0, 2]]
        s2 = MatSeq(list(s1.terms[:-1]) + [mat2(Q, last)])
        assert (s1[-1].trace() == s2[-1].trace()) == (which == "det")
        calls = count_calls(_anchor_intertwiner)
        assert are_similar(s1, s2) is None
        assert are_similar(s2, s1) is None
        assert calls == []


NINE_RINGS = (Z, Q, GF(2), GF(3), GF(5), GF(7), QSqrt(2), QSqrt(-3), QT)


def _cases_per_ring(ring):
    # the reference elimination takes polynomial gcds over Q[t]: ~50 ms a case
    return 15 if ring == QT else 40


def _nullspace4(rows, ring):
    """Reference: basis of the nullspace of a matrix with 4 columns of raw
    values, fraction-free, each row and basis vector kept primitive."""
    is_zero, mul, sub, primitive = ring.is_zero, ring.mul, ring.sub, ring.primitive
    m = [primitive(r) for r in rows if not all(map(is_zero, r))]
    pivots = []
    r = 0
    for col in range(4):
        piv = next((i for i in range(r, len(m)) if not is_zero(m[i][col])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and not is_zero(m[i][col]):
                f1, f2 = m[r][col], m[i][col]
                m[i] = primitive([sub(mul(f1, m[i][j]), mul(f2, m[r][j])) for j in range(4)])
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    basis = []
    prod = ring.raw_one()
    for i, col in enumerate(pivots):
        prod = mul(prod, m[i][col])
    for f in range(4):
        if f in pivots:
            continue
        vec = [ring.raw_zero()] * 4
        vec[f] = prod
        for i, col in enumerate(pivots):
            vec[col] = ring.neg(mul(m[i][f], ring.div(prod, m[i][col])))
        basis.append(primitive(vec))
    return basis


def _invertible_in_span(basis):
    """Reference: an invertible element of the span, or None.  det is a
    quadratic form on the span, known from its values on the basis vectors
    and their pairwise sums."""
    for m in basis:
        if not m.det().is_zero():
            return m
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            m = basis[i] + basis[j]
            if not m.det().is_zero():
                return m
    return None


def _old_intertwiner(pairs):
    """Reference: the 4k x 4 system g a = b g over the k pairs (a, b)
    solved by fraction-free elimination, then an invertible element of its
    span."""
    ring = pairs[0][0].ring
    z = ring.zero()
    rows = []
    for a, b in pairs:
        for row in ([a.a - b.a, a.c, -b.b, z],
                    [a.b, a.d - b.a, z, -b.b],
                    [-b.c, z, a.a - b.d, a.c],
                    [z, -b.c, a.b, a.d - b.d]):
            rows.append([x.value for x in row])
    basis = [Mat2(*(Scalar(ring, x) for x in v)) for v in _nullspace4(rows, ring)]
    return _invertible_in_span(basis)


def _old_are_similar(s1, s2):
    """Reference, without the screen: the elimination for the first
    non-commuting pair, or for the first kept term of a commutative s1,
    then the check of every term."""
    pair = _first_noncommuting_pair(s1)
    if pair is None:
        kept = maximal_reduction(s1).kept_indices
        if not kept:
            return Mat2.identity(s1.ring) if s1 == s2 else None
        m = _old_intertwiner([(s1.term(kept[0]), s2.term(kept[0]))])
    else:
        j, k = pair
        m = _old_intertwiner([(s1[j], s2[j]), (s1[k], s2[k])])
    if m is None:
        return None
    det, adj = m.det(), m.adjugate()
    if any((m * a) * adj != b.scale(det) for a, b in zip(s1.terms, s2.terms)):
        return None
    return m


def _conj(g, m):
    return conjugate(g, MatSeq([m])).terms[0]


def _anchor_cases(rng, ring, count):
    """(a1, a2, b1, b2) with a1 not scalar, a2 not commuting with a1 and b1
    a conjugate of a1: b2 is the matching conjugate of a2, a conjugate by
    another g, or a perturbed conjugate."""
    z, one = ring.zero(), ring.one()
    made = 0
    while made < count:
        a1, a2 = rand_mat(rng, ring), rand_mat(rng, ring)
        shape = rng.random()
        if shape < 0.2:
            a1 = Mat2(a1.a, z, z, a1.d)
        elif shape < 0.4:
            a1 = Mat2(a1.a, a1.b, z, a1.d)
        if a1.is_scalar() or commutes(a1, a2):
            continue
        g = rand_group_element(rng, ring, steps=2)
        b1, b2 = _conj(g, a1), _conj(g, a2)
        kind = rng.randrange(3)
        if kind == 1:
            b2 = _conj(rand_group_element(rng, ring, steps=2), b2)
        elif kind == 2:
            b2 = b2 + Mat2(z, one, z, z)
        made += 1
        yield a1, a2, b1, b2


class TestPairIntertwiner:
    """The closed-form intertwiners against the elimination they replaced."""

    @pytest.mark.parametrize("ring", NINE_RINGS, ids=repr)
    def test_matches_elimination(self, ring):
        rng = random.Random(f"pair-{ring!r}")
        found = 0
        for a1, a2, b1, b2 in _anchor_cases(rng, ring, _cases_per_ring(ring)):
            want = _old_intertwiner([(a1, b1), (a2, b2)])
            got = _pair_intertwiner(a1, a2, b1, b2)
            if want is not None:
                found += 1
                assert got == want
            else:
                # no invertible intertwiner: None, or a g the term check rejects
                assert got is None or got * a2 != b2 * got
        assert found >= _cases_per_ring(ring) // 4

    @pytest.mark.parametrize("ring", NINE_RINGS, ids=repr)
    def test_are_similar_matches_reference(self, ring):
        rng = random.Random(f"seq-{ring!r}")
        done = 0
        while done < _cases_per_ring(ring):
            s1 = rand_seq(rng, ring, rng.randint(2, 3))
            if _first_noncommuting_pair(s1) is None:
                continue
            s2 = conjugate(rand_group_element(rng, ring, steps=2), s1)
            if rng.random() < 0.5:
                terms = list(s2.terms)
                k = rng.randrange(s1.n)
                terms[k] = _conj(rand_group_element(rng, ring, steps=2), terms[k])
                s2 = MatSeq(terms)
            w = are_similar(s1, s2)
            assert (None if w is None else w.m) == _old_are_similar(s1, s2)
            done += 1

    @pytest.mark.parametrize("ring", NINE_RINGS, ids=repr)
    def test_commutative_verdicts_match_elimination(self, ring):
        # a commutative s1 (polynomials y A + x I in one A, some of them
        # scalar) against a conjugate, the same polynomials in
        # [[tr A, -det A], [1, 0]], or a conjugate with one non-scalar term
        # conjugated again; the witness is g0's primitive point, the old
        # one another element of the same plane, so only verdicts compare
        rng = random.Random(f"comm-{ring!r}")
        z, one = ring.zero(), ring.one()
        found = missed = 0
        for _ in range(_cases_per_ring(ring)):
            a = rand_mat(rng, ring)
            if a.is_scalar():
                continue
            ys = [rand_scalar(rng, ring) for _ in range(rng.randint(2, 4))]
            ys = [y if not y.is_zero() and rng.random() < 0.8 else z for y in ys]
            ys[0] = one
            s1 = MatSeq([a.scale(y) + Mat2.identity(ring).scale(rand_scalar(rng, ring))
                         for y in ys])
            kind = rng.randrange(3)
            if kind == 1:
                b = Mat2(a.trace(), -a.det(), one, z)
                s2 = MatSeq([b.scale(y) + (t - a.scale(y)) for y, t in zip(ys, s1.terms)])
            else:
                s2 = conjugate(rand_group_element(rng, ring, steps=2), s1)
                if kind == 2:
                    terms = list(s2.terms)
                    k = rng.choice([i for i, y in enumerate(ys) if not y.is_zero()])
                    terms[k] = _conj(rand_group_element(rng, ring, steps=2), terms[k])
                    s2 = MatSeq(terms)
            w = are_similar(s1, s2)
            assert (w is None) == (_old_are_similar(s1, s2) is None)
            if w is not None:
                found += 1
                assert w.apply(s1).terms == s2.terms
                assert w.m == Mat2(*primitive_vector(w.m.entries()))
            else:
                missed += 1
        assert found and missed

    @pytest.mark.parametrize("ring", NINE_RINGS, ids=repr)
    def test_commutative_scalar_partner(self, ring):
        # [[1, 1], [0, 1]] and I share trace and determinant, but I is only
        # conjugate to itself
        one, z = ring.one(), ring.zero()
        a1, b1 = Mat2(one, one, z, one), Mat2.identity(ring)
        assert _anchor_intertwiner(a1, b1) is None
        assert are_similar(MatSeq([a1, b1]), MatSeq([b1, b1])) is None
        assert are_similar(MatSeq([b1, a1]), MatSeq([b1, a1])).m == Mat2.identity(ring)

    @pytest.mark.parametrize("ring", NINE_RINGS, ids=repr)
    def test_named_anchor_shapes(self, ring):
        one, z = ring.one(), ring.zero()
        two = ring.scalar_from_int(2)
        diagonal = Mat2(one, z, z, z)                 # b = c = 0
        upper = Mat2(one, two, z, z)                  # c = 0, b != 0
        other = Mat2(z, one, one, one)
        g = GroupElement(Mat2(one, one, z, one))
        for a1 in (diagonal, upper):
            s1 = MatSeq([a1, other])
            assert not commutes(a1, other)
            s2 = conjugate(g, s1)
            w = are_similar(s1, s2)
            assert w is not None and w.apply(s1).terms == s2.terms
            assert w.m == _old_are_similar(s1, s2)

    @pytest.mark.parametrize("ring", NINE_RINGS, ids=repr)
    def test_scalar_partner_of_non_scalar_anchor(self, ring):
        # [[1, 1], [0, 1]] and I share trace and determinant, but I is only
        # conjugate to itself.  For the second (a2, b2) every entry of
        # g a2 - b2 g vanishes on the singular g0 a scalar b1 would give,
        # so the closed form must stop before it.
        one, z = ring.one(), ring.zero()
        a1, b1 = Mat2(one, one, z, one), Mat2.identity(ring)
        for a2, b2 in ((Mat2(z, z, one, z), Mat2(z, z, one, z)),
                       (Mat2(z, z, z, one), Mat2(one, z, one, z))):
            assert not commutes(a1, a2)
            assert a1.trace() == b1.trace() and a1.det() == b1.det()
            assert a2.trace() == b2.trace() and a2.det() == b2.det()
            assert _pair_intertwiner(a1, a2, b1, b2) is None
            assert _old_intertwiner([(a1, b1), (a2, b2)]) is None
            assert are_similar(MatSeq([a1, a2]), MatSeq([b1, b2])) is None

    def test_eflip_partners(self):
        # same traces (a <-> d keeps every trace word of length <= 2) but
        # not similar once the pair is in psi's domain
        rng = random.Random(12)
        hits = 0
        for ring in NINE_RINGS:
            for _ in range(12):
                s = rand_upper_seq(rng, ring, 3)
                if _first_noncommuting_pair(s) is None:
                    continue
                f = eflip(s)
                w = are_similar(s, f)
                assert (None if w is None else w.m) == _old_are_similar(s, f)
                hits += w is None
        assert hits > 30

    def test_integer_witness_with_determinant_two(self):
        # conjugation by diag(1, 2) over Q maps these integer pairs to
        # integer pairs; the intertwiners are the multiples of diag(1, 2)
        s1 = seq(Z, [[[1, 2], [1, 0]], [[0, 2], [3, 1]]])
        s2 = seq(Z, [[[1, 1], [2, 0]], [[0, 1], [6, 1]]])
        w = are_similar(s1, s2)
        assert w is not None and w.m == mat2(Z, [[1, 0], [0, 2]])
        assert not w.det_is_unit() and w.m.det() == Z(2)
        assert w.apply(s1).terms == s2.terms
        assert w.m == _old_are_similar(s1, s2)


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
        calls = count_calls(_minors)
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


def _reference_phi(s):
    """phi_prime by its defining formula: trace words and drensky_s."""
    t = lambda *J: trace_word(s, J)
    vals = [t(1), t(1, 1), t(2), t(2, 2), t(1, 2)]
    for k in range(3, s.n + 1):
        vals.extend([t(k), t(1, k), t(2, k), drensky_s(s, 1, 2, k)])
    return PhiVector(s.ring, s.n, tuple(vals))


class TestPhiPrime:
    @pytest.mark.parametrize("ring", [Z, Q, GF(3), GF(5), QSqrt(2), QT], ids=repr)
    def test_matches_the_trace_word_formula(self, ring):
        rng = random.Random(f"phi-formula/{ring!r}")
        for n in range(2, 7):
            for _ in range(4):
                if ring is Q:
                    s = MatSeq(Mat2(*(Q(rand_wide_fraction(rng)) for _ in range(4)))
                               for _ in range(n))
                else:
                    s = rand_seq(rng, ring, n)
                got, want = phi_prime(s), _reference_phi(s)
                assert got == want
                assert got.to_json() == want.to_json()
                assert [type(v.value) for v in got.values] == [type(v.value) for v in want.values]

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

    def test_sigma_zero_pair_is_outside_the_domain(self):
        # stable, semisimple and disc(A1) != 0, with one phi vector, but
        # sigma(A1, A2) = 0 and det A3 is 0 in one and -1 in the other
        s1 = seq(Q, [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 1], [0, 0]]])
        s2 = seq(Q, [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 1], [1, 0]]])
        assert is_stable(s1) and is_stable(s2)
        assert phi_prime(s1) == phi_prime(s2)
        assert are_similar(s1, s2) is None
        assert not in_phi_domain(s1) and not in_phi_domain(s2)

    def test_phi_separates_on_a_gf3_sample(self):
        # in the domain the stabilizer of (A1, A2) is the scalars, so among
        # the (A1, A2, X) only X = A3 shares phi with s; conjugates share it
        # and are similar (scripts/phi_domain_gf3.py checks every triple)
        ring = GF(3)
        mats = [Mat2(*(ring(v) for v in (a, b, c, d)))
                for a in range(3) for b in range(3) for c in range(3) for d in range(3)]
        rng = random.Random(20261020)
        tested = 0
        while tested < 12:
            s = MatSeq(rng.choice(mats) for _ in range(3))
            if not in_phi_domain(s):
                continue
            v = phi_prime(s)
            assert [x for x in mats if phi_prime(MatSeq([s[0], s[1], x])) == v] == [s[2]], s
            t = conjugate(rand_group_element(rng, ring), s)
            assert in_phi_domain(t) and phi_prime(t) == v and are_similar(s, t) is not None
            tested += 1


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

    @pytest.mark.parametrize("ring", [Z, QT], ids=repr)
    def test_refuses_rings_that_are_not_fields(self, ring):
        # the projective point divides by the leading delta, 10 here; a
        # unit lead is refused too, and so is a one-term sequence
        for mats in ([[[1, 2], [0, 3]], [[2, 4], [0, 1]]],
                     [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 2], [0, 1]]],
                     [[[1, 2], [0, 3]]]):
            s = seq(ring, mats)
            with pytest.raises(UnsupportedRing):
                psi_prime(s)
            assert not in_psi_domain(s)


def _widening(rng, s):
    """A map u -> (y_i u_i + x_i I) with wide rationals x_i and y_i != 0:
    it keeps similarity between two sequences of the length of s, and gives
    each term its own denominators."""
    one = Mat2.identity(s.ring)
    xy = [(Q(rand_wide_fraction(rng)), Q(rand_wide_fraction(rng))) for _ in s.terms]
    return lambda u: MatSeq(t.scale(y) + one.scale(x) for t, (x, y) in zip(u.terms, xy))


class TestClearedSimilarity:
    """Over Q, are_similar decides over Z on the cleared terms and maps the
    primitive witness back; _similar is the uncleared path on the Q terms."""

    def _cases(self, rng):
        z, one = Q.zero(), Q.one()
        for i in range(160):
            kind = i % 5
            if kind == 0:                      # conjugates, some perturbed
                s1 = rand_seq(rng, Q, rng.randint(2, 4))
                s2 = conjugate(rand_group_element(rng, Q, steps=2), s1)
                if rng.random() < 0.5:
                    terms = list(s2.terms)
                    k = rng.randrange(s1.n)
                    terms[k] = _conj(rand_group_element(rng, Q, steps=2), terms[k])
                    s2 = MatSeq(terms)
            elif kind == 1:                    # eflip partners
                s1 = rand_upper_seq(rng, Q, rng.randint(2, 4))
                s2 = eflip(s1)
            elif kind == 2:                    # commutative: polynomials in one A
                a = rand_mat(rng, Q)
                s1 = MatSeq(a.scale(rand_scalar(rng, Q))
                            + Mat2.identity(Q).scale(rand_scalar(rng, Q))
                            for _ in range(rng.randint(1, 4)))
                s2 = conjugate(rand_group_element(rng, Q, steps=2), s1)
                if rng.random() < 0.5:
                    s2 = MatSeq(list(s2.terms[:-1]) + [s2.terms[-1] + Mat2(z, one, z, z)])
            elif kind == 3:                    # scalar sequences, equal or not
                s1 = MatSeq(Mat2.identity(Q).scale(rand_scalar(rng, Q)) for _ in range(3))
                s2 = s1 if rng.random() < 0.5 else MatSeq(
                    Mat2.identity(Q).scale(rand_scalar(rng, Q)) for _ in range(3))
            else:                              # conjugates by a wide g
                s1 = rand_seq(rng, Q, rng.randint(2, 4))
                while True:
                    g = Mat2(*(Q(rand_wide_fraction(rng)) for _ in range(4)))
                    if not g.det().is_zero():
                        break
                s2 = conjugate(GroupElement(g), s1)
            widen = _widening(rng, s1)
            yield widen(s1), widen(s2)

    def test_matches_uncleared_path(self):
        from matseq.similarity import _similar
        rng = random.Random(20261021)
        found = missed = 0
        for s1, s2 in self._cases(rng):
            w, ref = are_similar(s1, s2), _similar(s1, s2)
            assert (None if w is None else w.m) == (None if ref is None else ref.m), (s1, s2)
            if w is None:
                missed += 1
            else:
                found += 1
                assert w.m.ring == Q
                assert w.apply(s1).terms == s2.terms
        assert found >= 40 and missed >= 40, (found, missed)
