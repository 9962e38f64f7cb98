"""Reduction, eigen helpers, and the triangularizability deciders."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matseq import (
    GF,
    Mat2,
    MatSeq,
    Profile,
    Q,
    QSqrt,
    QT,
    Z,
    big_delta,
    commutes,
    complete_unimodular,
    conjugate,
    eigenvalues_in_ring,
    eigenvector_for,
    first_obstruction,
    is_commutative,
    is_eigenvector,
    is_triangularizable,
    is_triangularizable_fast,
    lift_seq,
    mat2,
    maximal_reduction,
    pair_triangularizable,
    seq,
    sigma,
    sigma_explicit,
    singlet_triangularizable,
    triangularize,
)
from matseq.errors import UnsupportedRing
from matseq.rings import RationalRing

from genseq import (
    rand_group_element,
    rand_mat,
    rand_reduced_seq,
    rand_scalar,
    rand_seq,
    rand_triangularizable_seq,
    rand_upper_seq,
    rand_wide_fraction,
)

# All pair obstructions vanish but the triple obstruction does not.
OBSTRUCTED_TRIPLE = [[[1, 0], [0, 0]], [[1, 1], [0, 0]], [[0, 0], [1, 1]]]


class TestCommutation:
    def test_polynomial_in_a_term_commutes(self):
        a = mat2(Q, [[1, 2], [3, 4]])
        p = a.scale(Q(2)) + Mat2.identity(Q).scale(Q(5))
        assert commutes(a, p)
        assert is_commutative(seq(Q, [[[1, 2], [3, 4]]]))  # singleton

    def test_non_commuting_pair(self):
        s = seq(Q, [[[1, 0], [0, 0]], [[0, 1], [1, 0]]])
        assert not is_commutative(s)


class TestMaximalReduction:
    def test_duplicate_term_dropped(self):
        a = [[1, 0], [0, 0]]
        b = [[0, 1], [1, 0]]
        info = maximal_reduction(seq(Q, [a, a, b]))
        assert info.kept_indices == (1, 3)

    def test_pairwise_non_commuting_all_kept(self):
        s = seq(Q, [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        info = maximal_reduction(s)
        assert info.kept_indices == (1, 2, 3)

    def test_commutative_reduces_to_one(self):
        a = mat2(Q, [[1, 2], [0, 3]])
        s = seq(Q, [[[1, 2], [0, 3]], [[2, 4], [0, 6]], [[5, 0], [0, 5]]])
        info = maximal_reduction(s)
        assert len(info.kept_indices) == 1

    def test_all_scalar_flagged(self):
        info = maximal_reduction(seq(Q, [[[2, 0], [0, 2]], [[0, 0], [0, 0]]]))
        assert info.all_scalar
        assert info.kept_indices == ()

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_kept_terms_pairwise_non_commuting(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(3), GF(5)])
        s = rand_seq(rng, ring, rng.randint(2, 5))
        if s.all_scalar():
            return
        info = maximal_reduction(s)
        kept = [s.term(j) for j in info.kept_indices]
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert not commutes(kept[i], kept[j])
            assert not kept[i].is_scalar()


class TestEigenHelpers:
    def test_eigenvalues_canonical_order(self):
        assert eigenvalues_in_ring(mat2(Q, [[0, 2], [1, 1]])) == (Q(2), Q(-1))
        assert eigenvalues_in_ring(mat2(Q, [[0, 2], [1, 0]])) is None

    def test_integer_parity_rule(self):
        # disc = 5^2 but trace 1 and root 5 have matching parity... take one
        # where they differ: trace 1, disc 4 -> eigenvalues (1 +- 2)/2 not in Z.
        assert eigenvalues_in_ring(mat2(Z, [[1, 1], [1, 0]])) is None
        assert eigenvalues_in_ring(mat2(Z, [[0, 2], [1, 1]])) == (Z(2), Z(-1))

    def test_char2_direct_search(self):
        m = mat2(GF(2), [[0, 1], [1, 1]])  # x^2 + x + 1 irreducible over GF(2)
        assert eigenvalues_in_ring(m) is None
        j = mat2(GF(2), [[1, 1], [0, 1]])
        assert eigenvalues_in_ring(j) == (GF(2)(1), GF(2)(1))

    def test_eigenvector_and_completion(self):
        m = mat2(Z, [[0, 2], [1, 1]])
        v = eigenvector_for(m, Z(2))
        assert v is not None and is_eigenvector(m, v)
        g = complete_unimodular((Z(1), Z(1)))
        assert g.m.det() == Z(1)
        assert (g.m.a, g.m.c) == (Z(1), Z(1))

    @given(st.integers(0, 10_000))
    @settings(max_examples=80)
    def test_eigenvalues_satisfy_char_poly(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Z, Q, GF(3), GF(7)])
        m = rand_mat(rng, ring)
        got = eigenvalues_in_ring(m)
        if got is None:
            return
        l1, l2 = got
        assert l1 + l2 == m.trace()
        assert l1 * l2 == m.det()


class TestSinglet:
    def test_integer_witness(self):
        m = mat2(Z, [[0, 2], [1, 1]])
        w = singlet_triangularizable(m)
        assert w is not None
        assert w.triangular.term(1).is_upper_triangular()
        assert (w.triangular.term(1).a, w.triangular.term(1).d) == (Z(2), Z(-1))
        assert conjugate(w.g, seq(Z, [[[0, 2], [1, 1]]])).terms == w.triangular.terms
        # the first column of g^{-1} is the eigenvector (1, 1)
        gi = w.g.inverse_matrix()
        assert (gi.a, gi.c) == (Z(1), Z(1))

    def test_irrational_discriminant_absent(self):
        assert singlet_triangularizable(mat2(Q, [[0, 2], [1, 0]])) is None

    def test_upper_triangular_is_fixed(self):
        m = mat2(Q, [[1, 5], [0, 2]])
        w = singlet_triangularizable(m)
        assert w is not None and w.g.m == Mat2.identity(Q)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_witness_is_always_valid(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Z, Q, GF(2), GF(3), GF(5), QSqrt(2), QT])
        m = rand_mat(rng, ring)
        w = singlet_triangularizable(m)
        if w is None:
            return
        t = w.triangular.term(1)
        assert t.is_upper_triangular()
        assert t.trace() == m.trace() and t.det() == m.det()
        assert conjugate(w.g, MatSeq([m])).terms == w.triangular.terms

    @pytest.mark.parametrize("ring", [Q, Z, GF(2), GF(3), GF(5), QSqrt(2), QT],
                             ids=["Q", "Z", "GF2", "GF3", "GF5", "Qsqrt2", "Qt"])
    def test_deciders_need_no_witness(self, ring, monkeypatch):
        # the deciders test singlets through their eigenvalues alone; that
        # must say "triangularizable" exactly when a witness exists
        import matseq.triangular as tri

        def refuse(m):
            raise AssertionError("a decider built a singlet witness")

        rng = random.Random(41)
        for i in range(300):
            m = rand_mat(rng, ring) if i % 2 else rand_triangularizable_seq(rng, ring, 1)[0]
            want = singlet_triangularizable(m) is not None
            with monkeypatch.context() as mp:
                mp.setattr(tri, "singlet_triangularizable", refuse)
                assert is_triangularizable(MatSeq([m])) == want
                assert is_triangularizable_fast(MatSeq([m])) == want
                assert pair_triangularizable(m, m) == want


class TestPairAndSequenceDeciders:
    def test_obstructed_pair(self):
        assert not pair_triangularizable(
            mat2(Q, [[1, 0], [0, 0]]), mat2(Q, [[0, 1], [1, 0]]))

    def test_upper_pair(self):
        assert pair_triangularizable(
            mat2(Q, [[1, 5], [0, 2]]), mat2(Q, [[3, 1], [0, 3]]))

    def test_obstructed_triple_rejected(self):
        s = seq(Q, OBSTRUCTED_TRIPLE)
        assert not is_triangularizable(s)
        assert not is_triangularizable_fast(s)

    def test_pairs_of_obstructed_triple_pass(self):
        s = seq(Q, OBSTRUCTED_TRIPLE)
        for j, k in ((1, 2), (1, 3), (2, 3)):
            assert pair_triangularizable(s.term(j), s.term(k))

    def test_reduced_length_four_fast_path(self):
        s = seq(Q, [[[j, 1], [0, 0]] for j in range(1, 5)])
        info = maximal_reduction(s)
        assert info.kept_indices == (1, 2, 3, 4)
        assert is_triangularizable_fast(s)
        assert is_triangularizable(s)

    def test_sigma_evaluation_budget(self, count_calls):
        rng = random.Random(7)
        s = rand_reduced_seq(rng, Q, 100)
        sigma_calls = count_calls(sigma_explicit)
        assert is_triangularizable_fast(s)
        assert 0 < len(sigma_calls) <= 3 * s.n

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_engines_agree(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(3), GF(5), Z])
        s = rand_seq(rng, ring, rng.randint(1, 5))
        assert is_triangularizable(s) == is_triangularizable_fast(s)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_conjugated_upper_accepted(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(5), GF(7)])
        s = rand_triangularizable_seq(rng, ring, rng.randint(1, 4))
        assert is_triangularizable(s)
        assert is_triangularizable_fast(s)

    def test_unsupported_ring_gate(self):
        # QSqrt is a field so it is supported; rings without division or
        # Bezout would not be.  The gate is exercised through the oracle
        # tests; here we just confirm the supported ones do not raise.
        assert is_triangularizable(seq(QT, [[[0, 1], [0, 0]]]))


class TestTriangularize:
    def test_upper_input_gets_identity(self):
        rng = random.Random(3)
        s = rand_upper_seq(rng, Q, 3)
        w = triangularize(s)
        assert w is not None and w.g.m == Mat2.identity(Q)
        assert w.triangular.terms == s.terms

    def test_integer_sequence_with_scalar_term(self):
        s = seq(Z, [[[0, 2], [1, 1]], [[3, 0], [0, 3]]])
        w = triangularize(s)
        assert w is not None
        assert w.triangular.is_upper_triangular()
        assert w.triangular.term(2) == mat2(Z, [[3, 0], [0, 3]])
        assert conjugate(w.g, s).terms == w.triangular.terms

    def test_obstructed_input_has_no_witness(self):
        assert triangularize(seq(Q, OBSTRUCTED_TRIPLE)) is None

    def test_thousand_random_gf5_witnesses(self):
        rng = random.Random(20260825)
        for _ in range(1000):
            s = rand_triangularizable_seq(rng, GF(5), 3)
            w = triangularize(s)
            assert w is not None
            assert all(c.is_zero() for c in w.triangular.c)
            assert conjugate(w.g, s).terms == w.triangular.terms


def _reference_obstruction(s):
    """Reference scan, independent of first_obstruction: the nested sigma
    loops, then the nested Delta loops."""
    n = s.n
    for j in range(n):
        for k in range(j + 1, n):
            if not sigma(s[j], s[k]).is_zero():
                return (j, k)
    for j in range(n):
        for k in range(j + 1, n):
            for l in range(k + 1, n):
                if not big_delta(s[j], s[k], s[l]).is_zero():
                    return (j, k, l)
    return None


def _nonzero(rng, ring):
    while True:
        x = rand_scalar(rng, ring, 3)
        if not x.is_zero():
            return x


def _stable_1c_triple(rng, ring):
    """Three upper-left-normalized terms with every sigma zero and Delta
    nonzero: eigenlines {e1, e2}, {e1, w}, {e2, w} for w = (1, -1)."""
    z = ring.zero()
    a = rand_scalar(rng, ring, 3)
    x2, y2, x3, y3 = (rand_scalar(rng, ring, 3), _nonzero(rng, ring),
                      rand_scalar(rng, ring, 3), _nonzero(rng, ring))
    return [Mat2(a, z, z, a + _nonzero(rng, ring)),
            Mat2(x2 + y2, y2, z, x2),
            Mat2(x3, z, y3, x3 + y3)]


def _commuting_with(rng, ring, t):
    """A non-scalar y t + x I."""
    return t.scale(_nonzero(rng, ring)) + Mat2.identity(ring).scale(rand_scalar(rng, ring, 3))


def _scalars(rng, ring, count):
    return [Mat2.identity(ring).scale(rand_scalar(rng, ring, 3)) for _ in range(count)]


def _stable_1c_mix(rng, ring, extra):
    """A conjugated Stable-1c triple, shuffled among leading scalar terms and
    terms commuting with a member of the triple."""
    triple = _stable_1c_triple(rng, ring)
    body = list(triple)
    for _ in range(extra):
        t = rng.choice(triple)
        x, y = rand_scalar(rng, ring, 3), rand_scalar(rng, ring, 3)
        body.append(t.scale(y) + Mat2.identity(ring).scale(x))
    rng.shuffle(body)
    scalars = _scalars(rng, ring, rng.randint(0, 2))
    return conjugate(rand_group_element(rng, ring), MatSeq(scalars + body))


def _late_stable_1c(rng, ring, n):
    """A conjugated length-n sequence whose first term outside the span of the
    first two members of a Stable-1c triple comes late: scalars and commuting
    runs on those two members fill the head, then the third member, then a
    tail commuting with any member.  Returns the sequence and the 0-based
    position of the third member."""
    t1, t2, t3 = _stable_1c_triple(rng, ring)
    head = [_commuting_with(rng, ring, t1), _commuting_with(rng, ring, t2)]
    head += [_commuting_with(rng, ring, rng.choice([t1, t2]))
             for _ in range(rng.randint(n // 2, n - 5))]
    head += _scalars(rng, ring, 2)
    rng.shuffle(head)
    tail = [_commuting_with(rng, ring, rng.choice([t1, t2, t3]))
            for _ in range(n - len(head) - 1)]
    terms = head + [_commuting_with(rng, ring, t3)] + tail
    return conjugate(rand_group_element(rng, ring), MatSeq(terms)), len(head)


def _pairwise_reduction(s):
    """Reference partition into commuting classes: each non-scalar term joins
    the first class whose representative has a proportional entry vector."""
    def proportional(u, v):
        return ((u[0] * v[1] - u[1] * v[0]).is_zero()
                and (u[0] * v[2] - u[2] * v[0]).is_zero()
                and (u[1] * v[2] - u[2] * v[1]).is_zero())

    reps, members = [], []
    for i, t in enumerate(s.terms, start=1):
        if t.is_scalar():
            continue
        v = (t.b, t.e, t.c)
        for k, w in enumerate(reps):
            if proportional(v, w):
                members[k].append(i)
                break
        else:
            reps.append(v)
            members.append([i])
    return tuple(m[0] for m in members), tuple(tuple(m) for m in members)


class TestFirstObstruction:
    def test_gf3_pair_sweep_matches_reference(self):
        ring = GF(3)
        mats = [Mat2(*(ring(v) for v in (a, b, c, d)))
                for a in range(3) for b in range(3) for c in range(3) for d in range(3)]
        found = 0
        for x in mats:
            for y in mats:
                s = MatSeq([x, y])
                got = first_obstruction(s)
                assert got == _reference_obstruction(s), (x, y)
                found += got is not None
        assert 0 < found < len(mats) ** 2

    @pytest.mark.parametrize("ring", [Q, GF(5)], ids=["Q", "GF5"])
    def test_random_sequences_match_reference(self, ring):
        rng = random.Random(20261018)
        kinds = {None: 0, 2: 0, 3: 0}
        for _ in range(400):
            u = rng.random()
            if u < 0.3:
                s = rand_seq(rng, ring, rng.randint(1, 6), span=3)
            elif u < 0.5:
                s = rand_triangularizable_seq(rng, ring, rng.randint(1, 6))
            else:
                s = _stable_1c_mix(rng, ring, rng.randint(0, 3))
            got = first_obstruction(s)
            assert got == _reference_obstruction(s), s
            kinds[None if got is None else len(got)] += 1
        assert all(kinds.values()), kinds

    def test_profile_scans_once(self, count_calls):
        s = _stable_1c_mix(random.Random(5), Q, 3)
        scans = count_calls(first_obstruction)
        p = Profile(s)
        assert not is_triangularizable(p)
        assert p.obstruction == _reference_obstruction(s)
        assert len(p.obstruction) == 3
        assert len(scans) == 1

    def test_gf2_triple_sweep_matches_reference(self):
        ring = GF(2)
        mats = [Mat2(*(ring(v) for v in (a, b, c, d)))
                for a in range(2) for b in range(2) for c in range(2) for d in range(2)]
        kinds = {None: 0, 2: 0, 3: 0}
        for x in mats:
            for y in mats:
                for z in mats:
                    s = MatSeq([x, y, z])
                    got = first_obstruction(s)
                    assert got == _reference_obstruction(s), (x, y, z)
                    kinds[None if got is None else len(got)] += 1
        assert all(kinds.values()), kinds

    @pytest.mark.parametrize("ring", [Q, Z], ids=["Q", "Z"])
    def test_late_stable_1c_in_long_sequences(self, ring):
        rng = random.Random(20261019)
        for n in range(12, 31, 3):
            s, late = _late_stable_1c(rng, ring, n)
            assert s.n == n and late >= n // 2
            got = first_obstruction(s)
            assert got == _reference_obstruction(s), s
            assert len(got) == 3 and got[2] == late

    def test_linear_cost_on_triangularizable_sequence(self, monkeypatch):
        s = rand_triangularizable_seq(random.Random(11), Q, 200)
        ops = []
        for name in ("mul", "add", "sub"):
            def counted(self, a, b, _op=getattr(RationalRing, name)):
                ops.append(None)
                return _op(self, a, b)
            monkeypatch.setattr(RationalRing, name, counted)
        p = Profile(s)
        assert p.obstruction is None
        assert p.reduction.reduced_length > 3
        # the cubic scan needed C(200, 3), about 1.3M, Delta evaluations
        assert len(ops) <= 10 * s.n


class TestMaximalReductionReference:
    @pytest.mark.parametrize("ring", [Q, Z, GF(2), GF(5), QT, QSqrt(2)], ids=repr)
    def test_classes_match_pairwise_partition(self, ring):
        rng = random.Random(20261020)
        for _ in range(60):
            base = [rand_mat(rng, ring, 3) for _ in range(rng.randint(1, 3))]
            terms = [rng.choice(base).scale(rand_scalar(rng, ring, 3))
                     + Mat2.identity(ring).scale(rand_scalar(rng, ring, 3))
                     for _ in range(rng.randint(1, 8))]
            s = MatSeq(terms)
            info = maximal_reduction(s)
            assert (info.kept_indices, info.classes) == _pairwise_reduction(s), s
            scalar = MatSeq(Mat2.identity(ring).scale(rand_scalar(rng, ring, 3)) for _ in terms)
            one_class = MatSeq(base[0].scale(rand_scalar(rng, ring, 3))
                               + Mat2.identity(ring).scale(rand_scalar(rng, ring, 3))
                               for _ in terms)
            for u in (s, scalar, one_class):
                want = all(commutes(x, y) for x, y in combinations(u.terms, 2))
                assert is_commutative(u) == is_commutative(Profile(u)) == want, u


def _widened(rng, s):
    """Each term y t + x I with wide rationals x, y, y != 0, or now and then
    a wide scalar: commuting classes, sigma != 0 and Delta != 0 are kept,
    denominators differ from term to term."""
    ring, one = s.ring, Mat2.identity(s.ring)
    terms = []
    for t in s.terms:
        x = one.scale(ring(rand_wide_fraction(rng) if rng.random() < 0.7 else 0))
        terms.append(x if rng.random() < 0.15 else t.scale(ring(rand_wide_fraction(rng))) + x)
    return MatSeq(terms)


class TestClearedProfile:
    def test_profile_matches_uncleared_scans_over_q(self):
        rng = random.Random(20261020)
        kinds = {None: 0, 2: 0, 3: 0}
        for i in range(150):
            u = i % 3
            if u == 0:
                s = rand_seq(rng, Q, rng.randint(1, 6), span=3)
            elif u == 1:
                s = rand_triangularizable_seq(rng, Q, rng.randint(1, 6))
            else:
                s = _stable_1c_mix(rng, Q, rng.randint(0, 3))
            s = _widened(rng, s)
            p = Profile(s)
            # Q[t] clears nothing, so its scans run on the uncleared values
            uncleared = lift_seq(s, QT)
            assert p.reduction == maximal_reduction(uncleared), s
            assert p.obstruction == first_obstruction(uncleared), s
            kinds[None if p.obstruction is None else len(p.obstruction)] += 1
        assert all(v >= 10 for v in kinds.values()), kinds

    @pytest.mark.parametrize("ring", [Z, Q, GF(2), GF(3), GF(5), QSqrt(2), QT], ids=repr)
    def test_is_flat_matches_disc(self, ring):
        rng = random.Random(f"flat/{ring!r}")
        flats = 0
        for _ in range(25):
            s = MatSeq(_flat_or_not(rng, ring) for _ in range(4))
            p = Profile(s)
            got = [p.is_flat(i) for i in range(s.n)]
            assert got == [t.disc().is_zero() for t in s.terms], s
            flats += sum(got)
        assert 25 <= flats <= 75, flats


def _flat_or_not(rng, ring):
    """Half the time a random term, else x I + y N with N = [[uv, -u^2],
    [v^2, -uv]] nilpotent, whose discriminant is zero; wide entries over Q."""
    if ring is Q:
        draw = lambda: Q(rand_wide_fraction(rng))  # noqa: E731
    else:
        draw = lambda: rand_scalar(rng, ring, 3)  # noqa: E731
    if rng.random() < 0.5:
        return Mat2(draw(), draw(), draw(), draw())
    x, y, u, v = draw(), draw(), draw(), draw()
    return Mat2(x + y * u * v, -(y * u * u), y * v * v, x - y * u * v)


def _all_singlets(s):
    """Reference: no obstruction, and every term passes the singlet test."""
    return first_obstruction(s) is None and all(
        m.is_upper_triangular() or eigenvalues_in_ring(m) is not None for m in s.terms)


class TestOneSinglet:
    """After a clean obstruction scan the first non-scalar term's singlet
    decides, for every term: the terms share an eigenvector of that one."""

    @pytest.mark.parametrize("ring", [Z, Q, GF(2), GF(3), GF(5), QSqrt(2), QT], ids=repr)
    def test_matches_all_singlets_on_obstruction_free_sequences(self, ring):
        rng = random.Random(f"one-singlet-{ring!r}")
        verdicts = {True: 0, False: 0}
        for i in range(120):
            n = rng.randint(1, 5)
            if i % 3 == 0:
                s = rand_triangularizable_seq(rng, ring, n)
            else:
                # scalar terms among polynomials in one A, which often has
                # no eigenvalues in the ring
                a = rand_mat(rng, ring, 3)
                s = MatSeq([_scalars(rng, ring, 1)[0] if rng.random() < 0.3
                            else a.scale(rand_scalar(rng, ring, 3))
                            + Mat2.identity(ring).scale(rand_scalar(rng, ring, 3))
                            for _ in range(n)])
            if ring == Q:
                s = _widened(rng, s)
            if first_obstruction(s) is not None:
                continue
            want = _all_singlets(s)
            assert is_triangularizable(s) == want, s
            verdicts[want] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 3, verdicts

    def test_gf2_triples_exhaustive(self):
        ring = GF(2)
        mats = [Mat2(*(ring(v) for v in (a, b, c, d)))
                for a in range(2) for b in range(2) for c in range(2) for d in range(2)]
        for x in mats:
            for y in mats:
                for z in mats:
                    s = MatSeq([x, y, z])
                    if first_obstruction(s) is None:
                        assert is_triangularizable(s) == _all_singlets(s), s


# (ring, anchor) with the anchor's characteristic polynomial irreducible
# over the ring: no eigenvalue in the ring.  Over Z a square discriminant
# r^2 = t^2 - 4 det always has r = t mod 2, so only a non-square fails.
IRRATIONAL_ANCHORS = [
    (Z, [[0, 2], [1, 0]]),
    (Q, [[0, 2], [1, 0]]),
    (GF(2), [[0, 1], [1, 1]]),
    (GF(3), [[0, 2], [1, 0]]),
    (QSqrt(2), [[0, 3], [1, 0]]),
    (QT, [[0, QT([0, 1])], [1, 0]]),
]


class TestTriangularizeMatchesCriterion:
    """``triangularize`` decides from the profile and the anchor's
    eigenvalues: a witness exactly when ``is_triangularizable`` holds, also
    on obstruction-free sequences whose anchor has no eigenvalue in the ring."""

    @pytest.mark.parametrize("ring, rows", IRRATIONAL_ANCHORS,
                             ids=[repr(r) for r, _ in IRRATIONAL_ANCHORS])
    def test_witness_exactly_when_triangularizable(self, ring, rows):
        rng = random.Random(f"tri-criterion-{ring!r}")
        a = mat2(ring, rows)
        assert eigenvalues_in_ring(a) is None
        one = Mat2.identity(ring)
        outside = 0
        for i in range(90):
            n = rng.randint(2, 5)
            if i % 3 == 0:
                # polynomials x + y A in the anchor, after optional scalars
                lead = _scalars(rng, ring, rng.randint(0, 2))
                poly = [a.scale(_nonzero(rng, ring)) + one.scale(rand_scalar(rng, ring, 3))]
                poly += [a.scale(rand_scalar(rng, ring, 3)) + one.scale(rand_scalar(rng, ring, 3))
                         for _ in range(n - 1)]
                s = MatSeq(lead + poly)
                assert first_obstruction(s) is None
            elif i % 3 == 1:
                s = rand_triangularizable_seq(rng, ring, n)
            else:
                s = rand_seq(rng, ring, n)
            w = triangularize(s)
            assert (w is not None) == is_triangularizable(s), s
            if w is None:
                outside += i % 3 == 0
                continue
            assert w.triangular.is_upper_triangular()
            assert conjugate(w.g, s).terms == w.triangular.terms
        assert outside == 30

