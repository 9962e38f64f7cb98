"""Canonical tags and forms, duals, reconstruction, desingularization."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matseq import (
    GF,
    CanonicalTag,
    GroupElement,
    Mat2,
    MatSeq,
    Profile,
    PhiVector,
    Q,
    QSqrt,
    Z,
    are_similar,
    canonicalize,
    classify,
    commutative_similar,
    conjugate,
    desingularize_for_reconstruction,
    dual_sequence,
    eigenvector_for,
    embed,
    in_phi_domain,
    is_eigenvector,
    lift_seq,
    mat2,
    phi_prime,
    primitive_vector,
    psi_prime,
    reconstruct_semisimple,
    reconstruct_triangular,
    seq,
    sigma,
    sqrt_with_extension,
)
from matseq.errors import (
    Char2Unsupported,
    DegenerateDiscriminant,
    InternalInconsistency,
    MatseqError,
    NotApplicable,
    NotCanonical1a,
    NotCommutative,
    TowerTooDeep,
    UnsupportedRing,
    ZeroC2,
)

from matseq import canonical

from genseq import rand_admissible_phi, rand_group_element, rand_mat, rand_scalar, rand_seq

OBSTRUCTED_TRIPLE = [[[1, 0], [0, 0]], [[1, 1], [0, 0]], [[0, 0], [1, 1]]]


def form_satisfies_tag(res):
    """Structural predicate for each canonical shape."""
    f = res.form
    tag = res.tag
    ring = f.ring
    if tag == CanonicalTag.STABLE_1A:
        a1, a2 = f.term(1), f.term(2)
        return (a1.is_diagonal() and not a1.is_scalar()
                and a2.b == ring.one() and not sigma(a1, a2).is_zero())
    if tag == CanonicalTag.STABLE_1B:
        a1, a2 = f.term(1), f.term(2)
        return (a1.b == ring.one() and a1.c.is_zero() and a1.a == a1.d
                and a2.b == ring.one() and not sigma(a1, a2).is_zero())
    if tag == CanonicalTag.STABLE_1C:
        a1, a2, a3 = f.term(1), f.term(2), f.term(3)
        return (a1.is_diagonal() and not a1.is_scalar()
                and a2.is_upper_triangular() and a2.b == ring.one()
                and a3.is_lower_triangular() and not a3.c.is_zero())
    if tag == CanonicalTag.TRI_2A:
        return (f.is_upper_triangular() and f.term(1).is_diagonal()
                and f.term(2).b == ring.one())
    if tag == CanonicalTag.TRI_2B:
        a2 = f.term(2)
        return (f.is_upper_triangular() and f.term(1).is_diagonal()
                and a2.b == ring.one() and a2.a == a2.d)
    if tag == CanonicalTag.COMM_DIAGONAL:
        return all(t.is_diagonal() for t in f.terms)
    if tag == CanonicalTag.COMM_JORDAN_LIKE:
        return all(t.is_upper_triangular() and t.a == t.d for t in f.terms)
    if tag == CanonicalTag.ALL_SCALAR:
        return f.all_scalar()
    return False


class TestClassify:
    def test_examples(self):
        assert classify(seq(Q, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])) \
            == CanonicalTag.STABLE_1B
        assert classify(seq(Q, OBSTRUCTED_TRIPLE)) == CanonicalTag.STABLE_1C
        assert classify(seq(Q, [[[1, 0], [0, 0]], [[1, 1], [0, 0]]])) \
            == CanonicalTag.TRI_2A

    def test_commutative_tags(self):
        assert classify(seq(Q, [[[1, 0], [0, 2]], [[3, 0], [0, 4]]])) \
            == CanonicalTag.COMM_DIAGONAL
        assert classify(seq(Q, [[[1, 1], [0, 1]], [[2, 3], [0, 2]]])) \
            == CanonicalTag.COMM_JORDAN_LIKE
        assert classify(seq(Q, [[[5, 0], [0, 5]]])) == CanonicalTag.ALL_SCALAR

    def test_stable_pair_with_diagonalizable_member(self):
        s = seq(Q, [[[1, 0], [0, 0]], [[0, 1], [1, 0]]])
        assert classify(s) == CanonicalTag.STABLE_1A

    def test_jordan_term_forces_2b(self):
        s = seq(Q, [[[1, 2], [0, 0]], [[3, 1], [0, 3]]])
        assert classify(s) == CanonicalTag.TRI_2B

    def test_char2_gate(self):
        s = seq(GF(2), [[[1, 0], [0, 0]], [[0, 1], [1, 0]]])
        with pytest.raises(Char2Unsupported):
            classify(s)
        # commutative classification still works in characteristic 2
        assert classify(seq(GF(2), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])) \
            == CanonicalTag.COMM_DIAGONAL

    def test_ring_gate(self):
        with pytest.raises(UnsupportedRing):
            classify(seq(Z, [[[1, 0], [0, 0]]]))

    @given(st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_conjugation_invariance(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(3), GF(5), GF(7)])
        s = rand_seq(rng, ring, rng.randint(1, 4))
        g = rand_group_element(rng, ring)
        assert classify(s) == classify(conjugate(g, s))


class TestCanonicalize:
    def test_worked_example(self):
        s = seq(Q, [[[1, 0], [0, 0]], [[0, 2], [3, 0]]])
        res = canonicalize(s)
        assert res.tag == CanonicalTag.STABLE_1A
        assert res.permutation == (1, 2)
        assert res.form.term(1) == mat2(Q, [[1, 0], [0, 0]])
        assert res.form.term(2) == mat2(Q, [[0, 1], [6, 0]])
        assert res.ring_extension is None
        got = conjugate(res.g, s.permuted(res.permutation))
        assert got.terms == res.form.terms

    def test_idempotent_on_canonical_input(self):
        s = seq(Q, [[[1, 0], [0, 0]], [[0, 1], [6, 0]]])
        res = canonicalize(s)
        assert res.g.m == Mat2.identity(Q)
        assert res.permutation == (1, 2)
        assert res.form.terms == s.terms

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_is_orbit_invariant(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(3), GF(5), GF(7)])
        s = rand_seq(rng, ring, rng.randint(1, 4))
        g = rand_group_element(rng, ring)
        t = conjugate(g, s)
        try:
            r1 = canonicalize(s)
        except UnsupportedRing:
            with pytest.raises(UnsupportedRing):
                canonicalize(t)
            return
        r2 = canonicalize(t)
        assert r1.tag == r2.tag
        assert r1.form.ring == r2.form.ring
        assert r1.form.terms == r2.form.terms

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_form_matches_tag_structure(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(5), GF(7)])
        s = rand_seq(rng, ring, rng.randint(1, 4))
        try:
            res = canonicalize(s)
        except UnsupportedRing:
            return
        assert form_satisfies_tag(res)
        base = s if res.ring_extension is None else lift_seq(s, res.ring_extension)
        got = conjugate(res.g, base.permuted(res.permutation))
        assert got.terms == res.form.terms

    def test_commutative_forms(self):
        s = seq(Q, [[[1, 2], [3, 4]], [[2, 4], [6, 8]]])  # A, 2A commute
        res = canonicalize(s)
        assert res.tag == CanonicalTag.COMM_DIAGONAL
        assert form_satisfies_tag(res)


class TestCommutativeSimilar:
    def test_diagonal_swap(self):
        s1 = seq(Q, [[[1, 0], [0, 2]], [[3, 0], [0, 4]]])
        s2 = seq(Q, [[[2, 0], [0, 1]], [[4, 0], [0, 3]]])
        assert commutative_similar(s1, s2)

    def test_jordan_scaling(self):
        s1 = seq(Q, [[[1, 1], [0, 1]], [[2, 3], [0, 2]]])
        s2 = seq(Q, [[[1, 2], [0, 1]], [[2, 6], [0, 2]]])
        assert commutative_similar(s1, s2)

    def test_jordan_scaling_over_z(self):
        # the upper-right vectors differ by the factor 2/3, which is not in Z
        s1 = seq(Z, [[[1, 1], [0, 1]], [[2, 3], [0, 2]]])
        s2 = seq(Z, [[[1, 2], [0, 1]], [[2, 6], [0, 2]]])
        assert commutative_similar(s1, s2)
        assert are_similar(s1, s2) is not None

    def test_jordan_not_similar_over_z(self):
        s1 = seq(Z, [[[1, 1], [0, 1]], [[2, 3], [0, 2]]])
        s2 = seq(Z, [[[1, 2], [0, 1]], [[2, 5], [0, 2]]])
        assert not commutative_similar(s1, s2)
        assert are_similar(s1, s2) is None

    def test_jordan_diagonal_mismatch(self):
        s1 = seq(Q, [[[1, 1], [0, 1]]])
        s2 = seq(Q, [[[2, 1], [0, 2]]])
        assert not commutative_similar(s1, s2)

    def test_non_commutative_rejected(self):
        s = seq(Q, [[[1, 0], [0, 0]], [[0, 1], [1, 0]]])
        with pytest.raises(NotCommutative):
            commutative_similar(s, s)

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_general_decision(self, seed_value):
        rng = random.Random(seed_value)
        ring = rng.choice([Q, GF(5), GF(7)])
        a = rand_seq(rng, ring, 1).term(1)
        lam = ring(rng.randint(-3, 3))
        mu = ring(rng.randint(-3, 3))
        s1 = seq(ring, [[[0, 0], [0, 0]]] * 2)
        from matseq import MatSeq
        s1 = MatSeq([a, a.scale(lam) + Mat2.identity(ring).scale(mu)])
        g = rand_group_element(rng, ring)
        s2 = conjugate(g, s1)
        try:
            verdict = commutative_similar(s1, s2)
        except (NotCommutative, NotApplicable, UnsupportedRing):
            return
        assert verdict == (are_similar(s1, s2) is not None)


class TestDualSequence:
    def test_worked_example(self):
        s = seq(Q, [[[2, 0], [0, 0]], [[1, 1], [-1, 0]]])
        d = dual_sequence(s)
        assert d.term(1) == mat2(Q, [[0, 0], [0, 2]])
        assert d.term(2) == mat2(Q, [[0, 1], [-1, 1]])

    def test_involution_up_to_similarity(self):
        s = seq(Q, [[[2, 0], [0, 0]], [[1, 1], [-1, 0]]])
        dd = dual_sequence(dual_sequence(s))
        assert are_similar(s, dd) is not None

    def test_phi_preserved(self):
        s = seq(Q, [[[2, 0], [0, 0]], [[1, 1], [-1, 0]]])
        assert phi_prime(dual_sequence(s)) == phi_prime(s)

    def test_extension_when_needed(self):
        s = seq(Q, [[[2, 0], [0, 0]], [[1, 1], [3, 0]]])  # -c2 = -3
        d = dual_sequence(s)
        assert d.ring == QSqrt(-3)
        assert d.term(1).entries()[0] == embed(Q(0), QSqrt(-3))

    def test_gate(self):
        with pytest.raises(NotCanonical1a):
            dual_sequence(seq(Q, [[[1, 1], [0, 0]], [[0, 1], [1, 0]]]))
        with pytest.raises(NotCanonical1a):
            # b2 != 1
            dual_sequence(seq(Q, [[[1, 0], [0, 0]], [[0, 2], [1, 0]]]))


def _solve_linear(rows, rhs):
    """Gauss-Jordan elimination over a field: the general solver that
    reconstruction used before its closed form, kept as a reference."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if not aug[i][col].is_zero()), None)
        if piv is None:
            raise InternalInconsistency("singular reconstruction system")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and not aug[i][col].is_zero():
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def _reference_reconstruct(v):
    """reconstruct_semisimple for odd characteristic and a well-formed v,
    with (a2, d2) and every later term solved from its linear trace system."""
    two = v.ring.scalar_from_int(2)
    disc = two * v.values[1] - v.values[0] * v.values[0]
    if disc.is_zero():
        raise DegenerateDiscriminant("equal eigenvalues for the leading term")
    r, ext = sqrt_with_extension(disc)
    ring = v.ring if ext is None else ext
    vals = [embed(x, ring) for x in v.values]
    t1, t11, t2, t22, t12 = vals[:5]
    two, zero, one = ring.scalar_from_int(2), ring.zero(), ring.one()
    a1, d1 = (t1 + r) / two, (t1 - r) / two
    e1 = a1 - d1
    a2, d2 = _solve_linear([[one, one], [a1, d1]], [t2, t12])
    c2 = (t22 - a2 * a2 - d2 * d2) / two
    if c2.is_zero():
        raise ZeroC2("the reconstructed pair would have vanishing pair obstruction")
    terms = [Mat2(a1, zero, zero, d1), Mat2(a2, one, c2, d2)]
    rows = [[one, zero, zero, one],
            [a1, zero, zero, d1],
            [a2, c2, one, d2],
            [zero, -e1 * c2, e1, zero]]
    for i in range(5, len(vals), 4):
        ak, bk, ck, dk = _solve_linear(rows, vals[i:i + 4])
        terms.append(Mat2(ak, bk, ck, dk))
    return terms


class TestReconstructSemisimple:
    @pytest.mark.parametrize("ring", [Q, GF(5), GF(13), QSqrt(2), QSqrt(-3)], ids=repr)
    def test_matches_linear_solve(self, ring):
        # half random vectors, half invariant vectors of random sequences
        rng = random.Random(7)
        outcomes = set()
        for i in range(240):
            n = rng.randint(2, 5)
            if i % 2:
                v = phi_prime(rand_seq(rng, ring, n, 3))
            else:
                v = PhiVector(ring, n, tuple(rand_scalar(rng, ring, 3) for _ in range(4 * n - 3)))
            try:
                want = _reference_reconstruct(v)
            except MatseqError as exc:
                with pytest.raises(type(exc)):
                    reconstruct_semisimple(v)
                outcomes.add(type(exc).__name__)
                continue
            assert reconstruct_semisimple(v).terms == tuple(want), v
            outcomes.add("solved")
        assert "solved" in outcomes

    def test_worked_vector(self):
        v = PhiVector(Q, 2, (Q(2), Q(4), Q(1), Q(7), Q(2)))
        s = reconstruct_semisimple(v)
        assert s.term(1) == mat2(Q, [[2, 0], [0, 0]])
        assert s.term(2) == mat2(Q, [[1, 1], [3, 0]])
        assert phi_prime(s) == v

    def test_round_trip_small(self):
        rng = random.Random(17)
        for _ in range(60):
            v = rand_admissible_phi(rng, rng.randint(2, 5))
            s = reconstruct_semisimple(v)
            assert phi_prime(s).values == tuple(
                embed(x, s.ring) for x in v.values)

    def test_extension_round_trip(self):
        # t1 = 0, t11 = 4 gives discriminant 8: roots live in QSqrt(2)
        v = PhiVector(Q, 2, (Q(0), Q(4), Q(1), Q(7), Q(0)))
        s = reconstruct_semisimple(v)
        assert s.ring == QSqrt(2)
        assert phi_prime(s).values == tuple(embed(x, s.ring) for x in v.values)

    def test_degenerate_discriminant(self):
        v = PhiVector(Q, 2, (Q(2), Q(2), Q(1), Q(7), Q(2)))
        with pytest.raises(DegenerateDiscriminant):
            reconstruct_semisimple(v)

    def test_zero_c2(self):
        # a2 = 1, d2 = 0 forced; t22 = 1 makes c2 = 0
        v = PhiVector(Q, 2, (Q(2), Q(4), Q(1), Q(1), Q(2)))
        with pytest.raises(ZeroC2):
            reconstruct_semisimple(v)

    def test_char2_gate(self):
        ring = GF(2)
        v = PhiVector(ring, 2, tuple(ring(x) for x in (0, 1, 0, 1, 1)))
        with pytest.raises(Char2Unsupported):
            reconstruct_semisimple(v)


class TestReconstructTriangular:
    def test_worked_round_trip(self):
        s = seq(Q, [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 2], [0, 1]]])
        w = psi_prime(s)
        first, second = reconstruct_triangular(w)
        assert first.terms == s.terms
        assert psi_prime(first) == w
        assert psi_prime(second) == w
        assert are_similar(first, second) is None

    def test_flip_relation(self):
        s = seq(Q, [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 2], [0, 1]]])
        first, second = reconstruct_triangular(psi_prime(s))
        for t1, t2 in zip(first.terms, second.terms):
            assert (t1.a, t1.d) == (t2.d, t2.a)
            assert t1.b == t2.b

    def test_plucker_fallback_rejected(self):
        # [A1, A2] = 0 here, so psi falls back to the full Plucker vector,
        # which reconstruction does not consume.
        s = seq(Q, [[[1, 1], [0, 0]], [[2, 2], [0, 0]], [[0, 1], [0, 1]]])
        w = psi_prime(s)
        assert w.plucker_full is not None
        with pytest.raises(NotApplicable):
            reconstruct_triangular(w)


class TestDesingularize:
    def test_1b_pair(self):
        s = seq(Q, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        out, tr = desingularize_for_reconstruction(s)
        assert tr.kind == "pair"
        assert out.term(1) == mat2(Q, [[0, 1], [-1, 0]])
        assert out.term(2) == mat2(Q, [[0, 1], [1, 0]])
        assert not out.term(1).disc().is_zero()
        back = tr.invert(out)
        assert back.terms == s.terms

    def test_1c_triple(self):
        s = seq(Q, OBSTRUCTED_TRIPLE)
        out, tr = desingularize_for_reconstruction(s)
        assert tr.kind == "triple"
        assert out.term(1) == s.term(1)
        assert out.term(2) == s.term(2) + s.term(3)
        assert out.term(3) == s.term(2) - s.term(3)
        from matseq import commutes
        assert not commutes(out.term(1), out.term(2))
        back = tr.invert(out)
        assert back.terms == s.terms

    def test_not_applicable_for_1a(self):
        s = seq(Q, [[[1, 0], [0, 0]], [[0, 1], [1, 0]]])
        with pytest.raises(NotApplicable):
            desingularize_for_reconstruction(s)

    def test_desingularized_1c_enters_phi_domain(self):
        s = seq(Q, OBSTRUCTED_TRIPLE)
        out, _ = desingularize_for_reconstruction(s)
        assert in_phi_domain(out)


class TestUniqueness:
    def test_perturbed_canonical_forms_not_similar(self):
        base = seq(Q, [[[1, 0], [0, 0]], [[0, 1], [6, 0]], [[1, 2], [3, 4]]])
        bumped = seq(Q, [[[1, 0], [0, 0]], [[0, 1], [6, 0]], [[1, 2], [3, 5]]])
        assert are_similar(base, bumped) is None

    def test_phi_failure_pair_outside_domain(self):
        # commutative pairs sharing Phi' while non-similar
        s1 = seq(Q, [[[1, 1], [0, 1]], [[1, 1], [0, 1]]])
        s2 = seq(Q, [[[1, 1], [0, 1]], [[1, 2], [0, 1]]])
        assert phi_prime(s1) == phi_prime(s2)
        assert are_similar(s1, s2) is None
        assert not in_phi_domain(s1) and not in_phi_domain(s2)


# ---------------------------------------------------------------------------
# one conjugation per canonical form


def _affine(rng, m):
    """x m + y I for random x != 0 and y: keeps which pairs commute and
    which sigma and Delta vanish."""
    ring = m.ring
    x = rand_scalar(rng, ring)
    while x.is_zero():
        x = rand_scalar(rng, ring)
    return m.scale(x) + Mat2.identity(ring).scale(rand_scalar(rng, ring))


def _tagged_input(rng, ring, tag, n):
    """A conjugated sequence of n terms that usually has the given tag."""
    zero, one = ring.zero(), ring.one()
    if tag is CanonicalTag.STABLE_1C:
        base = [mat2(ring, m) for m in OBSTRUCTED_TRIPLE]
        terms = [_affine(rng, m) for m in base] + [_affine(rng, rng.choice(base))
                                                   for _ in range(n - 3)]
    elif tag is CanonicalTag.COMM_JORDAN_LIKE:
        terms = [_affine(rng, Mat2(zero, one, zero, zero)) for _ in range(n)]
    elif tag is CanonicalTag.COMM_DIAGONAL:
        a = rand_mat(rng, ring)
        terms = [_affine(rng, a) for _ in range(n)]
    elif tag is CanonicalTag.ALL_SCALAR:
        terms = [Mat2.identity(ring).scale(rand_scalar(rng, ring)) for _ in range(n)]
    elif tag is CanonicalTag.STABLE_1A:
        terms = list(rand_seq(rng, ring, n).terms)
    else:
        terms = [Mat2(rand_scalar(rng, ring), rand_scalar(rng, ring), zero,
                      rand_scalar(rng, ring)) for _ in range(n)]
        if tag is CanonicalTag.TRI_2B:
            i = rng.randrange(1, n)
            terms[i] = Mat2(terms[i].a, terms[i].b, zero, terms[i].a)
    rng.shuffle(terms)
    return conjugate(rand_group_element(rng, ring), MatSeq(terms))


def _two_step(s):
    """The canonical result of the eigenbasis tags by the earlier path:
    conjugate onto the eigenbasis whose first line the leading terms share
    (found by is_eigenvector), then by diag(1, b2).  Returns (result,
    branch), branch 1 when the shared line is the second eigenvalue's."""
    tag, front = canonical._case(Profile(s))
    perm = canonical._front_perm(front, s.n)
    sp = s.permuted(perm)
    shared = 2 if tag is CanonicalTag.STABLE_1C else s.n
    lam1, lam2, ext = canonical._eigen_with_extension(sp[0])
    sp = sp if ext is None else lift_seq(sp, ext)
    v1 = primitive_vector(eigenvector_for(sp[0], lam1))
    v2 = primitive_vector(eigenvector_for(sp[0], lam2))
    for branch, (u, w) in enumerate(((v1, v2), (v2, v1))):
        if all(is_eigenvector(m, u) for m in sp.terms[:shared]):
            g1 = canonical._basis_change(u, w)
            t = conjugate(g1, sp)
            ring = t.ring
            g2 = GroupElement(Mat2(ring.one(), ring.zero(), ring.zero(), t[1].b))
            return canonical.CanonicalResult(tag, perm, conjugate(g2, t), g2 * g1, ext), branch
    raise AssertionError("the leading terms share no eigenline")


class TestOneConjugation:
    BRANCH_TAGS = (CanonicalTag.TRI_2A, CanonicalTag.TRI_2B, CanonicalTag.STABLE_1C)

    @pytest.mark.parametrize("ring", [Q, GF(7), QSqrt(2)], ids=repr)
    def test_eigenline_branches_match_the_two_step_path(self, ring):
        rng = random.Random(f"eigenline/{ring!r}")
        hits = Counter()
        for i in range(90):
            s = _tagged_input(rng, ring, self.BRANCH_TAGS[i % 3], rng.randint(3, 5))
            tag = classify(s)
            if tag not in self.BRANCH_TAGS:
                continue
            got = canonicalize(s)
            want, branch = _two_step(s)
            assert got == want
            assert got.to_json() == want.to_json()
            hits[tag, branch] += 1
        assert set(hits) == {(tag, b) for tag in self.BRANCH_TAGS for b in (0, 1)}, hits

    def test_one_conjugate_call_per_document(self, count_calls):
        rng = random.Random("one-conjugation")
        cases = [_tagged_input(rng, ring, tag, rng.randint(3, 5))
                 for ring in (Q, GF(7), QSqrt(2)) for tag in CanonicalTag
                 if tag is not CanonicalTag.STABLE_1B for _ in range(4)]
        cases.append(seq(Q, [[[0, 1], [2, 0]], [[1, 2], [4, 1]]]))   # needs Q(sqrt 2)
        calls = count_calls(conjugate)
        seen = set()
        for s in cases:
            calls.clear()
            try:
                tag = canonicalize(s).tag
            except (UnsupportedRing, TowerTooDeep):   # no extension of GF(7), Q(sqrt 2)
                continue
            if tag is CanonicalTag.STABLE_1B:
                continue
            assert len(calls) == (0 if tag is CanonicalTag.ALL_SCALAR else 1), tag
            seen.add(tag)
        assert seen == set(CanonicalTag) - {CanonicalTag.STABLE_1B}
