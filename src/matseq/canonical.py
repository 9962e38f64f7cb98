"""Canonical forms under simultaneous conjugation, duality, reconstruction.

Every sequence over a field falls into exactly one of eight cases: three
stable ones (an anchor pair with nonvanishing pair obstruction and at least
one diagonalizable member; such a pair with both members non-diagonalizable;
all pair obstructions zero but a triple obstruction nonzero), two
triangularizable non-commutative ones (all kept terms diagonalizable, or
exactly one not), and three commutative ones (simultaneously diagonal,
Jordan-like, all scalar).  ``canonicalize`` conjugates, after a deterministic
rearrangement, onto a designated representative of the orbit; uniqueness
comes from the residual stabilizer of the normalized leading pair being the
scalars.  Every case but Stable1b conjugates once; the axis swap and the
scaling to b2 = 1 that follow act on the entries and on the rows of g.

``reconstruct_semisimple`` and ``reconstruct_triangular`` invert the
separating invariant maps; ``dual_sequence`` crosses between the two
sequences sharing a semisimple invariant vector; ``desingularize_for_
reconstruction`` re-bases the two stable cases whose leading pair is
degenerate into the reconstruction domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    Char2Unsupported,
    DegenerateDiscriminant,
    InternalInconsistency,
    LengthMismatch,
    LengthTooShort,
    NotApplicable,
    NotCanonical1a,
    NotCommutative,
    RingMismatch,
    UnsupportedRing,
    ZeroC2,
)
from .matcore import GroupElement, Mat2, MatSeq, conjugate, lift_mat, lift_seq
from .rings import (
    RingDescriptor,
    Scalar,
    embed,
    primitive_vector,
    ring_to_json,
    sqrt_with_extension,
)
from .similarity import PhiVector, PsiValue, are_similar
from .triangular import (
    Profile,
    eigenvalues_in_ring,
    eigenvector_for,
    is_commutative,
)


class CanonicalTag(str, Enum):
    STABLE_1A = "Stable1a"
    STABLE_1B = "Stable1b"
    STABLE_1C = "Stable1c"
    TRI_2A = "Tri2a"
    TRI_2B = "Tri2b"
    COMM_DIAGONAL = "CommDiagonal"
    COMM_JORDAN_LIKE = "CommJordanLike"
    ALL_SCALAR = "AllScalar"


@dataclass(frozen=True)
class CanonicalResult:
    """tag + permutation + conjugator + canonical form.

    Invariant: conjugate(g, permuted input) == form, after lifting the
    permuted input to ``ring_extension`` when that is not None.
    """

    tag: CanonicalTag
    permutation: tuple[int, ...]
    form: MatSeq
    g: GroupElement
    ring_extension: RingDescriptor | None = None

    def to_json(self):
        out = {"tag": self.tag.value,
               "permutation": list(self.permutation),
               "g": self.g.to_json(),
               "form": self.form.to_json()}
        if self.ring_extension is not None:
            out["extension"] = ring_to_json(self.ring_extension)
        return out


# ---------------------------------------------------------------------------
# permutations (0-based internally, 1-based in the result)


def _identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def _front_perm(front: tuple[int, ...], n: int) -> tuple[int, ...]:
    rest = [i for i in range(n) if i not in set(front)]
    return tuple(i + 1 for i in (*front, *rest))


# ---------------------------------------------------------------------------
# classification


def _case(p: Profile) -> tuple[CanonicalTag, tuple[int, ...]]:
    """The canonical-form case of p and the 0-based terms its form puts
    first (none when commutative), from one set of discriminant tests."""
    ring = p.seq.ring
    if not ring.is_field:
        raise UnsupportedRing("canonical forms are computed over fields")
    kept = [i - 1 for i in p.reduction.kept_indices]
    if len(kept) <= 1:
        if not kept:
            return CanonicalTag.ALL_SCALAR, ()
        if p.is_flat(kept[0]):
            return CanonicalTag.COMM_JORDAN_LIKE, ()
        return CanonicalTag.COMM_DIAGONAL, ()
    if ring.characteristic() == 2:
        raise Char2Unsupported("non-commutative canonical forms need characteristic != 2")
    obstruction = p.obstruction
    if obstruction is None:
        flat = next((i for i in kept if p.is_flat(i)), None)
        if flat is None:
            return CanonicalTag.TRI_2A, (kept[0], kept[1])
        return CanonicalTag.TRI_2B, (next(i for i in kept if not p.is_flat(i)), flat)
    if len(obstruction) == 3:
        return CanonicalTag.STABLE_1C, obstruction
    j, k = obstruction
    if not p.is_flat(j):
        return CanonicalTag.STABLE_1A, (j, k)
    if p.is_flat(k):
        return CanonicalTag.STABLE_1B, (j, k)
    # the diagonalizable member of the pair goes first
    return CanonicalTag.STABLE_1A, (k, j)


def classify(s: MatSeq | Profile) -> CanonicalTag:
    """The canonical-form case of s (deterministic, conjugation-invariant)."""
    return _case(Profile.of(s))[0]


# ---------------------------------------------------------------------------
# basic normalizers


def _roots(t: Scalar, disc: Scalar) -> tuple[Scalar, Scalar, RingDescriptor | None]:
    """(t + r)/2 and (t - r)/2 for the canonical square root r of disc,
    adjoining one quadratic extension if r needs it; returns (l1, l2, ext)."""
    r, ext = sqrt_with_extension(disc)
    if ext is not None:
        t = embed(t, ext)
    two = r.ring.scalar_from_int(2)
    return (t + r) / two, (t - r) / two, ext


def _eigen_with_extension(m: Mat2) -> tuple[Scalar, Scalar, RingDescriptor | None]:
    """Eigenvalues in canonical order, adjoining one quadratic extension if needed."""
    if m.ring.characteristic() == 2:
        ev = eigenvalues_in_ring(m)
        if ev is None:
            raise UnsupportedRing("eigenvalues lie in an unrepresentable extension field")
        return ev[0], ev[1], None
    return _roots(m.trace(), m.disc())


def _basis_change(v: tuple[Scalar, Scalar], w: tuple[Scalar, Scalar]) -> GroupElement:
    """The conjugator sending the lines of v and w to the coordinate axes."""
    p = Mat2(v[0], w[0], v[1], w[1])
    return GroupElement(p).inverse()


def _eigenbasis(s: MatSeq, k: int = 0, shared: int = 0) -> tuple[MatSeq, GroupElement, RingDescriptor | None]:
    """Lift s if the eigenvalues of s[k] need it, then conjugate onto the
    eigenbasis of s[k], first the eigenline that the first ``shared`` terms
    also have (the first eigenvalue's if both do): v1's when they all have
    c = 0 on (v1, v2), else v2's, with the axes swapped.  Returns (form, g, ext)."""
    lam1, lam2, ext = _eigen_with_extension(s[k])
    s = _lift(s, ext)
    g = _basis_change(primitive_vector(eigenvector_for(s[k], lam1)),
                      primitive_vector(eigenvector_for(s[k], lam2)))
    t = conjugate(g, s)
    lead = t.terms[:shared]
    if all(m.c.is_zero() for m in lead):
        return t, g, ext
    if all(m.b.is_zero() for m in lead):
        a, b, c, d = g.m.entries()
        swapped = MatSeq(Mat2(m.d, m.c, m.b, m.a) for m in t.terms)
        return swapped, GroupElement(Mat2(c, d, a, b)), ext
    raise InternalInconsistency("the leading terms share no eigenline")


def _jordanizer(a: Mat2) -> tuple[GroupElement, Scalar]:
    """g with conjugate(g, a) = [[lam, 1], [0, lam]], for non-scalar a with
    zero discriminant."""
    ev = eigenvalues_in_ring(a)
    if ev is None:
        raise InternalInconsistency("zero discriminant but no eigenvalue in the field")
    lam = ev[0]
    ring = a.ring
    n = a - Mat2.identity(ring).scale(lam)
    w = (ring.one(), ring.zero())
    img = (n.a, n.c)
    if img[0].is_zero() and img[1].is_zero():
        w = (ring.zero(), ring.one())
        img = (n.b, n.d)
    g = _basis_change(img, w)
    return g, lam


def _lift(s: MatSeq, ext: RingDescriptor | None) -> MatSeq:
    return lift_seq(s, ext) if ext is not None else s


def _unit_b2(tag: CanonicalTag, perm: tuple[int, ...], t: MatSeq, g1: GroupElement,
             ext: RingDescriptor | None) -> CanonicalResult:
    """The result for t = conjugate(g1, permuted input), after conjugating by
    diag(1, b2) with b2 = t[1].b != 0: each term (a, b, c, d) becomes
    (a, b/b2, c b2, d), and g1's second row is multiplied by b2."""
    b2, g = t[1].b, g1.m
    form = MatSeq(Mat2(m.a, m.b / b2, m.c * b2, m.d) for m in t.terms)
    g = GroupElement(Mat2(g.a, g.b, g.c * b2, g.d * b2))
    return CanonicalResult(tag, perm, form, g, ext)


# ---------------------------------------------------------------------------
# canonicalize, case by case


def _canon_commutative(s: MatSeq, tag: CanonicalTag, k: int) -> CanonicalResult:
    """CommDiagonal onto the eigenbasis of the anchor s[k], CommJordanLike
    onto its Jordan basis; the terms keep their order."""
    if tag is CanonicalTag.COMM_DIAGONAL:
        form, g, ext = _eigenbasis(s, k)
        if not all(t.is_diagonal() for t in form.terms):
            raise InternalInconsistency("commuting terms did not diagonalize together")
    else:
        g, _ = _jordanizer(s[k])
        form, ext = conjugate(g, s), None
        if not all(t.is_upper_triangular() and t.e.is_zero() for t in form.terms):
            raise InternalInconsistency("commuting terms did not reach the Jordan-like form")
    return CanonicalResult(tag, _identity_perm(s.n), form, g, ext)


def _canon_stable_1b(s: MatSeq, front: tuple[int, ...]) -> CanonicalResult:
    perm = _front_perm(front, s.n)
    sp = s.permuted(perm)
    g1, _ = _jordanizer(sp[0])
    t = conjugate(g1, sp)
    a2 = t[1]
    if a2.c.is_zero():
        raise InternalInconsistency("nonzero pair obstruction with zero lower-left term")
    ring = t.ring
    four = ring.scalar_from_int(4)
    discz = a2.e * a2.e + four * a2.c * (a2.b - ring.one())
    r, ext = sqrt_with_extension(discz)
    if ext is not None:
        t = lift_seq(t, ext)
        g1 = GroupElement(lift_mat(g1.m, ext))
        ring = ext
    a2 = t[1]
    two_c2 = a2.c + a2.c
    best = None
    for sgn in (1, -1):
        root = r if sgn == 1 else -r
        z = (-(a2.e) + root) / two_c2
        h = GroupElement(Mat2(ring.one(), z, ring.zero(), ring.one()))
        cand = (conjugate(h, t), h * g1)
        if best is None or cand[0].sort_key() < best[0].sort_key():
            best = cand
    form, g = best
    return CanonicalResult(CanonicalTag.STABLE_1B, perm, form, g, ext)


def _canon_eigenbasis(s: MatSeq, tag: CanonicalTag, front: tuple[int, ...]) -> CanonicalResult:
    """Stable1a, Stable1c, Tri2a, Tri2b: onto the eigenbasis of the leading
    term, first its eigenline shared with no other term, the leading pair
    (Stable1c) or every term (Tri2a/b), then b2 = 1."""
    perm = _front_perm(front, s.n)
    shared = {CanonicalTag.STABLE_1A: 0, CanonicalTag.STABLE_1C: 2}.get(tag, s.n)
    t, g1, ext = _eigenbasis(s.permuted(perm), shared=shared)
    if tag is CanonicalTag.STABLE_1A:
        if t[1].b.is_zero() or t[1].c.is_zero():
            raise InternalInconsistency("nonzero pair obstruction with a triangular second term")
    elif tag is CanonicalTag.STABLE_1C:
        if not t[1].c.is_zero() or t[1].b.is_zero():
            raise InternalInconsistency("second term did not become strictly upper")
        if not t[2].b.is_zero() or t[2].c.is_zero():
            raise InternalInconsistency("third term is not strictly lower")
    else:
        if not all(m.is_upper_triangular() for m in t.terms):
            raise InternalInconsistency("sequence did not become upper triangular")
        if t[1].b.is_zero():
            raise InternalInconsistency("second kept term commutes with the first")
    return _unit_b2(tag, perm, t, g1, ext)


def canonicalize(s: MatSeq | Profile) -> CanonicalResult:
    """Conjugate s (after a deterministic rearrangement) onto the canonical
    representative of its orbit; at most one quadratic extension is adjoined."""
    p = Profile.of(s)
    tag, front = _case(p)
    if tag is CanonicalTag.ALL_SCALAR:
        return CanonicalResult(tag, _identity_perm(p.seq.n), p.seq,
                               GroupElement.identity(p.seq.ring), None)
    if tag in (CanonicalTag.COMM_DIAGONAL, CanonicalTag.COMM_JORDAN_LIKE):
        return _canon_commutative(p.seq, tag, p.reduction.kept_indices[0] - 1)
    if tag is CanonicalTag.STABLE_1B:
        return _canon_stable_1b(p.seq, front)
    return _canon_eigenbasis(p.seq, tag, front)


# ---------------------------------------------------------------------------
# similarity of commutative canonical forms


def commutative_similar(s1: MatSeq, s2: MatSeq) -> bool:
    """Similarity test for sequences already in a commutative canonical form
    (all diagonal, or all upper triangular with equal diagonal entries),
    decided by :func:`~matseq.similarity.are_similar`."""
    if not is_commutative(s1) or not is_commutative(s2):
        raise NotCommutative("commutative_similar needs commutative sequences")
    if s1.ring != s2.ring:
        raise RingMismatch(f"{s1.ring!r} vs {s2.ring!r}")
    if s1.n != s2.n:
        raise LengthMismatch(f"lengths {s1.n} and {s2.n}")

    def in_form(s: MatSeq) -> bool:
        return (all(t.is_diagonal() for t in s.terms)
                or all(t.is_upper_triangular() and t.e.is_zero() for t in s.terms))

    if not (in_form(s1) and in_form(s2)):
        raise NotApplicable("inputs must be in a commutative canonical form")
    return are_similar(s1, s2) is not None


# ---------------------------------------------------------------------------
# the dual sequence


def _require_form_1a(s: MatSeq) -> None:
    if s.n < 2:
        raise NotCanonical1a("a canonical pair needs at least two terms")
    a1, a2 = s[0], s[1]
    if not (a1.is_diagonal() and not a1.is_scalar()):
        raise NotCanonical1a("first term must be diagonal and non-scalar")
    if a2.b != s.ring.one():
        raise NotCanonical1a("second term must have upper-right entry 1")
    if a2.c.is_zero():
        raise NotCanonical1a("second term must have a nonzero lower-left entry")


def dual_sequence(s: MatSeq) -> MatSeq:
    """The partner sequence with the same semisimple invariants.

    For s in the stable canonical form with diagonal first term and b2 = 1,
    conjugating by [[0, 1/x], [-x, 0]] with x = sqrt(-c2) swaps the diagonal
    of every term while keeping b2 = 1 and c2 fixed.  Applying it twice
    returns a conjugate of s.
    """
    _require_form_1a(s)
    c2 = s[1].c
    x, ext = sqrt_with_extension(-c2)
    sp = _lift(s, ext)
    ring = sp.ring
    g = GroupElement(Mat2(ring.zero(), x.inverse(), -x, ring.zero()))
    return conjugate(g, sp)


# ---------------------------------------------------------------------------
# reconstruction from invariant values


def _leading_roots(t1: Scalar, t11: Scalar) -> tuple[Scalar, Scalar, RingDescriptor | None]:
    """Roots of x^2 - t1 x + (t1^2 - t11)/2, with one extension if needed."""
    disc = t1.ring.scalar_from_int(2) * t11 - t1 * t1
    if disc.is_zero():
        raise DegenerateDiscriminant("equal eigenvalues for the leading term")
    return _roots(t1, disc)


def _diagonal(a1: Scalar, d1: Scalar, t: Scalar, t1: Scalar) -> tuple[Scalar, Scalar]:
    """(a, d) with a + d = t and a1 a + d1 d = t1, for a1 != d1."""
    return (d1 * t - t1) / (d1 - a1), (t1 - a1 * t) / (d1 - a1)


def reconstruct_semisimple(v: PhiVector) -> MatSeq:
    """The canonical-form sequence whose semisimple invariant vector is v.

    The first pair is diag(a1, d1) and [[a2, 1], [c2, d2]].  For k >= 3 the
    traces tk, t1k fix (ak, dk); then t2k = a2 ak + d2 dk + c2 bk + ck and
    s12k = e1 (ck - c2 bk) with e1 = a1 - d1 != 0 fix bk and ck.
    """
    ring = v.ring
    if not ring.is_field:
        raise UnsupportedRing("reconstruction needs a field; lift the vector first")
    if ring.characteristic() == 2:
        raise Char2Unsupported("reconstruction needs characteristic != 2")
    if v.n < 2:
        raise LengthTooShort("reconstruction needs n >= 2")
    if len(v.values) != 4 * v.n - 3:
        raise LengthMismatch(f"expected {4 * v.n - 3} values, got {len(v.values)}")
    a1, d1, _ = _leading_roots(*v.values[:2])
    ring = a1.ring
    t2, t22, t12, *rest = (embed(x, ring) for x in v.values[2:])
    two = ring.scalar_from_int(2)
    e1 = a1 - d1
    a2, d2 = _diagonal(a1, d1, t2, t12)
    c2 = (t22 - a2 * a2 - d2 * d2) / two
    if c2.is_zero():
        raise ZeroC2("the reconstructed pair would have vanishing pair obstruction")
    zero, one = ring.zero(), ring.one()
    terms = [Mat2(a1, zero, zero, d1), Mat2(a2, one, c2, d2)]
    for i in range(0, len(rest), 4):
        tk, t1k, t2k, s12k = rest[i:i + 4]
        ak, dk = _diagonal(a1, d1, tk, t1k)
        u = t2k - a2 * ak - d2 * dk
        w = s12k / e1
        terms.append(Mat2(ak, (u - w) / (two * c2), (u + w) / two, dk))
    return MatSeq(terms)


def reconstruct_triangular(w: PsiValue) -> tuple[MatSeq, MatSeq]:
    """The two upper-triangular sequences (an e-flip pair) with invariant w."""
    ring = w.ring
    if not ring.is_field:
        raise UnsupportedRing("reconstruction needs a field; lift the value first")
    if ring.characteristic() == 2:
        raise Char2Unsupported("reconstruction needs characteristic != 2")
    if w.n < 2:
        raise LengthTooShort("reconstruction needs n >= 2")
    if len(w.traces) != 2 * w.n:
        raise LengthMismatch(f"expected {2 * w.n} trace values, got {len(w.traces)}")
    if w.plucker_full:
        raise NotApplicable("the full pairwise delta vector is outside the "
                            "reconstruction domain (first pair commutes)")
    if len(w.proj) != w.n - 1 or w.proj[0] != ring.one():
        raise NotApplicable("proj must have length n-1 and leading coordinate 1")
    a1, d1, _ = _leading_roots(w.traces[0], w.traces[1])
    ring = a1.ring
    zero = ring.zero()
    primary = [Mat2(a1, zero, zero, d1)]
    flipped = [Mat2(d1, zero, zero, a1)]
    for k in range(2, w.n + 1):
        tk, t1k = (embed(x, ring) for x in w.traces[2 * k - 2:2 * k])
        bk = embed(w.proj[k - 2], ring)
        ak, dk = _diagonal(a1, d1, tk, t1k)
        primary.append(Mat2(ak, bk, zero, dk))
        flipped.append(Mat2(dk, bk, zero, ak))
    return MatSeq(primary), MatSeq(flipped)


# ---------------------------------------------------------------------------
# desingularization for reconstruction


@dataclass(frozen=True)
class DesingularizeTransform:
    """Records the linear re-basing applied, enabling exact inversion.

    kind "pair": (A1, A2, ...) -> (A1 - A2, A1 + A2, ...)
    kind "triple": (A1, A2, A3, ...) -> (A1, A2 + A3, A2 - A3, ...)
    applied after the recorded 1-based permutation.
    """

    kind: str
    permutation: tuple[int, ...]

    def invert(self, t: MatSeq) -> MatSeq:
        ring = t.ring
        if ring.characteristic() == 2:
            raise Char2Unsupported("inverting the re-basing divides by 2")
        half = ring.scalar_from_int(2).inverse()
        terms = list(t.terms)
        if self.kind == "pair":
            b1, b2 = terms[0], terms[1]
            terms[0] = (b1 + b2).scale(half)
            terms[1] = (b2 - b1).scale(half)
        elif self.kind == "triple":
            b2, b3 = terms[1], terms[2]
            terms[1] = (b2 + b3).scale(half)
            terms[2] = (b2 - b3).scale(half)
        else:
            raise NotApplicable(f"unknown transform kind {self.kind!r}")
        inverse = [0] * len(self.permutation)
        for i, p in enumerate(self.permutation):
            inverse[p - 1] = i + 1
        return MatSeq(terms).permuted(tuple(inverse))


def desingularize_for_reconstruction(s: MatSeq | Profile) -> tuple[MatSeq, DesingularizeTransform]:
    """Re-base a stable sequence with degenerate leading pair into the
    semisimple reconstruction domain (first term diagonalizable over the
    closure, first pair non-commuting)."""
    p = Profile.of(s)
    tag, front = _case(p)
    if tag not in (CanonicalTag.STABLE_1B, CanonicalTag.STABLE_1C):
        raise NotApplicable(f"desingularization applies to Stable1b/Stable1c, not {tag.value}")
    perm = _front_perm(front, p.seq.n)
    sp = p.seq.permuted(perm)
    if tag is CanonicalTag.STABLE_1B:
        out = MatSeq([sp[0] - sp[1], sp[0] + sp[1], *sp.terms[2:]])
        return out, DesingularizeTransform("pair", perm)
    out = MatSeq([sp[0], sp[1] + sp[2], sp[1] - sp[2], *sp.terms[3:]])
    return out, DesingularizeTransform("triple", perm)
