"""Simultaneous triangularization: decision procedures and witnesses.

Two non-scalar 2x2 matrices commute exactly when their entry vectors
(b, e, c) are proportional, which makes commuting an equivalence relation on
the non-scalar terms of a sequence.  ``maximal_reduction`` keeps the first
term of each class; it keys each term by the canonical unit-content multiple
of its entry vector, one pass over the terms.  Triangularizability is
insensitive to the dropped terms.  The raw entry-vector kernel these rest
on lives in ``invariants.py``, next to sigma and Delta.

The full criterion: a sequence is triangularizable over its ring iff every
term is (eigenvalues in the ring plus a unimodular eigenvector) and all pair
obstructions sigma and triple obstructions Delta vanish.  Both obstructions
are functions of the entry vectors, so ``first_obstruction`` follows the
rank of the entry vectors: rank <= 1 has none, rank 2 has at most the pair
of its first two independent vectors, and rank 3 scans the sigma pairs in
order and falls back to the first independent triple.  Its cost is linear in
the length for rank <= 2 (every triangularizable sequence) and at most
quadratic for rank 3.

A :class:`Profile` keeps the raw entry vectors of the terms of
``ring.cleared`` (over Q, integer vectors over Z), computed once.
``maximal_reduction`` and ``first_obstruction`` read them, given a profile
or a sequence, and ``Profile.is_flat`` reads each term's discriminant
e^2 + 4bc from them.  ``triangularize`` decides from the profile as
``is_triangularizable`` does.  The fast engine, kept as a second engine,
reduces first and, for reduced length >= 4, only tests sigma for pairs
whose smaller index is 1, 2 or 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ExactDivisionError, InternalInconsistency
from .invariants import (_det_against, _disc, _greedy_pair, _minors, _sigma_of_minors,
                         _vanish, _vector, sigma_explicit)
from .matcore import GroupElement, Mat2, MatSeq, conjugate
from .rings import RingDescriptor, Scalar, bezout, primitive_vector, sqrt_in_ring


@dataclass(frozen=True)
class ReductionInfo:
    """Indices (1-based) kept by a maximal reduction, plus the commuting classes.

    ``kept_indices`` is empty exactly when every term is scalar; downstream
    code treats that as the trivially triangularizable case rather than an
    error.
    """

    kept_indices: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def reduced_length(self) -> int:
        return len(self.kept_indices)

    @property
    def all_scalar(self) -> bool:
        return not self.kept_indices


@dataclass(frozen=True)
class TriangularizationWitness:
    """A conjugator g with conjugate(g, s) upper triangular, plus that form."""

    g: GroupElement
    triangular: MatSeq


def commutes(x: Mat2, y: Mat2) -> bool:
    """xy = yx, tested via the entry-vector minors (no matrix products)."""
    ring = x._ring_with(y)
    return _vanish(ring, _minors(ring, _vector(ring, x.raw), _vector(ring, y.raw)))


def maximal_reduction(s: MatSeq | Profile) -> ReductionInfo:
    """Partition non-scalar terms into commuting classes; keep the first of each.

    Two non-scalar terms commute exactly when their entry vectors are
    proportional, which is exactly when the vectors have the same canonical
    unit-content multiple (``ring.primitive``); that multiple keys the class.
    """
    ring, vs = Profile.of(s)._vectors
    classes: dict[tuple, list[int]] = {}
    for i, v in enumerate(vs, start=1):
        if not _vanish(ring, v):
            classes.setdefault(ring.primitive(v), []).append(i)
    members = list(classes.values())
    return ReductionInfo(tuple(m[0] for m in members), tuple(tuple(m) for m in members))


def first_obstruction(s: MatSeq | Profile) -> tuple[int, ...] | None:
    """The lexicographically first 0-based pair (j, k) with sigma != 0, else
    the first triple (j, k, l) with Delta != 0, else None.

    None means the sequence is triangularizable over a one-step quadratic
    closure of its ring.  One pass finds the greedy basis of the entry
    vectors v_i: ``_greedy_pair`` gives a, the first nonzero one, and b, the
    first not proportional to v_a; c is the first outside span(v_a, v_b).
    Delta(j, k, l) is the squared determinant of v_j, v_k, v_l, so every
    Delta vanishes below rank 3 and (a, b, c) is the first triple with
    Delta != 0 in rank 3.  In rank 2 every sigma is a squared coordinate
    determinant times sigma(a, b), so (a, b) is the first nonzero sigma or
    all vanish.  Only rank 3 scans the sigma pairs, in order, up to the
    first nonzero one.  The cost is linear in n up to rank 2 and at most
    quadratic in rank 3.
    """
    ring, vs = Profile.of(s)._vectors
    is_zero = ring.is_zero
    a, b, ab = _greedy_pair(ring, vs)
    if b is None:
        return None
    c = next((i for i in range(b + 1, len(vs))
              if not is_zero(_det_against(ring, ab, vs[i]))), None)
    if c is None:
        return None if is_zero(_sigma_of_minors(ring, ab)) else (a, b)
    nonzero = [i for i, v in enumerate(vs) if not _vanish(ring, v)]
    for jj, j in enumerate(nonzero):
        for k in nonzero[jj + 1:]:
            if not is_zero(_sigma_of_minors(ring, _minors(ring, vs[j], vs[k]))):
                return (j, k)
    return (a, b, c)


class Profile:
    """A sequence with its maximal reduction and first obstruction, each
    computed on first use and then shared by every decider given it.

    All three read the raw entry vectors of the terms of ``ring.cleared``,
    computed once: scaling a term changes neither its commuting class, nor
    whether a sigma or Delta vanishes, nor whether its discriminant does."""

    def __init__(self, s: MatSeq):
        self.seq = s

    @classmethod
    def of(cls, s: MatSeq | Profile) -> Profile:
        """s itself if it is already a profile, else a fresh one."""
        return s if isinstance(s, Profile) else cls(s)

    @cached_property
    def _vectors(self) -> tuple[RingDescriptor, list[tuple]]:
        """(domain, the raw entry vectors of the cleared terms over it)."""
        domain, terms, _ = self.seq.ring.cleared(t.raw for t in self.seq.terms)
        return domain, [_vector(domain, t) for t in terms]

    @cached_property
    def reduction(self) -> ReductionInfo:
        return maximal_reduction(self)

    @cached_property
    def obstruction(self) -> tuple[int, ...] | None:
        return first_obstruction(self)

    def is_flat(self, i: int) -> bool:
        """Whether term i (0-based) has a zero discriminant, so a single
        eigenvalue; clearing multiplies the discriminant by a nonzero square."""
        domain, vs = self._vectors
        return domain.is_zero(_disc(domain, vs[i]))


def is_commutative(s: MatSeq | Profile) -> bool:
    """Every pair of terms commutes: the maximal reduction keeps at most one."""
    return Profile.of(s).reduction.reduced_length <= 1


# ---------------------------------------------------------------------------
# single matrices


def eigenvalues_in_ring(m: Mat2) -> tuple[Scalar, Scalar] | None:
    """Roots of the characteristic polynomial inside the ring, or None.

    The first root is the canonical one: (tr + r)/2 with r the canonical
    square root of the discriminant; when the division by 2 leaves the ring
    (over Z: tr and r of different parity) there is no root in the ring.  In
    characteristic 2 the quadratic is solved by direct search.
    """
    ring = m.ring
    t, det = m.trace(), m.det()
    if ring.characteristic() == 2:
        roots = sorted((x for v in range(ring.p) for x in [Scalar(ring, v)]
                        if (x * x - t * x + det).is_zero()),
                       key=lambda x: x.sort_key(), reverse=True)
        return (roots[0], roots[-1]) if roots else None
    r = sqrt_in_ring(m.disc())
    if r is None:
        return None
    two = ring.scalar_from_int(2)
    try:
        return ((t + r) / two, (t - r) / two)
    except ExactDivisionError:
        return None


def eigenvector_for(m: Mat2, lam: Scalar) -> tuple[Scalar, Scalar] | None:
    """A nonzero ring eigenvector for the eigenvalue lam; None for scalar m."""
    v = (lam - m.d, m.c)
    if not (v[0].is_zero() and v[1].is_zero()):
        return v
    v = (m.b, lam - m.a)
    if not (v[0].is_zero() and v[1].is_zero()):
        return v
    return None


def complete_unimodular(v: tuple[Scalar, Scalar]) -> GroupElement:
    """A determinant-one matrix whose first column is the primitive vector v."""
    x, y = v
    g, p, q = bezout(x, y)
    if not g.is_unit():
        raise InternalInconsistency("completion of a non-primitive vector")
    ginv = g.inverse()
    p, q = p * ginv, q * ginv
    return GroupElement(Mat2(x, -q, y, p))


def is_eigenvector(m: Mat2, v: tuple[Scalar, Scalar]) -> bool:
    wx = m.a * v[0] + m.b * v[1]
    wy = m.c * v[0] + m.d * v[1]
    return (wx * v[1] - wy * v[0]).is_zero()


def singlet_triangularizable(m: Mat2) -> TriangularizationWitness | None:
    """A conjugator making the single matrix upper triangular, if one exists.

    Works over all five rings: the matrix must have its eigenvalues in the
    ring, and an eigenvector that extends to an invertible matrix (automatic
    over fields and the Euclidean rings supported here).
    """
    return triangularize(MatSeq([m]))


def _singlet_ok(m: Mat2) -> bool:
    """Whether ``singlet_triangularizable(m)`` finds a witness, without
    building it: over the supported fields and PIDs an eigenvector always
    extends to an invertible matrix, so the eigenvalues decide."""
    return m.is_upper_triangular() or eigenvalues_in_ring(m) is not None


def pair_triangularizable(x: Mat2, y: Mat2) -> bool:
    """Both singlets triangularizable and sigma(x, y) = 0."""
    if not sigma_explicit(x, y).is_zero():
        return False
    return _singlet_ok(x) and _singlet_ok(y)


# ---------------------------------------------------------------------------
# sequences


def is_triangularizable(s: MatSeq | Profile) -> bool:
    """Full criterion: no sigma or Delta obstruction, and the first non-scalar
    term A triangularizable over the ring.  Without an obstruction the terms
    share an eigenvector of A over the closure; it lies over the fraction
    field exactly when A's eigenvalues do, and then so does every term's
    eigenvalue on it (integral over Z and Q[t], which are integrally closed)."""
    p = Profile.of(s)
    if p.obstruction is not None:
        return False
    kept = p.reduction.kept_indices
    return not kept or _singlet_ok(p.seq.term(kept[0]))


def is_triangularizable_fast(s: MatSeq | Profile) -> bool:
    """Reduction-based engine, linear in the number of sigma tests.

    Reduced length 0 is trivially triangularizable.  Otherwise every kept
    term must pass the singlet test and the reduced subsequence must have no
    obstruction: scanned in full up to length 3, and for length l >= 4 only
    sigma(kept_j, kept_k) for j in {1, 2, 3} and j < k <= l.
    """
    p = Profile.of(s)
    red = p.reduction
    l = red.reduced_length
    if l == 0:
        return True
    kept = [p.seq.term(i) for i in red.kept_indices]
    if l <= 3:
        if first_obstruction(MatSeq(kept)) is not None:
            return False
    elif any(not sigma_explicit(kept[j], kept[k]).is_zero()
             for j in range(3) for k in range(j + 1, l)):
        return False
    return all(map(_singlet_ok, kept))


def triangularize(s: MatSeq | Profile) -> TriangularizationWitness | None:
    """A conjugator g with conjugate(g, s) upper triangular, or None.

    Decided as by :func:`is_triangularizable`: no obstruction, and the
    eigenvalues of the first non-scalar term (the anchor) in the ring.  The
    witness is the primitive eigenvector of the anchor that every term
    shares, completed to an invertible matrix by the Bezout identity.
    """
    p = Profile.of(s)
    s = p.seq
    ring = s.ring
    if s.is_upper_triangular():
        return TriangularizationWitness(GroupElement.identity(ring), s)
    if p.obstruction is not None:
        return None
    anchor = s.term(p.reduction.kept_indices[0])
    ev = eigenvalues_in_ring(anchor)
    if ev is None:
        return None
    candidates = [ev[0]] if ev[0] == ev[1] else [ev[0], ev[1]]
    nonscalar = [t for t in s.terms if not t.is_scalar()]
    for lam in candidates:
        vec = eigenvector_for(anchor, lam)
        if vec is None:
            continue
        vec = primitive_vector(vec)
        if all(is_eigenvector(t, vec) for t in nonscalar):
            g = complete_unimodular(vec).inverse()
            t = conjugate(g, s)
            if not t.is_upper_triangular():
                raise InternalInconsistency("common eigenvector did not triangularize")
            return TriangularizationWitness(g, t)
    raise InternalInconsistency("criterion passed but no common eigenvector found")
