"""Simultaneous similarity, stability, and the separating invariants.

``are_similar`` decides whether two equal-length sequences are conjugate.
Conjugation keeps the trace and determinant of every term, so a mismatch
there decides at once.  Otherwise the first non-scalar term A1 of s1 and
its partner B1 in s2 fix the conjugator up to the centralizer of A1: the
intertwiners g A1 = B1 g form the plane spanned by g0 and g0 A1, where g0
maps the cyclic basis of A1 to that of B1.  When s1 is commutative every
term commutes with that centralizer, so g0 decides.  Otherwise the first
term A2 that does not commute with A1 cuts the plane down to at most one
line, with partner B2.  The candidate, the primitive point of g0 or of
that line, is verified on every term: g A = B g.  Over Z and Q[t] the
decision is taken in the fraction field; the returned witness then is a
matrix with nonzero (possibly non-unit) determinant whose projective action
realizes the similarity.

``phi_prime`` and ``psi_prime`` compute the separating invariant vectors for
semisimple and triangularizable sequences respectively (characteristic
different from 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    Char2Unsupported,
    CommutativeInput,
    LengthMismatch,
    LengthTooShort,
    NotTriangularizable,
    RingMismatch,
    UnsupportedRing,
)
from .invariants import _greedy_pair, _vector, sigma_explicit, trace_word
from .matcore import GroupElement, Mat2, MatSeq, subsequence
from .rings import (
    RingDescriptor,
    Scalar,
    _int_from_json,
    primitive_vector,
    ring_from_json,
    ring_to_json,
    scalar_from_json,
)
from .triangular import Profile, commutes, is_commutative, triangularize


@dataclass(frozen=True)
class SimilarityWitness:
    """A matrix with nonzero determinant whose conjugation maps s1 to s2.

    Over a field the determinant is automatically a unit and
    :meth:`group_element` returns the genuine conjugator.  Over Z and Q[t]
    the witness may have a non-unit determinant; conjugation is then meant
    projectively (scalar factors act trivially), and :meth:`apply` performs
    the exact division.
    """

    m: Mat2

    def det_is_unit(self) -> bool:
        return self.m.det().is_unit()

    def group_element(self) -> GroupElement:
        return GroupElement(self.m)

    def apply(self, s: MatSeq) -> MatSeq:
        ring = self.m._ring_with(s.terms[0])
        div, det = ring.div, self.m.det().value
        out = ring.mat_conj(self.m.raw, self.m.adjugate().raw, [t.raw for t in s.terms])
        return MatSeq(Mat2._of(ring, [div(x, det) for x in y]) for y in out)


# ---------------------------------------------------------------------------
# similarity


def _cyclic_basis(x: Mat2) -> Mat2:
    """P = [v | x v] for the first of e1, e2, e1 + e2 that is cyclic for the
    non-scalar x, so P^-1 x P is the companion matrix of x."""
    one, zero = x.ring.one(), x.ring.zero()
    if not x.c.is_zero():
        return Mat2(one, x.a, zero, x.c)
    if not x.b.is_zero():
        return Mat2(zero, x.b, one, x.d)
    return Mat2(one, x.a, one, x.d)


def _anchor_intertwiner(a1: Mat2, b1: Mat2) -> Mat2 | None:
    """An invertible g0 with g0 a1 = b1 g0, or None when there is none.

    a1 is not scalar and b1 has the trace and determinant of a1.  A scalar
    b1 is then no conjugate of a1.  Otherwise both are cyclic with one
    characteristic polynomial, so g0 = P(b1) adj(P(a1)) will do, and the
    solutions of g a1 = b1 g are the g0 h with h in the centralizer of a1,
    the x g0 + y g0 a1.
    """
    if b1.is_scalar():
        return None
    return _cyclic_basis(b1) * _cyclic_basis(a1).adjugate()


def _pair_intertwiner(a1: Mat2, a2: Mat2, b1: Mat2, b2: Mat2) -> Mat2 | None:
    """The primitive g with g a1 = b1 g and g a2 = b2 g, or None.

    a1 and b1 are as for :func:`_anchor_intertwiner`, and a2 does not
    commute with a1, so g a2 = b2 g holds on at most a line of the
    x g0 + y g0 a1: with u = g0 a2 - b2 g0 and v = g0 a1 a2 - b2 g0 a1, the
    line is spanned by v_i g0 - u_i g0 a1 for the first entry i with
    (u_i, v_i) != 0.  When there is no line the result fails g a2 = b2 g,
    and the caller's check of every term rejects it.
    """
    g0 = _anchor_intertwiner(a1, b1)
    if g0 is None:
        return None
    g1 = g0 * a1
    ui, vi = next((x, y) for x, y in zip((g0 * a2 - b2 * g0).entries(),
                                         (g1 * a2 - b2 * g1).entries())
                  if not (x.is_zero() and y.is_zero()))
    g = g0.scale(vi) - g1.scale(ui)
    if g.det().is_zero():
        return None
    return _primitive(g)


def _primitive(m: Mat2) -> Mat2:
    """The primitive point of the line through m."""
    return Mat2(*primitive_vector(m.entries()))


def are_similar(s1: MatSeq, s2: MatSeq) -> SimilarityWitness | None:
    """A conjugator mapping s1 to s2, or None.

    Over Z and Q[t] similarity is decided in the fraction field; the witness
    may then have a non-unit determinant (see :class:`SimilarityWitness`).
    Over Q it is decided over Z on the terms cleared by ``ring.cleared``.
    The witness is a primitive point (``ring.primitive``): for a
    non-commutative s1 that of the one line of intertwiners, for a
    commutative one that of g0 (see :func:`_anchor_intertwiner`).
    """
    if s1.ring != s2.ring:
        raise RingMismatch(f"{s1.ring!r} vs {s2.ring!r}")
    if s1.n != s2.n:
        raise LengthMismatch(f"lengths {s1.n} and {s2.n}")
    ring = s1.ring
    domain, xs, ds = ring.cleared(t.raw for t in s1.terms)
    if domain is ring:
        return _similar(s1, s2)
    # g s1_i = s2_i g, with s1_i = xs_i/ds_i and s2_i = ys_i/es_i, exactly
    # when g (es_i xs_i) = (ds_i ys_i) g; both terms of a pair scale by one
    # factor, so the primitive witness does not change
    _, ys, es = ring.cleared(t.raw for t in s2.terms)
    w = _similar(_scaled(domain, xs, es), _scaled(domain, ys, ds))
    return None if w is None else SimilarityWitness(Mat2._of(ring, map(ring.coerce, w.m.raw)))


def _scaled(ring: RingDescriptor, terms, factors) -> MatSeq:
    mul = ring.mul
    return MatSeq(Mat2._of(ring, [mul(x, f) for x in t]) for t, f in zip(terms, factors))


def _similar(s1: MatSeq, s2: MatSeq) -> SimilarityWitness | None:
    """:func:`are_similar` on two sequences of one ring and length."""
    ring = s1.ring
    for a, b in zip(s1.terms, s2.terms):
        if a.trace() != b.trace() or a.det() != b.det():
            return None

    # j the first non-scalar term, k the first that does not commute with it
    j, k, _ = _greedy_pair(ring, [_vector(ring, t.raw) for t in s1.terms])
    if j is None:
        # scalar sequences are similar exactly when equal
        return SimilarityWitness(Mat2.identity(ring)) if s1 == s2 else None
    if k is not None:
        m = _pair_intertwiner(s1[j], s1[k], s2[j], s2[k])
    else:
        # every term commutes with s1[j], so with every h in its centralizer,
        # and each intertwiner g0 h of the anchor gives the same verdict
        g0 = _anchor_intertwiner(s1[j], s2[j])
        m = None if g0 is None else _primitive(g0)
    if m is None:
        return None
    # m is invertible over the fraction field, so m a adj(m) = det(m) b
    # exactly when m a = b m; raw values are canonical, so tuples compare
    mul, raw = ring.mat_mul, m.raw
    for a, b in zip(s1.terms, s2.terms):
        if mul(raw, a.raw) != mul(b.raw, raw):
            return None
    return SimilarityWitness(m)


def triple_reduction_check(s1: MatSeq, s2: MatSeq) -> bool:
    """All corresponding subsequences of length at most 3 are similar."""
    if s1.n != s2.n:
        raise LengthMismatch(f"lengths {s1.n} and {s2.n}")
    n = s1.n
    for size in (1, 2, 3):
        if size > n:
            break
        for J in combinations(range(1, n + 1), size):
            if are_similar(subsequence(s1, J), subsequence(s2, J)) is None:
                return False
    return True


# ---------------------------------------------------------------------------
# stability and semisimplicity (closure-level notions)


def is_stable(s: MatSeq | Profile) -> bool:
    """Stable for the conjugation action: not triangularizable over the closure.

    Over the algebraic closure the singlet tests always pass, and one
    quadratic extension suffices to realize a common eigenvector, so the
    sequence is stable exactly when some sigma or Delta obstruction is nonzero.
    """
    p = Profile.of(s)
    if not p.seq.ring.is_field:
        raise UnsupportedRing("stability is a field notion; lift to the fraction field")
    return p.obstruction is not None


def is_semisimple(s: MatSeq | Profile) -> bool:
    """Stable, or commutative and simultaneously diagonalizable over the closure.

    A commutative sequence is diagonalizable exactly when it is all scalar or
    some (equivalently any) non-scalar term has nonzero discriminant.
    """
    p = Profile.of(s)
    if not p.seq.ring.is_field:
        raise UnsupportedRing("semisimplicity is a field notion; lift to the fraction field")
    if is_stable(p):
        return True
    if not is_commutative(p):
        return False
    kept = p.reduction.kept_indices
    return not kept or not p.is_flat(kept[0] - 1)


# ---------------------------------------------------------------------------
# separating invariants


@dataclass(frozen=True)
class PhiVector:
    """The semisimple separating vector (t1, t11, t2, t22, t12, then
    (tk, t1k, t2k, s_12k) for k = 3..n); length 4n - 3."""

    ring: RingDescriptor
    n: int
    values: tuple[Scalar, ...]

    def to_json(self):
        return {"ring": ring_to_json(self.ring), "n": self.n,
                "values": [v.to_json() for v in self.values]}

    @classmethod
    def from_json(cls, obj) -> "PhiVector":
        ring = ring_from_json(obj["ring"])
        n = _int_from_json(obj["n"], "n")
        values = tuple(scalar_from_json(ring, v) for v in obj["values"])
        if len(values) != 4 * n - 3:
            raise ValueError(f"expected {4 * n - 3} values for n = {n}, got {len(values)}")
        return cls(ring, n, values)


@dataclass(frozen=True)
class PsiValue:
    """The triangularizable separating value: 2n traces (t1, t11, then
    (tk, t1k) for k = 2..n) plus a normalized projective point.

    ``proj`` lists (delta_12 : ... : delta_1n) scaled so the first nonzero
    coordinate is 1.  When every delta_1k vanishes the full pairwise vector
    (delta_jk for j < k) is used instead and ``plucker_full`` is set.
    """

    ring: RingDescriptor
    n: int
    traces: tuple[Scalar, ...]
    proj: tuple[Scalar, ...]
    plucker_full: bool = False

    def to_json(self):
        return {"ring": ring_to_json(self.ring), "n": self.n,
                "values": [v.to_json() for v in self.traces],
                "proj": [v.to_json() for v in self.proj],
                "plucker_full": self.plucker_full}

    @classmethod
    def from_json(cls, obj) -> "PsiValue":
        ring = ring_from_json(obj["ring"])
        n = _int_from_json(obj["n"], "n")
        traces = tuple(scalar_from_json(ring, v) for v in obj["values"])
        proj = tuple(scalar_from_json(ring, v) for v in obj["proj"])
        if len(traces) != 2 * n:
            raise ValueError(f"expected {2 * n} trace values for n = {n}")
        full = obj.get("plucker_full", False)
        if not isinstance(full, bool):
            raise ValueError(f"plucker_full must be a boolean, got {full!r}")
        return cls(ring, n, traces, proj, full)


def _require_phi_input(s: MatSeq, what: str) -> None:
    if s.ring.characteristic() == 2:
        raise Char2Unsupported(f"{what} requires characteristic != 2")
    if s.n < 2:
        raise LengthTooShort(f"{what} needs at least two terms")


def phi_prime(s: MatSeq) -> PhiVector:
    """The 4n - 3 separating traces for semisimple sequences (see
    :class:`PhiVector`), each a trace of a product of the ``ring.cleared``
    terms mapped back by ``ring.uncleared``; s_12k = t_12k - t_k21 is
    tr([A1, A2] Ak) with the commutator built once."""
    _require_phi_input(s, "phi_prime")
    ring = s.ring
    domain, xs, ds = ring.cleared([t.raw for t in s.terms])
    ds, mul, sub = ds or [1] * s.n, domain.mat_mul, domain.sub

    def value(x, *terms):
        return Scalar(ring, ring.uncleared(domain.add(x[0], x[3]), [ds[i] for i in terms]))

    x1, x2 = xs[0], xs[1]
    com = [sub(p, q) for p, q in zip(mul(x1, x2), mul(x2, x1))]
    vals = [value(x1, 0), value(mul(x1, x1), 0, 0), value(x2, 1), value(mul(x2, x2), 1, 1),
            value(mul(x1, x2), 0, 1)]
    for k in range(2, s.n):
        xk = xs[k]
        vals.extend([value(xk, k), value(mul(x1, xk), 0, k), value(mul(x2, xk), 1, k),
                     value(mul(com, xk), 0, 1, k)])
    return PhiVector(ring, s.n, tuple(vals))


def in_phi_domain(s: MatSeq) -> bool:
    """Whether phi_prime separates here: characteristic != 2, n >= 2 and
    sigma(A1, A2) != 0.  Then I, A1, A2, A1 A2 are a basis of M2 with a
    nondegenerate trace form, so the traces fix the pair up to conjugation
    and every later term by its coordinates; s is stable, so semisimple."""
    if s.n < 2 or s.ring.characteristic() == 2:
        return False
    return not sigma_explicit(s[0], s[1]).is_zero()


def psi_prime(s: MatSeq) -> PsiValue:
    """The separating value for triangularizable non-commutative sequences
    over a field (the projective point divides by the leading delta)."""
    if not s.ring.is_field:
        raise UnsupportedRing("psi_prime needs a field; lift the sequence first")
    _require_phi_input(s, "psi_prime")
    p = Profile(s)
    if is_commutative(p):
        raise CommutativeInput("psi_prime needs a non-commutative sequence")
    w = triangularize(p)
    if w is None:
        raise NotTriangularizable("psi_prime needs a triangularizable sequence")
    tri = w.triangular
    t = lambda *J: trace_word(tri, J)
    traces = [t(1), t(1, 1)]
    for k in range(2, s.n + 1):
        traces.extend([t(k), t(1, k)])
    b, e = tri.b, tri.e
    deltas = [b[0] * e[k] - e[0] * b[k] for k in range(1, s.n)]
    full = False
    if all(x.is_zero() for x in deltas):
        deltas = [b[j] * e[k] - e[j] * b[k]
                  for j in range(s.n) for k in range(j + 1, s.n)]
        full = True
    lead = next((x for x in deltas if not x.is_zero()), None)
    if lead is None:
        raise CommutativeInput("all pairwise deltas vanish on the triangular form")
    inv = lead.inverse()
    proj = tuple(x * inv for x in deltas)
    return PsiValue(s.ring, s.n, tuple(traces), proj, full)


def in_psi_domain(s: MatSeq) -> bool:
    """Whether psi_prime separates here: a field of characteristic != 2,
    triangularizable over it, first pair non-commuting."""
    if s.n < 2 or not s.ring.is_field or s.ring.characteristic() == 2:
        return False
    return not commutes(s[0], s[1]) and triangularize(s) is not None
