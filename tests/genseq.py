"""Deterministic random generators shared by the test modules.

Everything takes an explicit ``random.Random`` so the suites stay
reproducible; no module-level RNG state.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from matseq import (
    GF,
    GroupElement,
    Mat2,
    MatSeq,
    Q,
    QSqrt,
    QT,
    RingDescriptor,
    Scalar,
    Z,
    conjugate,
)

RING_POOL = (Z, Q, GF(3), GF(5), GF(7), QSqrt(2), QSqrt(-1), QT)
FIELD_POOL = (Q, GF(3), GF(5), GF(7), QSqrt(2), QSqrt(-1))


def rand_scalar(rng: Random, ring: RingDescriptor, span: int = 4) -> Scalar:
    """A small random scalar of the given ring."""
    if ring.kind == "GF":
        return ring(rng.randrange(ring.p))
    if ring.kind == "Z":
        return ring(rng.randint(-span, span))
    if ring.kind == "Q":
        return ring(Fraction(rng.randint(-span, span), rng.randint(1, 3)))
    if ring.kind == "Qsqrt":
        return ring((Fraction(rng.randint(-span, span)), Fraction(rng.randint(-2, 2))))
    if ring.kind == "Qt":
        deg = rng.randrange(3)
        coeffs = [Fraction(rng.randint(-span, span)) for _ in range(deg + 1)]
        return ring(coeffs)
    raise ValueError(f"unknown ring kind {ring.kind!r}")


def rand_wide_fraction(rng: Random) -> Fraction:
    """A nonzero rational whose numerator and denominator often pass 64 bits."""
    bits = rng.choice([3, 40, 80, 130])
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 2 ** bits), rng.randint(1, 2 ** bits))


def rand_mat(rng: Random, ring: RingDescriptor, span: int = 4) -> Mat2:
    return Mat2(*(rand_scalar(rng, ring, span) for _ in range(4)))


def rand_seq(rng: Random, ring: RingDescriptor, n: int, span: int = 4) -> MatSeq:
    return MatSeq(rand_mat(rng, ring, span) for _ in range(n))


def rand_group_element(rng: Random, ring: RingDescriptor, steps: int = 4) -> GroupElement:
    """A random invertible matrix.

    Over GF and Qsqrt: rejection sampling on the determinant.  Over Z and
    Q[t]: a product of elementary shears (determinant 1).  Over Q: integer
    shears plus an occasional diagonal scale, which keeps numerators small
    while still covering non-unimodular conjugators.
    """
    if ring.is_field and ring.kind != "Q":
        while True:
            m = rand_mat(rng, ring)
            if not m.det().is_zero():
                return GroupElement(m)
    g = Mat2.identity(ring)
    for _ in range(steps):
        x = ring.scalar_from_int(rng.randint(-2, 2)) if ring.kind == "Q" \
            else rand_scalar(rng, ring, 2)
        if rng.random() < 0.5:
            e = Mat2(ring.one(), x, ring.zero(), ring.one())
        else:
            e = Mat2(ring.one(), ring.zero(), x, ring.one())
        g = g * e
    if ring.kind == "Q" and rng.random() < 0.3:
        d = ring(Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])))
        g = g * Mat2(ring.one(), ring.zero(), ring.zero(), d)
    return GroupElement(g)


def rand_upper_seq(rng: Random, ring: RingDescriptor, n: int, span: int = 4) -> MatSeq:
    z = ring.zero()
    return MatSeq(
        Mat2(rand_scalar(rng, ring, span), rand_scalar(rng, ring, span), z,
             rand_scalar(rng, ring, span))
        for _ in range(n))


def rand_triangularizable_seq(rng: Random, ring: RingDescriptor, n: int) -> MatSeq:
    """A conjugate of a random upper-triangular sequence."""
    g = rand_group_element(rng, ring)
    return conjugate(g, rand_upper_seq(rng, ring, n))


def rand_reduced_seq(rng: Random, ring: RingDescriptor, length: int) -> MatSeq:
    """A sequence whose maximal reduction keeps every term.

    Terms A_j = [[j, 1], [0, 0]] have entry vectors (1, j, 0), which are
    pairwise non-proportional, so no two terms commute.
    """
    return MatSeq(
        Mat2(ring.scalar_from_int(j), ring.one(), ring.zero(), ring.zero())
        for j in range(1, length + 1))


def eflip(s: MatSeq) -> MatSeq:
    """Swap a and d in every term (the e -> -e involution)."""
    return MatSeq(Mat2(t.d, t.b, t.c, t.a) for t in s.terms)


def rand_admissible_phi(rng: Random, n: int):
    """A random semisimple invariant vector over Q that reconstructs.

    Built by forward evaluation on a random canonical-form pair extended by
    random later terms, which guarantees distinct leading eigenvalues in Q
    and nonzero c2.  Returns a PhiVector.
    """
    from matseq import phi_prime

    while True:
        a1 = Q(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
        d1 = Q(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
        c2 = Q(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
        if (a1 - d1).is_zero() or c2.is_zero():
            continue
        zero, one = Q.zero(), Q.one()
        terms = [Mat2(a1, zero, zero, d1),
                 Mat2(rand_scalar(rng, Q, 3), one, c2, rand_scalar(rng, Q, 3))]
        for _ in range(n - 2):
            terms.append(rand_mat(rng, Q, 3))
        return phi_prime(MatSeq(terms))
