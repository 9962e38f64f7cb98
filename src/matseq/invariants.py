"""Trace words and the conjugation invariants tau, sigma and Delta.

For terms A, B, C of a sequence:

* ``tau(A, B) = 2 tr(AB) - tr(A) tr(B)``; ``tau(A, A)`` is the discriminant.
* ``sigma(A, B) = det(AB - BA)``, the pair obstruction.
* ``big_delta(A, B, C) = (tr(ABC - CBA))^2``, the triple obstruction.

``sigma`` and ``big_delta`` are implemented by these defining expressions;
the closed forms in entry vectors and the Gram-matrix expressions are
provided separately so tests can confirm they agree.  The closed forms wrap
the raw entry-vector kernel defined here, which commuting, the obstruction
scan and ``are_similar`` read too.  The ``drensky_*``
functions expose the trace-algebra generators u_jk = 2 t_jk - t_j t_k and
s_jkl = t_jkl - t_lkj together with the two relations they satisfy.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BadIndex, Char2Unsupported, LengthTooShort, TooLarge
from .matcore import Mat2, MatSeq, commutator
from .rings import Scalar

# all_trace_words refuses to build more words than this
MAX_TRACE_WORDS = 50_000


def _require_odd_char(ring, what: str) -> None:
    if ring.characteristic() == 2:
        raise Char2Unsupported(f"{what} requires characteristic != 2")


# ---------------------------------------------------------------------------
# the raw entry-vector kernel: v = (b, a - d, c) on raw ring values


def _vector(ring, x: tuple) -> tuple:
    """The raw entry vector (b, a - d, c) of the raw row-major 2x2 term x."""
    return (x[1], ring.sub(x[0], x[3]), x[2])


def _disc(ring, v: tuple):
    """The discriminant e^2 + 4bc of the term with raw entry vector
    v = (b, e, c); it equals tr^2 - 4 det in every characteristic."""
    b, e, c = v
    return ring.add(ring.mul(e, e), ring.mul(ring.from_int(4), ring.mul(b, c)))


def _vanish(ring, xs) -> bool:
    """Every raw value in xs is zero."""
    return all(ring.is_zero(x) for x in xs)


def _minors(ring, u: tuple, v: tuple) -> tuple:
    """The 2x2 minors (p, q, r) of the raw 2x3 matrix (u; v), named as in
    ``sigma_explicit``: p = b_u e_v - e_u b_v, q = c_u e_v - e_u c_v,
    r = b_u c_v - c_u b_v.  All vanish exactly when u and v are proportional."""
    mul, sub = ring.mul, ring.sub
    return (sub(mul(u[0], v[1]), mul(u[1], v[0])),
            sub(mul(u[2], v[1]), mul(u[1], v[2])),
            sub(mul(u[0], v[2]), mul(u[2], v[0])))


def _sigma_of_minors(ring, m: tuple):
    """sigma = p q - r^2 from the minors of the two entry vectors."""
    p, q, r = m
    return ring.sub(ring.mul(p, q), ring.mul(r, r))


def _det_against(ring, m: tuple, w: tuple):
    """det [u v w] from the minors m = (p, q, r) of (u; v): w_c p - w_b q - w_e r."""
    p, q, r = m
    return ring.sub(ring.mul(w[2], p), ring.add(ring.mul(w[0], q), ring.mul(w[1], r)))


def _greedy_pair(ring, vs) -> tuple[int | None, int | None, tuple | None]:
    """(a, b, minors of (v_a; v_b)) for the raw entry vectors vs, None where
    missing: a the first nonzero vector (the first non-scalar term), b the
    first later one not proportional to v_a (not commuting with term a)."""
    a = next((i for i, v in enumerate(vs) if not _vanish(ring, v)), None)
    if a is not None:
        for b in range(a + 1, len(vs)):
            m = _minors(ring, vs[a], vs[b])
            if not _vanish(ring, m):
                return a, b, m
    return a, None, None


def trace_word(s: MatSeq, indices: Sequence[int]) -> Scalar:
    """t_J = tr(A_{j1} ... A_{jk}) for a nonempty 1-based index word J."""
    if not indices:
        raise BadIndex("a trace word needs at least one index")
    ring = s.ring
    prod = s.term(indices[0]).raw
    for j in indices[1:]:
        prod = ring.mat_mul(prod, s.term(j).raw)
    return Scalar(ring, ring.add(prod[0], prod[3]))


def tau(x: Mat2, y: Mat2) -> Scalar:
    """2 tr(xy) - tr(x) tr(y)."""
    two = x.ring.scalar_from_int(2)
    return two * (x * y).trace() - x.trace() * y.trace()


def tau_explicit(x: Mat2, y: Mat2) -> Scalar:
    """tau in entry vectors: e_x e_y + 2 b_x c_y + 2 c_x b_y."""
    two = x.ring.scalar_from_int(2)
    return x.e * y.e + two * (x.b * y.c) + two * (x.c * y.b)


def sigma(x: Mat2, y: Mat2) -> Scalar:
    """det [x, y], computed from the definition."""
    return commutator(x, y).det()


def sigma_explicit(x: Mat2, y: Mat2) -> Scalar:
    """det [x, y] in entry vectors:
    (b_x e_y - e_x b_y)(c_x e_y - e_x c_y) - (b_x c_y - c_x b_y)^2.
    """
    ring = x._ring_with(y)
    m = _minors(ring, _vector(ring, x.raw), _vector(ring, y.raw))
    return Scalar(ring, _sigma_of_minors(ring, m))


def sigma_from_tau(x: Mat2, y: Mat2) -> Scalar:
    """det [x, y] = (tau(x,x) tau(y,y) - tau(x,y)^2) / 4, char != 2."""
    _require_odd_char(x.ring, "sigma_from_tau")
    t = tau(x, y)
    four = x.ring.scalar_from_int(4)
    return (tau(x, x) * tau(y, y) - t * t) / four


def _det3(m: list[list[Scalar]]) -> Scalar:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def big_delta(x: Mat2, y: Mat2, z: Mat2) -> Scalar:
    """(tr(xyz - zyx))^2, computed from the definition."""
    t = (x * y * z - z * y * x).trace()
    return t * t


def big_delta_explicit(x: Mat2, y: Mat2, z: Mat2) -> Scalar:
    """The squared 3x3 determinant with columns (b_j, e_j, c_j)."""
    ring = x._ring_with(y)
    y._ring_with(z)
    det = _det_against(ring, _minors(ring, _vector(ring, x.raw), _vector(ring, y.raw)),
                       _vector(ring, z.raw))
    return Scalar(ring, ring.mul(det, det))


def big_delta_from_gram(x: Mat2, y: Mat2, z: Mat2) -> Scalar:
    """-det(tau Gram matrix) / 4, char != 2."""
    _require_odd_char(x.ring, "big_delta_from_gram")
    g = [[tau(x, x), tau(x, y), tau(x, z)],
         [tau(y, x), tau(y, y), tau(y, z)],
         [tau(z, x), tau(z, y), tau(z, z)]]
    four = x.ring.scalar_from_int(4)
    return -_det3(g) / four


# ---------------------------------------------------------------------------
# trace-algebra generators and their relations


def drensky_u(s: MatSeq, j: int, k: int) -> Scalar:
    """u_jk = 2 t_jk - t_j t_k (equals tau of the two terms)."""
    two = s.ring.scalar_from_int(2)
    return two * trace_word(s, (j, k)) - trace_word(s, (j,)) * trace_word(s, (k,))


def drensky_s(s: MatSeq, j: int, k: int, l: int) -> Scalar:
    """s_jkl = t_jkl - t_lkj; its square is big_delta of the three terms."""
    return trace_word(s, (j, k, l)) - trace_word(s, (l, k, j))


def drensky_relation_product(s: MatSeq, indices: Sequence[int]) -> Scalar:
    """LHS of s_abc s_def + det(u submatrix)/4 = 0 for six indices."""
    a, b, c, d, e, f = indices
    _require_odd_char(s.ring, "drensky_relation_product")
    m = [[drensky_u(s, a, d), drensky_u(s, a, e), drensky_u(s, a, f)],
         [drensky_u(s, b, d), drensky_u(s, b, e), drensky_u(s, b, f)],
         [drensky_u(s, c, d), drensky_u(s, c, e), drensky_u(s, c, f)]]
    four = s.ring.scalar_from_int(4)
    return drensky_s(s, a, b, c) * drensky_s(s, d, e, f) + _det3(m) / four


def drensky_relation_linear(s: MatSeq, indices: Sequence[int]) -> Scalar:
    """LHS of u_ea s_bcd - u_eb s_acd + u_ec s_abd - u_ed s_abc = 0."""
    a, b, c, d, e = indices
    return (drensky_u(s, e, a) * drensky_s(s, b, c, d)
            - drensky_u(s, e, b) * drensky_s(s, a, c, d)
            + drensky_u(s, e, c) * drensky_s(s, a, b, d)
            - drensky_u(s, e, d) * drensky_s(s, a, b, c))


def check_drensky_relations(s: MatSeq, indices: Sequence[int]) -> bool:
    """Both relations hold for the given indices (a, b, c, d, e, f).

    The product relation uses all six indices; the linear relation uses the
    first five.  Indices may repeat.
    """
    if len(indices) != 6:
        raise BadIndex("check_drensky_relations expects six indices")
    return (drensky_relation_product(s, indices).is_zero()
            and drensky_relation_linear(s, indices[:5]).is_zero())


def all_trace_words(s: MatSeq, max_len: int) -> dict[tuple[int, ...], Scalar]:
    """t_J for every index word J with 1 <= |J| <= max_len (repeats allowed)."""
    if max_len < 1:
        raise LengthTooShort("word length bound must be at least 1")
    count, power = 0, 1
    for _ in range(max_len):
        power *= s.n
        count += power
        if count > MAX_TRACE_WORDS:
            raise TooLarge(f"more than {MAX_TRACE_WORDS} trace words of length "
                           f"at most {max_len} over {s.n} terms")
    out: dict[tuple[int, ...], Scalar] = {}
    n = s.n
    words: list[tuple[tuple[int, ...], Mat2]] = [((), None)]
    for _ in range(max_len):
        nxt = []
        for word, prod in words:
            for j in range(1, n + 1):
                w = word + (j,)
                p = s.term(j) if prod is None else prod * s.term(j)
                out[w] = p.trace()
                nxt.append((w, p))
        words = nxt
    return out
