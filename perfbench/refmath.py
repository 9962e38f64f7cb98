"""Exact reference arithmetic for the benchmark, written without matseq.

Values are plain Python numbers: residues modulo p, ``int``, ``Fraction``,
pairs ``(x, y)`` of ``Fraction`` meaning x + y*sqrt(d), and tuples of
``Fraction`` coefficients (low degree first, no trailing zeros) for Q[t].
A matrix is a 4-tuple ``(a, b, c, d)`` for [[a, b], [c, d]].

The corpus generator builds documents and their expected answers with this
module, and the checker validates returned conjugators with it, so neither
depends on the code under measurement.  The GF(p) oracles search the
projective line over GF(p) and GF(p^2) and the group GL2(GF(p)) directly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt


# ---------------------------------------------------------------------------
# rings


class GFRing:
    kind = "GF"
    is_field = True

    def __init__(self, p: int):
        self.p = p

    def json(self):
        return {"kind": "GF", "p": self.p}

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def is_unit(self, x):
        return x % self.p != 0

    def unit_div(self, x, u):
        return (x * pow(u, self.p - 2, self.p)) % self.p

    def to_json(self, x):
        return x

    def from_json(self, obj):
        return int(obj) % self.p


class ZRing:
    kind = "Z"
    is_field = False

    def json(self):
        return {"kind": "Z"}

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def is_unit(self, x):
        return x in (1, -1)

    def unit_div(self, x, u):
        return x * u

    def to_json(self, x):
        return x

    def from_json(self, obj):
        return int(obj)


class QRing:
    kind = "Q"
    is_field = True

    def json(self):
        return {"kind": "Q"}

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def is_unit(self, x):
        return x != 0

    def unit_div(self, x, u):
        return x / u

    def to_json(self, x):
        return str(x)

    def from_json(self, obj):
        return Fraction(obj)


class QSqrtRing:
    kind = "Qsqrt"
    is_field = True

    def __init__(self, d: Fraction):
        self.d = Fraction(d)

    def json(self):
        return {"kind": "Qsqrt", "d": str(self.d)}

    def zero(self):
        return (Fraction(0), Fraction(0))

    def one(self):
        return (Fraction(1), Fraction(0))

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def sub(self, x, y):
        return (x[0] - y[0], x[1] - y[1])

    def mul(self, x, y):
        return (x[0] * y[0] + self.d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def neg(self, x):
        return (-x[0], -x[1])

    def is_unit(self, x):
        return x != (0, 0)

    def unit_div(self, x, u):
        norm = u[0] * u[0] - self.d * u[1] * u[1]
        return self.mul(x, (u[0] / norm, -u[1] / norm))

    def to_json(self, x):
        return {"a": str(x[0]), "b": str(x[1]), "d": str(self.d)}

    def from_json(self, obj):
        if isinstance(obj, dict):
            if Fraction(obj["d"]) != self.d:
                raise ValueError(f"value over d={obj['d']} in Q(sqrt {self.d})")
            return (Fraction(obj["a"]), Fraction(obj["b"]))
        return (Fraction(obj), Fraction(0))

    def sqrt(self, x):
        """Some square root of x inside Q(sqrt d), or None."""
        u, v = x
        if v == 0:
            r = sqrt_fraction(u)
            if r is not None:
                return (r, Fraction(0))
            r = sqrt_fraction(u / self.d)
            return None if r is None else (Fraction(0), r)
        # (s + t sqrt d)^2 = u + v sqrt d  =>  s^2 = (u +- sqrt(u^2 - d v^2)) / 2
        m = sqrt_fraction(u * u - self.d * v * v)
        if m is None:
            return None
        for w in (m, -m):
            s = sqrt_fraction((u + w) / 2)
            if s:
                return (s, v / (2 * s))
        return None


def ptrim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class QtRing:
    kind = "Qt"
    is_field = False

    def json(self):
        return {"kind": "Qt"}

    def zero(self):
        return ()

    def one(self):
        return (Fraction(1),)

    def add(self, x, y):
        n = max(len(x), len(y))
        return ptrim((x[i] if i < len(x) else 0) + (y[i] if i < len(y) else 0)
                      for i in range(n))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if not x or not y:
            return ()
        out = [Fraction(0)] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                out[i + j] += a * b
        return ptrim(out)

    def neg(self, x):
        return tuple(-c for c in x)

    def is_unit(self, x):
        return len(x) == 1

    def unit_div(self, x, u):
        return tuple(c / u[0] for c in x)

    def to_json(self, x):
        return [str(c) for c in x]

    def from_json(self, obj):
        return ptrim(Fraction(c) for c in obj)


def ring_from_json(obj):
    kind = obj["kind"]
    if kind == "GF":
        return GFRing(int(obj["p"]))
    if kind == "Z":
        return ZRing()
    if kind == "Q":
        return QRing()
    if kind == "Qt":
        return QtRing()
    if kind == "Qsqrt":
        return QSqrtRing(Fraction(obj["d"]))
    raise ValueError(f"unknown ring kind {kind!r}")


def sqrt_fraction(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    n, d = isqrt(x.numerator), isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    return None


# ---------------------------------------------------------------------------
# matrices and sequences


def mmul(R, x, y):
    a, b, c, d = x
    e, f, g, h = y
    add, mul = R.add, R.mul
    return (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
            add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))


def msub(R, x, y):
    return tuple(R.sub(u, v) for u, v in zip(x, y))


def mscale(R, x, s):
    return tuple(R.mul(u, s) for u in x)


def adj(R, x):
    a, b, c, d = x
    return (d, R.neg(b), R.neg(c), a)


def det(R, x):
    a, b, c, d = x
    return R.sub(R.mul(a, d), R.mul(b, c))


def trace(R, x):
    return R.add(x[0], x[3])


def disc(R, x):
    t = trace(R, x)
    four = R.add(R.add(R.one(), R.one()), R.add(R.one(), R.one()))
    return R.sub(R.mul(t, t), R.mul(four, det(R, x)))


def is_scalar(R, x):
    zero = R.zero()
    return x[1] == zero and x[2] == zero and x[0] == x[3]


def commute(R, x, y):
    """xy == yx, entry by entry (the diagonal entries of xy - yx are negatives)."""
    a, b, c, d = x
    e, f, g, h = y
    mul = R.mul
    return (mul(b, g) == mul(c, f)
            and R.add(mul(a, f), mul(b, h)) == R.add(mul(e, b), mul(f, d))
            and R.add(mul(c, e), mul(d, g)) == R.add(mul(g, a), mul(h, c)))


def sigma(R, x, y):
    """det(xy - yx), from the definition."""
    return det(R, msub(R, mmul(R, x, y), mmul(R, y, x)))


def delta_vanishes(R, x, y, z):
    """Delta(x, y, z) = tr(xyz - zyx)^2 is zero iff the two traces agree."""
    return trace(R, mmul(R, mmul(R, x, y), z)) == trace(R, mmul(R, mmul(R, z, y), x))


def conj_seq(R, g, mats):
    """(g x g^-1 for x in mats), for g with unit determinant."""
    dg = det(R, g)
    ginv = tuple(R.unit_div(u, dg) for u in adj(R, g))
    return [mmul(R, mmul(R, g, x), ginv) for x in mats]


def intertwines(R, g, x, y):
    """g x adj(g) == det(g) y: the conjugation g x g^-1 = y without dividing."""
    return mmul(R, mmul(R, g, x), adj(R, g)) == mscale(R, y, det(R, g))


def trace_word(R, mats, word):
    prod = mats[word[0] - 1]
    for j in word[1:]:
        prod = mmul(R, prod, mats[j - 1])
    return trace(R, prod)


def seq_to_json(R, mats):
    return {"ring": R.json(),
            "matrices": [[[R.to_json(m[0]), R.to_json(m[1])],
                          [R.to_json(m[2]), R.to_json(m[3])]] for m in mats]}


def seq_from_json(obj):
    R = ring_from_json(obj["ring"])
    return R, [mat_from_json(R, rows) for rows in obj["matrices"]]


def mat_from_json(R, rows):
    (a, b), (c, d) = rows
    return (R.from_json(a), R.from_json(b), R.from_json(c), R.from_json(d))


# ---------------------------------------------------------------------------
# structure of a sequence over a field or Euclidean ring


def commuting_classes(R, mats) -> list[list[int]]:
    """Non-scalar terms grouped by commuting with the class's first term
    (commuting is an equivalence relation on non-scalar 2x2 matrices);
    1-based indices in order of first appearance."""
    classes: list[list[int]] = []
    for i, m in enumerate(mats, start=1):
        if is_scalar(R, m):
            continue
        for cl in classes:
            if commute(R, mats[cl[0] - 1], m):
                cl.append(i)
                break
        else:
            classes.append([i])
    return classes


def first_sigma_pair(R, mats):
    zero = R.zero()
    n = len(mats)
    for j in range(n):
        for k in range(j + 1, n):
            if sigma(R, mats[j], mats[k]) != zero:
                return (j, k)
    return None


def first_delta_triple(R, mats):
    n = len(mats)
    for j in range(n):
        for k in range(j + 1, n):
            for l in range(k + 1, n):
                if not delta_vanishes(R, mats[j], mats[k], mats[l]):
                    return (j, k, l)
    return None


def canonical_tag(R, mats, classes, obstructed: bool | None = None):
    """The canonical-form case, from sigma, Delta and discriminants.

    ``obstructed=False`` states that every sigma and Delta is known to
    vanish (the sequence was built triangularizable), which skips the
    scans; otherwise the scans decide.
    """
    zero = R.zero()
    nonscalar = [m for m in mats if not is_scalar(R, m)]
    if len(classes) <= 1:
        if not nonscalar:
            return "AllScalar"
        return "CommJordanLike" if disc(R, nonscalar[0]) == zero else "CommDiagonal"
    pair = None if obstructed is False else first_sigma_pair(R, mats)
    if pair is not None:
        j, k = pair
        if disc(R, mats[j]) == zero and disc(R, mats[k]) == zero:
            return "Stable1b"
        return "Stable1a"
    if obstructed is not False and first_delta_triple(R, mats) is not None:
        return "Stable1c"
    if any(disc(R, mats[cl[0] - 1]) == zero for cl in classes):
        return "Tri2b"
    return "Tri2a"


# ---------------------------------------------------------------------------
# GF(p) oracles


def _nonresidue(p: int) -> int:
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


def common_lines(p: int, mats, ext: bool, limit: int) -> int:
    """Number (capped at ``limit``) of lines of F^2 invariant under every
    term, with F = GF(p) or, when ``ext``, GF(p^2) = GF(p)[w], w^2 a
    non-residue.  Over GF(p^2) every eigenvector of a 2x2 matrix over GF(p)
    is defined, so this decides triangularizability over the closure."""
    if ext:
        w2 = _nonresidue(p)
        elems = list(product(range(p), repeat=2))

        def mul(x, y):
            return ((x[0] * y[0] + w2 * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

        def lin(s, x, t, y):  # s*x + t*y with s, t in GF(p)
            return ((s * x[0] + t * y[0]) % p, (s * x[1] + t * y[1]) % p)
        one, zero = (1, 0), (0, 0)
    else:
        elems = list(range(p))

        def mul(x, y):
            return x * y % p

        def lin(s, x, t, y):
            return (s * x + t * y) % p
        one, zero = 1, 0
    found = 0
    for v in [(one, t) for t in elems] + [(zero, one)]:
        x, y = v
        # (a x + b y) y - (c x + d y) x == 0 for every term
        if all(mul(lin(a, x, b, y), y) == mul(lin(c, x, d, y), x) for a, b, c, d in mats):
            found += 1
            if found >= limit:
                break
    return found


def gl2(p: int):
    return [g for g in product(range(p), repeat=4) if (g[0] * g[3] - g[1] * g[2]) % p]


def gf_similar(p: int, s1, s2) -> bool:
    """Brute-force simultaneous similarity over GF(p), after a filter on the
    traces of all words of length at most two (conjugation invariants)."""
    R = GFRing(p)
    n = len(s1)
    for j in range(n):
        if trace(R, s1[j]) != trace(R, s2[j]) or det(R, s1[j]) != det(R, s2[j]):
            return False
        for k in range(j, n):
            if trace(R, mmul(R, s1[j], s1[k])) != trace(R, mmul(R, s2[j], s2[k])):
                return False
    return any(all(intertwines(R, g, x, y) for x, y in zip(s1, s2)) for g in gl2(p))
