"""Exact scalar arithmetic over the supported coefficient rings.

Five rings are available through a common descriptor interface:

* ``Z``        -- the integers, values are plain ``int``
* ``Q``        -- the rationals, values are ``fractions.Fraction``
* ``GF(p)``    -- the prime field with p elements, values are residues in
                  ``[0, p)``
* ``QSqrt(d)`` -- the quadratic extension Q(sqrt(d)) for a non-square
                  rational d, values are pairs ``(x, y)`` of ``Fraction``
                  meaning ``x + y*sqrt(d)``
* ``QT``       -- the univariate polynomial ring Q[t], values are tuples of
                  ``Fraction`` coefficients stored low-to-high with no
                  trailing zeros (the zero polynomial is the empty tuple)

Values keep these representations, but products, inverses and quotients over
Q(sqrt(d)) and Q[t] run on cleared integer numerators, with one Fraction built
per result coefficient.  The 2x2 kernels ``mat_mul`` and ``mat_det`` on raw
row-major 4-tuples clear each matrix once over Q and Q[t] (and ``mat_mul``
over Q(sqrt(d))) and build each entry as one integer dot product or
convolution sum.  The conjugation kernel ``mat_conj(g, h, xs)``, the g x h
for every x, clears g and h once per call over Q and Q(sqrt(d)).

``ring.cleared(terms)`` is the decider boundary: Q clears each raw 2x2 term
to an integer matrix over Z with one lcm per term, and the other rings
return their input.  The reduction, the obstruction scan and the
zero-discriminant tests read the entry vectors of the cleared terms (kept
by ``triangular.Profile``), ``are_similar`` runs on the cleared terms, and
``phi_prime`` maps each value back with ``ring.uncleared(value, scales)``.

Rational strings are parsed by ``_parse_fraction``: the common
``[+-]digits[/digits]`` by splitting at ``/`` and ``str.isdecimal``, every
other string by one regex; the split accepts only strings the regex would
accept, with the same value.

Every value is kept canonical, so ``==`` and ``hash`` on :class:`Scalar` are
structural.  Canonical square roots: nonnegative over Q, the least residue in
``[0, (p-1)/2]`` over GF(p), and positive sqrt(d)-part (tie broken by
nonnegative rational part) over Q(sqrt(d)).  Canonical gcd associates are
nonnegative over Z and monic over Q[t].
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm, prod
from typing import Sequence

from .errors import (
    ExactDivisionError,
    RingMismatch,
    TooLarge,
    TowerTooDeep,
    UnsupportedRing,
    ZeroVector,
)

# ---------------------------------------------------------------------------
# helpers on raw representations


def _sqrt_fraction(x: Fraction) -> Fraction | None:
    """Nonnegative rational square root of x, or None."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981  # psi_13 (Sorenson and Webster, 2015)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 primes as bases, proven correct below
    _MR_BOUND.  Larger n raise TooLarge instead of passing as probable primes."""
    if n >= _MR_BOUND:
        raise TooLarge(f"{n} exceeds the proven primality bound {_MR_BOUND}")
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


_TRIAL_BOUND = 10**6
_SQUAREFREE_MAX_BITS = 1024


def squarefree_part(x: Fraction) -> int:
    """The squarefree integer d with x = d * (rational square), for x != 0.

    Trial division by factors up to _TRIAL_BOUND.  The cofactor left over is
    accepted when it is 1, a perfect square, below _TRIAL_BOUND**2 or a proven
    prime; any other cofactor raises TooLarge rather than factor it, and so
    does a numerator times denominator longer than _SQUAREFREE_MAX_BITS,
    before any division: that bounds the work by the bit length.
    """
    if x == 0:
        raise ValueError("squarefree_part of zero is undefined")
    n = x.numerator * x.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    if n.bit_length() > _SQUAREFREE_MAX_BITS:
        raise TooLarge(f"squarefree part of a {n.bit_length()}-bit number: more than "
                       f"{_SQUAREFREE_MAX_BITS} bits")
    d = 1
    f = 2
    while f * f <= n and f <= _TRIAL_BOUND:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    if f * f <= n:
        r = isqrt(n)
        if r * r == n:
            n = 1
        elif n >= _MR_BOUND or not _is_prime(n):
            raise TooLarge(f"squarefree part: a {n.bit_length()}-bit cofactor has no "
                           f"factor below {_TRIAL_BOUND} and is not a proven prime")
    return sign * d * n


def _imat_mul(x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    """The product of two integer 2x2 matrices, raw row-major 4-tuples."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


# polynomial helpers: tuples of Fraction, low-to-high, no trailing zeros

_PZERO: tuple[Fraction, ...] = ()


def _ptrim(cs: Sequence) -> tuple:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _clear(f: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ns, den) with f[i] = ns[i] / den, integer ns[i], den the lcm of the
    denominators: one pass over ``as_integer_ratio``."""
    ratios = [c.as_integer_ratio() for c in f]
    den = _int_lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _pclear(fs: Sequence[tuple]) -> tuple[list[list[int]], int]:
    """(ns, den) with fs[i] = ns[i] / den coefficientwise, integer ns[i]."""
    flat, den = _clear([c for f in fs for c in f])
    it = iter(flat)
    return [[next(it) for _ in f] for f in fs], den


def _padd(f: tuple, g: tuple) -> tuple:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _ptrim(out)


def _pneg(f: tuple) -> tuple:
    return tuple([-c for c in f])


def _psub(f: tuple, g: tuple) -> tuple:
    return _padd(f, _pneg(g))


def _pconv(den: int, *pairs: tuple[list[int], list[int]]) -> tuple:
    """The sum of the f*g over the pairs of integer coefficient lists, divided
    by den: one convolution sum, trimmed, one Fraction per coefficient."""
    out = [0] * max(len(f) + len(g) for f, g in pairs)
    for f, g in pairs:
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
    return tuple([Fraction(c, den) for c in _ptrim(out)])


def _pmul(f: tuple, g: tuple) -> tuple:
    (fs, df), (gs, dg) = _clear(f), _clear(g)
    return _pconv(df * dg, (fs, gs))


def _pscale(f: tuple, c: Fraction) -> tuple:
    if c == 0:
        return _PZERO
    return tuple([a * c for a in f])


def _pseudo_divmod(fs: list[int], gs: list[int]) -> tuple[list[int], list[int], int]:
    """(q, r, m) with m*fs = q*gs + r, deg r < deg gs, m = lc(gs)**len(q): q
    and r are integral, so each step divides exactly; r is left untrimmed."""
    lg, dg = gs[-1], len(gs) - 1
    q = [0] * max(len(fs) - dg, 0)
    m = lg ** len(q)
    r = [m * c for c in fs]
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = r[k + dg] // lg
        for i, b in enumerate(gs):
            r[i + k] -= c * b
    return q, r[:dg], m


def _pdivmod(f: tuple, g: tuple) -> tuple[tuple, tuple]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    (fs, df), (gs, dg) = _clear(f), _clear(g)
    q, r, m = _pseudo_divmod(fs, gs)
    # f = (q*g + r) / (m*df) once g is read as its numerators over dg
    den = m * df
    return tuple([Fraction(c * dg, den) for c in q]), tuple([Fraction(c, den) for c in _ptrim(r)])


def _pgcd(f: tuple, g: tuple) -> tuple:
    """Monic gcd, from the primitive remainder sequence of the numerators."""
    fs, gs = _clear(f)[0], _clear(g)[0]
    while gs:
        r = _ptrim(_pseudo_divmod(fs, gs)[1])
        cont = _int_gcd(*r) or 1
        fs, gs = gs, [c // cont for c in r]
    return tuple([Fraction(c, fs[-1]) for c in fs]) if fs else _PZERO


def _pegcd(f: tuple, g: tuple) -> tuple[tuple, tuple, tuple]:
    """(gcd, u, v) with u*f + v*g = gcd, gcd monic (or zero)."""
    r0, r1 = f, g
    u0, u1 = (Fraction(1),), _PZERO
    v0, v1 = _PZERO, (Fraction(1),)
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _psub(u0, _pmul(q, u1))
        v0, v1 = v1, _psub(v0, _pmul(q, v1))
    if not r0:
        return _PZERO, _PZERO, _PZERO
    lc = r0[-1]
    return _pscale(r0, 1 / lc), _pscale(u0, 1 / lc), _pscale(v0, 1 / lc)


def _psqrt(f: tuple) -> tuple | None:
    """Square root in Q[t] with positive leading coefficient, or None."""
    if not f:
        return _PZERO
    d = len(f) - 1
    if d % 2:
        return None
    lc = _sqrt_fraction(f[-1])
    if lc is None:
        return None
    m = d // 2
    u = [Fraction(0)] * (m + 1)
    u[m] = lc
    for i in range(1, m + 1):
        # match the coefficient of t^(2m-i)
        acc = Fraction(0)
        for j in range(m - i + 1, m):
            k = 2 * m - i - j
            if m - i < k <= m:
                acc += u[j] * u[k]
        u[m - i] = (f[2 * m - i] - acc) / (2 * lc)
    r = _ptrim(u)
    if _pmul(r, r) == f:
        return r
    return None


_RATIONAL = re.compile(r"\s*([+-]?)(?:(\d+)(?:/(\d+))?|(?=\.?\d)(\d*)\.(\d*))\s*")


def _parse_fraction(x) -> Fraction:
    """A Fraction from a Fraction, an int or a string: optional sign, digits,
    then a /denominator or a decimal point; no exponent, nonzero denominator.

    The common ``[+-]digits[/digits]`` skips the regex: ``isdecimal`` accepts
    the same Unicode digits as ``\\d``.  Every other string, a zero
    denominator included, goes to the regex, which decides and words the
    refusal."""
    if x.__class__ is str:
        num, slash, den = x.partition("/")
        neg = num[:1] == "-"
        if neg or num[:1] == "+":
            num = num[1:]
        if num.isdecimal():
            n = -int(num) if neg else int(num)
            if not slash:
                return Fraction(n)
            if den.isdecimal() and (d := int(den)):
                return Fraction(n, d)
    elif isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    m = _RATIONAL.fullmatch(x) if isinstance(x, str) else None
    if m is None:
        raise ValueError(f"expected a rational string, got {x!r}")
    sign, num, den, whole, frac = m.groups()
    if num is None:
        n, d = int(whole or "0") * 10 ** len(frac) + int(frac or "0"), 10 ** len(frac)
    else:
        n, d = int(num), int(den or "1")
        if d == 0:
            raise ValueError(f"zero denominator in {x!r}")
    return Fraction(-n if sign == "-" else n, d)


def _decimal(x: int | Fraction) -> str:
    """str(x), refused with TooLarge past Python's int-to-str digit limit."""
    try:
        return str(x)
    except ValueError:
        raise TooLarge("a result has more digits than can be printed "
                       f"(limit {sys.get_int_max_str_digits()})") from None


def _int_primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """ints divided by their gcd, first nonzero entry positive (zero unchanged)."""
    g = _int_gcd(*ints)
    if g == 0:
        return tuple(ints)
    if next(n for n in ints if n) < 0:
        g = -g
    return tuple(n // g for n in ints)


def _sqrt_quadext(x: Fraction, y: Fraction, d: Fraction) -> tuple | None:
    """Canonical square root of x + y*sqrt(d) inside Q(sqrt(d)), or None."""
    if x == 0 and y == 0:
        return (Fraction(0), Fraction(0))
    if y == 0:
        r = _sqrt_fraction(x)
        if r is not None:
            return (r, Fraction(0))
        r = _sqrt_fraction(x / d)
        if r is not None:
            return (Fraction(0), r)
        return None
    n = _sqrt_fraction(x * x - d * y * y)
    if n is None:
        return None
    for s in (n, -n):
        u2 = (x + s) / 2
        u = _sqrt_fraction(u2)
        if u is not None and u != 0:
            v = y / (2 * u)
            if v < 0:
                u, v = -u, -v
            return (u, v)
    return None


# ---------------------------------------------------------------------------
# ring descriptors


class RingDescriptor:
    """Describes a coefficient ring and implements arithmetic on raw values.

    Subclasses are interned, so descriptor equality is both structural and,
    in practice, identity.  ``descriptor(value)`` coerces a convenient Python
    value into a :class:`Scalar`.
    """

    kind: str = "?"
    is_field: bool = False
    is_finite: bool = False
    # descriptor classes whose raw values ``coerce`` embeds into this ring
    subrings: tuple[type, ...] = ()

    def characteristic(self) -> int:
        return 0

    # construction ---------------------------------------------------------
    def __call__(self, value) -> "Scalar":
        return Scalar(self, self.coerce(value))

    def coerce(self, value):
        raise NotImplementedError

    def zero(self) -> "Scalar":
        return Scalar(self, self.raw_zero())

    def one(self) -> "Scalar":
        return Scalar(self, self.raw_one())

    def scalar_from_int(self, n: int) -> "Scalar":
        return Scalar(self, self.from_int(n))

    # raw arithmetic --------------------------------------------------------
    def raw_zero(self):
        raise NotImplementedError

    def raw_one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        """Exact division; raises ExactDivisionError when a/b leaves R."""
        raise NotImplementedError

    def try_sqrt_raw(self, a):
        """Canonical in-ring square root or None (all five rings)."""
        raise NotImplementedError

    def sort_key(self, a):
        """A total order on raw values, used for deterministic tie-breaks."""
        raise NotImplementedError

    # 2x2 kernels on raw row-major 4-tuples, overridden with cleared ones ----
    def mat_mul(self, x, y):
        add, mul = self.add, self.mul
        a, b, c, d = x
        e, f, g, h = y
        return (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
                add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))

    def mat_det(self, x):
        a, b, c, d = x
        return self.sub(self.mul(a, d), self.mul(b, c))

    def mat_conj(self, g, h, xs):
        """[g x h for x in xs], the conjugation kernel: two products each."""
        mul = self.mat_mul
        return [mul(mul(g, x), h) for x in xs]

    def cleared(self, terms):
        """(domain, int_terms, scales) with term i of the iterable of raw
        4-tuples equal to int_terms[i] / scales[i], int_terms[i] raw over the
        subring domain; here (self, terms, None), nothing cleared."""
        return self, terms, None

    def uncleared(self, value, scales):
        """value / prod(scales) for a value over the domain of ``cleared``."""
        return value

    # ring structure: the defaults are the field rules ----------------------
    def egcd(self, a, b):
        """(g, u, v) with a*u + b*v = g, g a canonical gcd associate.

        Over a field the gcd of a nonzero pair is 1; (0, 0) gives (0, 0, 0).
        """
        zero = self.raw_zero()
        if not self.is_zero(a):
            return self.raw_one(), self.inv(a), zero
        if not self.is_zero(b):
            return self.raw_one(), zero, self.inv(b)
        return zero, zero, zero

    def primitive(self, vals):
        """The canonical unit-content multiple of vals; zero vectors unchanged.

        Over a field the first nonzero entry becomes 1.
        """
        first = next((a for a in vals if not self.is_zero(a)), None)
        if first is None:
            return tuple(vals)
        inv = self.inv(first)
        return tuple(self.mul(a, inv) for a in vals)

    def adjoin_sqrt(self, a) -> tuple["Scalar", "RingDescriptor"]:
        """(root, extension) for a non-square a: a square root of a in a
        quadratic extension of this ring."""
        raise UnsupportedRing(f"no representable quadratic extension of {self!r}")

    # serialization ---------------------------------------------------------
    def value_to_json(self, a):
        raise NotImplementedError

    def value_from_json(self, obj):
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"kind": self.kind}

    def __repr__(self) -> str:
        return self.kind


class IntegerRing(RingDescriptor):
    kind = "Z"

    def coerce(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"not an integer: {value!r}")
        return value

    def raw_zero(self):
        return 0

    def raw_one(self):
        return 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ExactDivisionError(f"{a} is not a unit in Z")

    def div(self, a, b):
        if b == 0:
            raise ExactDivisionError("division by zero")
        q, r = divmod(a, b)
        if r:
            raise ExactDivisionError(f"{a} is not divisible by {b} in Z")
        return q

    def try_sqrt_raw(self, a):
        if a < 0:
            return None
        r = isqrt(a)
        return r if r * r == a else None

    def sort_key(self, a):
        return a

    def mat_mul(self, x, y):
        return _imat_mul(x, y)

    def egcd(self, a, b):
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            qq = old_r // r
            old_r, r = r, old_r - qq * r
            old_s, s = s, old_s - qq * s
            old_t, t = t, old_t - qq * t
        if old_r < 0:
            old_r, old_s, old_t = -old_r, -old_s, -old_t
        return old_r, old_s, old_t

    def primitive(self, vals):
        """Divided by the gcd, first nonzero entry positive."""
        return _int_primitive(vals)

    def value_to_json(self, a):
        return _decimal(a)

    def value_from_json(self, obj):
        if isinstance(obj, str):
            return int(obj)
        if isinstance(obj, int) and not isinstance(obj, bool):
            return obj
        raise ValueError(f"bad integer value: {obj!r}")


class RationalRing(RingDescriptor):
    kind = "Q"
    is_field = True
    subrings = (IntegerRing,)

    def coerce(self, value):
        return _parse_fraction(value)

    def raw_zero(self):
        return Fraction(0)

    def raw_one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise ExactDivisionError("division by zero")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ExactDivisionError("division by zero")
        return a / b

    def try_sqrt_raw(self, a):
        return _sqrt_fraction(a)

    def sort_key(self, a):
        return a

    def mat_mul(self, x, y):
        (xs, dx), (ys, dy) = _clear(x), _clear(y)
        den = dx * dy
        return tuple([Fraction(n, den) for n in _imat_mul(xs, ys)])

    def mat_det(self, x):
        (a, b, c, d), den = _clear(x)
        return Fraction(a * d - b * c, den * den)

    def mat_conj(self, g, h, xs):
        (gs, dg), (hs, dh) = _clear(g), _clear(h)
        return [tuple([Fraction(n, dg * dx * dh) for n in _imat_mul(_imat_mul(gs, ns), hs)])
                for ns, dx in map(_clear, xs)]

    def cleared(self, terms):
        """Each term over Z, times the lcm of its denominators."""
        pairs = [_clear(t) for t in terms]
        return Z, [ns for ns, _ in pairs], [den for _, den in pairs]

    def uncleared(self, value, scales):
        return Fraction(value, prod(scales))

    def primitive(self, vals):
        """Coprime integers (Q is the fraction field of Z), first nonzero
        entry positive."""
        return tuple(Fraction(n) for n in _int_primitive(_clear(vals)[0]))

    def adjoin_sqrt(self, a):
        d = squarefree_part(a)
        ext = QSqrt(d)
        return Scalar(ext, (Fraction(0), _sqrt_fraction(a / d))), ext

    def value_to_json(self, a):
        return _decimal(a)

    value_from_json = coerce


class PrimeFieldRing(RingDescriptor):
    kind = "GF"
    is_field = True
    is_finite = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise UnsupportedRing(f"GF({p}): modulus must be prime")
        self.p = p

    def characteristic(self) -> int:
        return self.p

    def coerce(self, value):
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.p
        raise ValueError(f"not a residue: {value!r}")

    def raw_zero(self):
        return 0

    def raw_one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise ExactDivisionError("division by zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def try_sqrt_raw(self, a):
        r = _sqrt_mod(a, self.p)
        if r is None:
            return None
        return min(r, (self.p - r) % self.p)

    def sort_key(self, a):
        return a

    def mat_mul(self, x, y):
        return tuple([v % self.p for v in _imat_mul(x, y)])

    def value_to_json(self, a):
        return a

    def value_from_json(self, obj):
        if isinstance(obj, int) and not isinstance(obj, bool):
            return obj % self.p
        if isinstance(obj, str):
            return int(obj) % self.p
        raise ValueError(f"bad residue: {obj!r}")

    def to_json(self):
        return {"kind": self.kind, "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"


class QuadExtRing(RingDescriptor):
    kind = "Qsqrt"
    is_field = True
    subrings = (IntegerRing, RationalRing)

    def __init__(self, d):
        d = _parse_fraction(d)
        if d == 0 or _sqrt_fraction(d) is not None:
            raise UnsupportedRing(f"Q(sqrt({d})): d must not be a rational square")
        self.d = d
        self._dn, self._dd = d.as_integer_ratio()

    def coerce(self, value):
        if isinstance(value, tuple) and len(value) == 2:
            return (_parse_fraction(value[0]), _parse_fraction(value[1]))
        return (_parse_fraction(value), Fraction(0))

    def raw_zero(self):
        return (Fraction(0), Fraction(0))

    def raw_one(self):
        return (Fraction(1), Fraction(0))

    def from_int(self, n):
        return (Fraction(n), Fraction(0))

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def sub(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def mul(self, a, b):
        # (n1/e1 + m1/f1 s)(n2/e2 + m2/f2 s), s*s = dn/dd, on cleared integers
        (n1, e1), (m1, f1) = a[0].as_integer_ratio(), a[1].as_integer_ratio()
        (n2, e2), (m2, f2) = b[0].as_integer_ratio(), b[1].as_integer_ratio()
        e, f, fd = e1 * e2, f1 * f2, f1 * f2 * self._dd
        return (Fraction(n1 * n2 * fd + self._dn * m1 * m2 * e, e * fd),
                Fraction(n1 * m2 * f1 * e2 + m1 * n2 * e1 * f2, e * f))

    def neg(self, a):
        return (-a[0], -a[1])

    def is_zero(self, a):
        return a[0] == 0 and a[1] == 0

    def is_unit(self, a):
        return not self.is_zero(a)

    def inv(self, a):
        # (x - y s) / (x*x - d*y*y) with x = n/e, y = m/f, on cleared integers
        dd, (n, e), (m, f) = self._dd, a[0].as_integer_ratio(), a[1].as_integer_ratio()
        norm = n * n * dd * f * f - self._dn * m * m * e * e
        if norm == 0:
            raise ExactDivisionError("division by zero")
        return (Fraction(n * e * dd * f * f, norm), Fraction(-m * e * e * dd * f, norm))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def try_sqrt_raw(self, a):
        return _sqrt_quadext(a[0], a[1], self.d)

    def sort_key(self, a):
        return a

    def mat_mul(self, x, y):
        # x = (X0 + X1 s)/dx, y = (Y0 + Y1 s)/dy, integer X0, X1, Y0, Y1, s*s = dn/dd
        (xs, dx), (ys, dy) = _pclear(x), _pclear(y)
        (x0, x1), (y0, y1) = zip(*xs), zip(*ys)
        den, dd, dn = dx * dy, self._dd, self._dn
        rat = zip(_imat_mul(x0, y0), _imat_mul(x1, y1))
        irr = zip(_imat_mul(x0, y1), _imat_mul(x1, y0))
        return tuple([(Fraction(p * dd + dn * q, den * dd), Fraction(u + v, den))
                      for (p, q), (u, v) in zip(rat, irr)])

    def mat_conj(self, g, h, xs):
        # with t = dd s, t*t = dn dd: each matrix is (X0 + X1 t)/den, integer X0, X1
        dd, tt = self._dd, self._dn * self._dd

        def split(x):
            ns, den = _pclear(x)
            return [dd * p for p, _ in ns], [q for _, q in ns], den * dd

        def mul(x, y):
            (x0, x1, dx), (y0, y1, dy) = x, y
            return ([p + tt * q for p, q in zip(_imat_mul(x0, y0), _imat_mul(x1, y1))],
                    [u + v for u, v in zip(_imat_mul(x0, y1), _imat_mul(x1, y0))], dx * dy)

        g, h = split(g), split(h)
        return [tuple([(Fraction(p, den), Fraction(q * dd, den)) for p, q in zip(y0, y1)])
                for y0, y1, den in (mul(mul(g, split(x)), h) for x in xs)]

    def adjoin_sqrt(self, a):
        raise TowerTooDeep(f"sqrt of {self!r}:{a!r} needs a second quadratic extension")

    def value_to_json(self, a):
        return {"a": _decimal(a[0]), "b": _decimal(a[1]), "d": _decimal(self.d)}

    def value_from_json(self, obj):
        if not isinstance(obj, dict) or set(obj) != {"a", "b", "d"}:
            raise ValueError(f"bad quadratic-extension value: {obj!r}")
        if _parse_fraction(obj["d"]) != self.d:
            raise ValueError(f"value tagged with d={obj['d']}, ring has d={self.d}")
        return (_parse_fraction(obj["a"]), _parse_fraction(obj["b"]))

    def to_json(self):
        return {"kind": self.kind, "d": _decimal(self.d)}

    def __repr__(self):
        return f"QSqrt({self.d})"


class PolynomialRing(RingDescriptor):
    kind = "Qt"
    subrings = (IntegerRing, RationalRing)

    def coerce(self, value):
        if isinstance(value, (tuple, list)):
            return _ptrim([_parse_fraction(c) for c in value])
        return _ptrim([_parse_fraction(value)])

    def raw_zero(self):
        return _PZERO

    def raw_one(self):
        return (Fraction(1),)

    def from_int(self, n):
        return _ptrim([Fraction(n)])

    def add(self, a, b):
        return _padd(a, b)

    def sub(self, a, b):
        return _psub(a, b)

    def mul(self, a, b):
        return _pmul(a, b)

    def neg(self, a):
        return _pneg(a)

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return len(a) == 1

    def inv(self, a):
        if len(a) != 1:
            raise ExactDivisionError(f"{a} is not a unit in Q[t]")
        return (1 / a[0],)

    def div(self, a, b):
        if not b:
            raise ExactDivisionError("division by zero")
        q, r = _pdivmod(a, b)
        if r:
            raise ExactDivisionError("inexact polynomial division")
        return q

    def try_sqrt_raw(self, a):
        return _psqrt(a)

    def sort_key(self, a):
        return (len(a), a)

    def mat_mul(self, x, y):
        ((a, b, c, d), dx), ((e, f, g, h), dy) = _pclear(x), _pclear(y)
        den = dx * dy
        return (_pconv(den, (a, e), (b, g)), _pconv(den, (a, f), (b, h)),
                _pconv(den, (c, e), (d, g)), _pconv(den, (c, f), (d, h)))

    def mat_det(self, x):
        (a, b, c, d), den = _pclear(x)
        return _pconv(den * den, (a, d), (b, [-v for v in c]))

    def egcd(self, a, b):
        return _pegcd(a, b)

    def primitive(self, vals):
        """Divided by the polynomial gcd, first nonzero entry monic."""
        g = _PZERO
        for a in vals:
            g = _pgcd(g, a)
        if not g:
            return tuple(vals)
        # g is monic: dividing by lc*g makes the first nonzero quotient monic
        g = _pscale(g, next(a for a in vals if a)[-1])
        return tuple([self.div(a, g) for a in vals])

    def value_to_json(self, a):
        return [_decimal(c) for c in a]

    def value_from_json(self, obj):
        if not isinstance(obj, list):
            raise ValueError(f"bad polynomial value: {obj!r}")
        return _ptrim([_parse_fraction(c) for c in obj])


Z = IntegerRing()
Q = RationalRing()
QT = PolynomialRing()

_GF_CACHE: dict[int, PrimeFieldRing] = {}
_QSQRT_CACHE: dict[Fraction, QuadExtRing] = {}


def GF(p: int) -> PrimeFieldRing:
    ring = _GF_CACHE.get(p)
    if ring is None:
        ring = _GF_CACHE[p] = PrimeFieldRing(p)
    return ring


def QSqrt(d) -> QuadExtRing:
    d = _parse_fraction(d)
    ring = _QSQRT_CACHE.get(d)
    if ring is None:
        ring = _QSQRT_CACHE[d] = QuadExtRing(d)
    return ring


def ring_to_json(ring: RingDescriptor) -> dict:
    return ring.to_json()


def _int_from_json(x, what: str) -> int:
    """x as an integer: a JSON integer or a digit string, never a bool or a float."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def ring_from_json(obj) -> RingDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"bad ring descriptor: {obj!r}")
    kind = obj["kind"]
    if kind == "Z":
        return Z
    if kind == "Q":
        return Q
    if kind == "Qt":
        return QT
    if kind == "GF":
        return GF(_int_from_json(obj["p"], "GF modulus"))
    if kind == "Qsqrt":
        return QSqrt(obj["d"])
    raise ValueError(f"unknown ring kind: {kind!r}")


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """A ring element: a descriptor plus a canonical raw value.

    Arithmetic requires both operands to share a ring (plain ``int`` operands
    are coerced); equality does not coerce, so a scalar never equals a plain
    ``int`` and ``==`` agrees with ``hash``.  ``/`` is exact division and raises
    :class:`ExactDivisionError` when the quotient leaves the ring.
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: RingDescriptor, value):
        self.ring = ring
        self.value = value

    def _raw(self, other):
        if other.__class__ is Scalar:
            if other.ring is self.ring or other.ring == self.ring:
                return other.value
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")
        if isinstance(other, int) and not isinstance(other, bool):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        v = self._raw(other)
        if v is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._raw(other)
        if v is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.sub(self.value, v))

    def __rsub__(self, other):
        v = self._raw(other)
        if v is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.sub(v, self.value))

    def __mul__(self, other):
        v = self._raw(other)
        if v is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._raw(other)
        if v is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.div(self.value, v))

    def __rtruediv__(self, other):
        v = self._raw(other)
        if v is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.div(v, self.value))

    def __neg__(self):
        return Scalar(self.ring, self.ring.neg(self.value))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        mul, out, base = self.ring.mul, self.ring.raw_one(), self.value
        while n:
            if n & 1:
                out = mul(out, base)
            n >>= 1
            if n:
                base = mul(base, base)
        return Scalar(self.ring, out)

    def __eq__(self, other):
        # plain ints compare unequal: a GF(p) scalar would equal infinitely
        # many of them, and no hash could agree with that
        if other.__class__ is Scalar:
            return self.ring == other.ring and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.value))

    def __bool__(self):
        return not self.ring.is_zero(self.value)

    def is_zero(self) -> bool:
        return self.ring.is_zero(self.value)

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.value)

    def inverse(self) -> "Scalar":
        return Scalar(self.ring, self.ring.inv(self.value))

    def sort_key(self):
        return self.ring.sort_key(self.value)

    def to_json(self):
        return self.ring.value_to_json(self.value)

    def __repr__(self):
        return f"{self.ring!r}:{self.value!r}"


def scalar_from_json(ring: RingDescriptor, obj) -> Scalar:
    return Scalar(ring, ring.value_from_json(obj))


# ---------------------------------------------------------------------------
# module-level operations


def characteristic(ring: RingDescriptor) -> int:
    """0 for Z, Q, Q(sqrt d) and Q[t]; p for GF(p)."""
    return ring.characteristic()


def try_sqrt(x: Scalar) -> Scalar | None:
    """Canonical square root of x inside its ring, for field kinds only.

    Raises UnsupportedRing over Z and Q[t]; callers that need in-ring roots
    there should use :func:`sqrt_in_ring`.
    """
    if not x.ring.is_field:
        raise UnsupportedRing(f"try_sqrt needs a field kind, got {x.ring!r}")
    return sqrt_in_ring(x)


def sqrt_in_ring(x: Scalar) -> Scalar | None:
    """Canonical square root of x inside its ring, over all five rings."""
    r = x.ring.try_sqrt_raw(x.value)
    return None if r is None else Scalar(x.ring, r)


def bezout(x: Scalar, y: Scalar) -> tuple[Scalar, Scalar, Scalar]:
    """(g, p, q) with x*p + y*q = g and g a canonical gcd associate.

    Over fields the gcd of a nonzero pair is 1; (0, 0) gives (0, 0, 0).
    """
    ring = x.ring
    if ring != y.ring:
        raise RingMismatch(f"{ring!r} vs {y.ring!r}")
    return tuple(Scalar(ring, a) for a in ring.egcd(x.value, y.value))


def is_coprime_pair(x: Scalar, y: Scalar) -> bool:
    """True when x*R + y*R = R."""
    g, _, _ = bezout(x, y)
    return g.is_unit()


def primitive_vector(v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """A canonical unit-gcd multiple of the nonzero vector v.

    Over Q the vector is rescaled to coprime integers (fraction field of Z);
    over Z it is divided by the gcd with the first nonzero entry positive;
    over Q[t] it is divided by the polynomial gcd and normalized so the first
    nonzero entry is monic; over the remaining fields the first nonzero entry
    is scaled to 1.
    """
    v = tuple(v)
    if not v:
        raise ZeroVector("empty vector")
    ring = v[0].ring
    for s in v[1:]:
        if s.ring != ring:
            raise RingMismatch("mixed rings in vector")
    if all(s.is_zero() for s in v):
        raise ZeroVector("primitive_vector of the zero vector")
    return tuple(Scalar(ring, a) for a in ring.primitive([s.value for s in v]))


def embed(x: Scalar, target: RingDescriptor) -> Scalar:
    """Embed x into a larger ring (Z -> Q/Qt/QSqrt, Q -> QSqrt/Qt)."""
    if x.ring == target:
        return x
    if isinstance(x.ring, target.subrings):
        return Scalar(target, target.coerce(x.value))
    raise UnsupportedRing(f"no embedding {x.ring!r} -> {target!r}")


def sqrt_with_extension(x: Scalar) -> tuple[Scalar, RingDescriptor | None]:
    """A canonical square root of x, adjoining one quadratic extension if needed.

    Returns (root, extension) where extension is the new QSqrt descriptor or
    None when the root already lives in the ring of x.  A missing root over a
    quadratic extension raises TowerTooDeep; over GF(p) the required GF(p^2)
    is not representable and raises UnsupportedRing.
    """
    if not x.ring.is_field:
        raise UnsupportedRing(f"sqrt_with_extension needs a field, got {x.ring!r}")
    r = x.ring.try_sqrt_raw(x.value)
    if r is not None:
        return Scalar(x.ring, r), None
    return x.ring.adjoin_sqrt(x.value)
