"""Ring arithmetic, canonical square roots, gcd helpers, serialization."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matseq import (
    GF,
    Q,
    QSqrt,
    QT,
    Scalar,
    Z,
    bezout,
    characteristic,
    embed,
    is_coprime_pair,
    primitive_vector,
    ring_from_json,
    ring_to_json,
    scalar_from_json,
    sqrt_in_ring,
    sqrt_with_extension,
    squarefree_part,
    try_sqrt,
)
from matseq.errors import (
    ExactDivisionError,
    RingMismatch,
    TooLarge,
    TowerTooDeep,
    UnsupportedRing,
    ZeroVector,
)
from matseq import rings

from genseq import rand_wide_fraction

RINGS = [Z, Q, GF(2), GF(3), GF(7), QSqrt(5), QSqrt(-1), QT]


def scalars(ring):
    """A hypothesis strategy for small scalars of one ring."""
    ints = st.integers(-8, 8)
    fracs = st.fractions(min_value=-8, max_value=8, max_denominator=4)
    if ring.kind == "Z":
        return ints.map(ring)
    if ring.kind == "Q":
        return fracs.map(ring)
    if ring.kind == "GF":
        return st.integers(0, ring.p - 1).map(ring)
    if ring.kind == "Qsqrt":
        return st.tuples(fracs, fracs).map(ring)
    return st.lists(fracs, min_size=0, max_size=3).map(ring)


def ring_and_triple():
    return st.sampled_from(RINGS).flatmap(
        lambda r: st.tuples(st.just(r), scalars(r), scalars(r), scalars(r)))


class TestRingAxioms:
    @given(ring_and_triple())
    @settings(max_examples=120)
    def test_commutative_ring_laws(self, data):
        ring, x, y, z = data
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + ring.zero() == x
        assert x * ring.one() == x
        assert x + (-x) == ring.zero()

    @given(ring_and_triple())
    @settings(max_examples=120)
    def test_no_zero_divisors(self, data):
        ring, x, y, _ = data
        if not x.is_zero() and not y.is_zero():
            assert not (x * y).is_zero()

    @given(ring_and_triple())
    @settings(max_examples=100)
    def test_exact_division_round_trip(self, data):
        ring, x, y, _ = data
        if y.is_zero():
            with pytest.raises(ExactDivisionError):
                (x * y) / y
        else:
            assert (x * y) / y == x

    @given(ring_and_triple())
    @settings(max_examples=100)
    def test_unit_inverse(self, data):
        ring, x, _, _ = data
        if x.is_unit():
            assert x * x.inverse() == ring.one()

    @given(ring_and_triple())
    @settings(max_examples=100)
    def test_json_round_trip(self, data):
        ring, x, _, _ = data
        r2 = ring_from_json(ring_to_json(ring))
        assert r2 == ring
        assert scalar_from_json(r2, x.to_json()) == x


class TestFieldInverses:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_prime_field_inverses_exhaustive(self, p):
        ring = GF(p)
        for a in range(1, p):
            x = ring(a)
            assert x * x.inverse() == ring.one()

    def test_gf_rejects_composite(self):
        with pytest.raises(UnsupportedRing):
            GF(4)

    def test_gf_large_moduli(self):
        assert GF(10**18 + 3).p == 10**18 + 3
        with pytest.raises(UnsupportedRing):
            GF(10**18 + 1)  # (10^6 + 1)(10^12 - 10^6 + 1)
        with pytest.raises(UnsupportedRing):
            GF(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
        with pytest.raises(TooLarge):
            GF(2**89 - 1)  # prime, but above the proven Miller-Rabin bound

    def test_gf_small_moduli_match_trial_division(self):
        for n in range(-2, 500):
            prime = n >= 2 and all(n % q for q in range(2, n))
            if prime:
                assert GF(n).p == n
            else:
                with pytest.raises(UnsupportedRing):
                    GF(n)

    def test_quadratic_extension_rejects_square_d(self):
        for d in (0, 1, 4, Fraction(9, 4)):
            with pytest.raises(UnsupportedRing):
                QSqrt(d)

    def test_quad_ext_inverse(self):
        k = QSqrt(2)
        x = k((Fraction(3), Fraction(1)))  # 3 + sqrt(2), norm 7
        assert x * x.inverse() == k.one()


class TestCanonicalSqrt:
    def test_rational_sqrt_nonnegative(self):
        assert try_sqrt(Q(Fraction(9, 4))) == Q(Fraction(3, 2))
        assert try_sqrt(Q(2)) is None
        assert try_sqrt(Q(0)) == Q(0)

    def test_integer_sqrt(self):
        assert sqrt_in_ring(Z(16)) == Z(4)
        assert sqrt_in_ring(Z(15)) is None
        assert sqrt_in_ring(Z(-4)) is None

    def test_try_sqrt_rejects_non_fields(self):
        with pytest.raises(UnsupportedRing):
            try_sqrt(Z(4))
        with pytest.raises(UnsupportedRing):
            try_sqrt(QT([1]))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_prime_field_sqrt_matches_exhaustive_search(self, p):
        ring = GF(p)
        for a in range(p):
            roots = [r for r in range(p) if (r * r) % p == a]
            got = sqrt_in_ring(ring(a))
            if not roots:
                assert got is None
            else:
                # canonical root: the representative in [0, (p-1)/2]
                assert got is not None
                assert got.value == min(roots)
                assert (got * got).value == a

    def test_quad_ext_sqrt(self):
        k = QSqrt(2)
        x = k((Fraction(3), Fraction(2)))  # (1 + sqrt2)^2
        assert sqrt_in_ring(x) == k((Fraction(1), Fraction(1)))
        assert sqrt_in_ring(k((Fraction(9), Fraction(0)))) == k((Fraction(3), Fraction(0)))
        assert sqrt_in_ring(k((Fraction(3), Fraction(0)))) is None

    def test_polynomial_sqrt(self):
        assert sqrt_in_ring(QT([1, 2, 1])) == QT([1, 1])
        assert sqrt_in_ring(QT([0, 1])) is None

    @given(st.sampled_from([Z, Q, GF(5), GF(7), QSqrt(3), QT]).flatmap(
        lambda r: st.tuples(st.just(r), scalars(r))))
    @settings(max_examples=100)
    def test_sqrt_of_square_recovers_a_root(self, data):
        ring, x = data
        r = sqrt_in_ring(x * x)
        assert r is not None
        assert r * r == x * x


class TestSquarefreePart:
    @pytest.mark.parametrize("value,expected", [
        (Fraction(8), Fraction(2)),
        (Fraction(-12), Fraction(-3)),
        (Fraction(9, 2), Fraction(2)),
        (Fraction(1), Fraction(1)),
        (Fraction(30), Fraction(30)),
        (Fraction(-1), Fraction(-1)),
    ])
    def test_examples(self, value, expected):
        assert squarefree_part(value) == expected

    @given(st.fractions(min_value=-50, max_value=50, max_denominator=12))
    @settings(max_examples=100)
    def test_quotient_is_a_square(self, x):
        if x == 0:
            return
        d = squarefree_part(x)
        q = x / d
        assert q > 0
        assert Fraction(q).limit_denominator() == q
        r = sqrt_in_ring(Q(q))
        assert r is not None


    @staticmethod
    def _trial_division(x: Fraction) -> int:
        """The unbounded trial division used before the factor bound."""
        n = x.numerator * x.denominator
        sign, n, d, f = (-1 if n < 0 else 1), abs(n), 1, 2
        while f * f <= n:
            e = 0
            while n % f == 0:
                n, e = n // f, e + 1
            d *= f if e % 2 else 1
            f += 1 if f == 2 else 2
        return sign * d * n

    @pytest.mark.parametrize("n", [
        999_983 * 1_000_003,          # two primes around the bound
        1_000_003 ** 2 * 6,           # square of a prime above the bound
        999_983 ** 2,
        -(2 ** 39 - 7),               # a prime below 10^12
        2 ** 20 * 3 ** 7 * 11,
        999_999_999_989,              # the largest prime below 10^12
        Fraction(999_983 * 5, 1_000_003),
    ])
    def test_matches_trial_division_below_1e12(self, n):
        x = Fraction(n)
        assert squarefree_part(x) == self._trial_division(x)

    @pytest.mark.parametrize("n,expected", [
        ((2 ** 61 - 1) * 12, (2 ** 61 - 1) * 3),      # proven prime cofactor
        (-5 * (2 ** 61 - 1) ** 2, -5),                # square cofactor
        pytest.param(2 ** 1023, 2, id="2^1023"),      # 1,024 bits, the most accepted
    ])
    def test_large_cofactor_accepted(self, n, expected):
        assert squarefree_part(Fraction(n)) == expected

    @pytest.mark.parametrize("n", [
        (2 ** 61 - 1) * (2 ** 31 - 1),                # composite, both factors large
        (2 ** 89 - 1) * 4,                            # beyond the proven primality bound
        pytest.param(Fraction(1, 2 ** 1024), id="1/2^1024"),  # over 1,024 bits
    ])
    def test_unfactorable_cofactor_refused(self, n):
        with pytest.raises(TooLarge):
            squarefree_part(Fraction(n))


class TestSqrtWithExtension:
    def test_stays_in_ring_when_possible(self):
        r, ext = sqrt_with_extension(Q(Fraction(9, 4)))
        assert ext is None and r == Q(Fraction(3, 2))

    def test_extends_once(self):
        r, ext = sqrt_with_extension(Q(8))
        assert ext == QSqrt(2)
        assert r * r == embed(Q(8), ext)

    def test_negative_discriminant_extends(self):
        r, ext = sqrt_with_extension(Q(-4))
        assert ext == QSqrt(-1)
        assert r * r == embed(Q(-4), ext)

    def test_second_extension_fails(self):
        k = QSqrt(2)
        with pytest.raises(TowerTooDeep):
            sqrt_with_extension(k((Fraction(3), Fraction(0))))

    def test_prime_field_extension_unrepresentable(self):
        with pytest.raises(UnsupportedRing):
            sqrt_with_extension(GF(5)(2))

    def test_non_field_rejected(self):
        with pytest.raises(UnsupportedRing):
            sqrt_with_extension(Z(2))


class TestBezout:
    def test_integers(self):
        g, p, q = bezout(Z(12), Z(18))
        assert g == Z(6)
        assert Z(12) * p + Z(18) * q == g

    def test_zero_pair(self):
        g, p, q = bezout(Z(0), Z(0))
        assert g == Z(0)
        assert Z(0) * p + Z(0) * q == g

    def test_polynomials_monic_gcd(self):
        x2m1 = QT([-1, 0, 1])
        xp1 = QT([1, 1])
        g, p, q = bezout(x2m1, xp1)
        assert g == xp1
        assert x2m1 * p + xp1 * q == g

    def test_field_bezout_trivial(self):
        g, p, q = bezout(Q(0), Q(5))
        assert g == Q(1)
        assert Q(0) * p + Q(5) * q == g

    @given(st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
    @settings(max_examples=100)
    def test_integer_identity(self, ab):
        a, b = ab
        g, p, q = bezout(Z(a), Z(b))
        assert Z(a) * p + Z(b) * q == g
        assert g.value >= 0
        if a or b:
            assert a % g.value == 0 and b % g.value == 0

    def test_coprime_pair(self):
        assert is_coprime_pair(Z(4), Z(9))
        assert not is_coprime_pair(Z(4), Z(6))


class TestPrimitiveVector:
    def test_rationals_to_coprime_integers(self):
        assert primitive_vector((Q("1/2"), Q("1/3"))) == (Q(3), Q(2))

    def test_integers_gcd_out_first_positive(self):
        assert primitive_vector((Z(-4), Z(6))) == (Z(2), Z(-3))

    def test_polynomials_monic_first(self):
        got = primitive_vector((QT([0]), QT([2, 2]), QT([0, 4])))
        assert got == (QT([0]), QT([1, 1]), QT([0, 2]))

    def test_field_leading_one(self):
        assert primitive_vector((GF(7)(0), GF(7)(3), GF(7)(5))) == (
            GF(7)(0), GF(7)(1), GF(7)(4))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            primitive_vector((Z(0), Z(0)))

    @pytest.mark.parametrize("ring", RINGS)
    def test_descriptor_keeps_zero_vectors(self, ring):
        zeros = (ring.raw_zero(),) * 4
        assert ring.primitive(zeros) == zeros

    def test_descriptor_rule_per_ring(self):
        assert Q.primitive((Fraction(-2, 3), Fraction(0), Fraction(4, 9))) == (
            Fraction(3), Fraction(0), Fraction(-2))
        assert Q.primitive((Fraction(0), Fraction(-2, 3))) == (Fraction(0), Fraction(1))
        assert Z.primitive((0, -6, 9)) == (0, 2, -3)
        assert QSqrt(2).primitive(((Fraction(0), Fraction(2)), (Fraction(4), Fraction(0)))) == (
            (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_mixed_rings_rejected(self):
        with pytest.raises(RingMismatch):
            primitive_vector((Z(1), Q(1)))


class TestEmbedAndCharacteristic:
    def test_embeddings(self):
        assert embed(Z(3), Q) == Q(3)
        assert embed(Q(Fraction(1, 2)), QSqrt(2)).value == (Fraction(1, 2), Fraction(0))
        assert embed(Z(2), QT) == QT([2])

    def test_unsupported_embedding(self):
        with pytest.raises(UnsupportedRing):
            embed(Q(1), GF(5))

    def test_characteristic(self):
        assert characteristic(Z) == 0
        assert characteristic(Q) == 0
        assert characteristic(GF(7)) == 7
        assert characteristic(QSqrt(2)) == 0
        assert characteristic(QT) == 0

    def test_interning(self):
        assert GF(5) is GF(5)
        assert QSqrt(2) is QSqrt(2)
        assert ring_from_json({"kind": "GF", "p": 5}) is GF(5)


class TestScalarBehavior:
    def test_int_coercion_in_operators(self):
        x = Q(Fraction(1, 2))
        assert x + 1 == Q(Fraction(3, 2))
        assert 2 * x == Q(1)
        assert x - 1 == Q(Fraction(-1, 2))
        assert x ** 2 == Q(Fraction(1, 4))

    def test_cross_ring_arithmetic_rejected(self):
        with pytest.raises(RingMismatch):
            Z(1) + Q(1)

    def test_sort_key_orders_deterministically(self):
        vals = [Q(3), Q(-1), Q(0), Q(Fraction(1, 2))]
        ordered = sorted(vals, key=lambda s: s.sort_key())
        assert ordered == [Q(-1), Q(0), Q(Fraction(1, 2)), Q(3)]

    def test_hash_consistency(self):
        assert hash(GF(5)(2)) == hash(GF(5)(2))
        assert len({Q(1), Q(1), Q(2)}) == 2
        assert len({GF(5)(2), GF(7)(2), Z(2), Q(2), QSqrt(3)(2), QSqrt(5)(2)}) == 6

    def test_int_equality_agrees_with_hash(self):
        assert Q(1) != 1 and not (Q(1) == 1) and not (1 == Q(1))
        assert GF(3)(1) != 4 and GF(3)(1) != 1
        assert len({Q(1), 1}) == 2
        assert Q(1) + 1 == Q(2)
        assert 1 - GF(3)(2) == GF(3)(2)

    def test_power_by_squaring(self):
        assert GF(7)(3) ** 10 ** 18 == GF(7)(pow(3, 10 ** 18, 7))
        assert Q(Fraction(-2, 3)) ** 5 == Q(Fraction(-32, 243))
        assert QT([1, 1]) ** 3 == QT([1, 3, 3, 1])
        assert Z(5) ** 0 == Z(1)


class TestScalarSyntax:
    @pytest.mark.parametrize("text,value", [
        ("3", Fraction(3)), ("-3/4", Fraction(-3, 4)), ("+0.25", Fraction(1, 4)),
        (".5", Fraction(1, 2)), ("2.", Fraction(2)), (" 7/14 ", Fraction(1, 2)),
    ])
    def test_accepted(self, text, value):
        assert scalar_from_json(Q, text) == Q(value)

    @pytest.mark.parametrize("text", [
        "1/0", "0/0", "1e3", "1E3", "1.5e2", "1e2000000", "inf", "nan", "1/2/3", "", "1/-2",
    ])
    def test_refused(self, text):
        with pytest.raises(ValueError):
            scalar_from_json(Q, text)
        with pytest.raises(ValueError):
            scalar_from_json(QT, [text])
        with pytest.raises(ValueError):
            scalar_from_json(QSqrt(2), {"a": text, "b": "0", "d": "2"})

    @pytest.mark.parametrize("value", [True, False, 1.5])
    def test_non_integer_json_refused(self, value):
        with pytest.raises(ValueError):
            scalar_from_json(Q, value)

    @pytest.mark.parametrize("p", [3.7, 5.0, True, None, [5]])
    def test_gf_modulus_must_be_an_integer(self, p):
        with pytest.raises(ValueError):
            ring_from_json({"kind": "GF", "p": p})

    def test_gf_modulus_as_string(self):
        assert ring_from_json({"kind": "GF", "p": "5"}) is GF(5)

    def test_parse_agrees_with_fraction(self):
        # the one-regex parser against Fraction's own string parser
        rng = random.Random(5)
        for _ in range(300):
            whole = str(rng.randrange(10 ** rng.randrange(1, 30))) if rng.random() < 0.8 else ""
            frac = str(rng.randrange(10 ** rng.randrange(1, 30)))
            text = rng.choice(["", "+", "-"]) + rng.choice([
                whole or "0", f"{whole or 0}/{rng.randrange(1, 10 ** 25)}",
                f"{whole}.{frac}", f"{whole or 0}.", f".{frac}"])
            assert rings._parse_fraction(text) == Fraction(text), text

    @staticmethod
    def _outcome(parse, text):
        try:
            return parse(text)
        except Exception as exc:  # the class is the outcome compared
            return type(exc)

    def test_fast_path_matches_regex_parser(self):
        # the split-and-isdecimal path in front of the regex accepts, refuses
        # and values exactly as the regex-only parser does
        edge = ["-0", "+5", "1/0", "1/-2", "1 /2", " 1/2 ", "1_0", "\u0661\u0662/\u0663",
                "--1", "1/", "/2", "+", "1" + "0" * 4999, "7/" + "3" * 5000, "-12/18"]
        rng = random.Random(20)
        alphabet = "0123456789" * 3 + "+-/._e "
        texts = edge + ["".join(rng.choices(alphabet, k=rng.randint(0, 7))) for _ in range(3000)]
        accepted = 0
        for text in texts:
            got = self._outcome(rings._parse_fraction, text)
            assert got == self._outcome(_regex_parse_fraction, text), text
            accepted += isinstance(got, Fraction)
        assert accepted > 300, accepted


_REGEX_RATIONAL = re.compile(r"\s*([+-]?)(?:(\d+)(?:/(\d+))?|(?=\.?\d)(\d*)\.(\d*))\s*")


def _regex_parse_fraction(x):
    """Reference: the regex-only string parser of ``rings._parse_fraction``."""
    m = _REGEX_RATIONAL.fullmatch(x)
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


# Reference kernels: the plain Fraction formulas that the integer kernels in
# matseq.rings replaced.  Results must match them value for value.

def _ref_ptrim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _ref_padd(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _ref_ptrim(out)


def _ref_psub(f, g):
    return _ref_padd(f, tuple(-c for c in g))


def _ref_pmul(f, g):
    out = [Fraction(0)] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _ref_ptrim(out)


def _ref_pdivmod(f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q, r = [Fraction(0)] * max(len(f) - len(g) + 1, 0), list(f)
    while len(_ref_ptrim(r)) >= len(g):
        r = list(_ref_ptrim(r))
        k = len(r) - len(g)
        q[k] = c = r[-1] / g[-1]
        for i, b in enumerate(g):
            r[i + k] -= c * b
    return _ref_ptrim(q), _ref_ptrim(r)


def _ref_pgcd(f, g):
    while g:
        f, g = g, _ref_pdivmod(f, g)[1]
    return tuple(c / f[-1] for c in f) if f else ()


def _ref_qmul(d, a, b):
    return (a[0] * b[0] + d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ref_qinv(d, a):
    n = a[0] * a[0] - d * a[1] * a[1]
    if n == 0:
        raise ExactDivisionError("division by zero")
    return (a[0] / n, -a[1] / n)


def _rand_fraction(rng):
    """Zero, small, or with numerator and denominator past 64 bits."""
    k = rng.randrange(10)
    if k < 2:
        return Fraction(0)
    if k < 7:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return Fraction(rng.randint(-2 ** 90, 2 ** 90), rng.randint(1, 2 ** 80))


def _rand_poly(rng, degree=3):
    return _ref_ptrim([_rand_fraction(rng) for _ in range(rng.randrange(degree + 2))])


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception class is part of the contract
        return "raised", type(exc)


def _assert_same(got, want, canonical):
    assert got == want
    if got[0] == "ok":
        assert hash(got[1]) == hash(want[1])
        canonical(got[1])


def _canonical_poly(f):
    assert isinstance(f, tuple) and all(type(c) is Fraction for c in f)
    assert not f or f[-1] != 0


def _canonical_pair(a):
    assert isinstance(a, tuple) and [type(c) for c in a] == [Fraction, Fraction]


class TestIntegerKernels:
    """The cleared-integer kernels against the Fraction formulas they replaced."""

    @pytest.mark.parametrize("d", [Fraction(2), Fraction(-3), Fraction(3, 8)])
    def test_quadratic_extension(self, d):
        ring, rng = QSqrt(d), random.Random(f"qsqrt/{d}")
        for _ in range(400):
            a = (_rand_fraction(rng), _rand_fraction(rng))
            b = (_rand_fraction(rng), _rand_fraction(rng))
            _assert_same(_outcome(ring.mul, a, b), _outcome(_ref_qmul, d, a, b), _canonical_pair)
            _assert_same(_outcome(ring.inv, a), _outcome(_ref_qinv, d, a), _canonical_pair)
            want = _outcome(lambda: _ref_qmul(d, a, _ref_qinv(d, b)))
            _assert_same(_outcome(ring.div, a, b), want, _canonical_pair)

    @pytest.mark.parametrize("name,new,ref", [
        ("mul", rings._pmul, _ref_pmul), ("add", rings._padd, _ref_padd),
        ("sub", rings._psub, _ref_psub), ("divmod", rings._pdivmod, _ref_pdivmod),
        ("gcd", rings._pgcd, _ref_pgcd),
    ])
    def test_polynomial(self, name, new, ref):
        rng = random.Random(f"poly/{name}")
        for _ in range(400):
            f, g = _rand_poly(rng), _rand_poly(rng)
            if name in ("divmod", "gcd") and rng.random() < 0.5:
                f = _ref_pmul(f, _rand_poly(rng, 2))   # exact quotients too
            canonical = (lambda qr: [_canonical_poly(p) for p in qr]) if name == "divmod" \
                else _canonical_poly
            _assert_same(_outcome(new, f, g), _outcome(ref, f, g), canonical)

    def test_polynomial_primitive(self):
        rng = random.Random("poly/primitive")
        for _ in range(200):
            common = _rand_poly(rng, 2)
            vals = [_ref_pmul(_rand_poly(rng, 2), common) for _ in range(rng.randrange(1, 4))]
            g = ()
            for v in vals:
                g = _ref_pgcd(g, v)
            if not g:
                assert QT.primitive(vals) == tuple(vals)
                continue
            quotients = [_ref_pdivmod(v, g)[0] for v in vals]
            lc = next(v for v in quotients if v)[-1]
            assert QT.primitive(vals) == tuple(tuple(c / lc for c in v) for v in quotients)


class TestMatConj:
    """ring.mat_conj(g, h, xs) against two products per term, both with the
    ring's own mat_mul and with the entrywise formula of the base class."""

    @pytest.mark.parametrize("ring", [
        Z, Q, GF(2), GF(5), QSqrt(2), QSqrt(Fraction(3, 8)), Q.adjoin_sqrt(Fraction(-3, 8))[1], QT,
    ], ids=repr)
    def test_matches_two_products(self, ring):
        rng = random.Random(f"mat_conj/{ring!r}")
        if ring is Q:
            draw = lambda: rand_wide_fraction(rng) if rng.random() < 0.8 else Fraction(0)
        elif ring.kind == "Qsqrt":
            draw = lambda: (_rand_fraction(rng), _rand_fraction(rng))
        elif ring is QT:
            draw = lambda: _rand_poly(rng, 2)
        else:
            draw = lambda: ring.coerce(rng.randint(-9, 9))
        entrywise = lambda x, y: rings.RingDescriptor.mat_mul(ring, x, y)
        for _ in range(40):
            g, h = (tuple(draw() for _ in range(4)) for _ in range(2))
            xs = [tuple(draw() for _ in range(4)) for _ in range(rng.randrange(1, 4))]
            got = ring.mat_conj(g, h, xs)
            assert got == [ring.mat_mul(ring.mat_mul(g, x), h) for x in xs]
            assert got == [entrywise(entrywise(g, x), h) for x in xs]

    def test_uncleared(self):
        assert Q.uncleared(6, [4, 3]) == Fraction(1, 2)
        assert Z.uncleared(6, None) == 6 and GF(5).uncleared(3, [1]) == 3
