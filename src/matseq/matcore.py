"""2x2 matrices, invertible conjugators and finite matrix sequences.

A :class:`Mat2` stores four :class:`~matseq.rings.Scalar` entries over one
ring; its arithmetic runs on their raw values through the descriptor's 2x2
kernels (``ring.mat_mul``; ``ring.mat_conj`` for a conjugated sequence) and
wraps each result once.  A :class:`MatSeq` is
a nonempty tuple of same-ring matrices; the entry vectors a, b, c, d (and
e = a - d) are exposed since most invariants are polynomial in them.  A :class:`GroupElement` wraps a matrix whose
determinant is a unit, so its inverse exists over the same ring.

Term indices on sequences are 1-based throughout the public API, matching
the usual trace-word naming (t_1, t_12, ...); Python-style 0-based access is
available via ``seq[i]``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import BadIndex, ExactDivisionError, RingMismatch
from .rings import RingDescriptor, Scalar, ring_from_json, ring_to_json


class Mat2:
    """An exact 2x2 matrix [[a, b], [c, d]] over one ring."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar):
        ring = a.ring
        if not (b.ring == ring and c.ring == ring and d.ring == ring):
            raise RingMismatch("matrix entries must share one ring")
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def _of(cls, ring: RingDescriptor, values) -> "Mat2":
        """The matrix of four raw row-major values of ring, unchecked."""
        m = object.__new__(cls)
        a, b, c, d = values
        m.a, m.b, m.c, m.d = Scalar(ring, a), Scalar(ring, b), Scalar(ring, c), Scalar(ring, d)
        return m

    @property
    def ring(self) -> RingDescriptor:
        return self.a.ring

    @property
    def raw(self) -> tuple:
        """The raw values of the entries, row-major."""
        return (self.a.value, self.b.value, self.c.value, self.d.value)

    def _ring_with(self, other: "Mat2") -> RingDescriptor:
        """The ring of both operands; raises RingMismatch if they differ."""
        ring = self.a.ring
        if other.a.ring is not ring and other.a.ring != ring:
            raise RingMismatch(f"{ring!r} vs {other.a.ring!r}")
        return ring

    @property
    def e(self) -> Scalar:
        """The diagonal difference a - d."""
        return self.a - self.d

    @classmethod
    def from_rows(cls, ring: RingDescriptor, rows) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(ring(a) if not isinstance(a, Scalar) else a,
                   ring(b) if not isinstance(b, Scalar) else b,
                   ring(c) if not isinstance(c, Scalar) else c,
                   ring(d) if not isinstance(d, Scalar) else d)

    @classmethod
    def identity(cls, ring: RingDescriptor) -> "Mat2":
        return cls(ring.one(), ring.zero(), ring.zero(), ring.one())

    @classmethod
    def zero(cls, ring: RingDescriptor) -> "Mat2":
        z = ring.zero()
        return cls(z, z, z, z)

    def entries(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other: "Mat2") -> "Mat2":
        ring = self._ring_with(other)
        return Mat2._of(ring, map(ring.add, self.raw, other.raw))

    def __sub__(self, other: "Mat2") -> "Mat2":
        ring = self._ring_with(other)
        return Mat2._of(ring, map(ring.sub, self.raw, other.raw))

    def __neg__(self) -> "Mat2":
        return Mat2._of(self.ring, map(self.ring.neg, self.raw))

    def __mul__(self, other):
        if isinstance(other, Mat2):
            ring = self._ring_with(other)
            return Mat2._of(ring, ring.mat_mul(self.raw, other.raw))
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def scale(self, s: Scalar) -> "Mat2":
        v, mul = self.a._raw(s), self.ring.mul
        return Mat2._of(self.ring, [mul(x, v) for x in self.raw])

    def trace(self) -> Scalar:
        return Scalar(self.ring, self.ring.add(self.a.value, self.d.value))

    def det(self) -> Scalar:
        return Scalar(self.ring, self.ring.mat_det(self.raw))

    def disc(self) -> Scalar:
        """The discriminant tr^2 - 4 det = e^2 + 4bc."""
        t = self.trace()
        four = self.ring.scalar_from_int(4)
        return t * t - four * self.det()

    def adjugate(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def is_scalar(self) -> bool:
        return self.b.is_zero() and self.c.is_zero() and (self.a - self.d).is_zero()

    def is_upper_triangular(self) -> bool:
        return self.c.is_zero()

    def is_lower_triangular(self) -> bool:
        return self.b.is_zero()

    def is_diagonal(self) -> bool:
        return self.b.is_zero() and self.c.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def sort_key(self):
        return (self.a.sort_key(), self.b.sort_key(), self.c.sort_key(), self.d.sort_key())

    def to_json(self):
        return [[self.a.to_json(), self.b.to_json()],
                [self.c.to_json(), self.d.to_json()]]

    def __repr__(self):
        return f"[[{self.a.value}, {self.b.value}], [{self.c.value}, {self.d.value}]]"


class GroupElement:
    """An invertible matrix: the determinant must be a unit of the ring."""

    __slots__ = ("m", "_inv")

    def __init__(self, m: Mat2):
        if not m.det().is_unit():
            raise ExactDivisionError(f"determinant {m.det()!r} is not a unit")
        self.m = m
        self._inv = None

    @property
    def ring(self) -> RingDescriptor:
        return self.m.ring

    @classmethod
    def identity(cls, ring: RingDescriptor) -> "GroupElement":
        return cls(Mat2.identity(ring))

    @classmethod
    def from_rows(cls, ring: RingDescriptor, rows) -> "GroupElement":
        return cls(Mat2.from_rows(ring, rows))

    def inverse_matrix(self) -> Mat2:
        if self._inv is None:
            dinv = self.m.det().inverse()
            adj = self.m.adjugate()
            self._inv = adj.scale(dinv)
        return self._inv

    def inverse(self) -> "GroupElement":
        g = GroupElement(self.inverse_matrix())
        g._inv = self.m
        return g

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        return GroupElement(self.m * other.m)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def to_json(self):
        return self.m.to_json()

    def __repr__(self):
        return f"GroupElement({self.m!r})"


class MatSeq:
    """A nonempty finite sequence of 2x2 matrices over one ring."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Mat2]):
        terms = tuple(terms)
        if not terms:
            raise BadIndex("a matrix sequence must have at least one term")
        ring = terms[0].ring
        for t in terms[1:]:
            if t.ring != ring:
                raise RingMismatch("sequence terms must share one ring")
        self.terms = terms

    @property
    def ring(self) -> RingDescriptor:
        return self.terms[0].ring

    @property
    def n(self) -> int:
        return len(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, i: int) -> Mat2:
        return self.terms[i]

    def term(self, j: int) -> Mat2:
        """1-based term access."""
        if not 1 <= j <= len(self.terms):
            raise BadIndex(f"term index {j} out of range 1..{len(self.terms)}")
        return self.terms[j - 1]

    # entry vectors ---------------------------------------------------------
    @property
    def a(self) -> tuple[Scalar, ...]:
        return tuple(t.a for t in self.terms)

    @property
    def b(self) -> tuple[Scalar, ...]:
        return tuple(t.b for t in self.terms)

    @property
    def c(self) -> tuple[Scalar, ...]:
        return tuple(t.c for t in self.terms)

    @property
    def d(self) -> tuple[Scalar, ...]:
        return tuple(t.d for t in self.terms)

    @property
    def e(self) -> tuple[Scalar, ...]:
        return tuple(t.a - t.d for t in self.terms)

    def is_upper_triangular(self) -> bool:
        return all(t.c.is_zero() for t in self.terms)

    def all_scalar(self) -> bool:
        return all(t.is_scalar() for t in self.terms)

    def permuted(self, perm: Sequence[int]) -> "MatSeq":
        """Rearrange terms by a 1-based permutation tuple."""
        if sorted(perm) != list(range(1, len(self.terms) + 1)):
            raise BadIndex(f"not a permutation of 1..{len(self.terms)}: {perm!r}")
        return MatSeq(self.terms[j - 1] for j in perm)

    def __eq__(self, other):
        if not isinstance(other, MatSeq):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def sort_key(self):
        return tuple(t.sort_key() for t in self.terms)

    def to_json(self):
        return {"ring": ring_to_json(self.ring),
                "matrices": [t.to_json() for t in self.terms]}

    def __repr__(self):
        return f"MatSeq({list(self.terms)!r})"


# ---------------------------------------------------------------------------
# constructors and serialization


def mat2(ring: RingDescriptor, rows) -> Mat2:
    """Convenience constructor from nested Python values."""
    return Mat2.from_rows(ring, rows)


def seq(ring: RingDescriptor, matrices) -> MatSeq:
    """Convenience constructor: seq(ring, [[[...]], [[...]]])."""
    return MatSeq(Mat2.from_rows(ring, rows) for rows in matrices)


def matseq_from_json(obj) -> MatSeq:
    if not isinstance(obj, dict) or "ring" not in obj or "matrices" not in obj:
        raise ValueError("a matrix sequence needs 'ring' and 'matrices' keys")
    ring = ring_from_json(obj["ring"])
    mats = obj["matrices"]
    if not isinstance(mats, list) or not mats:
        raise ValueError("'matrices' must be a nonempty list")
    # one ring for every entry, so each term is built from raw values
    conv = ring.value_from_json
    terms = []
    for rows in mats:
        if (not isinstance(rows, list) or len(rows) != 2
                or any(not isinstance(r, list) or len(r) != 2 for r in rows)):
            raise ValueError(f"bad 2x2 matrix: {rows!r}")
        (a, b), (c, d) = rows
        terms.append(Mat2._of(ring, (conv(a), conv(b), conv(c), conv(d))))
    return MatSeq(terms)


def lift_mat(m: Mat2, target: RingDescriptor) -> Mat2:
    from .rings import embed
    return Mat2(embed(m.a, target), embed(m.b, target),
                embed(m.c, target), embed(m.d, target))


def lift_seq(s: MatSeq, target: RingDescriptor) -> MatSeq:
    return MatSeq(lift_mat(t, target) for t in s.terms)


# ---------------------------------------------------------------------------
# the conjugation action and derived operations


def conjugate_mat(g: GroupElement, m: Mat2) -> Mat2:
    """g m g^-1."""
    return conjugate(g, MatSeq((m,))).terms[0]


def conjugate(g: GroupElement, s: MatSeq) -> MatSeq:
    """Termwise conjugation (g A_1 g^-1, ..., g A_n g^-1)."""
    ring = g.m._ring_with(s.terms[0])
    out = ring.mat_conj(g.m.raw, g.inverse_matrix().raw, [t.raw for t in s.terms])
    return MatSeq(Mat2._of(ring, x) for x in out)


def commutator(x: Mat2, y: Mat2) -> Mat2:
    """xy - yx."""
    return x * y - y * x


def concat(s1: MatSeq, s2: MatSeq) -> MatSeq:
    if s1.ring != s2.ring:
        raise RingMismatch(f"{s1.ring!r} vs {s2.ring!r}")
    return MatSeq(s1.terms + s2.terms)


def subsequence(s: MatSeq, indices: Sequence[int]) -> MatSeq:
    """The subsequence (A_{j1}, ..., A_{jk}) for 1-based indices."""
    if not indices:
        raise BadIndex("a subsequence needs at least one index")
    return MatSeq(s.term(j) for j in indices)
