"""Finite-field brute-force oracles and their agreement with the deciders."""

import itertools
import json
import random

import pytest

from matseq import (
    GF,
    Mat2,
    MatSeq,
    Q,
    are_similar,
    brute_similar,
    brute_triangularizable,
    conjugate,
    enumerate_gl2,
    is_triangularizable,
    max_oracle_p,
    seq,
)
from matseq import oracle
from matseq.cli import main
from matseq.errors import TooLarge, UnsupportedRing

from genseq import rand_group_element, rand_seq, rand_triangularizable_seq


class TestEnumerateGl2:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_group_order(self, p):
        table = enumerate_gl2(p)
        assert len(table) == (p * p - 1) * (p * p - p)

    def test_row_major_order(self):
        table = enumerate_gl2(2)
        assert table.raw[0] == (0, 1, 1, 0)
        assert table.raw[-1] == (1, 1, 1, 0)

    def test_group_elements_are_invertible(self):
        for g in enumerate_gl2(3).group_elements():
            assert g.m.det() != GF(3)(0)

    def test_size_guard(self):
        assert max_oracle_p() == 13
        with pytest.raises(TooLarge):
            enumerate_gl2(17)

    def test_env_lowers_guard(self, monkeypatch):
        monkeypatch.setenv("MATSEQ_MAX_P", "3")
        assert max_oracle_p() == 3
        with pytest.raises(TooLarge):
            enumerate_gl2(5)

    def test_env_cannot_raise_guard(self, monkeypatch):
        monkeypatch.setenv("MATSEQ_MAX_P", "97")
        assert max_oracle_p() == 13


class TestBruteTriangularizable:
    def test_known_positive(self):
        s = seq(GF(3), [[[1, 2], [0, 1]], [[2, 0], [0, 1]]])
        g = brute_triangularizable(s)
        assert g is not None
        assert conjugate(g, s).is_upper_triangular()

    def test_known_negative(self):
        s = seq(GF(3), [[[1, 0], [0, 0]], [[0, 1], [1, 0]]])
        assert brute_triangularizable(s) is None

    def test_non_prime_field_rejected(self):
        with pytest.raises(UnsupportedRing):
            brute_triangularizable(seq(Q, [[[1, 0], [0, 1]]]))

    def test_agreement_with_decider(self):
        rng = random.Random(31)
        for _ in range(300):
            p = rng.choice([3, 5])
            s = rand_seq(rng, GF(p), rng.randint(1, 3))
            got = brute_triangularizable(s)
            want = is_triangularizable(s)
            assert (got is not None) == want
            if got is not None:
                assert conjugate(got, s).is_upper_triangular()

    def test_constructed_positives(self):
        rng = random.Random(32)
        for _ in range(100):
            s = rand_triangularizable_seq(rng, GF(3), 3)
            assert brute_triangularizable(s) is not None


class TestBruteSimilar:
    def test_conjugates_found(self):
        rng = random.Random(33)
        for _ in range(150):
            p = rng.choice([3, 5])
            s = rand_seq(rng, GF(p), rng.randint(1, 3))
            g0 = rand_group_element(rng, GF(p))
            t = conjugate(g0, s)
            g = brute_similar(s, t)
            assert g is not None
            assert conjugate(g, s).terms == t.terms

    def test_agreement_with_decider(self):
        rng = random.Random(34)
        for _ in range(200):
            s1 = rand_seq(rng, GF(3), 2)
            s2 = rand_seq(rng, GF(3), 2)
            assert (brute_similar(s1, s2) is not None) == \
                (are_similar(s1, s2) is not None)

    def test_non_similar(self):
        s1 = seq(GF(3), [[[1, 0], [0, 0]]])
        s2 = seq(GF(3), [[[2, 0], [0, 0]]])
        assert brute_similar(s1, s2) is None

    def test_row_two_equations_pin_candidates(self, count_calls):
        # scalar source, lower-triangular target with the same diagonal: every
        # b12 = 0 and every first row passes the row-1 equations, so without
        # the row-2 equations all p^2 second rows of each first row are tried
        s1 = seq(GF(13), [[[2, 0], [0, 2]], [[5, 0], [0, 5]]])
        s2 = seq(GF(13), [[[2, 0], [1, 2]], [[5, 0], [3, 5]]])
        calls = count_calls(oracle._conjugates)
        assert brute_similar(s1, s2) is None
        assert len(calls) <= 2 * 13


# ---------------------------------------------------------------------------
# the pruned scans against exhaustive row-major scans of GL2(GF(p))


def _raw(s):
    return [(t.a.value, t.b.value, t.c.value, t.d.value) for t in s.terms]


def _gl2(p):
    """GL2(GF(p)) in row-major order of (a, b, c, d), with no table."""
    return (g for g in itertools.product(range(p), repeat=4)
            if (g[0] * g[3] - g[1] * g[2]) % p)


def _exhaustive_tri(s):
    p, terms = s.ring.p, _raw(s)
    for x, y, z, w in _gl2(p):
        if all(((z * a + w * c) * w - (z * b + w * d) * z) % p == 0
               for a, b, c, d in terms):
            return (x, y, z, w)
    return None


def _exhaustive_similar(s1, s2):
    p, t1, t2 = s1.ring.p, _raw(s1), _raw(s2)
    for x, y, z, w in _gl2(p):
        det = x * w - y * z
        if all(((x * a + y * c) * w - (x * b + y * d) * z - det * a2) % p == 0
               and ((x * b + y * d) * x - (x * a + y * c) * y - det * b2) % p == 0
               and ((z * a + w * c) * w - (z * b + w * d) * z - det * c2) % p == 0
               and ((z * b + w * d) * x - (z * a + w * c) * y - det * d2) % p == 0
               for (a, b, c, d), (a2, b2, c2, d2) in zip(t1, t2)):
            return (x, y, z, w)
    return None


def _entries(g):
    return None if g is None else (g.m.a.value, g.m.b.value, g.m.c.value, g.m.d.value)


def _all_matrices(p):
    return [Mat2(*(GF(p)(v) for v in e)) for e in itertools.product(range(p), repeat=4)]


def _lower_seq(rng, ring, n):
    """Random lower triangular terms: every b12 = 0."""
    return MatSeq([Mat2(ring(rng.randrange(ring.p)), ring.zero(),
                        ring(rng.randrange(ring.p)), ring(rng.randrange(ring.p)))
                   for _ in range(n)])


def _similar_cases(rng, p, count):
    """(s1, s2) pairs over GF(p) of every kind the pruned scan branches on."""
    ring = GF(p)
    for _ in range(count):
        n = rng.randint(1, 4)
        g = rand_group_element(rng, ring)
        s = rand_seq(rng, ring, n)
        lower = _lower_seq(rng, ring, n)
        scalars = MatSeq([Mat2.identity(ring).scale(ring(rng.randrange(p)))
                          for _ in range(n)])
        yield s, conjugate(g, s)                      # conjugate pair
        yield scalars, scalars                        # every row 2 stays free
        yield conjugate(g.inverse(), lower), lower    # similar, every b12 = 0
        yield s, lower                                # b12 = 0, mostly not similar
        yield s, rand_seq(rng, ring, n)               # mostly not similar


class TestExhaustiveAgreement:
    def test_tri_gf3_pairs(self):
        mats = _all_matrices(3)
        for x in mats:
            for y in mats:
                s = MatSeq([x, y])
                assert _entries(brute_triangularizable(s)) == _exhaustive_tri(s)

    def test_tri_gf2_triples(self):
        mats = _all_matrices(2)
        for x, y, z in itertools.product(mats, repeat=3):
            s = MatSeq([x, y, z])
            assert _entries(brute_triangularizable(s)) == _exhaustive_tri(s)

    def test_similar_gf3_lower_targets(self):
        # every single-term source against every lower triangular target:
        # each b12 = 0, so row 2 of g comes from the row-2 equations alone
        mats = _all_matrices(3)
        for x in mats:
            for y in (m for m in mats if m.b.is_zero()):
                s1, s2 = MatSeq([x]), MatSeq([y])
                assert _entries(brute_similar(s1, s2)) == _exhaustive_similar(s1, s2)

    @pytest.mark.parametrize("p,count", [(2, 40), (3, 40), (5, 25), (7, 12), (13, 3)])
    def test_similar(self, p, count):
        rng = random.Random(100 + p)
        found = 0
        for s1, s2 in _similar_cases(rng, p, count):
            got = _entries(brute_similar(s1, s2))
            assert got == _exhaustive_similar(s1, s2)
            found += got is not None
        assert found >= 3 * count


class TestGuard:
    @pytest.mark.parametrize("scan", ["tri", "similar"])
    def test_gf17_refused(self, scan):
        s = seq(GF(17), [[[1, 2], [3, 4]]])
        with pytest.raises(TooLarge):
            brute_triangularizable(s) if scan == "tri" else brute_similar(s, s)

    @pytest.mark.parametrize("scan", ["tri", "similar"])
    def test_env_lowers_guard(self, scan, monkeypatch):
        monkeypatch.setenv("MATSEQ_MAX_P", "3")
        s = seq(GF(5), [[[1, 2], [3, 4]]])
        with pytest.raises(TooLarge):
            brute_triangularizable(s) if scan == "tri" else brute_similar(s, s)
        small = seq(GF(3), [[[1, 2], [0, 1]]])
        assert (brute_triangularizable(small) if scan == "tri"
                else brute_similar(small, small)) is not None


class TestNoGroupTable:
    @pytest.mark.parametrize("argv", [["tri", "A", "--method", "construct", "--verify"],
                                      ["similar", "A", "A", "--verify"],
                                      ["analyze", "A", "--verify"],
                                      ["oracle", "tri", "A"],
                                      ["oracle", "similar", "A", "A"]])
    def test_verify_builds_no_group_table(self, argv, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"ring": {"kind": "GF", "p": 13},
                                    "matrices": [[[1, 2], [3, 4]], [[0, 5], [7, 1]]]}))
        monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
        assert main([str(path) if a == "A" else a for a in argv]) == 0
        assert json.loads(capsys.readouterr().out)
        assert oracle._TABLE_CACHE == {}
