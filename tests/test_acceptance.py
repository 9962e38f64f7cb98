"""Acceptance criteria: oracle equivalence and exact identities at scale.

Each test is one criterion; its pytest PASSED/FAILED line is the verdict.
All comparisons are exact (zero mismatches tolerated).  Where a runtime
budget is part of the criterion it is asserted, not just reported.
"""

import itertools
import random
import time

from matseq import (
    GF,
    Mat2,
    MatSeq,
    Q,
    Z,
    are_similar,
    big_delta,
    big_delta_explicit,
    big_delta_from_gram,
    brute_similar,
    brute_triangularizable,
    canonicalize,
    check_drensky_relations,
    commutes,
    conjugate,
    embed,
    is_commutative,
    is_triangularizable,
    is_triangularizable_fast,
    mat2,
    maximal_reduction,
    pair_triangularizable,
    phi_prime,
    psi_prime,
    reconstruct_semisimple,
    sigma,
    sigma_explicit,
    sigma_from_tau,
    singlet_triangularizable,
    triple_reduction_check,
)
from matseq.canonical import CanonicalTag

from genseq import (
    eflip,
    rand_admissible_phi,
    rand_group_element,
    rand_reduced_seq,
    rand_seq,
    rand_triangularizable_seq,
    rand_upper_seq,
)

GF3 = GF(3)
GF5 = GF(5)


def test_criterion_1_exhaustive_gf3_pair_sweep():
    """All 6561 GF(3) pairs: both deciders agree with the brute oracle."""
    start = time.monotonic()
    mats = [mat2(GF3, [[a, b], [c, d]])
            for a, b, c, d in itertools.product(range(3), repeat=4)]
    mismatches = 0
    count = 0
    for x in mats:
        for y in mats:
            s = MatSeq([x, y])
            by_pair = pair_triangularizable(x, y)
            by_seq = is_triangularizable(s)
            by_oracle = brute_triangularizable(s) is not None
            if not (by_pair == by_seq == by_oracle):
                mismatches += 1
            count += 1
    elapsed = time.monotonic() - start
    assert count == 6561
    assert mismatches == 0
    assert elapsed < 10.0, f"pair sweep took {elapsed:.1f}s (budget 10s)"
    print(f"criterion 1: PASS ({count} pairs, 0 mismatches, {elapsed:.1f}s)")


def test_criterion_2_triples_vs_oracle_and_pairwise_family():
    """10000 random GF(3) triples match the oracle; the pairwise-but-not-
    jointly-triangularizable family over GF(5) behaves as predicted."""
    start = time.monotonic()
    rng = random.Random(20260825)
    mismatches = 0
    for _ in range(10_000):
        s = rand_seq(rng, GF3, 3)
        if is_triangularizable(s) != (brute_triangularizable(s) is not None):
            mismatches += 1
    assert mismatches == 0

    # family: A1 diagonal, A2 upper, A3 lower, e2*e3 + b2*c3 = 0 with
    # e1*b2*c3 != 0; every pair is triangularizable, the triple never is
    family = 0
    bad = 0
    binv = [0, 1, 3, 2, 4]  # inverses mod 5
    for a1 in range(5):
        for e1 in range(1, 5):
            d1 = (a1 - e1) % 5
            x = mat2(GF5, [[a1, 0], [0, d1]])
            for a2 in range(5):
                for e2 in range(1, 5):
                    d2 = (a2 - e2) % 5
                    for b2 in range(1, 5):
                        y = mat2(GF5, [[a2, b2], [0, d2]])
                        for a3 in range(5):
                            for e3 in range(1, 5):
                                d3 = (a3 - e3) % 5
                                c3 = (-e2 * e3 * binv[b2]) % 5
                                z = mat2(GF5, [[a3, 0], [c3, d3]])
                                ok = (pair_triangularizable(x, y)
                                      and pair_triangularizable(x, z)
                                      and pair_triangularizable(y, z)
                                      and not is_triangularizable(
                                          MatSeq([x, y, z])))
                                if not ok:
                                    bad += 1
                                family += 1
    elapsed = time.monotonic() - start
    assert family == 32_000
    assert bad == 0
    assert elapsed < 30.0, f"triple sweep took {elapsed:.1f}s (budget 30s)"
    print(f"criterion 2: PASS (10000 triples + {family} family instances, "
          f"0 mismatches, {elapsed:.1f}s)")


def _pairwise_noncommuting_family(ring, p):
    """One representative per commuting class of non-scalar matrices over
    GF(p); its size is p^2 + p + 1, the longest reduced sequence possible."""
    picked = []
    for a, b, c, d in itertools.product(range(p), repeat=4):
        m = mat2(ring, [[a, b], [c, d]])
        if m.is_scalar():
            continue
        if all(not commutes(m, x) for x in picked):
            picked.append(m)
    return picked


def _upper_reduced_family(ring, p):
    """p + 1 upper-triangular matrices with distinct projective (b : a - d),
    hence pairwise non-commuting and jointly triangularizable."""
    fam = [mat2(ring, [[0, 1], [0, 0]])]
    fam.extend(mat2(ring, [[1, x], [0, 0]]) for x in range(p))
    return fam


def test_criterion_3_engine_equivalence_and_sigma_budget(count_calls):
    """Fast and full triangularization engines agree on 10000 sequences per
    ring; on reduced inputs the fast engine stays within the 3n
    sigma-evaluation budget (n = 100 over Q; n is capped at p^2 + p + 1
    over GF(p), where length-100 reduced sequences cannot exist)."""
    start = time.monotonic()
    for ring in (GF3, GF5, Q):
        rng = random.Random(4257 + ring.characteristic())
        mismatches = 0
        for _ in range(10_000):
            u = rng.random()
            n = rng.randint(2, 12)
            if u < 0.60:
                s = rand_seq(rng, ring, n, span=3)
            elif u < 0.85:
                s = rand_triangularizable_seq(rng, ring, n)
            else:
                s = rand_reduced_seq(rng, ring, max(4, n))
            if is_triangularizable(s) != is_triangularizable_fast(s):
                mismatches += 1
        assert mismatches == 0, f"engine disagreement over {ring}"

    # every sigma the engine evaluates, through any name it is bound under
    sigma_calls = count_calls(sigma_explicit)
    assert is_triangularizable_fast(rand_reduced_seq(rng, Q, 100))
    assert len(sigma_calls) <= 300, len(sigma_calls)

    for p in (3, 5):
        ring = GF(p)
        full = _pairwise_noncommuting_family(ring, p)
        assert len(full) == p * p + p + 1
        s = MatSeq(full)
        assert maximal_reduction(s).reduced_length == len(full)
        sigma_calls.clear()
        is_triangularizable_fast(s)
        assert len(sigma_calls) <= 3 * len(full)

        upper = MatSeq(_upper_reduced_family(ring, p))
        assert maximal_reduction(upper).reduced_length == p + 1
        sigma_calls.clear()
        assert is_triangularizable_fast(upper)
        assert len(sigma_calls) <= 3 * (p + 1)
    elapsed = time.monotonic() - start
    print(f"criterion 3: PASS (30000 sequences, 0 mismatches, "
          f"sigma budget met, {elapsed:.1f}s)")


def test_criterion_4_similarity_three_ways():
    """are_similar, brute_similar and triple_reduction_check return one
    verdict on 5000 GF(3) pairs of length-5 sequences."""
    start = time.monotonic()
    rng = random.Random(1707)
    mismatches = 0
    for i in range(5_000):
        s1 = rand_seq(rng, GF3, 5)
        if i % 2 == 0:
            s2 = conjugate(rand_group_element(rng, GF3), s1)
        else:
            s2 = rand_seq(rng, GF3, 5)
        v1 = are_similar(s1, s2) is not None
        v2 = brute_similar(s1, s2) is not None
        v3 = triple_reduction_check(s1, s2)
        if not (v1 == v2 == v3):
            mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 60.0, f"similarity sweep took {elapsed:.1f}s (budget 60s)"
    print(f"criterion 4: PASS (5000 pairs, 0 mismatches, {elapsed:.1f}s)")


def test_criterion_5_phi_round_trip_and_separation():
    """1000 admissible invariant vectors reconstruct exactly; 500 pairs of
    distinct vectors give non-similar sequences."""
    start = time.monotonic()
    rng = random.Random(88)
    for _ in range(1_000):
        v = rand_admissible_phi(rng, rng.randint(2, 6))
        s = reconstruct_semisimple(v)
        got = phi_prime(s)
        assert got.values == tuple(embed(x, s.ring) for x in v.values)

    for _ in range(500):
        n = rng.randint(2, 6)
        v1 = rand_admissible_phi(rng, n)
        while True:
            v2 = rand_admissible_phi(rng, n)
            if v2.values != v1.values:
                break
        s1, s2 = reconstruct_semisimple(v1), reconstruct_semisimple(v2)
        if s1.ring == s2.ring:
            assert are_similar(s1, s2) is None
    elapsed = time.monotonic() - start
    print(f"criterion 5: PASS (1000 round trips + 500 separations, exact, "
          f"{elapsed:.1f}s)")


def test_criterion_6_psi_two_to_one():
    """500 triangularizable non-commutative sequences: the e-flip partner
    shares the invariant but not the class, and 200 random fiber probes per
    sequence always land on one of the two classes."""
    start = time.monotonic()
    rng = random.Random(36)
    for _ in range(500):
        n = rng.randint(3, 6)
        while True:
            up = rand_upper_seq(rng, Q, n, span=3)
            delta12 = up.b[0] * up.e[1] - up.e[0] * up.b[1]
            if not delta12.is_zero():
                break
        s = conjugate(rand_group_element(rng, Q), up)
        flip = eflip(up)
        w = psi_prime(s)
        assert psi_prime(flip) == w
        assert are_similar(s, flip) is None
        for k in range(200):
            alpha = Q(rng.choice([1, 2, 3, -1, -2]))
            beta = Q(rng.randint(-3, 3))
            base = up if k % 2 == 0 else flip
            terms = [Mat2(t.a, alpha * t.b + beta * t.e, t.c, t.d)
                     for t in base.terms]
            probe = conjugate(rand_group_element(rng, Q), MatSeq(terms))
            if k < 2:
                assert psi_prime(probe) == w
            first, second = (s, flip) if k % 2 == 0 else (flip, s)
            in_fiber_classes = (are_similar(probe, first) is not None
                                or are_similar(probe, second) is not None)
            assert in_fiber_classes
    elapsed = time.monotonic() - start
    print(f"criterion 6: PASS (500 sequences x 200 probes, fiber size 2, "
          f"{elapsed:.1f}s)")


def test_criterion_7_identity_suite():
    """Sigma, Delta, Gram and both trace-algebra relations hold exactly on
    1000 random rational sequences of length six."""
    start = time.monotonic()
    rng = random.Random(59)
    for _ in range(1_000):
        s = rand_seq(rng, Q, 6, span=3)
        pairs = [(1, 2), (rng.randint(1, 6), rng.randint(1, 6))]
        for j, k in pairs:
            x, y = s.term(j), s.term(k)
            want = sigma(x, y)
            assert sigma_explicit(x, y) == want
            assert sigma_from_tau(x, y) == want
        triples = [(1, 2, 3), tuple(rng.randint(1, 6) for _ in range(3))]
        for j, k, l in triples:
            x, y, z = s.term(j), s.term(k), s.term(l)
            want = big_delta(x, y, z)
            assert big_delta_explicit(x, y, z) == want
            assert big_delta_from_gram(x, y, z) == want
        assert check_drensky_relations(s, (1, 2, 3, 4, 5, 6))
        assert check_drensky_relations(
            s, tuple(rng.randint(1, 6) for _ in range(6)))
    elapsed = time.monotonic() - start
    print(f"criterion 7: PASS (1000 sequences, all identities exact, "
          f"{elapsed:.1f}s)")


def test_criterion_8_canonical_uniqueness():
    """Canonical forms are orbit invariants, and perturbing a later term of
    a canonical form leaves its similarity class and its form."""
    start = time.monotonic()
    rng = random.Random(41)
    anchored = (CanonicalTag.STABLE_1A, CanonicalTag.STABLE_1B,
                CanonicalTag.STABLE_1C)
    perturbed_checked = 0
    done = 0
    while done < 500:
        s = rand_seq(rng, Q, rng.randint(3, 5), span=3)
        if is_commutative(s):
            continue
        done += 1
        res1 = canonicalize(s)
        res2 = canonicalize(conjugate(rand_group_element(rng, Q), s))
        assert res1.tag == res2.tag
        assert res1.form.ring == res2.form.ring
        assert res1.form.terms == res2.form.terms

        if res1.tag not in anchored or perturbed_checked >= 200:
            continue
        form = res1.form
        ring = form.ring
        k = rng.randint(3, form.n)
        entry = rng.randrange(4)
        target = form.term(k)
        vals = list(target.entries())
        vals[entry] = vals[entry] + ring.one()
        bumped = MatSeq([form.term(j) if j != k else Mat2(*vals)
                         for j in range(1, form.n + 1)])
        assert are_similar(form, bumped) is None
        res3 = canonicalize(bumped)
        assert (res3.tag != res1.tag
                or res3.form.terms != res1.form.terms)
        perturbed_checked += 1
    assert perturbed_checked >= 200
    elapsed = time.monotonic() - start
    print(f"criterion 8: PASS (500 orbit checks, {perturbed_checked} "
          f"perturbations, {elapsed:.1f}s)")


def test_criterion_9_integer_singlet_sweep():
    """4096 integer matrices on the grid [-3,4]^4: the singlet decision
    equals the square-discriminant-with-parity rule and every witness
    produces an upper-triangular conjugate."""
    start = time.monotonic()
    count = 0
    mismatches = 0
    for a, b, c, d in itertools.product(range(-3, 5), repeat=4):
        m = mat2(Z, [[a, b], [c, d]])
        disc = (a - d) * (a - d) + 4 * b * c
        root = None
        if disc >= 0:
            r = int(disc ** 0.5)
            for rr in (r - 1, r, r + 1):
                if rr >= 0 and rr * rr == disc:
                    root = rr
        predicted = root is not None and (a + d + root) % 2 == 0
        w = singlet_triangularizable(m)
        if (w is not None) != predicted:
            mismatches += 1
        if w is not None:
            t = w.triangular.term(1)
            if not t.c.is_zero():
                mismatches += 1
            if conjugate(w.g, MatSeq([m])).terms != w.triangular.terms:
                mismatches += 1
        count += 1
    elapsed = time.monotonic() - start
    assert count == 4096
    assert mismatches == 0
    print(f"criterion 9: PASS ({count} matrices, 0 mismatches, "
          f"{elapsed:.1f}s)")
