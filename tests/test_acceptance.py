"""Acceptance gate: one test per release criterion.

Each ``test_criterion_NN_*`` function is reported as a single PASS/FAIL
line in the terminal summary (see conftest.py).
"""

import json
import math
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest

from semigroups import (
    make_semigroup,
    betti_elements,
    fiber,
    r_classes,
    minimal_presentation,
    presentation_cardinality,
    is_complete_intersection,
    is_free,
    ib_set,
    is_set,
    isolated_profile,
    betti_minimals,
    c_atoms,
    c_value,
    is_alpha_rectangular,
    min_frobenius_betti_divisible,
    betti_divisible_from_params,
    recover_params,
    enumerate_numerical_by_genus,
    run_theorem_harness,
)


@pytest.fixture(scope="module")
def genus15_corpus():
    return enumerate_numerical_by_genus(15)


def test_criterion_01_golden_24_26_36_39():
    t0 = time.perf_counter()
    S = make_semigroup([24, 26, 36, 39])
    prof = betti_elements(S)
    assert set(prof.betti) == {72, 78, 156}
    assert fiber(S, 72).factorizations == ((0, 0, 2, 0), (3, 0, 0, 0))
    assert fiber(S, 78).factorizations == ((0, 0, 0, 2), (0, 3, 0, 0))
    assert fiber(S, 156).factorizations == (
        (0, 0, 0, 4), (0, 3, 0, 2), (0, 6, 0, 0),
        (2, 0, 3, 0), (5, 0, 1, 0))
    assert fiber(S, 156).isolated == ()
    assert presentation_cardinality(S) == 3
    assert len(minimal_presentation(S)) == 3
    assert is_complete_intersection(S) is True
    arrangement = tuple(S.gens.index(n) for n in (24, 36, 26, 39))
    assert is_free(S, arrangement) is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.050, f"took {elapsed * 1000:.1f} ms (limit 50 ms)"


def test_criterion_02_golden_16_20_30_45():
    S = make_semigroup([16, 20, 30, 45])
    ib, exhaustive = ib_set(S)
    assert exhaustive
    assert set(ib) == {(0, 3, 0, 0), (0, 0, 2, 0),
                       (5, 0, 0, 0), (0, 0, 0, 2)}
    assert betti_minimals(S) == (60,)
    flag, _alphas = is_alpha_rectangular(S, base_idx=S.gens.index(20))
    assert flag is True


def test_criterion_03_golden_3_4_5():
    S = make_semigroup([3, 4, 5])
    isolated, exhaustive = is_set(S)
    assert exhaustive
    assert set(isolated) == {(0, 0, 0), (1, 0, 0), (0, 1, 0),
                             (0, 0, 1), (2, 0, 0), (1, 1, 0)}
    e = len(S.gens)
    csum = sum(c_value(S, i) for i in range(e))
    prof = isolated_profile(S)
    assert e + 3 == 6
    assert csum - e + 2 == 6
    assert prof.i_s == 6


def test_criterion_04_two_generator_formulas():
    rng = random.Random(20260826)
    pairs = set()
    while len(pairs) < 20:
        n1 = rng.randrange(2, 200)
        n2 = rng.randrange(2, 200)
        if n1 == n2 or n1 * n2 > 400 or math.gcd(n1, n2) != 1:
            continue
        pairs.add((min(n1, n2), max(n1, n2)))
    for n1, n2 in sorted(pairs):
        S = make_semigroup([n1, n2])
        prof = isolated_profile(S)
        assert prof.i_s == n1 * n2, (n1, n2)
        assert prof.i_b == 2, (n1, n2)


def test_criterion_05_min_frobenius_search():
    # Reproduction of the published minimum.  The search restricted to
    # semigroups with >= 2 distinct Betti elements yields (523,
    # <30,42,105,140>); without that restriction the all-f=1 family
    # member <30,42,70,105> (single Betti element 210, Frobenius 383)
    # is the true minimizer, so the unrestricted default differs from
    # the published value by design.
    t0 = time.perf_counter()
    frob, S = min_frobenius_betti_divisible(4, 600, distinct_betti_min=2)
    assert frob == 523
    assert sorted(S.gens) == [30, 42, 105, 140]
    assert S.frobenius() == 523
    assert set(betti_elements(S).betti) == {210, 420}
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"took {elapsed:.2f} s (limit 2 s)"
    frob0, S0 = min_frobenius_betti_divisible(4, 600)
    assert (frob0, sorted(S0.gens)) == (383, [30, 42, 70, 105])
    assert betti_elements(S0).betti == (210,)


def test_criterion_06_params_round_trip():
    a, f = (7, 5, 2, 3), (1, 1, 1, 2)
    S, predicted = betti_divisible_from_params(a, f)
    assert sorted(S.gens) == [30, 42, 105, 140]
    assert set(predicted) == set(betti_elements(S).betti) == {210, 420}
    S2 = make_semigroup([30, 42, 105, 140])
    assert recover_params(S2) == (a, f)


def test_criterion_07_affine_goldens():
    S1 = make_semigroup([(1, 0), (0, 2), (0, 3)])
    ib1, exhaustive1 = ib_set(S1)
    assert exhaustive1
    assert set(ib1) == {(0, 3, 0), (0, 0, 2)}
    # C(M) holds the atoms at (0-based) indices 1 and 2: (0,2) and (0,3)
    assert tuple(idx for idx, _c in c_atoms(S1)) == (1, 2)

    gens = [(1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    S2 = make_semigroup(gens)
    prof = betti_elements(S2, degree_bound=8)
    assert set(prof.betti) == {(1, 1, 1)}
    assert c_atoms(S2) == ()  # no atom has a multiple in the others' span
    # Independent brute force: every sum of at most 8 generators whose
    # coordinate sum is at most 8 (so all of its factorizations are
    # seen) with >= 2 R-classes.
    fibers = {}
    for x0 in range(9):
        for x1 in range(9 - x0):
            for x2 in range(9 - x0 - x1):
                for x3 in range(9 - x0 - x1 - x2):
                    vec = (x0, x1, x2, x3)
                    elem = tuple(sum(k * g[d] for k, g in zip(vec, gens))
                                 for d in range(3))
                    if sum(elem) <= 8:
                        fibers.setdefault(elem, []).append(vec)
    brute = {m for m, facts in fibers.items()
             if len(facts) >= 2 and len(r_classes(facts)) >= 2}
    assert brute == {(1, 1, 1)}


def test_criterion_08_theorem_harness_genus_15(genus15_corpus):
    assert len(genus15_corpus) > 1000
    report = run_theorem_harness(genus15_corpus)
    assert report["violations"] == [], report["violations"][:5]
    assert not report["missing_strictness"], report["missing_strictness"]
    assert len(report["strictness_witnesses"]) == 6


def _brute_betti(S):
    horizon = S.frobenius() + 2 * max(S.gens) + 1
    out = []
    for m in S.elements_upto(horizon):
        facts = fiber(S, m).factorizations
        if len(facts) >= 2 and len(r_classes(facts)) >= 2:
            out.append(m)
    return tuple(out)


def _closure_classes(facts):
    groups = [{x} for x in facts]
    changed = True
    while changed:
        changed = False
        for a, b in combinations(range(len(groups)), 2):
            if groups[a] and groups[b] and any(
                    any(xi and yi for xi, yi in zip(x, y))
                    for x in groups[a] for y in groups[b]):
                groups[a] |= groups[b]
                groups[b] = set()
                changed = True
    return {frozenset(g) for g in groups if g}


def test_criterion_09_oracle_equivalence():
    # Betti via bit planes vs brute-force sweep, F(S) <= 60.
    checked = 0
    for S in enumerate_numerical_by_genus(10):
        if len(S.gens) == 1 or S.frobenius() > 60:
            continue
        assert betti_elements(S).betti == _brute_betti(S), S.gens
        checked += 1
    assert checked > 400
    # R-class partition vs O(n^2) transitive closure on small fibers.
    fiber_checks = 0
    targets = [make_semigroup([16, 20, 30, 45])] + \
        [S for S in enumerate_numerical_by_genus(7) if len(S.gens) >= 3]
    for S in targets:
        for m in S.elements_upto(S.frobenius() + 2 * max(S.gens) + 1):
            facts = fiber(S, m).factorizations
            if not 2 <= len(facts) <= 50:
                continue
            fast = {frozenset(c) for c in r_classes(facts)}
            assert fast == _closure_classes(facts), (S.gens, m)
            fiber_checks += 1
    assert fiber_checks > 200


def test_criterion_10_verify_determinism():
    cmd = [sys.executable, "-m", "semigroups.cli", "verify",
           "--genus", "12", "--threads", "8", "--json"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout  # non-empty JSON
    rep = json.loads(r1.stdout)
    assert rep["violations"] == []
