import time
from itertools import combinations, product

import pytest

from semigroups import (FiberCapExceededError, IncompleteBettiError,
                        betti, betti_elements, factor, fiber,
                        free_arrangement, is_complete_intersection, is_free,
                        make_semigroup, minimal_presentation,
                        presentation_cardinality)
from semigroups.betti import _spanning_trees, all_minimal_presentations
from semigroups.explore import enumerate_numerical_by_genus
from semigroups.factor import r_classes


def brute_betti_numerical(S):
    """Independent oracle: scan every element up to F + max gen + min Betti
    candidate horizon and keep those with >= 2 R-classes."""
    horizon = S.frobenius() + 2 * max(S.gens) + 1
    out = []
    for m in S.elements_upto(horizon):
        facts = fiber(S, m).factorizations
        if len(facts) >= 2 and len(r_classes(facts)) >= 2:
            out.append(m)
    return tuple(out)


def test_betti_golden_examples():
    assert betti_elements(make_semigroup([24, 26, 36, 39])).betti == \
        (72, 78, 156)
    assert betti_elements(make_semigroup([3, 4, 5])).betti == (8, 9, 10)
    assert betti_elements(make_semigroup([2, 3])).betti == (6,)


def test_ibetti_reads_the_betti_fibers_once_per_profile(monkeypatch):
    reads = []
    real = factor.Fiber.isolated
    monkeypatch.setattr(factor.Fiber, "isolated",
                        property(lambda fib: reads.append(fib.element) or
                                 real.fget(fib)))
    profile = betti_elements(make_semigroup([24, 26, 36, 39]))
    first = profile.ibetti
    assert sorted(reads) == [72, 78, 156]
    assert profile.ibetti is first and len(reads) == 3


def test_betti_matches_brute_force_on_small_corpus():
    checked = 0
    for S in enumerate_numerical_by_genus(9):
        if len(S.gens) == 1 or S.frobenius() > 60:
            continue
        assert betti_elements(S).betti == brute_betti_numerical(S), S.gens
        checked += 1
    assert checked > 100


def test_fiber_example_3_9_orientation():
    # the fibers of 10 and 12 in <4,5,6>
    S = make_semigroup([4, 5, 6])
    assert fiber(S, 10).factorizations == ((0, 2, 0), (1, 0, 1))
    assert fiber(S, 12).factorizations == ((0, 0, 2), (3, 0, 0))
    assert betti_elements(S).betti == (10, 12)


def test_minimal_presentation_cardinality():
    S = make_semigroup([24, 26, 36, 39])
    pres = minimal_presentation(S)
    assert len(pres) == 3
    assert presentation_cardinality(S) == 3
    assert is_complete_intersection(S)
    # every relation joins two factorizations of the same element
    for left, right in pres:
        assert sum(l * g for l, g in zip(left, S.gens)) == \
            sum(r * g for r, g in zip(right, S.gens))


def test_not_complete_intersection():
    S = make_semigroup([3, 4, 5])
    assert presentation_cardinality(S) == 3  # codim 2, so not a CI
    assert not is_complete_intersection(S)


def test_free_and_arrangements():
    S = make_semigroup([24, 26, 36, 39])
    # free for the arrangement (24, 36, 26, 39)
    assert is_free(S, (0, 2, 1, 3))
    assert free_arrangement(S) is not None
    T = make_semigroup([3, 4, 5])
    assert free_arrangement(T) is None
    assert not is_free(T, (0, 1, 2))


def test_all_minimal_presentations_counts():
    # <4,5,6>: two Betti elements with nc=2 and two-element fibers each;
    # the presentation is unique
    S = make_semigroup([4, 5, 6])
    assert len(list(all_minimal_presentations(S))) == 1
    # <3,4,5>: each Betti element has nc = 2 with a two-element fiber, so
    # the presentation is unique as well
    T = make_semigroup([3, 4, 5])
    assert len(list(all_minimal_presentations(T))) == 1


def test_all_minimal_presentations_listed_in_order():
    # <4,5,6,7>: the Betti element 12 = 3*4 = 2*6 = 5+7 has three
    # singleton R-classes (three spanning trees), and 14 = 7+7 has one
    # class {(0,0,0,2)} and one class {(1,2,0,0), (2,0,1,0)} (two
    # representative pairs)
    S = make_semigroup([4, 5, 6, 7])
    head = (((0, 2, 0, 0), (1, 0, 1, 0)), ((0, 1, 1, 0), (1, 0, 0, 1)))
    tail = ((0, 0, 1, 1), (2, 1, 0, 0))
    trees = ((((0, 0, 2, 0), (0, 1, 0, 1)), ((0, 0, 2, 0), (3, 0, 0, 0))),
             (((0, 0, 2, 0), (0, 1, 0, 1)), ((0, 1, 0, 1), (3, 0, 0, 0))),
             (((0, 0, 2, 0), (3, 0, 0, 0)), ((0, 1, 0, 1), (3, 0, 0, 0))))
    last = (((0, 0, 0, 2), (1, 2, 0, 0)), ((0, 0, 0, 2), (2, 0, 1, 0)))
    assert list(all_minimal_presentations(S)) == [
        head + tree + (tail, pair) for tree in trees for pair in last]


def test_all_minimal_presentations_cap_raises_before_listing_trees():
    # a Betti element of <14, ..., 27> has 8 R-classes, so 8^6 = 262,144
    # spanning trees (Cayley), each giving at least one choice: over the
    # cap before any Pruefer sequence is decoded
    S = make_semigroup(range(14, 28))
    start = time.perf_counter()
    with pytest.raises(IncompleteBettiError):
        all_minimal_presentations(S)
    assert time.perf_counter() - start < 1.0


def _filtered_spanning_trees(k):
    """Oracle: every set of k - 1 edges of K_k, in lexicographic order,
    kept when a union-find joins no two nodes already connected."""
    if k == 1:
        return [()]
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    trees = []
    for combo in combinations(edges, k - 1):
        parent = list(range(k))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        ok = True
        for a, b in combo:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[rb] = ra
        if ok:
            trees.append(combo)
    return trees


def test_spanning_trees_match_the_filtered_edge_sets():
    for k in range(1, 8):
        trees = _spanning_trees(k)
        assert trees == _filtered_spanning_trees(k), k
        assert len(trees) == max(1, k ** (k - 2))
        assert all(len(t) == k - 1 for t in trees)


def test_affine_free_arrangement():
    assert free_arrangement(make_semigroup([(1, 0), (0, 2), (0, 3)])) == \
        (0, 1, 2)
    S = make_semigroup([(3, 0), (0, 3), (1, 2), (2, 1)])
    assert free_arrangement(S) is None
    assert not betti_elements(S).complete


def test_affine_betti_free_certificate():
    S = make_semigroup([(1, 0), (0, 2), (0, 3)])
    prof = betti_elements(S)
    assert prof.betti == ((0, 6),)
    assert prof.complete


def test_affine_betti_bounded_sweep():
    S = make_semigroup([(1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    prof = betti_elements(S, degree_bound=8)
    assert prof.betti == ((1, 1, 1),)
    assert not prof.complete
    with pytest.raises(IncompleteBettiError):
        betti.require_exact_betti(S)


# Every function that needs the exact Betti set, and the harness entry
# points built on it
def _exact_betti_functions():
    from functools import wraps
    from semigroups import classify, isolated

    def with_inputs(fn):
        # called as the harness calls it; signature() follows __wrapped__
        return wraps(fn)(lambda S: fn(S, classify.HarnessInputs(S)))

    return (minimal_presentation, presentation_cardinality,
            is_complete_intersection, all_minimal_presentations,
            isolated.betti_minimals, classify.is_betti_sorted,
            classify.is_betti_isolated_sorted, classify.is_betti_divisible,
            classify.is_betti_isolated_divisible, classify.has_single_betti,
            classify.has_single_betti_minimal,
            classify.classification_report, betti.require_exact_betti,
            with_inputs(classify.verify_bounds),
            with_inputs(classify.check_equivalence_theorems))


def test_exact_betti_functions_refuse_without_sweeping():
    # a simplicial semigroup with no free arrangement, and a non-simplicial
    # one: no degree bound makes either Betti set exact
    for gens in ([(3, 0), (0, 3), (1, 2), (2, 1)],
                 [(1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)]):
        for fn in _exact_betti_functions():
            S = make_semigroup(gens)
            with pytest.raises(IncompleteBettiError,
                               match="completeness is required"):
                fn(S)
            # a sweep is kept as "betti" or, to an explicit bound, as
            # ("betti", bound): no key may be tagged with betti at all
            tags = {k[0] if isinstance(k, tuple) else k for k in S._memo or {}}
            assert not [t for t in tags if str(t).startswith("betti")], \
                (gens, fn)
    # the bounded sweep itself stays available, flagged incomplete
    S = make_semigroup([(1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    assert not betti_elements(S, degree_bound=8).complete


def test_only_the_reporting_functions_take_a_degree_bound():
    from inspect import signature
    from semigroups import isolated
    for fn in _exact_betti_functions():
        assert "degree_bound" not in signature(fn).parameters, fn
    for fn in (betti_elements, isolated.ib_set, isolated.isolated_profile):
        assert "degree_bound" in signature(fn).parameters, fn


def test_betti_elements_honours_a_smaller_cap_on_a_kept_profile():
    S = make_semigroup([6, 10, 15])  # Z(30) has three factorizations
    assert betti_elements(S).fibers[30].denumerant == 3
    with pytest.raises(FiberCapExceededError):
        betti_elements(S, fiber_cap=1)
    with pytest.raises(FiberCapExceededError):
        betti_elements(make_semigroup([6, 10, 15]), fiber_cap=1)
    assert betti_elements(S, fiber_cap=3).betti == (30,)
    # the cap bounds the Betti fibers only, kept or fresh: the widest one
    # here has 6 factorizations, and the candidate 36 (8 factorizations,
    # one R-class) is never enumerated
    gens = [9, 10, 12, 13, 14, 15, 16, 17]
    T = make_semigroup(gens)
    assert max(f.denumerant for f in betti_elements(T).fibers.values()) == 6
    assert fiber(T, 36).denumerant == 8 and 36 not in betti_elements(T).betti
    for fresh in (False, True):
        with pytest.raises(FiberCapExceededError):
            betti_elements(make_semigroup(gens) if fresh else T, fiber_cap=5)
        assert betti_elements(make_semigroup(gens) if fresh else T,
                              fiber_cap=6).betti == betti_elements(T).betti


def _raises_cap(S, cap):
    try:
        betti_elements(S, fiber_cap=cap)
    except FiberCapExceededError:
        return True
    return False


def test_kept_and_fresh_profiles_agree_on_the_cap():
    for S in enumerate_numerical_by_genus(9):
        kept = make_semigroup(S.gens)
        betti_elements(kept)
        for cap in range(1, 8):
            assert _raises_cap(make_semigroup(S.gens), cap) == \
                _raises_cap(kept, cap), (S.gens, cap)


def _old_sweep(S):
    """The Betti elements and their R-classes by a fiber of every element
    of {w + n_i : w in Ap(S; n_1) \\ {0}, every i}."""
    candidates = {w + g for w in S.apery(S.gens[0]) if w for g in S.gens}
    fibers = (fiber(S, m) for m in sorted(candidates))
    return {f.element: f.classes for f in fibers if f.nc >= 2}


def test_betti_elements_match_a_sweep_over_every_apery_candidate():
    corpus = list(enumerate_numerical_by_genus(12))
    assert len(corpus) == 1413
    # gens[0] is the Apery base; reversed, it is no longer the multiplicity
    corpus += [make_semigroup(S.gens[::-1]) for S in corpus[:200]
               if len(S.gens) > 1]
    for S in corpus:
        expected = _old_sweep(make_semigroup(S.gens))
        profile = betti_elements(S)
        assert profile.betti == tuple(expected), S.gens
        assert {b: f.classes for b, f in profile.fibers.items()} == \
            expected, S.gens


def test_numerical_betti_builds_no_apery_table_for_the_first_generator():
    # the planes reach F + n + max(gens) with n the multiplicity, from the
    # membership table: gens[0] = 9 is no Apery base here
    S = make_semigroup([9, 7, 5])
    assert S.multiplicity != S.gens[0]
    assert betti_elements(S).betti == brute_betti_numerical(S)
    assert ("apery", (S.gens[0],)) not in S._memo


def _nc_oracle_numerical(S):
    top = S.frobenius() + S.multiplicity + max(S.gens)
    return [m for m in range(top + 1) if factor.nc(S, m) >= 2]


def _nc_oracle_affine(S, bound):
    """Every vector of coordinate sum <= bound with nc >= 2, sorted: a
    vector outside S has nc 0."""
    box = product(range(bound + 1), repeat=S.ambient_dim)
    return sorted(v for v in box
                  if sum(v) <= bound and factor.nc(S, v) >= 2)


def _affine_default_sweeps(monkeypatch, corpus):
    """(S, bound, found) for each non-free member, as betti_elements
    sweeps it at its default bound."""
    sweeps = []
    real = betti._sweep

    def recorded(S, bound):
        sweeps.append((S, bound, real(S, bound)))
        return sweeps[-1][2]

    monkeypatch.setattr(betti, "_sweep", recorded)
    for S in corpus:
        betti_elements(S)
    monkeypatch.undo()
    return sweeps


def test_split_planes_match_nc_at_every_position(monkeypatch):
    from test_classify import _affine_probe_corpus
    corpus = list(enumerate_numerical_by_genus(12))
    assert len(corpus) == 1413
    for S in corpus:
        assert betti._sweep(S, betti._horizon(S)) == \
            _nc_oracle_numerical(S), S.gens
    probe = [S for S in _affine_probe_corpus() if free_arrangement(S) is None]
    assert len(probe) == 68
    sweeps = _affine_default_sweeps(monkeypatch, probe)
    assert [S for S, _, _ in sweeps] == probe
    for S, bound, found in sweeps:
        assert found == _nc_oracle_affine(S, bound), (S.gens, bound)
    # in N^3, with an explicit degree bound
    S = make_semigroup([(1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    for bound in (8, 11):
        assert betti._sweep(S, bound) == _nc_oracle_affine(S, bound)


def test_split_planes_match_nc_across_window_seams(monkeypatch):
    from test_classify import _affine_probe_corpus
    # windows of 2 max(gens) bits, each reading the one below it
    monkeypatch.setattr(betti, "_WINDOW", 1)
    seams = 0
    for S in enumerate_numerical_by_genus(12):
        seams += S.frobenius() + S.multiplicity >= max(S.gens)
        assert betti._sweep(S, betti._horizon(S)) == \
            _nc_oracle_numerical(S), S.gens
    assert seams > 1000
    for S in _affine_probe_corpus()[::10]:
        assert betti._sweep(S, 24) == _nc_oracle_affine(S, 24), \
            S.gens
    S = make_semigroup([(1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    assert betti._sweep(S, 11) == _nc_oracle_affine(S, 11)


def test_affine_betti_planes_leave_the_membership_memo_small():
    # the bounded planes read no membership per element: only the Betti
    # fibers touch the engine's memo, which an nc call on every element of
    # coordinate sum <= 108 (the default bound here) left at 1,042 entries
    S = make_semigroup([(6, 0), (0, 6), (1, 5), (4, 2)])
    profile = betti_elements(S)
    assert profile.betti == ((4, 20), (6, 12), (8, 10), (12, 6))
    assert not profile.complete
    assert len(S._engine()._memo) == 13
