import gc
import hashlib
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations, count, permutations
from math import gcd, prod

import pytest

from semigroups import (SearchCapExceededError, Semigroup,
                        betti_divisible_from_params,
                        enumerate_numerical_by_genus, explore, fiber,
                        free_some_arrangement, has_single_betti,
                        has_single_betti_minimal, is_alpha_rectangular,
                        is_betti_divisible, is_betti_sorted,
                        is_complete_intersection, load_corpus,
                        make_semigroup, min_frobenius_betti_divisible,
                        run_theorem_harness)
from semigroups.classify import HarnessInputs
from semigroups.explore import DEFAULT_CHAIN_WITNESSES, _chain_memberships

# OEIS A007323: the number of numerical semigroups of genus 0, 1, ..., 20
A007323 = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693,
           2857, 4806, 8045, 13467, 22464, 37396]


@pytest.fixture(scope="module")
def genus_20():
    return list(enumerate_numerical_by_genus(20))


def gap_sets(g):
    """Independent oracle: the gap sets of genus g, found among the
    g-subsets of {1..2g}.  A set qualifies iff no gap is the sum of two
    non-gaps."""
    for gaps in combinations(range(1, 2 * g + 1), g):
        gapset = set(gaps)
        if all(a in gapset or x - a in gapset
               for x in gaps for a in range(1, x // 2 + 1)):
            yield gapset


def brute_count_by_genus(g):
    return sum(1 for _ in gap_sets(g))


def brute_min_gens(gapset):
    """The minimal generators of N minus gapset, ascending: the nonzero
    elements up to F + m that are not the sum of two nonzero elements."""
    m = min(s for s in range(1, len(gapset) + 2) if s not in gapset)
    elems = [s for s in range(1, max(gapset, default=0) + m + 1)
             if s not in gapset]
    members = set(elems)
    return tuple(x for x in elems
                 if not any(x - a in members for a in elems if a < x))


def test_enumeration_small_goldens():
    c = enumerate_numerical_by_genus(2)
    assert sorted(tuple(S.gens) for S in c) == \
        [(1,), (2, 3), (2, 5), (3, 4, 5)]


def test_enumeration_counts_match_gap_set_oracle():
    corpus = list(enumerate_numerical_by_genus(6))
    by_genus = {}
    for S in corpus:
        g = 0 if S.gens == (1,) else S.genus()
        by_genus[g] = by_genus.get(g, 0) + 1
    for g in range(7):
        assert by_genus[g] == brute_count_by_genus(g), g
    # known values: 1, 1, 2, 4, 7, 12, 23
    assert [by_genus[g] for g in range(7)] == [1, 1, 2, 4, 7, 12, 23]


def test_enumeration_matches_brute_minimal_generators():
    tree = [S.gens for S in enumerate_numerical_by_genus(9)]
    brute = {brute_min_gens(gaps) for g in range(10) for gaps in gap_sets(g)}
    assert len(tree) == len(brute)
    assert set(tree) == brute


def test_enumeration_counts_match_a007323(genus_20):
    counts = Counter(S.genus() for S in genus_20)
    assert [counts[g] for g in range(21)] == A007323


def _node_order_digest(corpus):
    """Each node's gens joined by ',', nodes by newline, hashed."""
    text = "\n".join(",".join(map(str, S.gens)) for S in corpus)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("g_max, nodes, digest", [
    (14, 4107,
     "7315aa9f83b19e0ac1658a4d624a1d7af17dc338e44010ed4683e498b4f8e122"),
    (16, 11770,
     "48f4ee1808650221ec14f4edc56f6f1145d2bb7b0736a355832a955b19e157d5")])
def test_enumeration_node_order_is_pinned(g_max, nodes, digest):
    # verify reports witnesses in corpus order, so the tree's node order is
    # part of its output
    corpus = list(enumerate_numerical_by_genus(g_max))
    assert len(corpus) == nodes
    assert _node_order_digest(corpus) == digest


def test_genus_20_node_order_is_pinned(genus_20):
    assert len(genus_20) == 93142
    assert _node_order_digest(genus_20) == (
        "72c6a9e2addcb93d08f8a117797e389f20c90bed3f7ae3b724444a2daa6b4f1a")


def test_removing_an_effective_generator_adds_at_most_g_plus_m():
    # the tree's rule, checked on the brute-force oracle alone: removing
    # g > F adds nothing but g + m when g != m, and from {0} u [m, oo)
    # removing m gives <m + 1, ..., 2m + 1>
    children = 0
    for genus in range(11):
        for gaps in gap_sets(genus):
            gens = brute_min_gens(gaps)
            m, frob = gens[0], max(gaps, default=-1)
            for g in gens:
                if g <= frob:
                    continue
                child = brute_min_gens(gaps | {g})
                kept = set(gens) - {g}
                if g == m:
                    assert child == tuple(range(m + 1, 2 * m + 2)), gens
                else:
                    assert kept <= set(child) <= kept | {g + m}, (gens, g)
                children += 1
    assert children == sum(A007323[1:12])


def test_enumeration_generators_survive_validation():
    for S in enumerate_numerical_by_genus(12):
        assert make_semigroup(S.gens).gens == S.gens
        assert list(S.gens) == sorted(S.gens)


def test_enumeration_no_duplicates():
    corpus = list(enumerate_numerical_by_genus(8))
    assert len({tuple(S.gens) for S in corpus}) == len(corpus)


def test_enumeration_cap():
    with pytest.raises(SearchCapExceededError):
        enumerate_numerical_by_genus(26)
    with pytest.raises(ValueError):
        enumerate_numerical_by_genus(-1)
    for g_max in (2.5, 3.0, True, False, "3", None):
        with pytest.raises(ValueError):
            enumerate_numerical_by_genus(g_max)


def test_min_frobenius_trivial():
    frob, S = min_frobenius_betti_divisible(2, 10)
    assert frob == 1 and sorted(S.gens) == [2, 3]


def test_min_frobenius_distinct_betti_restriction():
    # The all-f=1 family member <30,42,70,105> (one Betti element, 210)
    # undercuts <30,42,105,140>; the restriction excludes it.
    frob, S = min_frobenius_betti_divisible(4, 600)
    assert (frob, sorted(S.gens)) == (383, [30, 42, 70, 105])
    frob2, S2 = min_frobenius_betti_divisible(4, 600, distinct_betti_min=2)
    assert (frob2, sorted(S2.gens)) == (523, [30, 42, 105, 140])


def _f_chains(a, top=6):
    """Every chain 1 = f_1 = f_2 | f_3 | ... with entries <= top and
    gcd(f_i, a_i) = 1."""
    chains = [(1, 1)]
    for ai in a[2:]:
        chains = [c + (fi,) for c in chains
                  for fi in range(c[-1], top + 1, c[-1]) if gcd(fi, ai) == 1]
    return chains


def test_family_frobenius_is_johnsons_formula():
    # The search scores candidates by the telescopic closed form instead of
    # building them; every valid (a, f) in a small box must keep all its
    # generators and have exactly that Frobenius number.
    checked = 0
    for e, box in ((2, 24), (3, 14), (4, 10)):
        for a in permutations(range(2, box), e):
            if any(gcd(x, y) != 1 for x, y in combinations(a, 2)):
                continue
            p = prod(a)
            for f in _f_chains(a):
                gens = [fi * p // ai for ai, fi in zip(a, f)]
                S, _predicted = betti_divisible_from_params(a, f)
                assert list(S.gens) == gens, (a, f)
                closed = sum((ai - 1) * n
                             for ai, n in zip(a[1:], gens[1:])) - gens[0]
                assert S.frobenius() == closed, (a, f)
                checked += 1
    assert checked == 3622


@pytest.mark.parametrize("edim, distinct, frob, gens", [
    (3, 1, 29, (15, 10, 6)), (3, 2, 49, (15, 6, 20)),
    (4, 1, 383, (105, 70, 42, 30)), (4, 2, 523, (105, 42, 30, 140))])
def test_min_frobenius_ladder_boundary(edim, distinct, frob, gens):
    # the bound prunes with a strict >, so the minimum is found at
    # f_max = F and at every larger bound, and one below it there is none;
    # among the (a, f) giving the winning generators the first found is
    # kept, which fixes the generator order of the answer
    with pytest.raises(SearchCapExceededError):
        min_frobenius_betti_divisible(edim, frob - 1, distinct)
    for f_max in (frob, frob + 1, 2 * frob):
        got, S = min_frobenius_betti_divisible(edim, f_max, distinct)
        assert (got, S.gens) == (frob, gens)


def test_min_frobenius_matches_genus_enumeration(genus_20):
    # independent cross-check: filter the full genus enumeration instead.
    # Betti divisible semigroups are complete intersections, hence
    # symmetric: genus = (F + 1) / 2, so genus <= 20 covers F <= 40 and the
    # symmetry identity prunes the corpus before the expensive check.
    frob, S = min_frobenius_betti_divisible(3, 40)
    best = None
    for T in genus_20:
        if len(T.gens) < 3:
            continue
        f = T.frobenius()
        if f > 40 or T.genus() != (f + 1) // 2 or f % 2 == 0:
            continue
        if is_betti_divisible(T):
            key = (T.frobenius(), tuple(sorted(T.gens)))
            if best is None or key < best:
                best = key
    assert best is not None
    assert (frob, tuple(sorted(S.gens))) == best


def test_corpus_file_loading(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("# a comment\n2,3\n3,4,5  # trailing comment\n\n2,3\n")
    corpus = load_corpus(p)
    assert len(corpus) == 2  # deduplicated
    assert {tuple(S.gens) for S in corpus} == {(2, 3), (3, 4, 5)}


def test_corpus_file_dedup_ignores_generator_order(tmp_path):
    # an affine semigroup listed with its generators in two orders is one
    # semigroup, kept at its first line
    p = tmp_path / "corpus.txt"
    p.write_text("(1,0);(0,2);(0,3)\n(0,2);(1,0);(0,3)\n5,3\n3,5\n")
    corpus = load_corpus(p)
    assert [S.gens for S in corpus] == [((1, 0), (0, 2), (0, 3)), (5, 3)]


def test_harness_empty_violations_small():
    rep = run_theorem_harness(enumerate_numerical_by_genus(7))
    assert rep["violations"] == []
    assert rep["checked"] == 39 + sum([1, 1, 2, 4, 7, 12, 23])
    assert not rep["missing_strictness"]


def test_harness_detects_broken_witness():
    # a wrong strictness witness must be flagged, not silently accepted
    rep = run_theorem_harness(
        [make_semigroup([2, 3])],
        chain_witnesses={("betti_sorted", "betti_divisible"): (2, 3)})
    assert any(v["check"].startswith("witness:") for v in rep["violations"])


def _coprime_sets(e, top):
    """Increasing e-tuples of pairwise coprime values >= 2 whose product
    without the least value is <= top."""
    def extend(values, rest):  # rest is the product of values[1:]
        k = e - len(values)
        if not k:
            yield values
            return
        v = values[-1] + 1 if values else 2
        while rest * v ** (k - (not values)) <= top:
            if all(gcd(v, u) == 1 for u in values):
                yield from extend(values + (v,), rest * v if values else 1)
            v += 1
    return extend((), 1)


def _brute_betti_divisible(f_top):
    """Every Betti-divisible semigroup with F <= f_top, from its (a, f)
    parameters, as (F, sorted gens, e, distinct values among f_2..f_e).

    No branch and bound: each minimal generator of a numerical semigroup
    is at most F + m <= 2F + 1, so n_i = f_i p / a_i <= 2 f_top + 1 boxes
    every arrangement and every chain f_1 = f_2 = 1 | f_3 | ... | f_e with
    gcd(f_i, a_i) = 1; each is scored by Johnson's formula."""
    top = 2 * f_top + 1
    found = []
    for e in count(2):
        sets = list(_coprime_sets(e, top))
        if not sets:
            return found
        for a in (a for values in sets for a in permutations(values)):
            p = prod(a)
            chains = [(1, 1)]
            for ai in a[2:]:
                chains = [c + (fi,) for c in chains
                          for fi in range(c[-1], top * ai // p + 1, c[-1])
                          if gcd(fi, ai) == 1]
            for f in chains:
                gens = [fi * p // ai for ai, fi in zip(a, f)]
                frob = sum((ai - 1) * n
                           for ai, n in zip(a[1:], gens[1:])) - gens[0]
                if frob <= f_top:
                    found.append((frob, tuple(sorted(gens)), e,
                                  len(set(f[1:]))))


def test_min_frobenius_matches_exhaustive_oracle():
    # every (a, f) with F <= 300, unpruned, against the branch and bound
    # at every bound up to 300, answers and exceptions alike
    brute = _brute_betti_divisible(300)
    for edim in (2, 3, 4):
        for distinct in (1, 2, 3):
            best = min(((frob, gens) for frob, gens, e, d in brute
                        if e >= edim and d >= distinct), default=None)
            for f_max in range(1, 301):
                if best is None or best[0] > f_max:
                    with pytest.raises(SearchCapExceededError,
                                       match="no Betti-divisible"):
                        min_frobenius_betti_divisible(edim, f_max, distinct)
                    continue
                frob, S = min_frobenius_betti_divisible(edim, f_max,
                                                        distinct)
                assert (frob, tuple(sorted(S.gens))) == best, \
                    (edim, distinct, f_max)


def test_min_frobenius_scores_one_ordering_per_candidate():
    # with f_1 = f_2 = 1, swapping a_1 and a_2 gives the same candidate, so
    # only a_1 < a_2 is walked; the first-found winner is unchanged
    search = explore._Search(4, 2, 1200)
    search.grow([], 2, 1, 0)
    assert search.nodes == 59
    assert search.best == (523, (30, 42, 105, 140), (2, 5, 7, 3),
                           [1, 1, 1, 2])


def test_min_frobenius_proves_absence_within_few_nodes(monkeypatch):
    # 40 distinct Betti elements need 41 generators, whose cheapest
    # completion already exceeds F <= 10**6, so the search ends without
    # reaching even a small node cap
    monkeypatch.setattr(explore, "_SEARCH_NODE_CAP", 1000)
    with pytest.raises(SearchCapExceededError, match="no Betti-divisible"):
        min_frobenius_betti_divisible(2, 10 ** 6, 40)


def test_genus_tree_nodes_build_membership_on_first_use():
    for S in enumerate_numerical_by_genus(12):
        assert S._monoid is None
        T = make_semigroup(S.gens)
        top = S.gens[-1] + 1
        assert [S.contains(v) for v in range(top)] == \
            [T.contains(v) for v in range(top)]
        assert S._monoid is not None
        assert (S.frobenius(), S.genus()) == (T.frobenius(), T.genus())


def test_genus_tree_nodes_are_small():
    # a node is one slotted object: no __dict__, and no memo or membership
    # engine until first use; the warm-up loads what the first call loads
    enumerate_numerical_by_genus(8)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = enumerate_numerical_by_genus(16)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 240 * len(corpus), held / len(corpus)
    S = corpus.semigroups[-1]
    assert not hasattr(S, "__dict__")
    assert S._memo is None and S._monoid is None
    S.frobenius()
    assert S._memo and S._monoid is not None
    assert type(Semigroup([5, 7], 1, 1, (0,)).gens) is tuple


def test_dropped_semigroups_are_freed_without_the_cycle_collector():
    # no recursive closure keeps a node, a harnessed semigroup or a fiber
    # search alive once the caller drops it, so reference counting alone
    # frees them, and a search leaves no cycle for the collector to find
    gc.collect()
    gc.disable()
    try:
        corpus = enumerate_numerical_by_genus(6)
        node = weakref.ref(corpus.semigroups[-1])
        del corpus
        assert node() is None
        S = make_semigroup([6, 9, 20])
        assert run_theorem_harness([S], chain_witnesses=None)[
            "violations"] == []
        harnessed = weakref.ref(S)
        del S
        assert harnessed() is None
        # a fiber outside any scan comes from raw_fiber's descent
        assert fiber(make_semigroup([6, 9, 20]), 60).denumerant == 5
        assert min_frobenius_betti_divisible(4, 1200, 2)[0] == 523
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_chain_memberships_match_the_public_predicates():
    # the harness reads the Betti-order and alpha-rectangular verdicts off
    # HarnessInputs; each family must still be the public predicate's
    members = [S for S in enumerate_numerical_by_genus(8) if len(S.gens) > 1]
    members += [make_semigroup(g) for g in DEFAULT_CHAIN_WITNESSES.values()]
    for S in members:
        ci = is_complete_intersection(S)
        expected = {
            "single_betti": has_single_betti(S)[0],
            "betti_divisible": is_betti_divisible(S),
            "betti_sorted": is_betti_sorted(S),
            "ci_single_bm": has_single_betti_minimal(S)[0] and ci,
            "alpha_rect_some": any(is_alpha_rectangular(S, j)[0]
                                   for j in range(len(S.gens))),
            "free_some": free_some_arrangement(S) is not None,
            "complete_intersection": ci,
        }
        T = make_semigroup(S.gens)  # a fresh memo for the harness side
        assert _chain_memberships(T, HarnessInputs(T)) == expected, S.gens


def test_harness_leaves_the_corpus_untouched():
    # every member is checked on a twin, so none gains a memo entry or a
    # membership engine; a memo never made reads as empty
    corpus = enumerate_numerical_by_genus(8)
    assert run_theorem_harness(corpus)["violations"] == []
    assert all(not S._memo and S._monoid is None for S in corpus)


def test_harness_memory_stays_flat_in_the_corpus_size():
    # what the checks derive is dropped with each member's twin, so the
    # harness retains next to nothing on a corpus the caller keeps; the
    # warm-up on another corpus loads what the first call loads once
    run_theorem_harness(enumerate_numerical_by_genus(9))
    corpus = enumerate_numerical_by_genus(9)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_theorem_harness(corpus)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report["violations"] == []
    assert retained < 100_000, retained
