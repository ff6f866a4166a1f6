"""Betti elements, minimal presentations and complete intersections."""

from itertools import combinations, product

from . import constants, factor
from .errors import (DegreeBoundRequiredError, FiberCapExceededError,
                     IncompleteBettiError)

# choices per Betti element that all_minimal_presentations may list
_PRESENTATION_CAP = 200000


class BettiProfile:
    """Betti elements of a semigroup with their fibers.

    Attributes:
        betti: sorted tuple of Betti elements.
        fibers: dict element -> Fiber for every Betti element; these are
            the only fibers enumerated to find the set, so they alone are
            held to a fiber_cap.
        complete: False when the set was computed by a bounded sweep and may
            miss elements beyond the bound.
        widest: the largest denumerant of a Betti fiber (0 without any), so
            a fiber cap is checked in O(1).
    """

    def __init__(self, betti, fibers, complete):
        self.betti = tuple(betti)
        self.fibers = fibers
        self.complete = complete
        self.widest = max((f.denumerant for f in fibers.values()), default=0)

    @property
    def ibetti(self):
        """Betti elements with at least one isolated factorization."""
        return tuple(b for b in self.betti if self.fibers[b].isolated)

    def nc_sum(self):
        return sum(f.nc for f in self.fibers.values())

    def presentation_cardinality(self):
        return sum(f.nc - 1 for f in self.fibers.values())


def betti_elements(S, degree_bound=None, fiber_cap=factor.DEFAULT_FIBER_CAP):
    """Compute the Betti elements of S: the elements m whose graph G_m has
    two or more components (factor.nc(S, m) >= 2).  Only their fibers are
    enumerated, and fiber_cap bounds those: a Betti element with more
    factorizations raises FiberCapExceededError, also when the profile
    was kept from an earlier call with a larger cap.

    Numerical semigroups: exact, via the candidate set
    {w + n_j : w in Ap(S; n_1) \\ {0}, j != 1}, n_1 = gens[0].

    Affine semigroups: exact when some arrangement is free (then
    Betti = {c_i^* n_i}); otherwise a bounded sweep over elements of
    coordinate sum <= degree_bound, flagged incomplete.
    """
    if S.numerical:
        profile = S._cached("betti", _betti_numerical, S, fiber_cap)
    elif degree_bound is not None and free_arrangement(S) is None:
        # kept under its bound: every caller in one report shares the sweep
        profile = S._cached(("betti", degree_bound), _betti_affine, S,
                            degree_bound, fiber_cap)
    else:
        profile = S._cached("betti", _betti_affine, S, degree_bound,
                            fiber_cap)
    # a kept profile may come from a larger cap; walk the fibers only to
    # name the first one over this cap, in the order they were built
    if fiber_cap is not None and profile.widest > fiber_cap:
        fib = next(f for f in profile.fibers.values()
                   if f.denumerant > fiber_cap)
        raise FiberCapExceededError(fib.element, fiber_cap)
    return profile


def _betti_numerical(S, fiber_cap):
    # Every Betti element b is w + n_j with w in Ap(S; n_1) \ {0} and
    # j != 1.  G_b has two or more components, so one of them misses node
    # 1; take a node j in it.  If b - n_j - n_1 were in S, then b - n_1
    # would be in S and the edge 1--j would exist.  So b - n_j lies in
    # Ap(S; n_1), j != 1, and w = b - n_j != 0 because a generator has a
    # one-node graph.
    n1 = S.gens[0]
    candidates = {w + g for w in S.apery(n1) if w for g in S.gens[1:]}
    return _sweep(S, sorted(candidates), fiber_cap, True)


def _sweep(S, elements, fiber_cap, complete):
    """The profile of the elements with two or more R-classes."""
    fibers = {m: factor.fiber(S, m, fiber_cap) for m in elements
              if factor.nc(S, m) >= 2}
    return BettiProfile(sorted(fibers), fibers, complete)


def free_arrangement(S):
    """An arrangement (rays first) for which S is free, as a tuple of
    generator indices, or None."""
    if S.simplicial_rays is None:
        return None
    rays = tuple(S.simplicial_rays)
    tail = _free_completion(S, frozenset(rays))
    return None if tail is None else rays + tail


def _free_completion(S, prefix, alpha_base=None):
    """The first ordering, in increasing index order, of the generators
    outside the index set prefix that completes it to a free arrangement
    (c-bar_i = c_i^* at every later position), or None.

    With alpha_base = j (numerical only), every later position must also
    have c_i^* = alpha_i + 1, alpha taken with respect to gens[j].  Each
    step depends on the earlier generators only as a set, so the search is
    memoized on (prefix, alpha_base) and shared by every caller.

    The search runs only when _peelable holds for the whole generator
    set: that gate reads c-bar alone, and it rules out most non-free
    semigroups before any c_i^* (a submonoid Apery table) is built.
    """
    def compute():
        if not _peelable(S, frozenset(range(len(S.gens)))):
            return None
        base = tuple(sorted(prefix))
        pos = len(base)
        rest = [i for i in range(len(S.gens)) if i not in prefix]
        if not rest:
            return ()
        for idx in rest:
            c = _free_multiple(S, base + (idx,), pos)
            if c is None:
                continue
            if alpha_base is not None and \
                    c != constants.alpha(S, idx, alpha_base) + 1:
                continue
            tail = _free_completion(S, prefix | {idx}, alpha_base)
            if tail is not None:
                return (idx,) + tail
        return None

    return S._cached(("free_completion", prefix, alpha_base), compute)


def _peelable(S, rest):
    """Whether generators can be peeled off the end of an arrangement of
    the index set rest, one at a time down to the rays (one generator for
    numerical input), each with c-bar > 1 at the last position of
    (rest minus k, k).  S is free for (a_1, ..., a_e) exactly when it glues
    the free <a_1, ..., a_{e-1}> to N a_e, with c-bar_e = c_e^* >= 2, so a
    free arrangement peels this way.  Only c-bar is read, never membership.
    """
    def compute():
        if len(rest) == S.rank:
            return True
        top = len(rest) - 1
        return any(
            constants.c_bar(S, tuple(sorted(rest - {k})) + (k,), top) > 1
            and _peelable(S, rest - {k})
            for k in sorted(rest)
            if S.numerical or k not in S.simplicial_rays)

    return S._cached(("peelable", rest), compute)


def is_free(S, arrangement=None):
    """Whether S is free for the given arrangement (default: stored order,
    rays first)."""
    if arrangement is None:
        arrangement = constants.default_arrangement(S)
    arrangement = tuple(arrangement)
    return all(_free_multiple(S, arrangement, pos)
               for pos in range(S.rank, len(arrangement)))


def _free_multiple(S, arrangement, pos):
    """c-bar at position pos of the arrangement when it equals c^*, else
    None.  A minimal generator is never in the monoid of the others, so
    c^* >= 2, and c-bar = 1 settles the position without computing c^*."""
    c = constants.c_bar(S, arrangement, pos)
    return c if c > 1 and constants.c_star(S, arrangement, pos) == c \
        else None


def _betti_affine(S, degree_bound, fiber_cap):
    arr = free_arrangement(S)
    if arr is not None:
        betti = {S._arith.scale(constants.c_star(S, arr, pos),
                                S.gens[arr[pos]])
                 for pos in range(S.rank, len(arr))}
        fibers = {b: factor.fiber(S, b, fiber_cap) for b in betti}
        return BettiProfile(sorted(betti), fibers, True)
    bound = degree_bound
    if bound is None:
        if S.simplicial_rays is None:
            raise DegreeBoundRequiredError(
                "no freeness certificate; pass an explicit degree bound")
        arr0 = constants.default_arrangement(S)
        bound = 2 * sum(constants.c_star(S, arr0, pos) *
                        sum(S.gens[arr0[pos]])
                        for pos in range(S.rank, len(arr0)))
    return _sweep(S, S.elements_upto(bound), fiber_cap, False)


def require_exact_betti(S):
    """Raise IncompleteBettiError unless the Betti set of S is exact: S is
    numerical or has a free arrangement.  Then no degree bound changes the
    set, and otherwise no bound completes it, so the functions that need
    the exact set take no bound and call this before any sweep."""
    if not S.numerical and free_arrangement(S) is None:
        raise IncompleteBettiError(
            "the Betti profile is a bounded sweep; completeness is required")


def minimal_presentation(S):
    """A canonical minimal presentation: for each Betti element, a star of
    relations pairing the lex-smallest factorization of the lex-smallest
    R-class with the lex-smallest factorization of every other R-class.

    Returns a tuple of (x, y) factorization pairs with x < y lexicographically.
    """
    require_exact_betti(S)
    profile = betti_elements(S)
    relations = []
    for b in profile.betti:
        classes = profile.fibers[b].classes
        root = classes[0][0]
        for cls in classes[1:]:
            pair = tuple(sorted((root, cls[0])))
            relations.append(pair)
    return tuple(relations)


def presentation_cardinality(S):
    require_exact_betti(S)
    return betti_elements(S).presentation_cardinality()


def is_complete_intersection(S):
    """Complete intersection: presentation cardinality equals codimension."""
    return presentation_cardinality(S) == S.codim


def all_minimal_presentations(S):
    """An iterator over every minimal presentation of S.

    A minimal presentation chooses, for each Betti element, a spanning tree
    over the R-classes and one representative pair per tree edge.  The
    iteration order is deterministic.  Mostly useful for small semigroups
    (the harness's shape checks search forests in classify._shaped_dfs);
    _PRESENTATION_CAP guards the blow-up.  The gate and the cap raise on
    the call, not on the first step.  Each spanning tree gives at least
    one choice, so when the k R-classes of some Betti element have more
    trees than the cap (Cayley: k^(k-2)) the call raises before it lists
    any tree.
    """
    require_exact_betti(S)
    profile = betti_elements(S)
    all_classes = [profile.fibers[b].classes for b in profile.betti]
    if any(len(c) > 2 and len(c) ** (len(c) - 2) > _PRESENTATION_CAP
           for c in all_classes):
        raise IncompleteBettiError(
            "too many minimal presentations to enumerate")
    per_betti = []
    for classes in all_classes:
        choices = []
        for tree in _spanning_trees(len(classes)):
            for reps in _edge_reps(tree, classes):
                choices.append(reps)
                if len(choices) > _PRESENTATION_CAP:
                    raise IncompleteBettiError(
                        "too many minimal presentations to enumerate")
        per_betti.append(choices)
    return (sum(combo, ()) for combo in product(*per_betti))


def _spanning_trees(k):
    """All spanning trees of the complete graph on k nodes, as edge tuples."""
    if k == 1:
        return [()]
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    trees = []
    for combo in combinations(edges, k - 1):
        parent = list(range(k))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
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


def _edge_reps(tree, classes):
    """All ways to choose one (x, y) representative pair per tree edge."""
    return product(*([tuple(sorted((x, y)))
                      for x in classes[a] for y in classes[b]]
                     for a, b in tree))
