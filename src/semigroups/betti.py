"""Betti elements, minimal presentations and complete intersections.

A Betti element is an element b whose graph G_b has two or more
components (factor.nc(S, b) >= 2; Rosales and Garcia-Sanchez, Finitely
Generated Commutative Monoids, 1999).  betti_elements answers that for a
whole range at once on big-int bit planes (_split), and only the Betti
elements get a fiber.
"""

from functools import cached_property
from itertools import product

from . import constants, factor
from .constants import _horizon  # beside c_value, which reads it too
from .errors import (DegreeBoundRequiredError, FiberCapExceededError,
                     IncompleteBettiError)
from .semigroup import _bits

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

    @cached_property
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

    Numerical semigroups: exact, from the planes over [0, _horizon(S)].

    Affine semigroups: exact when some arrangement is free (then
    Betti = {c_i^* n_i}); otherwise the planes over the range of
    S._box(degree_bound), flagged incomplete; a box past its cap raises
    SearchCapExceededError before any plane is built.
    """
    if S.numerical:
        profile = S._cached("betti", lambda: _profile(
            S, _numerical_betti(S), fiber_cap, True))
    else:
        # kept under its bound, None when a free arrangement makes the set
        # exact: every caller in one report shares the sweep
        bound = None if free_arrangement(S) is not None else degree_bound
        profile = S._cached(("betti", bound), _betti_affine, S, bound,
                            fiber_cap)
    # a kept profile may come from a larger cap; walk the fibers only to
    # name the first one over this cap, in the order they were built
    if profile.widest > fiber_cap:
        fib = next(f for f in profile.fibers.values()
                   if f.denumerant > fiber_cap)
        raise FiberCapExceededError(fib.element, fiber_cap)
    return profile


def _profile(S, betti, fiber_cap, complete):
    """The profile of the ascending elements betti, each with its fiber."""
    fibers = {b: factor.fiber(S, b, fiber_cap) for b in betti}
    return BettiProfile(betti, fibers, complete)


def _numerical_betti(S):
    """The Betti elements of numerical S, ascending: one sweep to _horizon,
    kept on S for the profile and for the harness walk (before any fiber)."""
    return S._cached("betti_sweep", _sweep, S, _horizon(S))


def _sweep(S, bound):
    """The elements b of S in the range of S._box(bound), in the order of
    S.elements_upto, whose graph G_b has two or more components."""
    # whether b is in S, and nc(S, b), depend only on the elements below
    # b, where the planes of S._box are exact; the member plane is S's
    # kept planes, masked to the range
    positions, valid, _, decode = S._box(bound)
    one, many = S._planes(bound)
    shifts = [p for p in positions if valid >> p & 1]
    return list(decode(_split(one | many, shifts, valid)))


# Bits per window of _split, at least: a longer range is walked in windows
_WINDOW = 1 << 20


def _split(member, shifts, valid):
    """The positions b in the mask valid, applied after every shift,
    ascending, at which G_b has two or more components, from the
    membership plane member and the generators' positions (shifts).

    Bit b reads member no lower than b - 2 max(shifts), so valid is
    walked in windows of max(_WINDOW, 2 max(shifts)) bits, each reading
    the planes from that far below its start: the planes of a window take
    O(e^2 * window) bits, and are dropped before the next window's.
    """
    lookback = 2 * max(shifts, default=0)
    width = max(_WINDOW, lookback)
    out = []
    size = valid.bit_length()
    for lo in range(0, size, width):
        base = max(0, lo - lookback)
        mask = (1 << min(size, lo + width) - base) - 1
        split = _split_plane(member >> base & mask, shifts,
                             valid >> base & mask)
        out.extend(lo + t for t in _bits(split >> lo - base))
    return out


def _split_plane(member, shifts, valid):
    """The plane of the positions b at which G_b has two or more
    components, exact where member is known from b - 2 max(shifts) on.

    Bit b of node_i = member << n_i is set when n_i is a node of G_b, and
    bit b of link_ij = node_i << n_j (i < j) when the edge i--j is in G_b:
    one plane answers for every b at once.  The nodes are then eliminated
    in index order.  Eliminating k links every two later nodes that k
    links, link_ij |= link_ki & link_kj, so two later nodes are joined in
    what is left exactly when they are joined in G_b.  So k links to no
    later node exactly when it is the largest node of its component, and
    G_b has as many components as such nodes.  Two planes count them,
    saturated at 2 (once, split).  O(e^3) operations on planes.
    """
    e = len(shifts)
    node = [(member << s) & valid for s in shifts]
    link = [[(node[i] << shifts[j]) & valid if j > i else 0
             for j in range(e)] for i in range(e)]
    once = split = 0
    for k in range(e):
        joined = 0
        for j in range(k + 1, e):
            joined |= link[k][j]
        last = node[k] & ~joined  # k is the largest node of its component
        split |= once & last
        once |= last
        for i in range(k + 1, e):
            ki = link[k][i]
            if ki:
                for j in range(i + 1, e):
                    link[i][j] |= ki & link[k][j]
    return split


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
    (c-bar_i = c_i^* at every later position from S.rank on), or None.

    With alpha_base = j (numerical only), every later position must also
    have c_i^* = alpha_i + 1, alpha taken with respect to gens[j].  Each
    step depends on the earlier generators only as a set, so the search is
    memoized on (prefix, alpha_base) and shared by every caller.

    The search runs only when _peelable holds for the whole generator
    set: that gate reads c-bar alone, and it rules out most non-free
    semigroups before any membership read (a submonoid Apery table).
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
            if pos >= S.rank:
                c = _free_multiple(S, base + (idx,), pos)
                if c is None or alpha_base is not None and \
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
    None, from one membership read.  c^* n lies in <P>, so in the group
    of P, the prefix, whose multiples of n are the multiples of c-bar:
    c-bar divides c^*, and c^* = c-bar iff c-bar n lies in <P>.  A
    minimal generator is never in the monoid of the others, so c^* >= 2,
    and c-bar = 1 settles the position without a table of <P>."""
    c = constants.c_bar(S, arrangement, pos)
    return c if c > 1 and S.submonoid(arrangement[:pos]).contains(
        S._arith.scale(c, S.gens[arrangement[pos]])) else None


def _betti_affine(S, degree_bound, fiber_cap):
    arr = free_arrangement(S)
    if arr is not None:
        # c^* = c-bar at every position of a free arrangement
        betti = {S._arith.scale(constants.c_bar(S, arr, pos),
                                S.gens[arr[pos]])
                 for pos in range(S.rank, len(arr))}
        return _profile(S, sorted(betti), fiber_cap, True)
    bound = degree_bound
    if bound is None:
        if S.simplicial_rays is None:
            raise DegreeBoundRequiredError(
                "no freeness certificate; pass an explicit degree bound")
        arr0 = constants.default_arrangement(S)
        bound = 2 * sum(constants.c_star(S, arr0, pos) *
                        sum(S.gens[arr0[pos]])
                        for pos in range(S.rank, len(arr0)))
    return _profile(S, _sweep(S, bound), fiber_cap, False)


def require_exact_betti(S):
    """The exact Betti profile of S; raise IncompleteBettiError before any
    sweep unless S is numerical or has a free arrangement.  Then no degree
    bound changes the set, and otherwise no bound completes it, so the
    functions that need the exact set take no bound and read it here."""
    if not S.numerical and free_arrangement(S) is None:
        raise IncompleteBettiError(
            "the Betti profile is a bounded sweep; completeness is required")
    return betti_elements(S)


def minimal_presentation(S):
    """A canonical minimal presentation: for each Betti element, a star of
    relations pairing the lex-smallest factorization of the lex-smallest
    R-class with the lex-smallest factorization of every other R-class.

    Returns a tuple of (x, y) factorization pairs with x < y lexicographically.
    """
    profile = require_exact_betti(S)
    relations = []
    for b in profile.betti:
        classes = profile.fibers[b].classes
        root = classes[0][0]
        for cls in classes[1:]:
            pair = tuple(sorted((root, cls[0])))
            relations.append(pair)
    return tuple(relations)


def presentation_cardinality(S):
    return require_exact_betti(S).presentation_cardinality()


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
    profile = require_exact_betti(S)
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
    """All spanning trees of the complete graph on k nodes, as sorted edge
    tuples, sorted: one per Pruefer sequence, k^(k-2) in all (Cayley)."""
    if k == 1:
        return [()]
    trees = []
    for seq in product(range(k), repeat=k - 2):
        degree = [1] * k
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:  # join the least leaf to v, then the last two nodes
            leaf = degree.index(1)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[leaf], degree[v] = 0, degree[v] - 1
        edges.append(tuple(i for i in range(k) if degree[i] == 1))
        trees.append(tuple(sorted(edges)))
    return sorted(trees)


def _edge_reps(tree, classes):
    """All ways to choose one (x, y) representative pair per tree edge."""
    return product(*([tuple(sorted((x, y)))
                      for x in classes[a] for y in classes[b]]
                     for a, b in tree))
