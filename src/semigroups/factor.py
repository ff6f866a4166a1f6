"""Factorization fibers, denumerants and R-classes.

A factorization of m over generators (n_1, ..., n_e) is an exponent tuple
x in N^e with sum x_i * n_i == m.  The fiber Z(m) is the set of all of them.
Two factorizations are linked when they share support; the connected
components of that graph on Z(m) are the R-classes.

The number of R-classes needs no factorization: it is the number of
connected components of the graph G_m on the generators i with
m - n_i in S, with an edge i--j when m - n_i - n_j lies in S (Rosales and
Garcia-Sanchez, Finitely Generated Commutative Monoids, 1999, and
Numerical Semigroups, 2009, the chapters on presentations).  nc counts
them; fiber enumerates Z(m) where the factorizations themselves are
needed.

A scan of every element up to a bound builds each fiber from the fibers
below it instead (Barron, O'Neill and Pelayo, "On dynamic algorithms for
factorization invariants in numerical monoids", Math. Comp. 86, 2017):
Z(m) is the union over i of {x + e_i : x in Z(m - n_i)}, because a
factorization x of m with x_i > 0 is x - e_i plus e_i, and x - e_i
factors m - n_i.  fibers_upto runs it in the order of S.elements_upto,
which is closed downward and meets m - n_i before m, so every fiber the
recurrence reads is already built.  raw_fiber stays for single elements
outside a scan, where building every fiber below one large element would
cost far more.
"""

from .errors import FiberCapExceededError
from .semigroup import SubMonoid, _arithmetic

DEFAULT_FIBER_CAP = 10 ** 6


def raw_fiber(gens, m, cap=DEFAULT_FIBER_CAP, prefix_tests=None):
    """All factorizations of m over gens, sorted lexicographically.

    Works for numerical data (ints) and affine data (tuples of ints) alike.
    prefix_tests[i] decides membership in the monoid generated by
    gens[:i + 1]; when not given, it is built from gens.  The search fixes
    the exponents from the last generator down and enters a remainder only
    if the earlier generators can reach it, so every branch it enters ends
    in a factorization.
    Raises FiberCapExceededError if more than `cap` factorizations exist.
    """
    arith = _arithmetic(m)
    minus, quotient = arith.sub, arith.quotient
    e = len(gens)
    if e == 0:
        return ((),) if m == arith.scale(0, m) else ()
    if prefix_tests is None:
        prefix_tests = tuple(SubMonoid(gens[:i + 1]).contains
                             for i in range(e))
    out = []

    def rec(i, rem, suffix):
        if i == 0:
            # rem lies in the monoid of gens[0] alone: an exact multiple
            if cap is not None and len(out) >= cap:
                raise FiberCapExceededError(m, cap)
            out.append((quotient(rem, gens[0]),) + suffix)
            return
        g = gens[i]
        inside = prefix_tests[i - 1]
        for k in range(quotient(rem, g) + 1):
            if inside(rem):
                rec(i - 1, rem, (k,) + suffix)
            rem = minus(rem, g)

    if prefix_tests[e - 1](m):
        rec(e - 1, m, ())
    out.sort()
    return tuple(out)


def r_classes(factorizations):
    """Partition factorizations into R-classes (support-sharing components).

    Returns a tuple of classes; each class is a lex-sorted tuple of
    factorizations, and classes are sorted by their smallest member.
    """
    facts = list(factorizations)
    parent = list(range(len(facts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    first_user = {}
    for fi, x in enumerate(facts):
        for j, c in enumerate(x):
            if c:
                if j in first_user:
                    union(first_user[j], fi)
                else:
                    first_user[j] = fi
    groups = {}
    for fi in range(len(facts)):
        groups.setdefault(find(fi), []).append(facts[fi])
    classes = [tuple(sorted(g)) for g in groups.values()]
    classes.sort()
    return tuple(classes)


class Fiber:
    """The fiber Z(m) together with its R-class decomposition."""

    __slots__ = ("element", "factorizations", "classes", "isolated")

    def __init__(self, element, factorizations, classes):
        self.element = element
        self.factorizations = factorizations
        self.classes = classes
        # factorizations forming a singleton R-class, lex-sorted; when
        # every class is one, that is all of them, in the same order
        self.isolated = factorizations \
            if len(classes) == len(factorizations) \
            else tuple(c[0] for c in classes if len(c) == 1)

    @property
    def nc(self):
        """Number of R-classes."""
        return len(self.classes)

    @property
    def denumerant(self):
        return len(self.factorizations)

    def __repr__(self):
        return f"Fiber({self.element!r}, nc={self.nc}, d={self.denumerant})"


def fiber(S, m, cap=DEFAULT_FIBER_CAP):
    """Fiber of m in the semigroup S, with R-classes.  Cached on S."""
    fib = S._cached(("fiber", m), _new_fiber, S, m, cap)
    if cap is not None and fib.denumerant > cap:
        raise FiberCapExceededError(m, cap)  # cached under a larger cap
    return fib


def _prefix_tests(S):
    """Entry i tests membership in the monoid of gens[:i + 1], without
    the shape check; the last entry tests membership in S."""
    return S._cached("prefix_tests", lambda: tuple(
        S.submonoid(range(i + 1)).unchecked() for i in range(len(S.gens))))


def _new_fiber(S, m, cap):
    if not S.contains(m):  # the shape check that the prefix tests skip
        return Fiber(m, (), ())
    facts = raw_fiber(S.gens, m, cap, _prefix_tests(S))
    return Fiber(m, facts, r_classes(facts))


def fibers_upto(S, bound, cap=DEFAULT_FIBER_CAP):
    """The fiber of every m in S.elements_upto(bound), in that order,
    each built from the fibers below it and kept on S under the key
    fiber() uses; a fiber already kept is reused.  Each fiber carries its
    element.  Raises FiberCapExceededError at the first m with more than
    cap factorizations."""
    built = {}  # scanned element -> its factorizations
    out = []
    # Z(m) is the union of Z(m - n_i) + e_i.  The scan is closed downward
    # (m - n_i in S lies in it whenever m does) and m - n_i comes before m:
    # numerical, m - n_i < m; affine, m - n_i is at most m in every
    # coordinate and differs from it, so it comes first in lexicographic
    # order and has a smaller coordinate sum.  So every Z(m - n_i) with
    # m - n_i in S is in built when m is reached, and any other m - n_i
    # has an empty fiber.
    for m in S.elements_upto(bound):
        fib = S._cached(("fiber", m), _fiber_from_below, S, m, built, cap)
        if cap is not None and fib.denumerant > cap:
            raise FiberCapExceededError(m, cap)  # also one kept earlier
        built[m] = fib.factorizations
        out.append(fib)
    return out


def _fiber_from_below(S, m, built, cap):
    """The fiber of m from the factorizations in built of every m - n_i
    in S; only m = 0 has none, and its one factorization is zero."""
    minus = S._arith.sub
    facts = {x[:i] + (x[i] + 1,) + x[i + 1:]
             for i, g in enumerate(S.gens)
             for x in built.get(minus(m, g), ())}
    if cap is not None and len(facts) > cap:
        raise FiberCapExceededError(m, cap)
    facts = tuple(sorted(facts)) if facts else ((0,) * len(S.gens),)
    return Fiber(m, facts, r_classes(facts))


def denumerant(S, m):
    """Number of factorizations of m in S."""
    return fiber(S, m).denumerant


def nc(S, m):
    """Number of R-classes of the fiber of m in S: 0 for a non-member, 1
    for 0 (the empty factorization), else the number of connected
    components of G_m, found by a flood fill that tests each pair of
    nodes at most once.  O(e^2) membership tests; no factorization is
    enumerated."""
    if not S.contains(m):  # also rejects a wrong-shape m
        return 0
    inside = S._member_test()
    minus = S._arith.sub
    nodes = [g for g in S.gens if inside(minus(m, g))]
    count = 0
    while nodes:
        count += 1
        stack = [nodes.pop()]
        while stack:
            rest = minus(m, stack.pop())
            unlinked = []
            for g in nodes:
                (stack if inside(minus(rest, g)) else unlinked).append(g)
            nodes = unlinked
    return count or 1  # only m == 0 has no node


def isolated_factorizations(S, m):
    """Factorizations of m that form a singleton R-class."""
    return fiber(S, m).isolated
