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
needed.  A Fiber partitions Z(m) into R-classes on first read.

The theorem harness's scan builds Z(m) from the fibers below it instead
(classify._walk) and makes a Fiber only at a Betti element; raw_fiber
serves single elements.  Whether d(m) = 1 is a read of Semigroup._planes.
"""

from itertools import compress

from .errors import FiberCapExceededError
from .semigroup import SubMonoid, _arithmetic

DEFAULT_FIBER_CAP = 10 ** 6


def raw_fiber(gens, m, cap=DEFAULT_FIBER_CAP, prefix_tests=None):
    """All factorizations of m over gens, sorted lexicographically.

    Works for numerical data (ints) and affine data (tuples of ints) alike.
    prefix_tests[i] decides membership in the monoid generated by
    gens[:i + 1]; when not given, it is built from gens.  The search fixes
    the exponents from the last generator down and enters a remainder only
    if it lies in the monoid of the earlier generators, so every branch it
    enters ends in a factorization.
    Raises FiberCapExceededError if more than `cap` factorizations exist.
    """
    arith = _arithmetic(m)
    e = len(gens)
    if e == 0:
        return ((),) if m == arith.scale(0, m) else ()
    if prefix_tests is None:
        prefix_tests = tuple(SubMonoid(gens[:i + 1]).contains
                             for i in range(e))
    out = []
    # x_(e-1), x_(e-2), ... are fixed depth-first on an explicit stack: an
    # entry (i, choices) lists suffixes (x_i, ..., x_(e-1)), each with its
    # remainder, in the monoid of gens[:i] (at i = 1, a multiple of gens[0])
    stack = [(e, iter([((), m)] if prefix_tests[e - 1](m) else []))]
    while stack:
        i, choices = stack[-1]
        for suffix, rem in choices:
            if i > 1:
                stack.append((i - 1, _choices(rem, suffix, gens[i - 1],
                                              prefix_tests[i - 2], arith)))
                break
            if len(out) >= cap:
                raise FiberCapExceededError(m, cap)
            out.append((arith.quotient(rem, gens[0]),) + suffix)
        else:
            stack.pop()
    out.sort()
    return tuple(out)


def _choices(rem, suffix, g, inside, arith):
    """((k,) + suffix, rem - k g) for each k >= 0 with inside(rem - k g)."""
    minus = arith.sub
    for k in range(arith.quotient(rem, g) + 1):
        if inside(rem):
            yield (k,) + suffix, rem
        rem = minus(rem, g)


# Entry j is the support bit of generator j, for fibers with e <= 64
_SUPPORT_BITS = [1 << j for j in range(64)]


def r_classes(factorizations):
    """Partition the factorizations of one fiber into R-classes
    (support-sharing components).

    Returns a tuple of classes; each class is a lex-sorted tuple of
    factorizations, and classes are sorted by their smallest member.
    Classes have pairwise disjoint supports, so there are at most e of
    them.  Each factorization joins every class whose support mask meets
    its own, and those classes merge.  A new class adds a bit to the union
    of the masks, so at most e - 1 merges happen: O(|Z| e) mask operations.
    """
    facts = list(factorizations)
    if not facts:
        return ()
    e = len(facts[0])
    bits = _SUPPORT_BITS if e <= 64 else [1 << j for j in range(e)]
    classes = []  # [support mask, members]; the masks are pairwise disjoint
    for x in facts:
        s = sum(compress(bits, x))
        home = None
        for c in classes:
            if c[0] & s:
                if home is None:
                    home = c
                    c[1].append(x)
                else:  # merged into home
                    home[1] += c[1]
                    c[1] = None
                s |= c[0]
        if home is None:
            classes.append([s, [x]])
        else:
            home[0] = s
            if len(classes) > 1:  # drop the classes merged into home
                classes = [c for c in classes if c[1] is not None]
    return tuple(sorted(tuple(sorted(m)) for _, m in classes))


class Fiber:
    """The fiber Z(m), partitioned into R-classes on first read."""

    __slots__ = ("element", "factorizations", "_classes")

    def __init__(self, element, factorizations):
        self.element = element
        self.factorizations = factorizations
        self._classes = None

    @property
    def classes(self):
        if self._classes is None:
            self._classes = r_classes(self.factorizations)
        return self._classes

    @property
    def isolated(self):
        """The factorizations forming a singleton R-class, lex-sorted."""
        return tuple([c[0] for c in self.classes if len(c) == 1])

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
    """Fiber of m in the semigroup S.  Cached on S."""
    fib = S._cached(("fiber", m), _new_fiber, S, m, cap)
    if fib.denumerant > cap:
        raise FiberCapExceededError(m, cap)  # cached under a larger cap
    return fib


def _prefix_tests(S):
    """Entry i tests membership in the monoid of gens[:i + 1], without
    the shape check; the last entry tests membership in S."""
    return S._cached("prefix_tests", lambda: tuple(
        S.submonoid(range(i + 1)).unchecked() for i in range(len(S.gens))))


def _new_fiber(S, m, cap):
    if not S.contains(m):  # the shape check that the prefix tests skip
        return Fiber(m, ())
    return Fiber(m, raw_fiber(S.gens, m, cap, _prefix_tests(S)))


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
