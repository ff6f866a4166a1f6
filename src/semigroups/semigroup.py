"""Semigroup descriptors: construction, membership, Apery sets, basic invariants.

Elements of a numerical semigroup are plain ints; elements of an affine
semigroup in N^r are tuples of r ints.  Generators keep the caller's order
(minus redundant ones); all arrangement-sensitive operations honour that
stored order unless given an explicit arrangement.
"""

import operator
from functools import reduce
from itertools import combinations
from math import gcd

from . import constants, linalg
from .errors import (
    InfiniteAperyError,
    InvalidGeneratorsError,
    NotNumericalError,
    NotSimplicialError,
    SearchCapExceededError,
)


class _IntArithmetic:
    """Element arithmetic of numerical semigroups: elements are ints."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    scale = staticmethod(operator.mul)  # scale(k, g) is k * g
    quotient = staticmethod(operator.floordiv)  # largest k, m - k*g >= 0
    key = None  # the natural order is the degree order


class _TupleArithmetic:
    """Element arithmetic of affine semigroups: elements are tuples of ints
    and every operation is componentwise."""

    @staticmethod
    def add(a, b):
        return tuple(map(operator.add, a, b))

    @staticmethod
    def sub(a, b):
        return tuple(map(operator.sub, a, b))

    @staticmethod
    def scale(k, g):
        return tuple(k * x for x in g)

    @staticmethod
    def quotient(m, g):
        """The largest k with m - k*g >= 0 in every coordinate."""
        return min(mc // gc for mc, gc in zip(m, g) if gc)

    @staticmethod
    def key(v):
        """Coordinate sum first, then lexicographic."""
        return (sum(v), v)


def _arithmetic(v):
    """The element arithmetic for elements shaped like v."""
    return _IntArithmetic if isinstance(v, int) else _TupleArithmetic


def _apery_table(gens, modulus):
    """Entry r is the least element of the monoid generated by gens that is
    congruent to r modulo `modulus`.  The gcd of gens must be 1, so that the
    monoid meets every residue class.

    Round-robin shortest paths over the residues (Nijenhuis, Amer. Math.
    Monthly 86, 1979; Boecker & Liptak, Algorithmica 48, 2007): each
    generator a splits the residues into gcd(a, modulus) cycles of step a;
    one walk around a cycle, started at its least entry, relaxes every
    entry of that cycle.  O(len(gens) * modulus) time, O(modulus) space.
    """
    n = modulus
    inf = float("inf")
    table = [inf] * n
    table[0] = 0
    for a in gens:
        d = gcd(a, n)
        if d == n:
            continue  # a is a multiple of the modulus: no new residues
        for p in range(d):
            x = min(table[p::d])
            if x == inf:
                continue
            for _ in range(n // d - 1):
                x += a
                r = x % n
                y = table[r]
                if y < x:
                    x = y
                else:
                    table[r] = x
    return table


# Bits per affine box of Semigroup._box, at most: 8 MiB per plane
_BOX_CAP = 1 << 26


def _count_planes(shifts, valid):
    """The planes one and many over the mask valid, for generators at the
    bit positions shifts: bit m of one is set when m has exactly one
    factorization, of many when it has two or more.

    min(., 2) respects + and *, so multiplying by the generating function
    1/(1 - x^n) = prod_k (1 + x^(2^k n)), truncated to valid, is exact on
    the planes, one doubling shift per factor, up to the first shift
    outside valid: every later one lies outside too."""
    one, many = 1, 0  # the empty product: 0 has one factorization
    for s in shifts:
        while valid >> s & 1:
            many = (many | many << s | one & one << s) & valid
            one = (one | one << s) & ~many & valid
            s <<= 1
    return one, many


def _mixed_radix(radix, width):
    """Units, decoder and encoder of mixed radix, first coordinate most
    significant."""
    units = [radix ** k for k in reversed(range(width))]
    return (units, lambda x: tuple([x // u % radix for u in units]),
            lambda v: sum(map(operator.mul, v, units)))


def _apery_bits(member, shifts):
    """Ap(S; B) as a plane: member & ~(member << s) over the positions s of
    B, member the plane of S over a range that holds Ap(S; B)."""
    plane = member
    for s in shifts:
        plane &= ~(member << s)
    return plane


def _bits(plane):
    """The positions of the set bits of plane, ascending."""
    bits = bin(plane)[:1:-1]  # bits[t] is bit t
    out = []
    t = bits.find("1")
    while t >= 0:
        out.append(t)
        t = bits.find("1", t + 1)
    return out


class SubMonoid:
    """Membership engine for the monoid of a fixed nonempty generator list.

    Numerical generators: with d the gcd of the generators and n the least
    generator divided by d, the engine keeps the Apery table Ap of the
    reduced monoid <g / d> with respect to n, so that v is a member iff
    d divides v and v / d >= Ap[(v / d) mod n].  The table is built on the
    first query.  Affine generators: a memoized depth-first search, for
    elements with as many coordinates as the generators.
    """

    __slots__ = ("gens", "numerical", "_d", "_n", "_apery", "_memo")

    def __init__(self, gens):
        self.gens = tuple(gens)
        self.numerical = isinstance(self.gens[0], int)
        self._apery = None
        self._memo = {}

    def _table(self):
        """The Apery table Ap of a numerical engine, built on first use."""
        if self._apery is None:
            d = gcd(*self.gens)
            reduced = [g // d for g in self.gens]
            self._d = d
            self._n = min(reduced)
            self._apery = _apery_table(reduced, self._n)
        return self._apery

    def contains(self, v):
        if self.numerical:
            if not isinstance(v, int):
                raise InvalidGeneratorsError("numerical membership needs an int")
            ap = self._apery
            if ap is None:
                ap = self._table()
            d = self._d
            if v % d:
                return False
            q = v // d
            return q >= ap[q % self._n]
        dim = len(self.gens[0])
        if isinstance(v, int) or len(v) != dim:
            raise InvalidGeneratorsError(
                f"{format_element(v)} is not an element with {dim} "
                f"coordinates")
        if any(c < 0 for c in v):
            return False
        if not any(v):
            return True
        return self._contains_affine(tuple(v))

    def unchecked(self):
        """A membership test without the shape check of contains, for
        elements already known to be shaped like the generators: for
        numerical generators a read of the Apery table, for affine
        generators contains itself."""
        if not self.numerical:
            return self.contains
        ap, n, d = self._table(), self._n, self._d
        if d == 1:
            return lambda v: v >= ap[v % n]
        return lambda v: v % d == 0 and v // d >= ap[v // d % n]

    def _contains_affine(self, v):
        # Depth-first search for a chain v -> v - g -> ... -> 0 on an
        # explicit stack: every step lowers the coordinate sum, so a path
        # never revisits a vector, and a vector found on the way to 0
        # marks every vector on the stack as a member.
        memo = self._memo
        hit = memo.get(v)
        if hit is not None:
            return hit
        gens = self.gens
        minus = _TupleArithmetic.sub
        stack = [(v, iter(gens))]
        while stack:
            w, todo = stack[-1]
            for g in todo:
                nxt = minus(w, g)
                if any(c < 0 for c in nxt):
                    continue
                if not any(nxt) or memo.get(nxt):
                    for u, _ in stack:
                        memo[u] = True
                    return True
                if nxt not in memo:
                    stack.append((nxt, iter(gens)))
                    break
            else:
                memo[w] = False
                stack.pop()
        return False


class Semigroup:
    """Descriptor for a numerical or affine semigroup.

    Attributes:
        gens: tuple of generators (ints, or tuples of ints), caller order,
            redundant generators removed.
        ambient_dim: number of coordinates (1 for numerical).
        rank: rank of the group generated by the generators.
        simplicial_rays: tuple of indices into gens of the lexicographically
            smallest generator subset spanning the rational cone, or None if
            the semigroup is not simplicial.

    Slotted, and the membership engine and the memo are made on first use:
    the genus tree builds many semigroups that are never asked anything.
    """

    __slots__ = ("gens", "ambient_dim", "rank", "simplicial_rays",
                 "numerical", "_arith", "_monoid", "_memo", "__weakref__")

    def __init__(self, gens, ambient_dim, rank, simplicial_rays):
        self.gens = tuple(gens)
        self.ambient_dim = ambient_dim
        self.rank = rank
        self.simplicial_rays = simplicial_rays
        self.numerical = numerical = ambient_dim == 1
        self._arith = _IntArithmetic if numerical else _TupleArithmetic
        self._monoid = None  # the SubMonoid of gens, built on first use
        self._memo = None  # the dict of _cached, made on its first miss

    def _cached(self, key, compute, *args):
        """The derived datum stored under key, from compute(*args) on first
        use.

        Every module keeps what it derives from a semigroup here, under a
        tagged key such as ("fiber", m) or ("apery", bases).  A stored None
        is a hit like any other value.
        """
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        value = memo.get(key, memo)  # the memo itself marks a miss
        if value is memo:
            value = memo[key] = compute(*args)
        return value

    # -- basic accessors -------------------------------------------------

    @property
    def embedding_dim(self):
        return len(self.gens)

    @property
    def codim(self):
        """Number of non-ray generators (e - r)."""
        return len(self.gens) - self.rank

    @property
    def multiplicity(self):
        if not self.numerical:
            raise NotNumericalError("multiplicity is a numerical invariant here")
        return min(self.gens)

    def is_simplicial(self):
        return self.simplicial_rays is not None

    def ray_values(self):
        if self.simplicial_rays is None:
            raise NotSimplicialError(f"{self} is not simplicial")
        return tuple(self.gens[i] for i in self.simplicial_rays)

    def nonray_indices(self):
        rays = set(self.simplicial_rays or ())
        return tuple(i for i in range(len(self.gens)) if i not in rays)

    # -- membership ------------------------------------------------------

    def _engine(self):
        """The membership engine of S, built on the first call: the genus
        tree makes many semigroups that are never asked about membership."""
        monoid = self._monoid
        if monoid is None:
            monoid = self._monoid = SubMonoid(self.gens)
        return monoid

    def contains(self, v):
        return (self._monoid or self._engine()).contains(v)

    def _member_test(self):
        """SubMonoid.unchecked of S, made once: a membership test for
        elements already shaped like the generators."""
        return self._cached("member_test", self._engine().unchecked)

    def __contains__(self, v):
        return self.contains(v)

    def leq(self, a, b):
        """Divisibility order: a <=_S b  iff  b - a lies in S."""
        # sub would truncate to the shorter vector; contains checks the rest
        numerical = self.numerical
        if isinstance(a, int) is not numerical or \
                isinstance(b, int) is not numerical or \
                not numerical and len(a) != len(b):
            raise InvalidGeneratorsError(f"{a}, {b}: not elements of {self}")
        return self.contains(self._arith.sub(b, a))

    def submonoid(self, indices):
        """Membership engine for the monoid generated by a subset of gens."""
        key = tuple(sorted(indices))  # membership is order-independent
        if len(key) == len(self.gens):
            return self._engine()
        return self._cached(("submonoid", key), lambda: SubMonoid(
            tuple(self.gens[i] for i in key)))

    # -- Apery sets ------------------------------------------------------

    def apery(self, base=None):
        """Apery set Ap(S; base), sorted.

        base=None uses the ray generators (the first generator for numerical
        semigroups).  Numerical semigroups accept any nonzero element or any
        finite set of nonzero elements as base.  Affine semigroups support
        exactly the ray generator set.
        """
        key = self._apery_key(base)
        if self.numerical:  # decoded from the kept plane on each call
            return tuple(_bits(self._apery_plane(key)))
        return self._cached(("apery", key), self._apery_affine, key)

    def _apery_key(self, base):
        if base is None:
            base = (self.gens[0],) if self.numerical else self.ray_values()
        elif isinstance(base, int):
            base = (base,)
        return tuple(sorted(set(base if self.numerical else map(tuple, base))))

    def _apery_plane(self, bases):
        """Ap(S; B), B sorted, of numerical S as a plane, kept for apery and
        apery_maxima: the AND over b in B of M & ~(M << b), M the member
        plane, over [0, F + min B]."""
        def compute():
            if not bases or any(b <= 0 or b not in self for b in bases):
                raise InfiniteAperyError(
                    "Apery base must be a nonzero element of S")
            one, many = self._planes(self.frobenius() + bases[0])
            return _apery_bits(one | many, bases)

        return self._cached(("apery_plane", bases), compute)

    def _apery_affine(self, bases):
        rays = self.ray_values()
        if bases != tuple(sorted(set(rays))):
            raise InfiniteAperyError(
                "affine Apery sets are supported with respect to the ray "
                "generators only")
        # every element of Ap(S; rays) is a combination of the non-rays,
        # the i-th with a coefficient below its c_i^* after the rays
        arrangement = constants.default_arrangement(self)
        bounds = [constants.c_star(self, arrangement, pos) - 1
                  for pos in range(self.rank, len(arrangement))]
        minus = self._arith.sub
        return tuple(sorted(
            w for w in set(self._box_values(arrangement[self.rank:], bounds))
            if all(not self.contains(minus(w, r)) for r in rays)))

    def _box_values(self, indices, bounds):
        """All sums of lambda_i * gens[i] over i in indices, with
        0 <= lambda_i <= the matching entry of bounds, for affine S: a
        numerical box is a plane (classify._Base.box)."""
        ar = self._arith
        vals = [ar.scale(0, self.gens[0])]
        for idx, bound in zip(indices, bounds):
            steps = [ar.scale(k, self.gens[idx]) for k in range(bound + 1)]
            vals = [ar.add(v, step) for v in vals for step in steps]
        return vals

    # -- numerical invariants --------------------------------------------

    def frobenius(self):
        """max Ap(S; n_1) - n_1 (Brauer and Shockley), off S's table."""
        if not self.numerical:
            raise NotNumericalError("Frobenius number needs a numerical semigroup")
        return self._cached("frobenius", lambda: max(
            self._engine()._table()) - self.multiplicity)

    def genus(self):
        """(1/n_1) * sum Ap(S; n_1) - (n_1 - 1)/2 (Selmer)."""
        if not self.numerical:
            raise NotNumericalError("genus needs a numerical semigroup")
        n = self.multiplicity
        return (sum(self._engine()._table()) - n * (n - 1) // 2) // n

    # -- Cohen-Macaulay / Gorenstein -------------------------------------

    def is_cohen_macaulay(self):
        """Finite certificate: no two distinct Apery elements (w.r.t. the
        rays) may differ by an element of the group generated by the rays."""
        if self.numerical:
            return True
        ap = self.apery()
        lat = linalg.Lattice(self.ray_values())
        minus = self._arith.sub
        for a, b in combinations(ap, 2):
            if minus(a, b) in lat:
                return False
        return True

    def is_gorenstein(self):
        """Numerical: symmetric, 2 * genus == F + 1.  Affine: Cohen-Macaulay
        with a unique maximal Apery element (w.r.t. the rays)."""
        if self.numerical:
            return 2 * self.genus() == self.frobenius() + 1
        return self.is_cohen_macaulay() and len(self.apery_maxima()) == 1

    def apery_maxima(self, base=None):
        """Maximal elements of Ap(S; base) under <=_S, sorted.  Ap(S; base)
        is closed downward under <=_S, so w is maximal iff w + n_i lies
        outside it for every generator n_i: A & ~OR(A >> n_i) on planes."""
        if self.numerical:
            ap = self._apery_plane(self._apery_key(base))
            return tuple(_bits(ap & ~reduce(operator.or_,
                                            [ap >> g for g in self.gens])))
        ap = self.apery(base)
        members = set(ap)
        plus = self._arith.add
        return tuple(w for w in ap
                     if all(plus(w, g) not in members for g in self.gens))

    # -- element iteration ----------------------------------------------

    def elements_upto(self, bound):
        """Numerical: sorted elements s <= bound.  Affine: sorted elements
        with coordinate sum <= bound."""
        if bound < 0:
            return ()
        one, many = self._planes(bound)
        return self._box(bound)[3](_bits(one | many))

    def _planes(self, bound):
        """(one, many) of _count_planes over _box(bound), kept: numerical S
        masks the pair of the widest bound asked for; affine S keeps one per
        bound, as the box encoding changes with it."""
        if not self.numerical:
            return self._cached(("planes", bound), lambda: _count_planes(
                *self._box(bound)[:2]))
        valid = (1 << bound + 1) - 1
        if self._cached("planes", tuple, (-1,))[0] < bound:
            self._memo["planes"] = (bound, *_count_planes(self.gens, valid))
        _, one, many = self._memo["planes"]
        return one & valid, many & valid

    def _keeps_planes(self, bound):
        """Whether numerical S keeps a pair of planes that reaches bound, so
        that _planes(bound) masks it and builds none."""
        return self._memo is not None and \
            self._memo.get("planes", (-1,))[0] >= bound

    def _box(self, bound):
        """The bit encoding of the range of elements_upto(bound): each
        generator's bit position (outside valid when its degree passes the
        bound), the mask valid of the positions in the range, a map from an
        element to its position, and one from ascending positions to the
        tuple of their elements, in order.

        Numerical: bit m is m.  Affine: v in the box [0, bound]^r sits at
        bit sum_k v_k * radix^(r - 1 - k), so ascending positions are
        lexicographic.  A field of radix = 2 (bound + 1) holds the sum of
        two box vectors, so a shift by one never carries into the next
        field, and masking by valid clears what left the range; a
        generator of coordinate sum > bound, which may leave the box,
        sits past it.  SearchCapExceededError past _BOX_CAP bits.
        """
        if self.numerical:
            return self.gens, (1 << bound + 1) - 1, int, tuple
        r, radix = self.ambient_dim, 2 * (bound + 1)
        if radix ** r > _BOX_CAP:
            raise SearchCapExceededError(
                f"the box [0, {bound}]^{r} is too large for the planes")
        units, unpack, encode = _mixed_radix(radix, r)
        # From (bound, 0, ..., 0), move t <= bound from the first coordinate
        # to the one at u, or away (u = 0): a shift down by t (units[0] - u).
        # A vector whose first coordinate would go negative falls below 0.
        valid = 1 << bound * units[0]
        for u in units[1:] + [0]:
            span = 1
            while span <= bound:
                valid |= valid >> span * (units[0] - u)
                span *= 2
        positions = tuple(radix ** r if sum(g) > bound else encode(g)
                          for g in self.gens)
        return positions, valid, encode, lambda bits: tuple(map(unpack, bits))

    # -- misc ------------------------------------------------------------

    def __repr__(self):
        return f"Semigroup<{format_gens(self.gens)}>"

    def __eq__(self, other):
        return isinstance(other, Semigroup) and set(self.gens) == set(other.gens)

    def __hash__(self):
        return hash(frozenset(self.gens))


# -- construction ---------------------------------------------------------

def make_semigroup(raw_gens):
    """Build a semigroup descriptor from raw generators.

    Accepts ints (numerical) or equal-length tuples/lists of ints (affine).
    Order is preserved; duplicates and redundant generators are dropped.
    One-dimensional input must have gcd 1 (otherwise NotNumericalError).
    """
    gens = _normalize(raw_gens)
    numerical = isinstance(gens[0], int)
    if numerical:
        d = gcd(*gens)
        if d != 1:
            raise NotNumericalError(
                f"gcd of generators is {d}; not a numerical semigroup")
    engine = SubMonoid(gens)
    gens = _strip_redundant(gens, engine.contains)
    if numerical:
        S = Semigroup(gens, 1, 1, (0,))
    else:
        r = linalg.group_rank(gens)
        S = Semigroup(gens, len(gens[0]), r, _find_rays(gens, r))
    S._monoid = engine  # dropping redundant gens keeps the monoid and table
    return S


def _normalize(raw_gens):
    gens = []
    dim = None
    for g in raw_gens:
        if isinstance(g, int):
            v = g
            if dim is None:
                dim = 0  # scalar
            elif dim != 0:
                raise InvalidGeneratorsError("mixed scalar and vector generators")
            if v <= 0:
                raise InvalidGeneratorsError("generators must be positive")
        else:
            v = tuple(int(x) for x in g)
            if dim is None:
                dim = len(v)
            elif dim != len(v):
                raise InvalidGeneratorsError("generators of inconsistent dimension")
            if any(x < 0 for x in v):
                raise InvalidGeneratorsError("generator coordinates must be >= 0")
            if not any(v):
                raise InvalidGeneratorsError("the zero vector is not a generator")
            if dim == 1:
                v = v[0]
        if v not in gens:
            gens.append(v)
    if not gens:
        raise InvalidGeneratorsError("at least one generator is required")
    return gens


def _strip_redundant(gens, contains):
    """The minimal generators among distinct gens, in order: g is redundant
    iff g - h lies in their monoid (by `contains`) for some other
    generator h, that is iff g is the sum of two nonzero elements."""
    minus = _arithmetic(gens[0]).sub
    return tuple(g for i, g in enumerate(gens)
                 if not any(j != i and contains(minus(g, h))
                            for j, h in enumerate(gens)))


def _find_rays(gens, r):
    for idxs in combinations(range(len(gens)), r):
        sub = [gens[i] for i in idxs]
        if linalg.group_rank(sub) != r:
            continue
        if all(linalg.in_rational_cone(g, sub) for g in gens):
            return idxs
    return None


# -- text format ----------------------------------------------------------

def parse_gens(text):
    """Parse '24,26,36,39' (numerical) or '(1,0);(0,2);(0,3)' (affine)."""
    text = text.strip()
    if not text:
        raise InvalidGeneratorsError("empty generator list")
    if "(" in text:
        parts = [p.strip() for p in text.split(";") if p.strip()]
        gens = []
        for p in parts:
            if not (p.startswith("(") and p.endswith(")")):
                raise InvalidGeneratorsError(f"bad generator syntax: {p!r}")
            try:
                gens.append(tuple(int(x) for x in p[1:-1].split(",")))
            except ValueError as exc:
                raise InvalidGeneratorsError(f"bad generator syntax: {p!r}") from exc
        return gens
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise InvalidGeneratorsError(f"bad generator syntax: {text!r}") from exc


def format_element(v):
    if isinstance(v, int):
        return str(v)
    return "(" + ",".join(str(x) for x in v) + ")"


def format_gens(gens):
    if gens and isinstance(gens[0], int):
        return ",".join(str(g) for g in gens)
    return ";".join(format_element(g) for g in gens)
