"""Isolated factorizations: I_b, I_s, Betti-minimal and minimal multi-elements.

I_b(S) collects the isolated factorizations of the Betti elements; I_s(S)
collects the factorizations of the elements with a single factorization; and
I(S) is their (disjoint) union.  For numerical semigroups everything here is
exact; for affine semigroups I_s is computed up to a bound and flagged.
"""

from . import betti as betti_mod
from . import factor
from .errors import InfiniteSetError


class IsolatedProfile:
    """Summary of the isolated factorizations of a semigroup."""

    def __init__(self, ib, is_, exhaustive):
        self.ib = ib                # tuple of factorizations
        self.is_ = is_              # tuple of factorizations
        self.exhaustive = exhaustive

    @property
    def i_b(self):
        return len(self.ib)

    @property
    def i_s(self):
        return len(self.is_)

    @property
    def i_total(self):
        """i(S) = i_b + i_s, None when the sets are not exact."""
        return self.i_b + self.i_s if self.exhaustive else None


def ib_set(S, degree_bound=None):
    """Isolated factorizations of the Betti elements, lex-sorted."""
    profile = betti_mod.betti_elements(S, degree_bound)
    out = []
    for b in profile.betti:
        out.extend(profile.fibers[b].isolated)
    return tuple(sorted(out)), profile.complete


def is_set(S, bound=None):
    """Factorizations of the single-factorization elements, lex-sorted.

    Numerical: exact, and the set is finite once S has a Betti element;
    raises InfiniteSetError when it has none.  Let b_1 be the least Betti
    element and F the Frobenius number.  Every element with one
    factorization lies in Ap(S; b_1), because b_1 + s has at least two
    factorizations for every s in S, and Ap(S; b_1) lies in [0, F + b_1]:
    w - b_1 is not in S, so it is at most F.  _unique_upto counts the
    factorizations up to F + b_1 and walks the vectors with one, no Apery
    table for b_1 is built.

    Affine: enumerated over elements of coordinate sum <= bound, second
    return value False (not exhaustive).  The scan is closed downward
    under <=_S, so m - n_i lies in S iff it was scanned before m, and m
    factors uniquely iff every such m - n_i factors uniquely, as x, and
    all the x + e_i agree.  O(e) per element.
    """
    if S.numerical:
        profile = betti_mod.betti_elements(S)
        if not profile.betti:
            raise InfiniteSetError(
                "every element factors uniquely; I_s is infinite")
        return _unique_upto(S.gens, S.frobenius() + profile.betti[0]), True
    if bound is None:
        raise InfiniteSetError(
            "affine I_s needs an explicit enumeration bound")
    minus, gens = S._arith.sub, S.gens
    only = {}  # scanned element -> its one factorization, or None
    for m in S.elements_upto(bound):
        options = set()
        for i, g in enumerate(gens):
            x = only.get(minus(m, g), ())
            if x is None:  # m - n_i, hence m, factors in several ways
                options.add(None)
                break
            if x:
                options.add(x[:i] + (x[i] + 1,) + x[i + 1:])
        if not options:  # only 0, the least scanned element
            options.add((0,) * len(gens))
        only[m] = options.pop() if len(options) == 1 else None
    return tuple(sorted(x for x in only.values() if x is not None)), False


def _unique_upto(gens, top):
    """The factorizations x, lex-sorted, of the elements m = sum x_i n_i
    <= top that have exactly one, for positive integer generators.

    Two bit planes over 0 <= m <= top count the factorizations saturated
    at 2: bit m of one is set when m has exactly one, of many when it has
    two or more.  min(., 2) respects + and *, so multiplying by the
    generating function 1/(1 - x^n) = prod_k (1 + x^(2^k n)), truncated
    above top, is exact on the planes, one doubling shift per factor.

    If y <= x coordinatewise and x is the only factorization of its
    element, so is y: a second one of phi(y), plus x - y, would be a
    second one of phi(x).  So these x form a down-set of N^e, and the
    walk raises the last coordinate it can, in lexicographic order; when
    x + e_k fails, so does every vector with that prefix, and the walk
    clears x_k and raises x_(k-1).  x is the walk's explicit stack."""
    mask = (1 << (top + 1)) - 1
    one, many = 1, 0  # the empty product: 0 has one factorization
    for n in gens:
        s = n
        while s <= top:
            many = (many | many << s | one & one << s) & mask
            one = (one | one << s) & ~many & mask
            s <<= 1
    bits = bin(one)[:1:-1]  # bits[m] == "1" iff m <= top factors uniquely
    size, last = len(bits), len(gens) - 1
    x, m, k = [0] * len(gens), 0, last
    rows = [tuple(x)]
    while k >= 0:
        up = m + gens[k]
        if up < size and bits[up] == "1":
            x[k] += 1
            m, k = up, last
            rows.append(tuple(x))
        else:
            m -= x[k] * gens[k]
            x[k] = 0
            k -= 1
    return tuple(rows)


def isolated_profile(S, degree_bound=None):
    """I_b and I_s, kept on S per degree_bound, where affine sweeps stop."""
    return S._cached(("isolated", degree_bound), _isolated_profile, S,
                     degree_bound)


def _isolated_profile(S, degree_bound):
    ib, complete = ib_set(S, degree_bound)
    try:
        is_, exhaustive = is_set(S, degree_bound)
    except InfiniteSetError:
        # no Betti element (numerical) or no enumeration bound (affine):
        # I_s is not finitely enumerable here, report the I_b part only
        is_, exhaustive = (), False
    return IsolatedProfile(ib, is_, complete and exhaustive)


def betti_minimals(S):
    """Minimal Betti elements with respect to the semigroup order."""
    betti = betti_mod.require_exact_betti(S).betti
    return S._cached("betti_minimals", minimal_in_order, S, betti)


def minimal_in_order(S, elems):
    """The members of elems, a tuple sorted in the natural order, with no
    other member below them in <=_S.  a <=_S b means b - a in S, so a <= b
    (numerical) or a <= b in every coordinate (affine): a comes first, and
    only the earlier members are read off the membership table."""
    inside, minus = S._member_test(), S._arith.sub
    return tuple(b for k, b in enumerate(elems)
                 if not any(inside(minus(b, a)) for a in elems[:k]))


def minimal_multi_elements(S, bound=None):
    """Elements with several factorizations all of whose atom-predecessors
    factor uniquely.  Computed by a direct scan, independent of the Betti
    machinery (every such element lies below max(gens) + max Ap(S; n_1) for
    numerical semigroups).

    The scan is closed downward, so m - n_i lies in S iff it was scanned.
    Two factorizations of m - n_i give two of m, so m has several as soon
    as some m - n_i has; only the other elements are counted."""
    if S.numerical:
        limit = max(S.gens) + max(S.apery(S.gens[0]))
    else:
        if bound is None:
            raise InfiniteSetError(
                "affine minimal multi-element scan needs a bound")
        limit = bound
    minus = S._arith.sub
    multi = {}  # scanned element -> whether it factors in several ways
    out = []
    for m in S.elements_upto(limit):
        if any(multi.get(minus(m, g)) for g in S.gens):
            multi[m] = True
        else:
            multi[m] = factor.denumerant(S, m) >= 2
            if multi[m]:
                out.append(m)
    return tuple(out)
