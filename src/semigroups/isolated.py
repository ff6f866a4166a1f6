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

    def __init__(self, ib, is_, i_total, ibetti, exhaustive):
        self.ib = ib                # tuple of factorizations
        self.is_ = is_              # tuple of factorizations
        self.i_total = i_total     # i(S) = i_s + i_b (None when not exact)
        self.ibetti = ibetti        # Betti elements with isolated factorizations
        self.exhaustive = exhaustive

    @property
    def i_b(self):
        return len(self.ib)

    @property
    def i_s(self):
        return len(self.is_)


def ib_set(S, degree_bound=None):
    """Isolated factorizations of the Betti elements, lex-sorted."""
    profile = betti_mod.betti_elements(S, degree_bound)
    out = []
    for b in profile.betti:
        out.extend(profile.fibers[b].isolated)
    return tuple(sorted(out)), profile.complete


def is_set(S, bound=None):
    """Factorizations of the single-factorization elements.

    Numerical: exact (the set is finite once S has a Betti element, and it is
    contained in Ap(S; min Betti)).  Raises InfiniteSetError when S has no
    Betti element.  Affine: enumerated over elements of coordinate sum
    <= bound, second return value False (not exhaustive).

    Both scans are closed downward under <=_S, so m - n_i lies in S iff it
    was scanned before m, and m factors uniquely iff every such m - n_i
    factors uniquely, as x, and all the x + e_i agree.  O(e) per element.
    """
    if S.numerical:
        profile = betti_mod.betti_elements(S)
        if not profile.betti:
            raise InfiniteSetError(
                "every element factors uniquely; I_s is infinite")
        elements, exhaustive = S.apery(profile.betti[0]), True
    elif bound is None:
        raise InfiniteSetError(
            "affine I_s needs an explicit enumeration bound")
    else:
        elements, exhaustive = S.elements_upto(bound), False
    minus, gens = S._arith.sub, S.gens
    only = {}  # scanned element -> its one factorization, or None
    for m in elements:
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
    return tuple(sorted(x for x in only.values() if x is not None)), \
        exhaustive


def isolated_profile(S, degree_bound=None, bound=None):
    if degree_bound is None and bound is None:
        return S._cached("isolated", _isolated_profile, S, None, None)
    return _isolated_profile(S, degree_bound, bound)


def _isolated_profile(S, degree_bound, bound):
    ib, complete = ib_set(S, degree_bound)
    try:
        is_, exhaustive = is_set(S, bound)
    except InfiniteSetError:
        # no Betti element (numerical) or no enumeration bound (affine):
        # I_s is not finitely enumerable here, report the I_b part only
        is_, exhaustive = (), False
    profile = betti_mod.betti_elements(S, degree_bound)
    total = len(ib) + len(is_) if (complete and exhaustive) else None
    return IsolatedProfile(ib, is_, total, profile.ibetti,
                           complete and exhaustive)


def betti_minimals(S):
    """Minimal Betti elements with respect to the semigroup order."""
    betti_mod.require_exact_betti(S)
    return S._cached("betti_minimals", lambda: minimal_in_order(
        S, betti_mod.betti_elements(S).betti))


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
