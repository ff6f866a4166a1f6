"""Isolated factorizations: I_b, I_s, Betti-minimal and minimal multi-elements.

I_b(S) collects the isolated factorizations of the Betti elements; I_s(S)
collects the factorizations of the elements with a single factorization; and
I(S) is their (disjoint) union.  For numerical semigroups everything here is
exact; for affine semigroups I_s is computed up to a bound and flagged.
"""

from . import betti as betti_mod
from .errors import InfiniteSetError
from .semigroup import _bits, _count_planes


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
    return value False (not exhaustive), by the same walk.
    """
    if S.numerical:
        profile = betti_mod.betti_elements(S)
        if not profile.betti:
            raise InfiniteSetError(
                "every element factors uniquely; I_s is infinite")
        bound = S.frobenius() + profile.betti[0]
    elif bound is None:
        raise InfiniteSetError(
            "affine I_s needs an explicit enumeration bound")
    positions, valid, _ = S._box(bound)
    return _unique_upto(positions, valid), S.numerical


def _unique_upto(positions, valid):
    """The factorizations x, lex-sorted, of the elements m = sum x_i n_i
    in valid that have exactly one, on the one plane of the generators at
    these bit positions (Semigroup._box).

    If y <= x coordinatewise and x is the only factorization of its
    element, so is y: a second one of phi(y), plus x - y, would be a
    second one of phi(x).  So these x form a down-set of N^e, and the
    walk raises the last coordinate it can, in lexicographic order; when
    x + e_k fails, so does every vector with that prefix, and the walk
    clears x_k and raises x_(k-1).  x is the walk's explicit stack."""
    one, _ = _count_planes(positions, valid)
    bits = bin(one)[:1:-1]  # bits[m] == "1" iff m factors uniquely
    size, last = len(bits), len(positions) - 1
    x, m, k = [0] * len(positions), 0, last
    rows = [tuple(x)]
    while k >= 0:
        up = m + positions[k]
        if up < size and bits[up] == "1":
            x[k] += 1
            m, k = up, last
            rows.append(tuple(x))
        else:
            m -= x[k] * positions[k]
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
    factor uniquely, independent of the Betti machinery (every such
    element lies below max(gens) + F + n_1 for numerical semigroups, since
    max Ap(S; n_1) = F + n_1): the bits of the many plane of S._box at no
    shift of it by a generator."""
    if S.numerical:
        bound = max(S.gens) + S.frobenius() + S.gens[0]
    elif bound is None:
        raise InfiniteSetError(
            "affine minimal multi-element scan needs a bound")
    positions, valid, decode = S._box(bound)
    _, many = _count_planes(positions, valid)
    below = 0
    for p in positions:
        below |= many << p
    return decode(_bits(many & ~below))
