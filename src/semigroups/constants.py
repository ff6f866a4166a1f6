"""Arrangement constants of simplicial affine and numerical semigroups.

For an arrangement (n_1, ..., n_e) of the minimal generators with the r ray
generators first, and a position i > r:

* c_i^*  -- smallest c with c * n_i in the monoid generated by the prefix;
* c-bar_i -- smallest c with c * n_i in the *group* generated by the prefix;
* c_i    -- smallest c with c * n_i in the monoid generated by all the other
            generators (defined exactly for the atoms in the set C(M));
* alpha_i -- largest h with h * n_i in the Apery set w.r.t. the rays.

All functions take arrangements as tuples of generator indices.
"""

from math import gcd

from . import linalg
from .errors import NotSimplicialError, SearchCapExceededError

# the largest c the least-multiple search tries where no proof bounds c
_SEARCH_CAP = 10 ** 6


def default_arrangement(S):
    """Stored order with the ray generators moved to the front."""
    if S.simplicial_rays is None:
        raise NotSimplicialError(f"{S} is not simplicial")
    return tuple(S.simplicial_rays) + S.nonray_indices()


def c_star(S, arrangement, pos):
    """The constant c_i^* at position pos (0-based) of the arrangement."""
    # the value depends on the prefix only as a set
    prefix = tuple(sorted(arrangement[:pos]))
    idx = arrangement[pos]
    return S._cached(("c_star", prefix, idx), _least_multiple, S, prefix, idx)


def c_bar(S, arrangement, pos):
    """The constant c-bar_i: group membership instead of monoid membership."""
    prefix = tuple(sorted(arrangement[:pos]))
    idx = arrangement[pos]
    return S._cached(("c_bar", prefix, idx), _group_multiple, S, prefix, idx)


def _least_multiple(S, indices, idx, cap=_SEARCH_CAP):
    """Least c >= 1 with c * gens[idx] in the monoid generated by the gens
    at indices.  Only multiples of the least group multiple can lie in the
    monoid, so the search steps by it.  This one search serves c_i^*, c_i
    where no kept plane gives it and, through c_star, Ap(S; rays)."""
    step = _group_multiple(S, indices, idx)
    g = S.gens[idx]
    inside = S.submonoid(indices).contains
    scale = S._arith.scale
    for c in range(step, cap + 1, step):
        if inside(scale(c, g)):
            return c
    raise SearchCapExceededError(
        f"no multiple of {g} lies in the monoid of the generators "
        f"{[S.gens[i] for i in indices]} below {cap}")


def _group_multiple(S, indices, idx):
    """Smallest c >= 1 with c * gens[idx] in the group of the gens at
    indices; SearchCapExceededError when there is none."""
    g = S.gens[idx]
    if S.numerical:
        d = gcd(*(S.gens[i] for i in indices))  # 0: no indices, group {0}
        c = d // gcd(d, g) or None
    else:
        c = linalg.Lattice([S.gens[i] for i in indices]).multiple_in_lattice(g)
    if c is None:
        raise SearchCapExceededError(
            f"no multiple of {g} lies in the group of the generators "
            f"{[S.gens[i] for i in indices]}")
    return c


def c_value(S, idx):
    """The constant c_i: smallest c >= 1 with c * n_i in the monoid generated
    by the other generators.  Returns None when no such c exists (i.e. the
    generator is not in the set C(M)); this is decided exactly via rational
    span and cone membership.  Numerical S whose memo keeps the planes over
    [0, _horizon(S)], as the Betti sweep leaves them, reads c_i off its many
    plane; otherwise c_i is searched in an Apery table of the other
    generators, whose size does not grow with the Frobenius number."""
    def compute():
        g = S.gens[idx]
        others = tuple(j for j in range(len(S.gens)) if j != idx)
        if S.numerical:
            if not others:  # only S = N, generated by 1 alone, has no c_i
                return None
            h = _horizon(S)
            if S._keeps_planes(h):
                return S._cached("plane_cs", _plane_cs, S, h)[idx]
            return _least_multiple(S, others, idx, g * max(S.gens))
        if not linalg.in_cone(g, [S.gens[j] for j in others]):
            return None
        return _least_multiple(S, others, idx)

    return S._cached(("c_value", idx), compute)


def _plane_cs(S, h):
    """(c_1, ..., c_e) of numerical S with e >= 2, read off its many plane
    over [0, h], h = _horizon(S): the least k with bit k n_i set."""
    many = S._planes(h)[1].to_bytes(h // 8 + 1, "little")
    cs = []
    for g in S.gens:
        # c_i is the least k with two factorizations of k n_i.  For k <
        # c_i, a factorization x of k n_i with x_i = a < k puts (k - a) n_i
        # in <others>, so k e_i is the only one; c_i n_i has one with no
        # n_i too.  Its R-class {c_i e_i} is a singleton, so c_i n_i is a
        # Betti element, and every Betti element is at most h.
        for t in range(g, h + 1, g):
            if many[t >> 3] >> (t & 7) & 1:
                cs.append(t // g)
                break
        else:
            raise SearchCapExceededError(
                f"no multiple of {g} up to {h} has two factorizations "
                f"in {S}")
    return tuple(cs)


def _horizon(S):
    """F + n + max(gens), n the multiplicity: every Betti element and
    every minimal multi-element of numerical S is at most this."""
    # Every Betti element b is at most F + n + max(gens), for n any
    # generator: G_b has two or more components, so one of them misses
    # node n; take a node n_j in it.  No edge joins n_j and n, so
    # b - n_j - n is not in S (when n is no node, b - n is not in S, and
    # neither is b - n_j - n).  So b - n_j lies in Ap(S; n), whose largest
    # element is F + n, and b <= F + n + n_j.  Past that bound, a minimal
    # multi-element m has m - n_i - n > F for n_i in any factorization x,
    # so x - e_i, the one factorization of m - n_i, uses n: two of m both
    # use n and give two of m - n.  The multiplicity gives the least bound.
    return S.frobenius() + S.multiplicity + max(S.gens)


def c_values(S):
    """(c_value(S, 0), ..., c_value(S, e - 1)), made once."""
    return S._cached("c_values", lambda: tuple(
        c_value(S, idx) for idx in range(len(S.gens))))


def c_atoms(S):
    """The set C(M): pairs (index, c) for atoms with some multiple in the
    monoid generated by the other atoms, sorted by index."""
    return tuple((idx, c) for idx, c in enumerate(c_values(S))
                 if c is not None)


def alpha(S, idx, base_idx=None):
    """The constant alpha_i for the generator at index idx.

    For affine semigroups the rays are the simplicial rays (base_idx must be
    None).  For numerical semigroups base_idx selects the generator playing
    the role of the ray (default: the first stored generator); idx must
    differ from base_idx.
    """
    if S.numerical:
        base = base_idx if base_idx is not None else 0
        if idx == base:
            raise ValueError("alpha is defined for non-ray generators only")
    elif base_idx is not None:
        raise NotSimplicialError("affine alpha uses the simplicial rays")
    else:
        base = None

    # The valid h form an interval starting at 1: Ap is closed downward
    # under <=_S and n, a minimal generator, lies in it.  Numerical S that
    # keeps planes over [0, F + b] reads h * n off the kept plane of
    # Ap(S; b); elsewhere the loop builds no O(F) plane.
    def compute():
        n = S.gens[idx]
        if base is None:
            return _alpha_by_membership(S, n, S.ray_values())
        b = S.gens[base]
        if not S._keeps_planes(S.frobenius() + b):
            return _alpha_by_membership(S, n, (b,))
        ap, h = S._apery_plane((b,)), 1
        while ap >> (h + 1) * n & 1:
            h += 1
        return h

    return S._cached(("alpha", idx, base), compute)


def _alpha_by_membership(S, n, bases):
    """The largest h with h * n in Ap(S; bases), n a minimal generator
    outside the bases: h * n is in it iff h * n - b lies outside S for
    every base b.  The unchecked read is sound: every candidate is shaped
    like the generators, and the numerical table read is False for a
    negative value because Ap >= 0."""
    add, sub, inside = S._arith.add, S._arith.sub, S._member_test()
    h, m = 1, add(n, n)
    while not any(inside(sub(m, b)) for b in bases):
        h, m = h + 1, add(m, n)
    return h
