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
    and, through c_star, Ap(S; rays)."""
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
    span and cone membership."""
    def compute():
        g = S.gens[idx]
        others = tuple(j for j in range(len(S.gens)) if j != idx)
        if S.numerical:  # only S = N, generated by 1 alone, has no c_i
            return (_least_multiple(S, others, idx, g * max(S.gens))
                    if others else None)
        if not linalg.in_cone(g, [S.gens[j] for j in others]):
            return None
        return _least_multiple(S, others, idx)

    return S._cached(("c_value", idx), compute)


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

    # h * n is in the Apery set iff h * n - b lies outside S for every base
    # b, and the valid h form an interval starting at 1 (n is a minimal
    # generator)
    def compute():
        n = S.gens[idx]
        bases = S.ray_values() if base is None else (S.gens[base],)
        ar = S._arith
        h = 1
        while not any(S.contains(ar.sub(ar.scale(h + 1, n), b))
                      for b in bases):
            h += 1
        return h

    return S._cached(("alpha", idx, base), compute)
