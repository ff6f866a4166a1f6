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

_C_SEARCH_CAP = 10 ** 6


def default_arrangement(S):
    """Stored order with the ray generators moved to the front."""
    if S.simplicial_rays is None:
        raise NotSimplicialError(f"{S} is not simplicial")
    return tuple(S.simplicial_rays) + S.nonray_indices()


def c_star(S, arrangement, pos):
    """The constant c_i^* at position pos (0-based) of the arrangement."""
    # the value depends on the prefix only as a set
    return S._cached(("c_star", tuple(sorted(arrangement[:pos])),
                      arrangement[pos]),
                     S.prefix_multiple, tuple(arrangement), pos)


def c_bar(S, arrangement, pos):
    """The constant c-bar_i: group membership instead of monoid membership."""
    prefix = tuple(sorted(arrangement[:pos]))
    idx = arrangement[pos]
    return S._cached(("c_bar", prefix, idx), _required_group_multiple, S,
                     prefix, idx)


def _required_group_multiple(S, prefix, idx):
    c = S._group_multiple(prefix, idx)
    if c is None:
        raise SearchCapExceededError(
            f"generator {S.gens[idx]} has no multiple in the group "
            f"generated by the prefix")
    return c


def c_value(S, idx, cap=None):
    """The constant c_i: smallest c >= 1 with c * n_i in the monoid generated
    by the other generators.  Returns None when no such c exists (i.e. the
    generator is not in the set C(M)); this is decided exactly via rational
    span and cone membership."""
    def compute():
        g = S.gens[idx]
        others = tuple(j for j in range(len(S.gens)) if j != idx)
        if S.numerical:
            limit = cap if cap is not None else g * max(S.gens)
        else:
            other_vecs = [S.gens[j] for j in others]
            lat = linalg.Lattice(other_vecs)
            if lat.multiple_in_lattice(g) is None:
                return None
            if not linalg.in_cone(g, other_vecs):
                return None
            limit = cap if cap is not None else _C_SEARCH_CAP
        sm = S.submonoid(others)
        step = S._group_multiple(others, idx)
        if step is None:
            return None
        c = step
        while c <= limit:
            target = c * g if S.numerical else tuple(c * x for x in g)
            if sm.contains(target):
                return c
            c += step
        raise SearchCapExceededError(
            f"no multiple of {g} in the monoid of the other generators "
            f"below {limit}")

    return S._cached(("c_value", idx, cap), compute)


def c_atoms(S):
    """The set C(M): pairs (index, c) for atoms with some multiple in the
    monoid generated by the other atoms, sorted by index."""
    out = []
    for idx in range(len(S.gens)):
        c = c_value(S, idx)
        if c is not None:
            out.append((idx, c))
    return tuple(out)


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

        # h*n is in Ap(S; nb) iff h*n - nb is not in S, and the set of valid
        # h is an interval starting at 1 (n is a minimal generator).
        def compute():
            n = S.gens[idx]
            nb = S.gens[base]
            h = 1
            while not S.contains((h + 1) * n - nb):
                h += 1
            return h

        return S._cached(("alpha", idx, base), compute)
    if base_idx is not None:
        raise NotSimplicialError("affine alpha uses the simplicial rays")

    def compute():
        rays = S.ray_values()
        n = S.gens[idx]
        h = 1
        while _in_apery(S, tuple((h + 1) * x for x in n), rays):
            h += 1
        return h

    return S._cached(("alpha", idx, None), compute)


def _in_apery(S, w, rays):
    return S.contains(w) and all(
        not S.contains(tuple(a - b for a, b in zip(w, r))) for r in rays)
