"""Constructive builders: gluings and the Betti-divisible family.

A numerical gluing combines S1 and S2 as a1*S1 + a2*S2 over the shared
element a1*a2, provided gcd(a1, a2) = 1, a1 lies in S2, a2 lies in S1
and neither is a minimal generator of its host.  The Betti set of a
gluing is a1*Betti(S1) union a2*Betti(S2) union {a1*a2}.

The Betti-divisible family is parametrized by pairwise coprime integers
a_1..a_e (each >= 2) and a divisibility chain 1 = f_1 = f_2 | f_3 | ... |
f_e with gcd(f_i, a_i) = 1; the generators are n_i = f_i * prod(a) / a_i.
"""

from math import gcd, prod

from . import constants
from .betti import betti_elements
from .errors import InvalidGluingError, InvalidParametersError
from .semigroup import make_semigroup

__all__ = ["glue_numerical", "is_gluing_partition",
           "betti_divisible_from_params", "recover_params"]


def glue_numerical(S1, S2, a1, a2):
    """Glue two numerical semigroups; returns (S, predicted_betti)."""
    if not (S1.numerical and S2.numerical):
        raise InvalidGluingError("both factors must be numerical")
    if gcd(a1, a2) != 1:
        raise InvalidGluingError(f"multipliers {a1} and {a2} are not coprime")
    if a1 not in S2:
        raise InvalidGluingError(f"{a1} is not an element of the right factor")
    if a2 not in S1:
        raise InvalidGluingError(f"{a2} is not an element of the left factor")
    if a1 in S2.gens:
        raise InvalidGluingError(
            f"{a1} is a minimal generator of the right factor")
    if a2 in S1.gens:
        raise InvalidGluingError(
            f"{a2} is a minimal generator of the left factor")
    S = make_semigroup([a1 * g for g in S1.gens] +
                       [a2 * g for g in S2.gens])
    predicted = {a1 * a2}
    predicted.update(a1 * b for b in betti_elements(S1).betti)
    predicted.update(a2 * b for b in betti_elements(S2).betti)
    return S, tuple(sorted(predicted))


def is_gluing_partition(S, part_a, part_b, require_divisible=False):
    """Whether the generator partition {part_a, part_b} presents S as a
    gluing of the scaled-down parts.  With require_divisible both parts
    must additionally be Betti divisible."""
    if not part_a or not part_b:
        return False
    da, db = gcd(*part_a), gcd(*part_b)
    if gcd(da, db) != 1:
        return False
    S1 = make_semigroup([g // da for g in part_a])
    S2 = make_semigroup([g // db for g in part_b])
    if db not in S1 or db in S1.gens:
        return False
    if da not in S2 or da in S2.gens:
        return False
    if require_divisible:
        from .classify import is_betti_divisible
        if not (is_betti_divisible(S1) and is_betti_divisible(S2)):
            return False
    return True


def _validate_params(a, f):
    e = len(a)
    if e < 2 or len(f) != e:
        raise InvalidParametersError(
            "need e >= 2 values in both parameter sequences")
    if any(x < 2 for x in a):
        raise InvalidParametersError("every a_i must be at least 2")
    for i in range(e):
        for j in range(i + 1, e):
            if gcd(a[i], a[j]) != 1:
                raise InvalidParametersError(
                    f"a values {a[i]} and {a[j]} are not coprime")
    if f[0] != 1 or f[1] != 1:
        raise InvalidParametersError("the chain must start 1 = f_1 = f_2")
    for x, y in zip(f, f[1:]):
        if y % x != 0:
            raise InvalidParametersError(
                f"{x} does not divide {y} in the f chain")
    for ai, fi in zip(a, f):
        if gcd(ai, fi) != 1:
            raise InvalidParametersError(
                f"f value {fi} shares a factor with its a value {ai}")


def betti_divisible_from_params(a, f):
    """Build the Betti-divisible semigroup of the (a, f) parameters.

    Returns (S, predicted_betti) with the predicted Betti elements
    {f_i * prod(a) : i >= 2}.
    """
    a = tuple(int(x) for x in a)
    f = tuple(int(x) for x in f)
    _validate_params(a, f)
    p = prod(a)
    gens = [fi * (p // ai) for ai, fi in zip(a, f)]
    S = make_semigroup(gens)
    if sorted(S.gens) != sorted(gens):
        raise InvalidParametersError(
            "parameters do not yield a minimal generating set")
    predicted = tuple(sorted({fi * p for fi in f[1:]}))
    return S, predicted


def recover_params(S):
    """Recover the (a, f) parameters of a Betti-divisible numerical
    semigroup, in the arrangement with c_1 n_1 <= ... <= c_e n_e.
    Returns None when S is not in the family."""
    if not S.numerical:
        return None
    e = len(S.gens)
    if e < 2:
        return None
    cs = constants.c_values(S)
    order = sorted(range(e), key=lambda i: (cs[i] * S.gens[i], S.gens[i]))
    a = tuple(cs[i] for i in order)
    gens = tuple(S.gens[i] for i in order)
    base = a[0] * gens[0]
    f = []
    for ai, ni in zip(a, gens):
        cost = ai * ni
        if cost % base != 0:
            return None
        f.append(cost // base)
    f = tuple(f)
    try:
        _validate_params(a, f)
    except InvalidParametersError:
        return None
    p = prod(a)
    if any(ni != fi * (p // ai) for ai, fi, ni in zip(a, f, gens)):
        return None
    return a, f
