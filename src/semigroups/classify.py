"""Structural classification predicates and theorem-equivalence checks.

Every predicate works on a ``Semigroup`` descriptor and, when sensible,
returns a witness (an arrangement, an exponent box, a presentation)
alongside the boolean.  ``check_equivalence_theorems`` evaluates each
multi-way characterization theorem condition-by-condition so that the
search harness can detect a "mixed" vector (some conditions true, others
false), which would falsify the theorem on that semigroup.
"""

from itertools import combinations, groupby, permutations
from math import factorial, prod

from . import constants, factor
# betti_elements stays bound here for the tracer of bench/run.py
from .betti import (_free_completion, _free_multiple, _horizon,
                    _numerical_betti, betti_elements, free_arrangement,
                    is_complete_intersection, is_free, require_exact_betti)
from .construct import is_gluing_partition, recover_params
from .errors import (FiberCapExceededError, NotNumericalError,
                     NotSimplicialError, SearchCapExceededError)
from .isolated import (betti_minimals, isolated_profile, minimal_in_order,
                       minimal_multi_elements)
from .semigroup import _apery_bits, _mixed_radix

__all__ = [
    "is_free", "free_some_arrangement", "free_arrangement_starting_at",
    "is_free_all_arrangements", "is_rectangular", "is_c_rectangular",
    "is_alpha_rectangular", "is_alpha_rectangular_every_generator",
    "is_betti_sorted", "is_betti_isolated_sorted", "is_betti_divisible",
    "is_betti_isolated_divisible", "has_single_betti",
    "has_single_betti_minimal", "admits_shaped_presentation",
    "classification_report", "verify_bounds", "check_equivalence_theorems",
]


# -- helpers --------------------------------------------------------------

def _require_numerical(S, what):
    if not S.numerical:
        raise NotNumericalError(f"{what} requires a numerical semigroup")


# The largest numerical scan bound the harness walks.  The walk holds the
# packed factorizations of a window of about max(gens) elements and the
# Betti fibers: about 60 MB on <20020, ..., 4620> (157,337 elements).  The
# cap refuses at once <4849845, ..., 510510>, which would scan to 63,479,837.
_SCAN_CAP = 10 ** 6


def _scan_bound(S):
    """Scan horizon covering every Betti element and every minimal
    multi-element.  Numerical: betti._horizon.  Affine (complete Betti
    profile): a coordinate-sum horizon past every Betti element and Apery
    element by one generator, which bounds the minimal multi-elements the
    same way."""
    if S.numerical:
        return _horizon(S)
    profile = require_exact_betti(S)
    betti_sum = max((sum(b) for b in profile.betti), default=0)
    ap_sum = max(sum(w) for w in S.apery())
    return max(betti_sum, ap_sum) + max(sum(g) for g in S.gens)


def _divides_value(S, a, b):
    """Whether b is a positive integer multiple of a (element-wise)."""
    ar = S._arith
    k = ar.quotient(b, a)
    return k >= 1 and ar.scale(k, a) == b


# -- freeness -------------------------------------------------------------

def free_arrangement_starting_at(S, first):
    """Search for a free arrangement whose leading generator is gens[first]
    (numerical only).  Returns the index arrangement or None."""
    _require_numerical(S, "free_arrangement_starting_at")
    tail = _free_completion(S, frozenset((first,)))
    return None if tail is None else (first,) + tail


def free_some_arrangement(S):
    """An arrangement for which S is free, or None.

    Numerical semigroups search every ordering, the first free one in
    increasing index order; affine semigroups keep the rays first.
    """
    if not S.numerical:
        return free_arrangement(S)
    return _free_completion(S, frozenset())


def is_free_all_arrangements(S):
    """Whether S is free for every arrangement of its minimal generators.

    Freeness for all arrangements is equivalent to: for every nonempty
    proper subset P of generators and every g outside P, the group and
    monoid multiples of g over P agree.  This collapses the e! orderings
    into e * 2^e subset checks that fail fast on small subsets.  Before
    any of them, each generator is tried last after all the others: c-bar
    = 1 there (gcd(others) divides it) already rules freeness out, and it
    costs one gcd, no c_i^*.  When no subset fails early the work grows
    as e * 2^(e-1) prefix comparisons: 0.7-1.1 s (median 0.8 s of 9
    fresh calls, 2-core x86_64 VM, Python 3.11) on the e = 8 family
    member a = (2, 3, 5, 7, 11, 13, 17, 19), f = (1, ..., 1).
    """
    _require_numerical(S, "is_free_all_arrangements")
    e = len(S.gens)
    if e == 1:
        return True
    if any(constants.c_bar(S, tuple(i for i in range(e) if i != k) + (k,),
                           e - 1) == 1 for k in range(e)):
        return False
    for size in range(1, e):
        for prefix in combinations(range(e), size):
            for g in range(e):
                if g not in prefix and \
                        _free_multiple(S, prefix + (g,), size) is None:
                    return False
    return True


# -- rectangularity -------------------------------------------------------

class _Base:
    """Ap(S; base) and its size, the indices others of the generators
    outside the base, their alpha_i and the alpha-box witness: the one
    derivation, kept on S by _base, that the predicates, the report and
    the harness read.  The c-box witness is made on first request
    (is_c_rectangular).  Numerical Ap is the kept plane of
    Semigroup._apery_plane, and every read of it is a bit operation.
    Affine Ap is the sorted tuple of apery: a plane's box of coordinate
    sums can pass _BOX_CAP while Ap is tiny: <(300,0,0),(0,300,0),
    (0,0,300),(100,100,100)> has 3 elements and needs 1202^3 bits."""

    __slots__ = ("ap", "size", "others", "alphas", "alpha_box", "c_box")

    def __init__(self, S, j):
        if S.numerical:
            self.ap = S._apery_plane((S.gens[j],))
            self.size = self.ap.bit_count()
        else:
            self.ap = S.apery()
            self.size = len(self.ap)
        rays = S.simplicial_rays if j is None else (j,)
        self.others = tuple(i for i in range(len(S.gens)) if i not in rays)
        self.alphas = [constants.alpha(S, i, j) for i in self.others]
        self.alpha_box = self.box(S, self.alphas)
        self.c_box = None

    def holds(self, S, w):
        """Whether the element w of S's kind lies in Ap(S; base)."""
        return bool(self.ap >> w & 1) if S.numerical else w in self.ap

    def box(self, S, bounds):
        """(True, {index: bound}) if Ap(S; base) is the exponent box of the
        others with these bounds, else (False, None)."""
        if self.size != prod(b + 1 for b in bounds):
            return False, None
        if S.numerical:
            # The box's values as a plane: the OR of its shifted copies of
            # bit 0.  Equal to the plane of Ap, it has size distinct values
            # among its size sums, so no two sums agree and the box as a
            # multiset is Ap; and a box equal to Ap as a multiset has
            # Ap's plane.  So this is the sorted comparison's verdict.
            plane = 1
            for i, bound in zip(self.others, bounds):
                step = plane
                for _ in range(bound):
                    step <<= S.gens[i]
                    plane |= step
            same = plane == self.ap
        else:
            same = sorted(S._box_values(self.others, bounds)) == list(self.ap)
        return (True, dict(zip(self.others, bounds))) if same else (False, None)


def _base(S, base_idx):
    """The _Base of gens[base_idx or 0] for numerical S, of the rays for
    affine S, kept under ("base", j), j the index or None (the rays)."""
    if S.numerical:
        base_idx = base_idx or 0
    elif base_idx is not None:
        raise NotSimplicialError("an affine Apery base is the rays")
    return S._cached(("base", base_idx), _Base, S, base_idx)


def is_alpha_rectangular(S, base_idx=None):
    """Whether Ap(S; base) is the exponent box with bounds alpha_i.
    Returns (flag, bounds) where bounds maps generator index -> alpha_i."""
    return _base(S, base_idx).alpha_box


def is_c_rectangular(S, base_idx=None):
    """Whether Ap(S; base) is the exponent box with bounds c_i - 1."""
    base = _base(S, base_idx)
    if base.c_box is None:
        cs = [constants.c_values(S)[i] for i in base.others]
        base.c_box = (False, None) if None in cs else \
            base.box(S, [c - 1 for c in cs])
    return base.c_box


def is_rectangular(S, base_idx=None):
    """Whether Ap(S; base) is an exponent box for some bounds mu_i.

    Valid bounds satisfy 1 <= mu_i <= alpha_i and prod(mu_i + 1) = #Ap, so
    the search enumerates ordered factorizations of #Ap into factors >= 2
    before comparing boxes.
    """
    base = _base(S, base_idx)
    mu = _box_bounds(S, base, 0, base.size, [])
    if mu is None:
        return False, None
    return True, dict(zip(base.others, mu))


def _box_bounds(S, base, pos, remaining, mu):
    """The first bounds mu, extended from the given prefix, whose box of
    exponents over the others of the base is its Ap, or None."""
    if pos == len(base.others):
        return tuple(mu) if remaining == 1 and base.box(S, mu)[0] else None
    # mu_i >= 1: n_i is minimal and not in the base, so it lies in Ap, and
    # its one factorization is itself; a box with mu_i = 0 holds only sums
    # of the other generators, so it misses n_i and is never Ap
    for d in range(2, min(base.alphas[pos] + 1, remaining) + 1):
        if remaining % d == 0:
            found = _box_bounds(S, base, pos + 1, remaining // d, mu + [d - 1])
            if found is not None:
                return found
    return None


def is_alpha_rectangular_every_generator(S):
    _require_numerical(S, "is_alpha_rectangular_every_generator")
    return all(is_alpha_rectangular(S, j)[0] for j in range(len(S.gens)))


# -- Betti orderings ------------------------------------------------------

def _totally_ordered(S, elems, rel):
    chain = sorted(elems, key=S._arith.key)
    return all(rel(a, b) for a, b in zip(chain, chain[1:]))


def is_betti_sorted(S):
    profile = require_exact_betti(S)
    return _totally_ordered(S, profile.betti, S.leq)


def is_betti_isolated_sorted(S):
    profile = require_exact_betti(S)
    return _totally_ordered(S, profile.ibetti, S.leq)


def is_betti_divisible(S):
    profile = require_exact_betti(S)
    return _totally_ordered(S, profile.betti,
                            lambda a, b: _divides_value(S, a, b))


def is_betti_isolated_divisible(S):
    profile = require_exact_betti(S)
    return _totally_ordered(S, profile.ibetti,
                            lambda a, b: _divides_value(S, a, b))


def has_single_betti(S):
    profile = require_exact_betti(S)
    if len(profile.betti) == 1:
        return True, profile.betti[0]
    return False, None


def has_single_betti_minimal(S):
    mins = betti_minimals(S)
    if len(mins) == 1:
        return True, mins[0]
    return False, None


# -- shaped presentations -------------------------------------------------

# 7! cost-sorted arrangements, a tie of seven costs: the shape checks
# search each one, 0.3-0.4 ms apiece on the all-tied e = 5 and e = 6
# members, so about 2 s.  No member of genus <= 15 has more than 6.
_ARRANGEMENT_CAP = 5040


def _sorted_cost_arrangements(S):
    """Arrangements (index tuples) with c_1 n_1 <= ... <= c_e n_e: every
    ordering of each run of tied costs, counted against the cap first."""
    e = len(S.gens)
    if e == 1:  # S = N: one arrangement, and 1 has no c_1
        return [(0,)]
    cs = constants.c_values(S)
    cost = [cs[i] * S.gens[i] for i in range(e)]
    order = sorted(range(e), key=lambda i: (cost[i], S.gens[i]))
    runs = [tuple(run) for _, run in groupby(order, key=cost.__getitem__)]
    count = prod(factorial(len(run)) for run in runs)
    if count > _ARRANGEMENT_CAP:
        raise SearchCapExceededError(
            f"{S}: {count} cost-sorted arrangements exceed {_ARRANGEMENT_CAP}")
    out = [()]
    for run in runs:
        perms = list(permutations(run))
        out = [pre + perm for pre in out for perm in perms]
    return out


def admits_shaped_presentation(S, arrangement, pure_right, fixed_c):
    """Whether S has a minimal presentation of one of the staircase shapes.

    The relation at position p = 1..e-1 of the arrangement is
    (L_p e_{a_p}, R_p): L_p is c(a_p) when fixed_c, otherwise any b/n(a_p)
    with b a Betti element divisible by n(a_p).  R_p is supported on the
    earlier positions; with pure_right it is exactly a multiple of the
    previous generator (a multiple of that generator's own left
    coefficient), otherwise its coefficient there must be at least that
    left coefficient.  The chosen relations must form a spanning tree of
    the R-classes of each Betti element.
    """
    _require_numerical(S, "admits_shaped_presentation")
    e = len(S.gens)
    betti, need, fibers, class_of = S._cached("shape_data", _shape_data, S)
    if not betti:
        return e == 1
    if sum(need.values()) != e - 1:
        return False
    shape = (S, arrangement, pure_right, fixed_c, betti, need, fibers,
             class_of, constants.c_values(S))
    return _shaped_dfs(shape, 1, {b: 0 for b in betti},
                       {b: {} for b in betti}, {})


def _shape_data(S):
    """What every shaped-presentation search of S reads: the Betti
    elements, their fibers, the number of relations each needs (nc - 1)
    and the R-class of each (Betti element, factorization)."""
    profile = require_exact_betti(S)
    betti, fibers = profile.betti, profile.fibers
    class_of = {(b, x): ci for b in betti
                for ci, cls in enumerate(fibers[b].classes) for x in cls}
    return betti, {b: fibers[b].nc - 1 for b in betti}, fibers, class_of


def _shaped_dfs(shape, p, counts, forests, lefts):
    """Whether the relations chosen at positions < p extend to a
    presentation of the shape; counts, forests and lefts record them."""
    S, arrangement, pure_right, fixed_c, betti, need, fibers, class_of, \
        cvals = shape
    e = len(S.gens)
    if p == e:
        # e - 1 relations, none past its need, and the needs sum to e - 1
        return True
    gi = arrangement[p]
    n = S.gens[gi]
    # numerical S with e >= 2 (a Betti element exists) has every c_i
    if fixed_c:
        left_cands = [cvals[gi]] if cvals[gi] * n in need else []
    else:
        left_cands = [b // n for b in betti if b % n == 0]
    prev = arrangement[p - 1]
    allowed = set(arrangement[:p])
    for left_coef in left_cands:
        b = left_coef * n
        if counts[b] >= need[b]:
            continue
        # class_of holds every factorization of b, left and each right
        lc = class_of[b, tuple(left_coef if i == gi else 0
                               for i in range(e))]
        if pure_right:
            # the floor coefficient of the previous generator: c_(p-1)
            # in the c-shape, the previously chosen left coefficient in
            # the a-shape (free for the very first position)
            step = cvals[prev] if fixed_c else lefts.get(prev, 1)
            k, rem = divmod(b, S.gens[prev])
            rights = [] if rem or k % step else \
                [tuple(k if i == prev else 0 for i in range(e))]
        else:
            floor = cvals[prev] if fixed_c else lefts.get(prev, 0)
            rights = [y for y in fibers[b].factorizations
                      if y[prev] >= max(floor, 1)
                      and all(y[i] == 0 or i in allowed
                              for i in range(e))]
        for right in rights:
            # a right in the left's R-class finds the same root
            forest = forests[b]
            ra, rb = _ffind(forest, lc), _ffind(forest, class_of[b, right])
            if ra == rb:
                continue
            if _shaped_dfs(shape, p + 1, {**counts, b: counts[b] + 1},
                           {**forests, b: {**forest, ra: rb}},
                           {**lefts, gi: left_coef}):
                return True
    return False


def _ffind(forest, x):
    while x in forest:
        x = forest[x]
    return x


# -- classification report ------------------------------------------------

class ClassificationReport:
    """Flags and witnesses for every structural family of the taxonomy."""

    __slots__ = ("flags", "witnesses")

    def __init__(self, flags, witnesses):
        self.flags = flags
        self.witnesses = witnesses

    def __repr__(self):
        on = sorted(k for k, v in self.flags.items() if v)
        return f"ClassificationReport({', '.join(on)})"


def classification_report(S):
    require_exact_betti(S)
    flags = {}
    witnesses = {}
    flags["cohen_macaulay"] = S.is_cohen_macaulay()
    flags["gorenstein"] = S.is_gorenstein()
    flags["free_for_stored"] = is_free(S)
    arr = free_some_arrangement(S)
    flags["free_some_arrangement"] = arr is not None
    if arr is not None:
        witnesses["free_arrangement"] = arr
    flags["complete_intersection"] = is_complete_intersection(S)
    kinds = (("rectangular", is_rectangular),
             ("c_rectangular", is_c_rectangular),
             ("alpha_rectangular", is_alpha_rectangular))
    if S.numerical:
        flags["free_all_arrangements"] = is_free_all_arrangements(S)
        rect = {}
        for kind, fn in kinds:
            per = {}
            for j in range(len(S.gens)):
                ok, bounds = fn(S, j)
                per[j] = ok
                if ok and kind not in witnesses:
                    witnesses[kind] = {"generator": j, "bounds": bounds}
            rect[kind] = per
            flags[kind] = any(per.values())
        flags["alpha_rectangular_every_generator"] = all(
            rect["alpha_rectangular"].values())
        witnesses["rectangular_generators"] = rect
    else:
        for kind, fn in kinds:
            ok, bounds = fn(S)
            flags[kind] = ok
            if ok:
                witnesses[kind] = {"bounds": bounds}
    flags["betti_sorted"] = is_betti_sorted(S)
    flags["betti_isolated_sorted"] = is_betti_isolated_sorted(S)
    flags["betti_divisible"] = is_betti_divisible(S)
    flags["betti_isolated_divisible"] = is_betti_isolated_divisible(S)
    for kind, fn in (("single_betti", has_single_betti),
                     ("single_betti_minimal", has_single_betti_minimal)):
        flags[kind], witness = fn(S)
        if flags[kind]:
            witnesses[kind] = witness
    return ClassificationReport(flags, witnesses)


# -- inputs shared by the harness checks ---------------------------------

class HarnessInputs:
    """What the harness checks of one semigroup read, derived once and
    passed down as their one source: four verdicts of the walk, the Betti
    and isolated profiles, the Betti minimals, the c values, the support
    mask of each vector of I_b and, for each i, whether c_i e_i lies in
    I_b, the kept _Base of each Apery base (which the predicates and
    classification_report read too), the planes (one, many) that reach
    F + b_1 with the map of an element to its bit, whether each base's Ap
    factors uniquely (a mask test of the one plane) and the numerical
    verdicts below.  The planes of S are asked first at the widest bound
    any input reads, and the memo of S keeps them, the Betti fibers and
    what the library functions keep.  run_theorem_harness builds one for
    a twin of each corpus member.  Sharing an input never reads one
    condition off another.  A numerical scan past _SCAN_CAP raises
    SearchCapExceededError before any plane."""

    __slots__ = ("characterized", "minimal_multi", "elements_ok",
                 "least_multi", "profile", "prof", "minimals", "cs",
                 "ib_masks", "pure_ib", "bases", "planes", "encode",
                 "ap_unique", "betti_sorted", "betti_isolated_sorted",
                 "betti_divisible", "free_some", "cost_sorted")

    def __init__(self, S):
        bound = _scan_bound(S)
        if S.numerical and bound > _SCAN_CAP:
            raise SearchCapExceededError(
                f"{S}: harness scan bound {bound} exceeds {_SCAN_CAP}")
        # b_1 <= bound, so F + bound covers Ap(S; b_1) in [0, F + b_1]
        top = S.frobenius() + bound if S.numerical else bound
        self.planes = one, many = S._planes(top)
        # the walk keeps the Betti fibers on S, where the profile reads them
        (self.characterized, self.minimal_multi, self.elements_ok,
         self.least_multi) = _walked(S, bound)
        self.profile = require_exact_betti(S)
        self.prof = isolated_profile(S)
        self.minimals = betti_minimals(S)
        self.cs = cs = constants.c_values(S)
        e = len(S.gens)
        self.ib_masks = [_support((x,)) for x in self.prof.ib]
        ib = set(self.prof.ib)
        self.pure_ib = [c is not None and
                        tuple(c if k == i else 0 for k in range(e)) in ib
                        for i, c in enumerate(cs)]
        bases = range(e) if S.numerical else (None,)
        self.bases = {j: _base(S, j) for j in bases}
        # Ap(S; B) factors uniquely iff its plane, at the positions of
        # S._box(top), has no bit outside the one plane
        positions, _, self.encode, _ = S._box(top)
        self.ap_unique = {j: not _apery_bits(one | many, [
            positions[i] for i in range(e) if i not in base.others]) & ~one
            for j, base in self.bases.items()}
        numerical = S.numerical  # the checks that read these skip affine S
        self.betti_sorted = numerical and is_betti_sorted(S)
        self.betti_isolated_sorted = numerical and is_betti_isolated_sorted(S)
        self.betti_divisible = numerical and is_betti_divisible(S)
        self.free_some = numerical and free_some_arrangement(S) is not None
        self.cost_sorted = numerical and _sorted_cost_arrangements(S)


# -- verified inequality chains ------------------------------------------

def _chain(name, *values):
    ok = all(a <= b for a, b in zip(values, values[1:]))
    return {"name": name, "ok": ok, "values": list(values)}


def verify_bounds(S, inputs):
    """Evaluate every applicable inequality chain of the bound results.
    inputs is the HarnessInputs of S."""
    if S.numerical and len(S.gens) == 1:
        return []
    out = []
    profile, prof = inputs.profile, inputs.prof
    e = len(S.gens)
    betti = list(profile.betti)
    nc_sum = profile.nc_sum()
    ib = prof.i_b
    m = S.codim

    if S.is_simplicial() and m >= 1:
        out.append(_chain("ib_lower", m + 1, ib))

    if S.is_simplicial() and S.is_cohen_macaulay() and m >= 1:
        d = S.multiplicity if S.numerical else len(S.apery())
        out.append(_chain("ib_nc_chain", ib, nc_sum,
                          (2 * d - m) * (m - 1) + 2, d * (d - 1)))
        attained = ib == d * (d - 1)
        maximal = (m == d - 1) and all(
            profile.fibers[b].denumerant == 2 for b in betti)
        out.append({"name": "ib_max_equality", "ok": attained == maximal,
                    "values": [attained, maximal]})

    if S.numerical and betti:
        cs = inputs.cs
        c_sum, c_prod = sum(cs), prod(cs)
        i_s, i_total = prof.i_s, prof.i_total
        b1 = min(betti)
        out.append(_chain("is_chain", e + 3, c_sum - e + 2, i_s, b1))
        out.append(_chain("i_chain", 2 * e + 3, i_total, b1 + nc_sum,
                          b1 + S.multiplicity * (S.multiplicity - 1)))
        single = len(betti) == 1
        attained = i_total == b1 + nc_sum
        out.append({"name": "one_betti_total", "ok": single == attained,
                    "values": [single, attained]})
        out.append(_chain("i_upper", i_total, e + c_prod))
        out.append(_chain("is_upper", i_s, c_prod))
        conds = [i_total == e + c_prod, ib == e, i_s == c_prod]
        out.append({"name": "iso_equalities",
                    "ok": len(set(conds)) == 1, "values": conds})
    return out


# -- theorem equivalence vectors ------------------------------------------

def _entry(conditions, extra_ok=True):
    flat = [c for c in conditions if c is not None]
    ok = len(set(flat)) <= 1 and bool(extra_ok)
    return {"applicable": True, "conditions": conditions, "ok": ok}


def _verdict(ok):
    """An entry whose one condition is the check's own verdict (to _entry,
    a single condition is a constant vector and always passes)."""
    return _entry([ok], extra_ok=ok)


def _skip():
    return {"applicable": False, "conditions": [], "ok": True}


def _per_base(check):
    """check(S, inputs, j) at every Apery base j, folded into one entry;
    check returns None where its hypothesis fails at j.  A skip if every
    base gives None, the one base's entry for affine S (the rays), and
    otherwise the verdict that every base's entry passes."""
    def fold(S, inputs):
        entries = [check(S, inputs, j) for j in inputs.bases]
        entries = [entry for entry in entries if entry is not None]
        if not entries:
            return _skip()
        if len(inputs.bases) == 1:
            return entries[0]
        return _verdict(all(entry["ok"] for entry in entries))
    return fold


# Bits of what lies below a factorization (an element): a Betti one, one
# of I_b (an IBetti element), a multi-vector.
_BETTI, _IBETTI, _MULTI = 1, 2, 4


def _packing(S, bound):
    """Units u, decoder and encoder of the factorizations x up to bound,
    packed as sum x_i u_i: x_i n_i has degree <= bound, so x_i is below
    the radix."""
    degree = min(S.gens) if S.numerical else min(map(sum, S.gens))
    return _mixed_radix(bound // degree + 1, len(S.gens))


def _walk(S, bound):
    """Yield (m, singletons, below, under) for each m of
    S.elements_upto(bound), in order: the map of each factorization of m,
    packed by _packing, to the bits below it, those forming a singleton
    R-class, and the bits below m in <=_S.

    Z(m) is the union over i of {y + e_i : y in Z(m - n_i)} (Barron,
    O'Neill and Pelayo, Math. Comp. 86, 2017), and z < y + e_i iff z = y
    or z < y, so each y carries its bits and what y and m - n_i add; and
    b <_S m iff b = m - n_i or b <_S m - n_i.  The scan is closed downward
    and meets m - n_i before m (affine: lexicographically).  The Betti set
    comes first (numerical: the kept sweep; affine: the profile
    _scan_bound built).  m is Betti iff nc(m) >= 2, so only a Betti fiber
    is decoded, kept on S (factor.fiber's key) and partitioned, for I_b
    and the IBetti elements; any other is one R-class and gets no Fiber.
    The maps of m are dropped after m + max(gens) (lexicographic max,
    affine), the last to read them.  Raises FiberCapExceededError at the
    first m with more than factor.DEFAULT_FIBER_CAP factorizations.
    """
    betti = set(_numerical_betti(S) if S.numerical
                else require_exact_betti(S).betti)
    gens, cap = S.gens, factor.DEFAULT_FIBER_CAP
    units, unpack, pack = _packing(S, bound)
    add, minus = S._arith.add, S._arith.sub
    scan, top = S.elements_upto(bound), max(gens)
    window, oldest = {}, 0  # m -> (below, own bits, I_b, bits at or below)
    for m in scan:
        below, under = None, 0
        for g, u in zip(gens, units):
            entry = window.get(minus(m, g))
            if entry is None:
                continue
            rows, own, iso, at = entry
            under |= at
            if below is None:  # the first m - n_i: no x is met twice
                below = {y + u: bits | own for y, bits in rows.items()}
            else:
                for y, bits in rows.items():
                    x = y + u
                    below[x] = below.get(x, 0) | bits | own
            for y in iso:
                below[y + u] |= _IBETTI
        if below is None:
            below = {0: 0}
        if len(below) > cap:
            raise FiberCapExceededError(m, cap)
        own, at, iso = _MULTI if len(below) > 1 else 0, under, ()
        if m in betti:
            iso = S._cached(("fiber", m), factor.Fiber, m,
                            tuple(map(unpack, sorted(below)))).isolated
            own, at = own | _BETTI, at | _BETTI | (_IBETTI if iso else 0)
            iso = list(map(pack, iso))
        yield m, iso or (list(below) if len(below) == 1 else ()), below, under
        window[m] = (below, own, iso, at)
        while add(scan[oldest], top) <= m:
            del window[scan[oldest]]
            oldest += 1


def _walked(S, bound):
    """The walk's verdicts: whether x is isolated iff no Betti factorization
    lies below it (else a vector of I_b does), the minimal multi-vectors
    (an up-set's), whether m has a non-isolated factorization iff a Betti,
    iff an IBetti, element lies below it, and the least multi-element."""
    characterized = elements_ok = True
    minimals = set()
    least_multi = None
    for m, singletons, below, under in _walk(S, bound):
        multi = len(below) >= 2
        if multi and least_multi is None:
            least_multi = m
        for x, bits in below.items():
            oracle = x in singletons
            if oracle == bool(bits & _BETTI) or \
                    not (oracle or bits & _IBETTI):
                characterized = False  # strengthened: I_b dominates too
            if multi and not bits & _MULTI:
                minimals.add(x)
        has_non_isolated = len(singletons) < len(below)
        if not has_non_isolated == bool(under & _BETTI) == \
                bool(under & _IBETTI):
            elements_ok = False
    minimals = set(map(_packing(S, bound)[1], minimals))
    return characterized, minimals, elements_ok, least_multi


def _check_isolated_characterization(S, inputs):
    """The walk's verdict, and the minimal multi-vectors against I_b."""
    return _verdict(inputs.characterized and
                    inputs.minimal_multi == set(inputs.prof.ib))


def _check_isolated_elements(S, inputs):
    return _verdict(inputs.elements_ok)


def _check_b1_smallest(S, inputs):
    """b_1 is the least element with two factorizations, all isolated."""
    b1 = min(inputs.profile.betti)
    fib = inputs.profile.fibers[b1]
    return _verdict(b1 == inputs.least_multi and fib.nc == fib.denumerant)


def _check_betti_minimal_characterizations(S, inputs):
    profile = inputs.profile
    # every list in the natural order of its sorted source
    a = list(inputs.minimals)
    b = list(minimal_in_order(S, profile.ibetti))
    c = [bb for bb in profile.betti
         if profile.fibers[bb].nc == profile.fibers[bb].denumerant]
    d = list(minimal_multi_elements(
        S, bound=None if S.numerical else _scan_bound(S)))
    return _verdict(a == b == c == d)


def _support(factorizations):
    """Bit i set iff some factorization has a positive entry i."""
    mask = 0
    for x in factorizations:
        for i, xi in enumerate(x):
            if xi:
                mask |= 1 << i
    return mask


def _check_disjoint_betti(S, inputs):
    """No factorization of a Betti element b_1 shares support with an
    isolated factorization of a Betti element b_2 above it in <=_S.  Some
    such pair shares support iff the union of the supports over Z(b_1)
    meets the union over the isolated factorizations of b_2, so the order
    is tested only for pairs whose unions meet."""
    fibers = inputs.profile.fibers
    full = {b: _support(fib.factorizations) for b, fib in fibers.items()}
    iso = {b: _support(fib.isolated) for b, fib in fibers.items()}
    inside, minus = S._member_test(), S._arith.sub
    return _verdict(not any(
        full[b1] & iso[b2] and inside(minus(b2, b1))
        for b1 in fibers for b2 in fibers if b1 != b2))


def _check_ap_b1(S, inputs):
    single = len(inputs.minimals) == 1
    b1 = min(inputs.profile.betti)
    # the planes reach F + b_1, past every element of Ap(S; b_1)
    one, many = inputs.planes
    ap_unique = not _apery_bits(one | many, [b1]) & ~one
    i_s_eq = inputs.prof.i_s == b1
    return _entry([single, ap_unique, i_s_eq])


def _check_thm_isolated(S, inputs):
    """The C(M) inclusions and their equality linkage."""
    prof = inputs.prof
    e = len(S.gens)
    catoms = [(idx, c) for idx, c in enumerate(inputs.cs) if c is not None]
    ib = set(prof.ib)
    pure = {tuple(c if i == idx else 0 for i in range(e))
            for idx, c in catoms}
    iso_all = ib | set(prof.is_)
    first_incl = pure <= ib
    box_ok = all(all(x[idx] < c for idx, c in catoms)
                 for x in iso_all - pure)
    if not (first_incl and box_ok):
        return _verdict(False)
    if not prof.exhaustive or len(catoms) < e:
        # the second set is infinite (or only windowed); only the
        # inclusions can be verified
        return _verdict(True)
    # box_ok put iso_all - pure inside the box {x : x_i < c_i for all i},
    # so the two are equal iff they have as many members: count the box,
    # which has 2^e members already when every c_i is 2
    first_eq = pure == ib
    second_eq = len(iso_all - pure) == prod(inputs.cs)
    return _verdict(first_eq == second_eq)


def _check_prop_alpha(S, inputs, j):
    """Four-way equivalence for alpha-rectangularity at one base."""
    base = inputs.bases[j]
    maxima = S.apery_maxima(None if j is None else S.gens[j])
    unique_max = len(maxima) == 1
    c1 = base.alpha_box[0]
    c2 = unique_max and inputs.planes[0] >> inputs.encode(maxima[0]) & 1 == 1
    c3 = unique_max and inputs.ap_unique[j]
    c4 = base.size == prod(a + 1 for a in base.alphas)
    return _entry([c1, c2, c3, c4])


def _check_thm_alpha_free(S, inputs, j):
    """alpha-rectangularity at base j must be realized by a free
    arrangement with c_i^* = alpha_i + 1 at every later position.
    Returns None when the hypothesis fails."""
    if not inputs.bases[j].alpha_box[0]:
        return None
    return _verdict(
        _free_completion(S, frozenset((j,)), alpha_base=j) is not None)


def _check_thm_alpha_c(S, inputs, j):
    """Six-way equivalence between alpha- and c-rectangularity, with the
    consequence c_i = alpha_i + 1.  Returns None when some c_i does not
    exist (then the statements are vacuous for this base), which happens
    only for affine S: numerical k n_i lies in <others> once gcd(others)
    divides k and k is large, so the per-base fold never skips there."""
    base = inputs.bases[j]
    others, cs = base.others, inputs.cs
    if any(cs[i] is None for i in others):
        return None
    outside = sum(1 << i for i in range(len(S.gens)) if i not in others)
    # I_b restricted to the others is {c_i e_i : i in others} iff each
    # c_i e_i is in I_b and no other vector of I_b misses the outside:
    # those pure vectors are distinct and zero outside the base
    ib_cond = all(inputs.pure_ib[i] for i in others) and \
        sum(not mask & outside for mask in inputs.ib_masks) == len(others)
    not_in_ap = not any(base.holds(S, S._arith.scale(cs[i], S.gens[i]))
                        for i in others)
    card = base.size == prod(cs[i] for i in others)
    c_rect = is_c_rectangular(S, j)[0]
    conds = [base.alpha_box[0],
             c_rect and not_in_ap,
             c_rect and ib_cond,
             ib_cond and inputs.ap_unique[j],
             ib_cond and not_in_ap,
             ib_cond and card]
    extra = not conds[0] or all(cs[i] == a + 1
                                for i, a in zip(others, base.alphas))
    return _entry(conds, extra_ok=extra)


def _check_thm_ci_b1(S, inputs):
    profile = inputs.profile
    if not profile.betti:
        return _skip()
    m = S.codim
    mins = inputs.minimals
    c1 = is_complete_intersection(S) and len(mins) == 1
    c2 = inputs.prof.i_b == m + 1 and any(
        all(profile.fibers[b].nc == len(profile.fibers[b].isolated) + 1
            for b in profile.betti if b != b1) for b1 in mins)
    return _entry([c1, c2])


def _check_cor_ci_b1(S, inputs, j):
    """Numerical 4-way in an arrangement minimizing c_i n_i with n_j first,
    plus the Betti-set and n_1 consequences; None unless c_j n_j is least."""
    profile, prof, cs = inputs.profile, inputs.prof, inputs.cs
    e = len(S.gens)
    cost = [cs[i] * S.gens[i] for i in range(e)]
    if cost[j] != min(cost):
        return None
    single = len(inputs.minimals) == 1
    c1 = inputs.free_some and single
    predicted = sorted({cost[i] for i in range(e) if i != j})
    extra = not c1 or (
        predicted == list(profile.betti) == list(profile.ibetti) and
        S.gens[j] == prod(cs[i] for i in range(e) if i != j))
    return _entry([c1, is_complete_intersection(S) and single,
                   prof.i_b == e and single,
                   prof.i_b == e and inputs.bases[j].alpha_box[0]],
                  extra_ok=extra)


def _check_thm_betti_sorted_alpha(S, inputs, j):
    """Five-way equivalence at base j under the Betti-isolated-sorted
    hypothesis.  Returns None when the hypothesis fails."""
    if not inputs.betti_isolated_sorted:
        return None
    b1 = min(inputs.profile.betti)
    base = inputs.bases[j]
    cs = {i: inputs.cs[i] for i in base.others}
    return _entry([not base.holds(S, b1),
                   base.alpha_box[0],
                   is_c_rectangular(S, j)[0],
                   not any(base.holds(S, cs[i] * S.gens[i]) for i in cs),
                   S.gens[j] == prod(cs.values())])


def _shaped(S, inputs, pure_right):
    """Whether some cost-sorted arrangement admits a staircase-shaped
    presentation, with c coefficients and with arbitrary ones."""
    return [any(admits_shaped_presentation(S, arr, pure_right=pure_right,
                                           fixed_c=fixed_c)
                for arr in inputs.cost_sorted)
            for fixed_c in (True, False)]


def _check_cor_betti_sorted(S, inputs):
    """Numerical 4-way: Betti sorted / Betti-isolated sorted / staircase
    presentation with c coefficients / with arbitrary coefficients."""
    profile = inputs.profile
    c1 = inputs.betti_sorted
    cost = sorted(c * g for c, g in zip(inputs.cs, S.gens))
    predicted = sorted(set(cost[1:]))
    extra = not c1 or predicted == list(profile.betti) == list(profile.ibetti)
    return _entry([c1, inputs.betti_isolated_sorted] +
                  _shaped(S, inputs, pure_right=False), extra_ok=extra)


def _check_cor_betti_divisible_presen(S, inputs):
    return _entry([inputs.betti_divisible, is_betti_isolated_divisible(S)] +
                  _shaped(S, inputs, pure_right=True))


def _check_thm_betti_divisible_generators(S, inputs):
    profile = inputs.profile
    divisible = inputs.betti_divisible
    params = recover_params(S)
    if divisible != (params is not None):
        return _entry([divisible, params is not None])
    extra = True
    if params is not None:
        a, f = params
        p = prod(a)
        extra = sorted({fi * p for fi in f[1:]}) == list(profile.betti)
    return _entry([divisible], extra_ok=extra)


def _check_thm_betti_divisible_free(S, inputs):
    """Betti divisible / every-partition gluing (left out for e > 5) /
    free for every arrangement."""
    e = len(S.gens)
    c1 = inputs.betti_divisible
    c3 = is_free_all_arrangements(S)
    c2 = None
    if e <= 5:
        gens = list(S.gens)
        c2 = all(
            is_gluing_partition(
                S, [gens[i] for i in range(e) if mask >> i & 1],
                [gens[i] for i in range(e) if not mask >> i & 1],
                require_divisible=True)
            for mask in range(1, (1 << e) - 1) if mask & 1)
    return _entry([c1, c2, c3])


def _check_thm_single_betti_alpha(S, inputs):
    c1 = len(inputs.profile.betti) == 1
    c2 = all(is_c_rectangular(S, j)[0] for j in inputs.bases) and \
        inputs.prof.i_b == len(S.gens)
    c3 = all(base.alpha_box[0] for base in inputs.bases.values())
    return _entry([c1, c2, c3])


# The harness theorems in report order: (id, check, numerical S only).
# On affine S a numerical-only theorem is reported as skipped.
_THEOREMS = (
    ("isolated_characterization", _check_isolated_characterization, False),
    ("isolated_elements", _check_isolated_elements, False),
    ("betti_minimal_characterizations",
     _check_betti_minimal_characterizations, False),
    ("disjoint_betti", _check_disjoint_betti, False),
    ("ap_b1", _check_ap_b1, True),
    ("b1_smallest", _check_b1_smallest, True),
    ("isolated_inclusions", _check_thm_isolated, False),
    ("prop_alpha", _per_base(_check_prop_alpha), False),
    ("thm_alpha_free", _per_base(_check_thm_alpha_free), True),
    ("thm_alpha_c", _per_base(_check_thm_alpha_c), False),
    ("thm_ci_b1", _check_thm_ci_b1, False),
    ("cor_ci_b1", _per_base(_check_cor_ci_b1), True),
    ("thm_betti_sorted_alpha", _per_base(_check_thm_betti_sorted_alpha),
     True),
    ("cor_betti_sorted", _check_cor_betti_sorted, True),
    ("cor_betti_divisible_presen", _check_cor_betti_divisible_presen, True),
    ("thm_betti_divisible_generators",
     _check_thm_betti_divisible_generators, True),
    ("thm_betti_divisible_free", _check_thm_betti_divisible_free, True),
    ("thm_single_betti_alpha", _check_thm_single_betti_alpha, True),
)


def check_equivalence_theorems(S, inputs):
    """Evaluate the multi-way characterization theorems independently.

    Returns a mapping from theorem id to {applicable, conditions, ok}.
    Each vector must be constant (all true or all false); a mixed vector
    is a counterexample to the corresponding theorem.  inputs is the
    HarnessInputs of S.
    """
    report = {}
    if S.numerical and len(S.gens) == 1:
        return report
    for name, check, numerical_only in _THEOREMS:
        applies = S.numerical or not numerical_only
        report[name] = check(S, inputs) if applies else _skip()
    return report
