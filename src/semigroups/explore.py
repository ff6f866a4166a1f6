"""Corpus enumeration and exhaustive verification searches.

The genus tree enumerates every numerical semigroup of genus <= g by
removing effective generators (minimal generators larger than the
Frobenius number), which visits each semigroup exactly once (Rosales &
Garcia-Sanchez, Numerical Semigroups, 2009; Fromentin & Hivert, Math.
Comp. 85, 2016).  A node carries its finite gap mask (bit s set iff s is
a gap).  With m the multiplicity, removing g != m adds at most g + m,
which is minimal iff g + m - y is a gap for every generator m < y < g:
one bit per y, read until the first member.  Removing g = m gives
<m + 1, ..., 2m + 1>.  A node is one slotted Semigroup of about 224
bytes (tracemalloc, genus 20): its membership engine and its memo are
made only when it is first asked something.

The minimum-Frobenius search for Betti-divisible semigroups walks the
(a, f) parametrization, which provably covers the whole family, by branch
and bound.  Each candidate is scored by Johnson's formula for its
telescopic arrangement without being built; a branch is cut when its
lower bound (every f_i = 1, and the least values it could still add)
exceeds the best Frobenius number so far, and ties are kept for the
generator tie-break.
"""

from itertools import permutations
from math import gcd

from . import classify
from .construct import betti_divisible_from_params
from .errors import SearchCapExceededError
from .semigroup import Semigroup, make_semigroup, parse_gens

__all__ = ["Corpus", "enumerate_numerical_by_genus", "load_corpus",
           "min_frobenius_betti_divisible", "run_theorem_harness",
           "DEFAULT_CHAIN_WITNESSES"]

# Genus <= 25 is 1,179,597 semigroups (OEIS A007323).  A node as
# enumerated takes 224 bytes at genus 20 and 230 at genus 22 (tracemalloc),
# growing with its generator count; extrapolated to ~240 bytes, genus 25
# would take ~280 MB.  Genus 26 adds 770,832.
GENUS_CAP = 25


class Corpus:
    """A list of semigroups with provenance."""

    __slots__ = ("semigroups", "provenance")

    def __init__(self, semigroups, provenance):
        self.semigroups = list(semigroups)
        self.provenance = provenance

    def __iter__(self):
        return iter(self.semigroups)

    def __len__(self):
        return len(self.semigroups)


def enumerate_numerical_by_genus(g_max):
    """All numerical semigroups of genus <= g_max, via the semigroup tree."""
    if not isinstance(g_max, int) or isinstance(g_max, bool):
        raise ValueError(f"genus {g_max!r} is not an integer")
    if g_max > GENUS_CAP:
        raise SearchCapExceededError(
            f"genus {g_max} exceeds the enumeration cap {GENUS_CAP}")
    if g_max < 0:
        raise ValueError(f"genus {g_max} is negative")
    out = []
    _walk(out, (1,), 0, 0, 0, g_max)
    return Corpus(out, f"enumerated-by-genus<={g_max}")


def _walk(out, gens, gaps, start, genus, g_max):
    """Append the subtree of S = <gens> to out, in preorder.

    gens is msg(S) ascending, gens[start:] are the generators g > F, and
    bit s of gaps is set iff s is a gap.  Removing g = gens[i] gives the
    child with mask gaps | 1 << g, Frobenius number g and generators
    msg(S) - {g} plus each g + n (n in msg(S)) minimal in it; m = gens[0].
    - i = 0: g = m > F, so S = {0} u [m, oo) and the child is
      <m + 1, ..., 2m + 1>, adding 2m and 2m + 1 (N gives <2, 3>).
    - i >= 1: for n != m, g + n = m + (g + n - m) with g + n - m > g in
      the child.  x = g + m exceeds every kept y (y <= F + m) and no new
      generator is below x, so x is minimal iff every x - y is a gap.  It
      is g for y = m and below m for y > g: only m < y < g is read, in S.
    New generators exceed the kept ones; the child's gens[i:] exceed g.
    A child of genus g_max is a leaf, appended without a call.
    """
    out.append(Semigroup(gens, 1, 1, (0,)))
    if genus == g_max:
        return
    leaf = genus + 1 == g_max
    m = gens[0]
    for i in range(start, len(gens)):
        g = gens[i]
        old = gens[:i] + gens[i + 1:]
        if not i:
            old += (2 * m, 2 * m + 1)
        else:
            for y in gens[1:i]:
                if not gaps >> (g + m - y) & 1:
                    break
            else:
                old += (g + m,)
        if leaf:
            out.append(Semigroup(old, 1, 1, (0,)))
        else:
            _walk(out, old, gaps | 1 << g, i, genus + 1, g_max)


def load_corpus(path):
    """Corpus file: one generator list per line, '#' starts a comment.
    A semigroup listed twice is kept once, at its first line."""
    out = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                S = make_semigroup(parse_gens(line))
                if S not in seen:
                    seen.add(S)
                    out.append(S)
    return Corpus(out, f"file:{path}")


# -- minimum-Frobenius Betti-divisible search -----------------------------

# Nodes (grow and f_chains calls) one search may visit.  The dearest
# recorded minimum (523, two distinct Betti elements) takes 59 at f_max
# 1,200.  edim 10 with F <= 10**12 would try every f-chain of each of the
# 10!/2 arrangements of {2, 3, 5, ..., 29} with a_1 < a_2 and more, and
# stops here in about 1.4 s.
_SEARCH_NODE_CAP = 10 ** 6


def _cheapest_completion(p, s0, a, more):
    """F, with every f_i = 1, of the values (product p, s0 as in grow)
    together with a, a + 1, ..., a + more - 1: a lower bound on F for
    every candidate in the branch that adds a.

    With every f_i = 1, F = s0 - p = p (k - 1 - sum 1/v) for k values,
    whatever the arrangement, and any f_i > 1 only adds to F.  F does not
    fall when a value v grows: F = q (v B - 1), with q the product of the
    other values and B = k - 1 - sum of 1/u over them, which is >= 0 as
    every u >= 2.  Nor when a value w is added: F becomes w F + p (w - 1),
    which is >= F as F >= -p.  The branch adding a adds at least `more`
    values, distinct and at least a, so a, a + 1, ... are its cheapest
    completion.  The bound grows with a, so the loop over a may stop at
    the first a whose bound exceeds the limit.  The cut is strict
    (> limit), so ties survive."""
    for c in range(a, a + more):
        p, s0 = p * c, c * s0 + p * (c - 1)
    return s0 - p


class _Search:
    """The state of one min_frobenius_betti_divisible search: the number
    of values it needs, the best candidate so far with its Frobenius
    number as the bound, and the nodes visited.  grow and f_chains recurse
    through this object, not through closures, so a finished search
    leaves no reference cycle behind."""

    __slots__ = ("need", "distinct_betti_min", "best", "limit", "nodes")

    def __init__(self, need, distinct_betti_min, f_max):
        self.need = need
        self.distinct_betti_min = distinct_betti_min
        self.best = None  # (frobenius, sorted gens, a, f)
        self.limit = f_max
        self.nodes = 0

    def visit(self):
        self.nodes += 1
        if self.nodes > _SEARCH_NODE_CAP:
            raise SearchCapExceededError(
                f"the search visited more than {_SEARCH_NODE_CAP} "
                f"parameter nodes with its bound at F <= {self.limit}")

    def f_chains(self, a, pos, f, partial_cost, n1, p):
        """Extend the chain f_3 | ... | f_e; partial_cost accumulates
        sum (a_i - 1) n_i over positions >= 2."""
        self.visit()
        if partial_cost - n1 > self.limit:
            return
        if pos == len(a):
            if f[-1] == 1 and list(a) != sorted(a):
                return  # the all-ones chain: scored at the ascending order
            # n_i = f_i p / a_i is prime to a_i and every other generator
            # is a multiple of a_i, so none is redundant; gcd(n_1..n_i) =
            # p / (a_1...a_i) and a_i n_i = (f_i / f_{i-1}) a_{i-1} n_{i-1},
            # so the arrangement is telescopic with c_i = a_i and Johnson's
            # F = partial_cost - n1 is exact (Canad. J. Math. 12, 1960).
            key = (partial_cost - n1,
                   tuple(sorted(fi * (p // ai) for ai, fi in zip(a, f))))
            if len(set(f[1:])) >= self.distinct_betti_min and (
                    self.best is None or key < self.best[:2]):
                self.best, self.limit = key + (a, f), key[0]
            return
        if gcd(f[-1], a[pos]) != 1:
            return  # every multiple of f_{pos-1} shares a factor with a_pos
        ni_unit = p // a[pos]
        q = 1
        while True:
            fi = f[-1] * q
            cost = (a[pos] - 1) * fi * ni_unit
            if partial_cost + cost - n1 > self.limit:
                return
            if gcd(fi, a[pos]) == 1:
                self.f_chains(a, pos + 1, f + [fi], partial_cost + cost,
                              n1, p)
            q += 1

    def grow(self, values, start, p, s0):
        """values are pairwise coprime and increasing, p = prod(values) and
        s0 = sum p (v - 1) / v, so that s0 - p is F when every f_i = 1."""
        self.visit()
        if len(values) >= self.need:
            for a in permutations(values):  # each with f_1 = f_2 = 1,
                if a[0] < a[1]:  # so a_1 > a_2 repeats an earlier twin
                    self.f_chains(a, 2, [1, 1], (a[1] - 1) * (p // a[1]),
                                  p // a[0], p)
        more = max(self.need - len(values), 1)
        a = start
        while _cheapest_completion(p, s0, a, more) <= self.limit:
            if gcd(a, p) == 1:
                self.grow(values + [a], a + 1, p * a, a * s0 + p * (a - 1))
            a += 1


def min_frobenius_betti_divisible(edim_min, f_max, distinct_betti_min=1):
    """The Betti-divisible numerical semigroup with >= edim_min minimal
    generators and the smallest Frobenius number <= f_max.

    Returns (frobenius, S).  The search is a branch and bound over the
    (a, f) parametrization that scores each candidate by Johnson's formula
    and keeps ties, which are broken by the sorted generator tuple; only
    the winner is built, and its Apery table must agree with the formula.

    ``distinct_betti_min`` restricts the search to semigroups with at
    least that many distinct Betti elements (the count equals the number
    of distinct values among f_2, ..., f_e).  With the default of 1 the
    all-f=1 subfamily is included, so for example the single-Betti
    semigroup <30,42,70,105> (Frobenius 383) beats <30,42,105,140>
    (Frobenius 523) among those with at least 4 minimal generators;
    pass 2 to exclude semigroups with a unique Betti element.
    """
    if edim_min < 2:
        raise ValueError("edim_min must be at least 2")
    # f_2, ..., f_e take at most e - 1 distinct values
    search = _Search(max(edim_min, distinct_betti_min + 1),
                     distinct_betti_min, f_max)
    search.grow([], 2, 1, 0)
    best = search.best
    if best is None:
        raise SearchCapExceededError(
            f"no Betti-divisible semigroup with >= {edim_min} generators "
            f"has Frobenius number <= {f_max}")
    frob, _gens, a, f = best
    S, _predicted = betti_divisible_from_params(a, f)
    if S.frobenius() != frob:
        raise RuntimeError(f"Johnson's formula is not F(S) for {S.gens}")
    return frob, S


# -- theorem harness ------------------------------------------------------

# Constructed witnesses for the strictness of the inclusion chain
#   single Betti < Betti divisible < Betti sorted < (CI & one Betti-minimal)
#   < alpha-rectangular (some gen) < free (some arrangement) < CI;
# small-genus corpora cannot witness the first strict inclusion (the
# smallest Betti-divisible semigroup with two Betti elements has Frobenius
# number 49), so these are verified alongside the corpus.
DEFAULT_CHAIN_WITNESSES = {
    ("betti_divisible", "single_betti"): (6, 15, 20),
    ("betti_sorted", "betti_divisible"): (4, 6, 9),
    ("ci_single_bm", "betti_sorted"): (16, 20, 30, 45),
    ("alpha_rect_some", "ci_single_bm"): (4, 5, 6),
    ("free_some", "alpha_rect_some"): (24, 26, 36, 39),
    ("complete_intersection", "free_some"): (10, 14, 15, 21),
}

_CHAIN = ["single_betti", "betti_divisible", "betti_sorted",
          "ci_single_bm", "alpha_rect_some", "free_some",
          "complete_intersection"]


def _chain_memberships(S, inputs):
    """Membership of S in each family of the chain, reading inputs, the
    HarnessInputs of S."""
    return {
        "single_betti": len(inputs.profile.betti) == 1,
        "betti_divisible": inputs.betti_divisible,
        "betti_sorted": inputs.betti_sorted,
        "ci_single_bm": (len(inputs.minimals) == 1 and
                         classify.is_complete_intersection(S)),
        "alpha_rect_some": any(b.alpha_rect for b in inputs.bases.values()),
        "free_some": inputs.free_some,
        "complete_intersection": classify.is_complete_intersection(S),
    }


def run_theorem_harness(corpus, chain_witnesses=DEFAULT_CHAIN_WITNESSES):
    """Check every bound chain, equivalence theorem and family inclusion on
    every corpus member.  Returns a report dict with the (expected empty)
    violation list and the strictness witnesses found.  Each member is
    checked on a fresh twin, so the harness's memory does not grow with
    the corpus and the corpus members are left as they were."""
    violations = []
    witnesses = {}
    checked = 0
    for S in corpus:
        checked += 1
        if S.numerical and len(S.gens) == 1:
            continue
        # check a twin with an empty memo and no membership engine: what
        # the checks derive is dropped with it, and the caller's S is
        # never written to
        S = Semigroup(S.gens, S.ambient_dim, S.rank, S.simplicial_rays)
        inputs = classify.HarnessInputs(S)
        for bound in classify.verify_bounds(S, inputs):
            if not bound["ok"]:
                violations.append({"gens": S.gens, "check": bound["name"],
                                   "detail": bound["values"]})
        for name, entry in classify.check_equivalence_theorems(
                S, inputs).items():
            if not entry["ok"]:
                violations.append({"gens": S.gens, "check": name,
                                   "detail": entry["conditions"]})
        if S.numerical:
            flags = _chain_memberships(S, inputs)
            for small, big in zip(_CHAIN, _CHAIN[1:]):
                if flags[small] and not flags[big]:
                    violations.append({
                        "gens": S.gens,
                        "check": f"chain:{small}<={big}",
                        "detail": [flags[small], flags[big]]})
                if flags[big] and not flags[small]:
                    witnesses.setdefault((big, small), S.gens)
    if chain_witnesses:
        for (big, small), gens in chain_witnesses.items():
            S = make_semigroup(list(gens))
            flags = _chain_memberships(S, classify.HarnessInputs(S))
            if flags[big] and not flags[small]:
                witnesses.setdefault((big, small), S.gens)
            else:
                violations.append({"gens": S.gens,
                                   "check": f"witness:{big}>{small}",
                                   "detail": [flags[big], flags[small]]})
    missing = [pair for pair in zip(_CHAIN[1:], _CHAIN)
               if pair not in witnesses]
    return {
        "checked": checked,
        "violations": violations,
        "strictness_witnesses": {f"{b}>{s}": list(g)
                                 for (b, s), g in sorted(witnesses.items())},
        "missing_strictness": [f"{b}>{s}" for b, s in missing],
    }
