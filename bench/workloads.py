"""The three benchmark workloads: input generation, one timed pass, checks.

Inputs are made from the seed alone; the library only ever sees the
generated inputs.  A *pass* runs every item of a workload once on fresh
library objects, so no memo that ``Semigroup`` keeps survives from one
pass into the next.  Each pass takes the items in a new order drawn from
the seed.  Only library calls are timed; the output checks run outside
the timed intervals.

The library is imported inside the functions below, never at module
level, so that the set-up timer in ``worker.py`` sees the package import.

Run ``python3 bench/workloads.py record`` to rebuild ``analyze_panel.json``
(the fixed analyze pool and the SHA-256 of every recorded ``--json``
output) from the library as it stands.
"""

import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PANEL_FILE = os.path.join(HERE, "analyze_panel.json")

WORKLOADS = ("verify", "analyze", "explore")
DEFAULT_SEED = 1
clock = time.perf_counter

# Number of numerical semigroups of genus g, g = 0, 1, ... (OEIS A007323).
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693,
           2857)


def count_up_to_genus(g):
    return sum(A007323[:g + 1])


# -- verify ---------------------------------------------------------------
# The paper's theorem harness over the whole genus <= 10 corpus
# (478 semigroups): many tiny semigroups, millions of membership queries,
# heavy fiber reuse.  The corpus is fixed by the genus, so the seed only
# permutes the order in which the semigroups are checked.  Each pass
# enumerates the corpus, checks it one semigroup at a time and then
# checks the chain witnesses once.  Genus 10 rather than 11 so that about
# nine passes fit in a run: an item's median over nine passes shrugs off
# the garbage collector's pauses of up to 70 ms that land on random items.

VERIFY_GENUS = 10
SMOKE_VERIFY_GENUS = 5
STRICTNESS_PAIRS = 6


def _verify_inputs(rng, smoke):
    genus = SMOKE_VERIFY_GENUS if smoke else VERIFY_GENUS
    return {"genus": genus, "items": list(range(count_up_to_genus(genus)))}


def _verify_pass(inputs, expected, order, out):
    from semigroups import explore
    genus, want = inputs["genus"], len(inputs["items"])
    with out.segment():
        corpus = list(explore.enumerate_numerical_by_genus(genus))
    if len(corpus) != want:
        out.fail_pass(f"genus <= {genus} corpus has {len(corpus)} "
                      f"semigroups, A007323 gives {want}")
        return
    witnesses = {}
    for i in order:
        S = corpus[i]
        with out.item(i, S.gens) as item:
            rep = explore.run_theorem_harness([S], chain_witnesses=None)
            item.stop()
            if rep["checked"] != 1 or rep["violations"]:
                item.fail(f"{rep['checked']} checked, "
                          f"violations {rep['violations'][:3]}")
            witnesses.update(rep["strictness_witnesses"])
    with out.segment():
        rep = explore.run_theorem_harness([])
    witnesses.update(rep["strictness_witnesses"])
    if rep["violations"] or rep["missing_strictness"]:
        out.fail_pass(f"chain witnesses: violations {rep['violations']}, "
                      f"missing {rep['missing_strictness']}")
    if len(witnesses) != STRICTNESS_PAIRS:
        out.fail_pass(f"{len(witnesses)} of {STRICTNESS_PAIRS} strictness "
                      f"witnesses present: {sorted(witnesses)}")


# -- analyze --------------------------------------------------------------
# The per-semigroup report: a few large semigroups, each fiber computed
# about once.  The panel is the paper's four goldens, a fixed pool of 24
# numerical semigroups (multiplicity 40-200, 3-5 minimal generators), six
# simplicial affine semigroups in N^2 and N^3 (the only traffic through
# linalg and affine Apery sets), and four small numerical semigroups
# (multiplicity 40-60) drawn fresh from the seed.  The pool is fixed so
# that the SHA-256 of every output but the fresh ones is checked on every
# seed, and so that a run's cost does not depend on the seed.

GOLDENS = ("3,4,5", "24,26,36,39", "16,20,30,45", "30,42,105,140")
AFFINE = ("(1,0);(0,2);(0,3)", "(3,0);(0,3);(1,2);(2,1)",
          "(4,0);(0,4);(1,3);(3,1)", "(6,0);(0,6);(1,5);(4,2)",
          "(2,0,0);(0,2,0);(0,0,2);(1,1,1)",
          "(3,0,0);(0,3,0);(0,0,3);(1,1,1);(1,2,0)")
POOL_SEED = 1804
POOL_SIZE = 24
FRESH = 4
SMOKE_PANEL = ("3,4,5", "(3,0);(0,3);(1,2);(2,1)")  # from GOLDENS, AFFINE


def monoid_bits(gens, limit):
    """Bit s of the result is set iff s < limit is a sum of the gens.

    Unbounded coin change by doubling shifts: after the shifts by g, 2g,
    4g, ... the set is closed under adding g below the limit."""
    mask = (1 << limit) - 1
    bits = 1
    for g in gens:
        shift = g
        while shift < limit:
            bits |= (bits << shift) & mask
            shift *= 2
    return bits


def frobenius_and_genus(gens):
    """The benchmark's own oracle: Frobenius number and genus by a coin-
    change sweep up to the Schur bound (n_1 - 1)(n_e - 1)."""
    gens = sorted(gens)
    limit = max((gens[0] - 1) * (gens[-1] - 1), 1)
    bits = monoid_bits(gens, limit)
    holes = ~bits & ((1 << limit) - 1)
    return holes.bit_length() - 1, bin(holes).count("1")


def _minimal_numerical(gens):
    if math.gcd(*gens) != 1:
        return False
    top = max(gens) + 1
    for g in gens:
        others = [h for h in gens if h != g]
        if monoid_bits(others, top) >> g & 1:
            return False
    return True


def random_numerical(rng, m_lo, m_hi, e):
    """Multiplicity in [m_lo, m_hi], e minimal generators below twice it."""
    while True:
        m = rng.randint(m_lo, m_hi)
        gens = [m] + sorted(rng.sample(range(m + 1, 2 * m), e - 1))
        if _minimal_numerical(gens):
            return ",".join(map(str, gens))


def pool_members():
    rng = random.Random(POOL_SEED)
    return [random_numerical(rng, 40, 200, 3 + i % 3)
            for i in range(POOL_SIZE)]


def _fresh_members(rng):
    # cheap enough to stay below the panel's median latency on every seed
    return [random_numerical(rng, 40, 60, 3 + i % 2) for i in range(FRESH)]


def load_panel():
    with open(PANEL_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _analyze_inputs(rng, smoke):
    if smoke:
        return {"items": list(SMOKE_PANEL)}
    panel = GOLDENS + tuple(load_panel()["pool"]) + AFFINE
    return {"items": list(panel) + _fresh_members(rng)}


def analyze_output(gens):
    """Run ``analyze --gens <gens> --json`` in-process; (exit code, stdout)."""
    from semigroups import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["analyze", "--gens", gens, "--json"])
    return rc, buf.getvalue()


_ORACLE = {}


def _analyze_pass(inputs, expected, order, out):
    digests = expected["digests"]
    for i in order:
        gens = inputs["items"][i]
        with out.item(i, gens) as item:
            rc, text = analyze_output(gens)
            item.stop()
            if rc != 0:
                item.fail(f"exit code {rc}")
                continue
            want = digests.get(gens)
            if want is not None:
                out.digest_checked += 1
                got = hashlib.sha256(text.encode()).hexdigest()
                if got != want:
                    item.fail(f"sha256 {got} != recorded {want}")
            if "(" in gens:
                continue
            if gens not in _ORACLE:
                _ORACLE[gens] = frobenius_and_genus(
                    [int(x) for x in gens.split(",")])
            rep = json.loads(text)
            if (rep["frobenius"], rep["genus"]) != _ORACLE[gens]:
                item.fail(f"(frobenius, genus) = {rep['frobenius']}, "
                          f"{rep['genus']}; coin change gives "
                          f"{_ORACLE[gens]}")


# -- explore --------------------------------------------------------------
# Builds many semigroups and asks each a few questions over a large range:
# min_frobenius_betti_divisible queries plus genus-tree enumerations.  It
# never reaches factor or classify, so it is the workload that bypasses
# fiber and harness changes.  Each query's bound climbs a ladder, so a pass
# holds cheap and dear queries alike; the seed jitters every bound by up
# to 2%, enough to change the inputs and too little to change a run's cost.

# (edim_min, distinct_betti_min) -> (Frobenius number, sorted generators);
# the minimum is the same for every bound at or above it.
SEARCH_ANSWERS = {
    (3, 1): (29, [6, 10, 15]),
    (3, 2): (49, [6, 15, 20]),
    (4, 1): (383, [30, 42, 70, 105]),
    (4, 2): (523, [30, 42, 105, 140]),
}
EXPLORE_LADDERS = {(4, 1): range(600, 1201, 100),
                   (4, 2): range(600, 1201, 100),
                   (3, 1): range(200, 451, 50),
                   (3, 2): range(200, 451, 50)}
EXPLORE_GENERA = (12, 13, 14)
EXPLORE_ITEMS = tuple(
    [("search", edim, distinct, f_max)
     for (edim, distinct), ladder in EXPLORE_LADDERS.items()
     for f_max in ladder] + [("enumerate", g) for g in EXPLORE_GENERA])
SMOKE_EXPLORE_ITEMS = (("search", 4, 2, 600), ("search", 3, 1, 300),
                       ("enumerate", 8))
JITTER = 0.02


def _explore_inputs(rng, smoke):
    items = []
    for item in SMOKE_EXPLORE_ITEMS if smoke else EXPLORE_ITEMS:
        if item[0] == "search":
            kind, edim, distinct, f_max = item
            f_max = round(f_max * (1 + rng.uniform(-JITTER, JITTER)))
            item = (kind, edim, distinct, f_max)
        items.append(list(item))
    return {"items": items}


def _explore_pass(inputs, expected, order, out):
    from semigroups import explore
    for i in order:
        item = inputs["items"][i]
        with out.item(i, item) as it:
            if item[0] == "search":
                _kind, edim, distinct, f_max = item
                frob, S = explore.min_frobenius_betti_divisible(
                    edim, f_max, distinct_betti_min=distinct)
                it.stop()
                got = (frob, sorted(S.gens))
                if got != SEARCH_ANSWERS[(edim, distinct)]:
                    it.fail(f"answer {got}, recorded "
                            f"{SEARCH_ANSWERS[(edim, distinct)]}")
            else:
                n = len(explore.enumerate_numerical_by_genus(item[1]))
                it.stop()
                if n != count_up_to_genus(item[1]):
                    it.fail(f"{n} semigroups, A007323 gives "
                            f"{count_up_to_genus(item[1])}")


# -- running a pass ------------------------------------------------------
# On the 2-core machine this benchmark was built on, whose cores other
# tenants share, the same code ran up to 1.5 times slower from one minute
# to the next, so raw wall times of two runs cannot be compared.  Between
# items the pass therefore times a fixed pure-Python reference loop, at
# least every PROBE_EVERY_S, and scales each timed interval by REF_S over
# the median of the reference times taken within PROBE_WINDOW_S of it.
# Reported times are thus "seconds at reference speed": wall seconds on a
# machine where the loop takes exactly REF_S.  Raw wall times are kept
# alongside.

REF_S = 0.001
PROBE_EVERY_S = 0.02
PROBE_WINDOW_S = 1.0


def reference_loop():
    """Fixed work shaped like the library's hot paths, without calling it:
    a bytearray membership sweep and a recursive enumeration of the
    factorizations of 330 over (5, 7, 11).  Under the machine's slow and
    fast spells its time changed by the same factor (about 1.45) as the
    three workloads'; a tight tuple-and-dict loop changed by more."""
    table = bytearray(3000)
    table[0] = 1
    for s in range(1, 3000):
        for g in (7, 11, 13):
            if s >= g and table[s - g]:
                table[s] = 1
                break
    found = {}
    gens = (5, 7, 11)

    def rec(i, rem, suffix):
        if i == 0:
            if rem % gens[0] == 0:
                x = (rem // gens[0],) + suffix
                found[x] = sum(x)
            return
        for k in range(rem // gens[i] + 1):
            rec(i - 1, rem - k * gens[i], (k,) + suffix)

    rec(2, 330, ())
    return sum(table) + len(found)


class PassResult:
    """Timings and failures of one pass.  Item latencies stop at
    ``item.stop()``, before the item's output is checked, and are stored
    by item index; ``segment()`` times library work that is not an item."""

    def __init__(self, n):
        self.raw = [None] * n           # item index -> (start, end)
        self.segments = []              # (start, end) of non-item work
        self.probes = []                # (time, reference loop seconds)
        self.failed = 0
        self.pass_failed = False
        self.errors = []
        self.digest_checked = 0
        for _ in range(3):              # the first calls run cold
            reference_loop()
        self._probe(force=True)

    def _probe(self, force=False):
        now = clock()
        if force or now - self.probes[-1][0] >= PROBE_EVERY_S:
            reference_loop()
            end = clock()
            self.probes.append(((now + end) / 2, end - now))

    def fail_pass(self, message):
        self.pass_failed = True
        self.errors.append(message)

    @contextlib.contextmanager
    def segment(self):
        self._probe()
        start = clock()
        yield
        self.segments.append((start, clock()))
        self._probe()

    @contextlib.contextmanager
    def item(self, index, label):
        self._probe()
        item = _Item()
        try:
            yield item
        except Exception as exc:  # a library error fails the item, not the run
            item.fail(f"{type(exc).__name__}: {exc}")
        item.stop()
        self.raw[index] = (item.start, item.end)
        self._probe()
        if item.errors:
            self.failed += 1
            self.errors.extend(f"{label}: {e}" for e in item.errors)

    def _scaled(self, times, start, end):
        """end - start in seconds at reference speed; times are the probe
        times."""
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, end + PROBE_WINDOW_S)
        near = [p[1] for p in self.probes[lo:hi]] or [self.probes[-1][1]]
        return (end - start) * REF_S / statistics.median(near)

    def summary(self):
        times = [p[0] for p in self.probes]
        done = [r for r in self.raw if r is not None]
        items = len(done)
        failed = self.failed
        if self.pass_failed:  # a wrong corpus or report fails the whole pass
            items = failed = max(items, 1)
        latencies = [None if r is None else self._scaled(times, *r)
                     for r in self.raw]
        spans = done + self.segments
        return {"items": items, "failed": failed, "errors": self.errors[:10],
                "digest_checked": self.digest_checked,
                "latencies_s": latencies,
                "busy_s": sum(self._scaled(times, *r) for r in spans),
                "raw_busy_s": sum(e - s for s, e in spans),
                "ref_s": statistics.median(p[1] for p in self.probes)}


class _Item:
    def __init__(self):
        self.start = clock()
        self.end = None
        self.errors = []

    def stop(self):
        if self.end is None:
            self.end = clock()

    def fail(self, message):
        self.errors.append(message)


_INPUTS = {"verify": _verify_inputs, "analyze": _analyze_inputs,
           "explore": _explore_inputs}
_PASSES = {"verify": _verify_pass, "analyze": _analyze_pass,
           "explore": _explore_pass}


def make_inputs(workload, seed, smoke=False):
    """{"items": [...], ...}: everything a pass needs, from the seed."""
    return _INPUTS[workload](random.Random(seed), smoke)


def pass_order(inputs, seed, k):
    """The order of the items in pass k: a fresh shuffle, so that a slow
    spell of the machine falls on different items in different passes."""
    order = list(range(len(inputs["items"])))
    random.Random(f"{seed}:{k}").shuffle(order)
    return order


def load_expected(workload):
    """Recorded outputs the pass compares against."""
    if workload != "analyze":
        return {}
    return {"digests": load_panel()["digests"]}


def run_pass(workload, inputs, expected, order):
    """Run every item once, in the given order; returns the summary."""
    out = PassResult(len(inputs["items"]))
    try:
        _PASSES[workload](inputs, expected, order, out)
    except Exception as exc:  # outside any item: the pass as a whole fails
        out.fail_pass(f"{type(exc).__name__}: {exc}")
    return out.summary()


def record():
    """Rewrite analyze_panel.json: the pool and the digest of every output
    the default seed's panel produces."""
    pool = pool_members()
    panel = (list(GOLDENS) + pool + list(AFFINE)
             + _fresh_members(random.Random(DEFAULT_SEED)))
    digests = {}
    for gens in panel:
        rc, text = analyze_output(gens)
        if rc != 0:
            raise SystemExit(f"analyze {gens} exited with {rc}")
        digests[gens] = hashlib.sha256(text.encode()).hexdigest()
    with open(PANEL_FILE, "w", encoding="utf-8") as fh:
        json.dump({"pool": pool, "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        raise SystemExit("usage: python3 bench/workloads.py record")
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    record()
