"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {verify,analyze,explore} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --smoke

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it and
``bench/out/result-<workload>-seed<N>-trace<T>.json`` hold the
environment and the details (tail percentile and item count, failed
fraction, every call count).  ``--smoke`` runs every workload at a tiny
size in both modes and checks the printed metric names and units against
``BENCHMARK.json`` and that a wrong recorded digest fails an item.

One process, one thread generates the load: a closed loop over the items
of a pass.  See README.md in this directory for the workloads and layers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
BUDGET_S = 170  # every run ends within 180 s
SETUP_PROBES = 9  # plus one discarded probe that warms the bytecode cache
TAIL_BEYOND = 10

sys.path.insert(0, HERE)
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"items_per_s": "1/s", "item_p50_ms": "ms",
              "item_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {}
for _layer in tracer.LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.calls"] = "count"
PER_LAYER.update({
    "factor.fiber_calls": "count", "factor.raw_fiber_calls": "count",
    "factor.fiber_hit_ratio": "ratio", "factor.factorizations": "count",
    "semigroup.contains_calls": "count",
    "semigroup.make_semigroup_calls": "count", "betti.betti_found": "count",
    "trace.overhead_ratio": "ratio"})
PER_LAYER.update({name: "s" for name in tracer.INCLUSIVE})


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes within the run's time budget."""

    def __init__(self, workload, seed, seconds, smoke):
        self.args = [workload, str(seed), str(seconds)]
        self.smoke = smoke
        self.deadline = time.monotonic() + BUDGET_S

    def __call__(self, mode):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"time budget spent before the {mode} worker")
        cmd = [sys.executable, WORKER, mode] + self.args
        if self.smoke:
            cmd.append("--smoke")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker passed the time budget") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} worker exited with {proc.returncode}:"
                             f"\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """Latency at the highest percentile with at least TAIL_BEYOND items
    beyond it: (value, percentile).  Falls back to the maximum when there
    are too few items."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _failures(passes):
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]][:10]
    return attempted, failed, errors


def end_to_end(run):
    probes = [run("setup") for _ in range(SETUP_PROBES + 1)][1:]
    res = run("measure")
    passes = res["passes"]
    # Every pass runs the same items in a new order.  An item's latency is
    # its median over the passes, which discounts a slow spell of the
    # machine; p50 and tail are taken over these per-item medians, so the
    # tail's percentile does not depend on how many passes fit in the run.
    per_item = []
    for i in range(len(passes[0]["latencies_s"])):
        times = [p["latencies_s"][i] for p in passes
                 if p["latencies_s"][i] is not None]
        if times:
            per_item.append(statistics.median(times))
    if not per_item:
        raise BenchError(f"no item completed: {passes[0]['errors']}")
    tail_s, tail_pct = tail(per_item)
    attempted, failed, errors = _failures(passes)
    metrics = {
        "items_per_s": statistics.median(p["items"] / p["busy_s"]
                                         for p in passes),
        "item_p50_ms": 1000 * statistics.median(per_item),
        "item_tail_ms": 1000 * tail_s,
        "peak_rss_mb": res["maxrss_kb"] / 1024,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
    }
    details = {"tail_percentile": tail_pct, "items_per_pass": len(per_item),
               "passes": len(passes),
               "pass_items_per_s": [p["items"] / p["busy_s"] for p in passes],
               "raw_items_per_s": statistics.median(
                   p["items"] / p["raw_busy_s"] for p in passes),
               "pass_ref_s": [p["ref_s"] for p in passes],
               "latencies_s": [p["latencies_s"] for p in passes],
               "raw_setup_s": statistics.median(
                   p["raw_setup_s"] for p in probes),
               "digest_checked": sum(p["digest_checked"] for p in passes)}
    return metrics, attempted, failed, errors, details


def per_layer(run):
    base = run("untraced")["pass"]
    res = run("traced")
    first = res["passes"][0]
    metrics = dict(res["metrics"])
    metrics["trace.overhead_ratio"] = first["busy_s"] / base["busy_s"]
    attempted, failed, errors = _failures([base] + res["passes"])
    if res["counts_differ"]:
        failed += 1
        errors.append("call counts differ between two repetitions: "
                      + ", ".join(res["counts_differ"][:10]))
    details = {"untraced_busy_s": base["busy_s"],
               "traced_busy_s": first["busy_s"],
               "spans": res["spans"], "spans_file": res["spans_file"],
               "call_counts": res["call_counts"]}
    return metrics, attempted, failed, errors, details


def environment(seed):
    env = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
           "seed": seed, "git_commit": "unknown"}
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            env["loadavg"] = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        env["loadavg"] = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.samefile(lines[0], ROOT):
            env["git_commit"] = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return env


def bench(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns the result line and the full record."""
    env = environment(seed)
    run = Runner(workload, seed, seconds, smoke)
    metrics, attempted, failed, errors, details = (
        per_layer if trace else end_to_end)(run)
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"workload": workload, "trace": trace, "env": env,
              "failed_frac": failed / attempted if attempted else 1.0,
              "errors": errors, **details}
    return result, record


def _check_layout():
    if not os.path.isfile(os.path.join(ROOT, "src", "semigroups",
                                       "__init__.py")):
        raise BenchError(f"no package at {os.path.join(ROOT, 'src')}; run "
                         "from a checkout of the repository")


def smoke():
    """Self-test; returns a list of problems (empty when all is well)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, record = bench(workload, 1, 0, trace, smoke=True)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{workload} trace {trace}: metrics "
                                f"{printed} != declared {declared[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace} failed: "
                                f"{record['errors']}")
            if workload == "analyze" and not trace and \
                    not record["digest_checked"]:
                problems.append("analyze checked no digest")
            if trace and workload == "explore":
                for name in ("factor.calls", "classify.calls"):
                    if result["metrics"][name]["value"] != 0:
                        problems.append(f"explore reached {name}")
    # a wrong recorded digest must fail its item
    sys.path.insert(0, os.path.join(ROOT, "src"))
    inputs = workloads.make_inputs("analyze", 1, smoke=True)
    expected = workloads.load_expected("analyze")
    wrong = {"digests": {g: "0" * 64 for g in expected["digests"]}}
    order = workloads.pass_order(inputs, 1, 0)
    res = workloads.run_pass("analyze", inputs, wrong, order)
    if res["failed"] != res["items"] or not res["items"]:
        problems.append(f"wrong digests failed {res['failed']} of "
                        f"{res['items']} items")
    return problems + _untraced_bindings()


# Names bound outside their defining module, and methods patched on the
# class; a call through any of them must reach a wrapper.
TRACED_BINDINGS = {
    "classify": ("betti_elements", "free_arrangement",
                 "is_complete_intersection", "is_free", "betti_minimals",
                 "isolated_profile", "minimal_multi_elements"),
    "explore": ("make_semigroup", "betti_divisible_from_params"),
    "construct": ("betti_elements", "make_semigroup"),
    "semigroup.Semigroup": ("contains", "apery", "frobenius"),
    "semigroup.SubMonoid": ("contains",),
}


def _untraced_bindings():
    """Install the tracer in this process (so call it last) and list the
    bindings above that still reach an unwrapped function."""
    import importlib
    tracer.install(tracer.Tracer())
    missing = []
    for where, names in TRACED_BINDINGS.items():
        module, _, cls = where.partition(".")
        ns = importlib.import_module(f"semigroups.{module}")
        ns = getattr(ns, cls) if cls else ns
        missing += [f"{where}.{name} is not traced" for name in names
                    if not hasattr(getattr(ns, name), "__wrapped__")]
    return missing


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    try:
        _check_layout()
        if args.smoke:
            problems = smoke()
            for p in problems:
                print(f"smoke: {p}", file=sys.stderr)
            print("smoke: " + ("FAIL" if problems else "ok"))
            return 1 if problems else 0
        if args.workload is None:
            ap.error("--workload is required")
        result, record = bench(args.workload, args.seed, args.seconds,
                               args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    record["metrics"] = result["metrics"]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for err in record["errors"]:
        print(f"bench: {err}", file=sys.stderr)
    summary = {k: record[k] for k in record
               if k not in ("metrics", "call_counts", "errors", "latencies_s")}
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
