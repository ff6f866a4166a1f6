"""One benchmark process; ``run.py`` starts it and reads its last stdout line.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS [--smoke]

Modes:
  setup     import the package and generate the inputs; report the time,
            scaled to reference speed by reference loops run right after
  measure   set up, then run whole passes for about SECONDS (at least
            three); report item latencies, per-pass busy time, peak RSS
  untraced  set up and run one pass with the package unpatched
  traced    set up, install the tracer, run the same pass twice; report
            the per-layer metrics of the first and whether every call
            count repeated exactly in the second
"""

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
MIN_PASSES = 3  # for a median over passes
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (benchmark code; does not import the package)


def setup(workload, seed, smoke):
    """Import the package and generate the inputs; (inputs, seconds)."""
    t0 = time.perf_counter()
    import semigroups  # noqa: F401
    import semigroups.cli  # noqa: F401
    inputs = workloads.make_inputs(workload, seed, smoke)
    return inputs, time.perf_counter() - t0


def reference_s(repeats=5):
    """Median time of the reference loop, after two cold calls."""
    times = []
    for _ in range(repeats + 2):
        t = time.perf_counter()
        workloads.reference_loop()
        times.append(time.perf_counter() - t)
    return statistics.median(times[2:])


def measure(workload, seed, seconds, smoke):
    """Whole passes while the next one, as long as the last, still ends
    within SECONDS; never fewer than MIN_PASSES."""
    inputs, _ = setup(workload, seed, smoke)
    expected = workloads.load_expected(workload)
    passes = []
    start = last = time.perf_counter()
    while True:
        order = workloads.pass_order(inputs, seed, len(passes))
        passes.append(
            workloads.run_pass(workload, inputs, expected, order))
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now + (now - last) - start > seconds:
            break
        last = now
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "maxrss_kb": maxrss_kb}


def untraced(workload, seed, smoke):
    inputs, _ = setup(workload, seed, smoke)
    order = workloads.pass_order(inputs, seed, 0)
    return {"pass": workloads.run_pass(
        workload, inputs, workloads.load_expected(workload), order)}


def traced(workload, seed, smoke):
    inputs, _ = setup(workload, seed, smoke)
    expected = workloads.load_expected(workload)
    order = workloads.pass_order(inputs, seed, 0)
    import tracer as tracing
    tr = tracing.install(tracing.Tracer())
    first = workloads.run_pass(workload, inputs, expected, order)
    metrics = tr.metrics()
    counts = tr.call_counts()
    tr.log_spans = False
    tr.reset()
    second = workloads.run_pass(workload, inputs, expected, order)
    again = tr.call_counts()
    differ = sorted(name for name in set(counts) | set(again)
                    if counts.get(name) != again.get(name))
    os.makedirs(OUT_DIR, exist_ok=True)
    # one file a workload, overwritten by the next traced run
    spans_file = os.path.join(OUT_DIR, f"spans-{workload}.csv.gz")
    spans = tr.write_spans(spans_file)
    return {"passes": [first, second], "metrics": metrics,
            "call_counts": counts, "counts_differ": differ,
            "spans": spans, "spans_file": os.path.relpath(spans_file, ROOT)}


def main(argv):
    mode, workload, seed, seconds = argv[:4]
    seed, seconds = int(seed), float(seconds)
    smoke = "--smoke" in argv[4:]
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    if mode == "setup":
        raw = setup(workload, seed, smoke)[1]
        result = {"setup_s": raw * workloads.REF_S / reference_s(),
                  "raw_setup_s": raw}
    elif mode == "measure":
        result = measure(workload, seed, seconds, smoke)
    elif mode == "untraced":
        result = untraced(workload, seed, smoke)
    elif mode == "traced":
        result = traced(workload, seed, smoke)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
