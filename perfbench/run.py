"""Run one workload of the jacklaurent benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one caller, single-threaded; see BENCHMARK.json):
construct-sym, verify-all, construct-num.  Every pass is a fresh
interpreter started from this process, so each timed pass begins with
cold module caches (the caches in `finite_n` and `schur` have no public
reset).  Passes run one after another until the next one would end more
than half a pass past S seconds, with at least MIN_PASSES; so a run
lasts S seconds on average.

--trace 0 reports the end-to-end metrics: wall time of the timed region
and peak resident memory, as medians over the passes, and set-up time
(from the first statement of workload.py through its imports and input
generation, until the first timed call) as the median over the passes
and SETUP_EACH extra starts before each pass.  Bytecode is read from a
cache under perfbench/out/ that the first start fills, so set-up time is
warm-import time whether or not src/ holds __pycache__ directories.  The
median per-item time and the highest per-item percentile with ten items
beyond it go to the detail line only: on the shared 2-vCPU host they
spread too much between runs to hold a bound (see baseline.json).
--trace 1 runs two traced passes, each followed by an untraced one,
requires the exact counts of the traced passes to agree, and reports the
per-layer metrics and the tracing overhead: traced minus untraced wall
time, the median over the two pairs.  It lasts as long as its four
passes, whatever S is.  Spans go to perfbench/out/.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it records the environment and
every pass.  Exits 1 without a result if a pass cannot run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
PYCACHE = os.path.join(OUT, "pycache")
WORKLOAD_PY = os.path.join(HERE, "workload.py")

WORKLOADS = ("construct-sym", "verify-all", "construct-num")
MIN_PASSES = 3
SETUP_EACH = 5
PASS_TIMEOUT_S = 120
# Stop starting passes once the run could pass this; the limit is 180 s.
DEADLINE_S = 150

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# Pass fields that must agree exactly between the two traced passes.
EXACT_FIELDS = ("attempted", "failed", "singular", "verify_checks",
                "verify_failed", "span_counts")

# Warm imports from a bytecode cache of the benchmark's own.
PINNED_ENV = {"PYTHONHASHSEED": "0", "PYTHONPYCACHEPREFIX": PYCACHE}


def _env():
    env = dict(os.environ)
    # One suite worker, the default; the thread pool is slower.
    env.pop("JACKLAURENT_WORKERS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PINNED_ENV)
    return env


def environment():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "env": dict(PINNED_ENV, JACKLAURENT_WORKERS=None,
                        PYTHONDONTWRITEBYTECODE=None,
                        PYTHONPYCACHEPREFIX=os.path.relpath(PYCACHE, ROOT))}


def spawn(workload, seed, mode, spans_out=None):
    """Run one pass in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, WORKLOAD_PY, workload, str(seed), mode]
    if spans_out:
        cmd.append(spans_out)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("%s pass of %s timed out" % (mode, workload))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("%s pass of %s exited with %d"
                 % (mode, workload, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def timed_passes(workload, seed, seconds, started):
    """Plain passes until the next would end more than half a pass past
    `seconds`, each after SETUP_EACH set-up-only starts.  Returns the
    passes and the set-up times of all starts."""
    passes, setups = [], []
    while True:
        elapsed = time.monotonic() - started
        per_pass = elapsed / max(len(passes), 1)
        if (len(passes) >= MIN_PASSES and elapsed + per_pass / 2 > seconds) \
                or elapsed + per_pass > DEADLINE_S:
            return passes, setups
        setups += [spawn(workload, seed, "setup")["setup_s"]
                   for _ in range(SETUP_EACH)]
        passes.append(spawn(workload, seed, "plain"))
        setups.append(passes[-1]["setup_s"])


def item_stats(ms):
    """Median item time and the highest percentile with ten items
    beyond it."""
    ms = sorted(ms)
    n = len(ms)
    return {"items": n, "item_p50_ms": statistics.median(ms),
            "item_tail_ms": ms[n - 11] if n > 10 else ms[-1],
            "item_tail_pct": round(100.0 * max(n - 10, 1) / n, 1)}


def end_to_end(workload, seed, seconds, started):
    spawn(workload, seed, "setup")  # fills the bytecode cache
    passes, setups = timed_passes(workload, seed, seconds, started)
    for p in passes:
        p.update(item_stats(p.pop("item_ms")))
    metrics = {name: {"value": statistics.median(p[name] for p in passes),
                      "unit": unit} for name, unit in END_TO_END}
    metrics["setup_s"]["value"] = statistics.median(setups)
    items = {k: statistics.median(p[k] for p in passes)
             for k in ("item_p50_ms", "item_tail_ms")}
    return passes, metrics, True, {"setup_samples": setups, "items": items,
                                   "singular": passes[0]["singular"]}


def per_layer(workload, seed, seconds, started):
    os.makedirs(OUT, exist_ok=True)
    # Each traced pass is followed at once by an untraced one, so that
    # the overhead compares passes that ran in the same host state.
    traced, plain = [], []
    for i in (1, 2):
        traced.append(spawn(workload, seed, "traced", os.path.join(
            OUT, "%s-%d.spans.json.gz" % (workload, i))))
        plain.append(spawn(workload, seed, "plain"))
    first, second = traced
    same = all(first[f] == second[f] for f in EXACT_FIELDS) and all(
        first["layers"][m] == second["layers"][m]
        for m in first["layers"] if not m.endswith("_s"))
    values = dict(first["layers"])
    for m in values:
        if m.endswith("_s"):
            values[m] = statistics.median(p["layers"][m] for p in traced)
    values["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for t, p in zip(traced, plain))
    values["jack.singular_points"] = first["singular"]
    values["verify.checks"] = first["verify_checks"]
    values["verify.failed"] = first["verify_failed"]
    metrics = {m: {"value": v, "unit": _unit(m)}
               for m, v in sorted(values.items())}
    for p in traced + plain:
        p.pop("span_counts", None)
        p.pop("item_ms")
    return traced + plain, metrics, same, {"traced_passes": 2,
                                           "counts_repeat": same}


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "ratio"
    if metric.endswith("_max"):
        return "terms"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    measure = per_layer if args.trace else end_to_end
    passes, metrics, repeat_ok, extra = measure(
        args.workload, args.seed, args.seconds, started)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "passes": passes,
              "run_s": time.monotonic() - started}
    detail.update(extra)
    print(json.dumps(detail, sort_keys=True))
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({"correct": failed == 0 and repeat_ok,
                      "attempted": sum(p["attempted"] for p in passes),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
