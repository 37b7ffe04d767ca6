"""laxkit benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/README.md): exact-closure,
sphere-slices, cm-dynamics, cm-residue.  Each runs in processes of its own,
single-threaded, with inputs generated from the seed.

--trace 0  runs SETUP_REPEATS processes: all but the last only set up, the
           last also times whole rounds of ops until they have taken S
           seconds.  Prints the end-to-end metrics: setup_s (median over the
           processes), ops_per_s, op_p50_ms, op_p90_ms, peak_rss_mb.  Times
           are scaled to a reference host speed (see CAL_REF_S); the raw
           figures are printed above the result.
--trace 1  runs one process that alternates an untraced and a traced pass
           over each round for S seconds, and prints the per-layer metrics
           (per traced op) and the tracing overhead; the spans go to
           perfbench/out/.

Lines before the last describe the host, the inputs and the failing ops; the
last line is the JSON result.  The exit code is non-zero, with no result
printed, when the library sources are missing or a process fails.
"""

from __future__ import annotations

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
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("exact-closure", "sphere-slices", "cm-dynamics", "cm-residue")
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 170.0          # every run must end within 180 s

# Host-speed scaling.  On the shared 2-core development host the speed of
# plain computation drifts by up to a factor of two over minutes, and every
# timing moves with it.  Each process therefore times a fixed calibration
# loop that does not touch the library (worker.calibrate): twice right after
# set-up, then at least once a second between rounds and once at the end.
# Each time is multiplied by CAL_REF_S / (the calibration time around it):
# for a set-up, the two calibrations after it; for an op, the calibrations
# just before and after its round.  CAL_REF_S is the loop's typical time on
# the development host, so the times read as times at that host speed.  The
# scaling cannot hide a change in the library, because the loop runs no
# library code.  On that host, over six runs of exact-closure, it cut the
# spread (IQR / median) of op_p50_ms and op_p90_ms from about 6% with one
# factor per run to about 2%.
CAL_REF_S = 0.05


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _host():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def _spawn(args, mode, seconds, t_end, extra=()):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode, *extra]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PERFBENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, t_end - time.monotonic()))
    except subprocess.TimeoutExpired:
        _fail(f"{mode} process for {args.workload} exceeded the time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        _fail(f"{mode} process for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _describe_failures(failures):
    """Failures grouped by input family: label (reason) xcount [inputs]."""
    groups = {}
    for label, reason, count in failures:
        base, _, inp = label.partition("#")
        g = groups.setdefault((base, reason), [0, []])
        g[0] += count
        g[1].append(f"#{inp}")
    return "; ".join(f"{base} ({reason}) x{count} [{' '.join(inputs)}]"
                     for (base, reason), (count, inputs) in sorted(groups.items())) or "none"


def _speed(calibrations):
    """Factor by which this host was slower than the reference."""
    return statistics.fmean(calibrations) / CAL_REF_S


def _scaled(main):
    """Latencies and round times divided by the host-speed factor of their
    round: the mean of the calibrations made just before and just after it."""
    cals = main["calibration_s"]
    lat, ops_s, i = [], 0.0, 0
    for n_ops, dt, k in main["rounds"]:
        f = _speed(cals[k:k + 2])
        lat += [x / f for x in main["latencies_s"][i:i + n_ops]]
        ops_s += dt / f
        i += n_ops
    return lat, ops_s


def _p90(lat):
    return statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]


def run_measure(args, t_end):
    setups = [_spawn(args, "setup", 0, t_end) for _ in range(SETUP_REPEATS - 1)]
    main = _spawn(args, "measure", args.seconds, t_end)
    runs = setups + [main]
    hashes = {r["inputs_sha256"] for r in runs}
    n = len(main["latencies_s"])
    failed = sum(count for _, _, count in main["failures"])
    lat, ops_s = _scaled(main)
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "ops_per_s": n / main["ops_s"],
        "op_p50_ms": 1e3 * statistics.median(main["latencies_s"]),
        "op_p90_ms": 1e3 * _p90(main["latencies_s"]),
    }
    metrics = {
        "setup_s": _metric(statistics.median(
            r["setup_s"] / _speed(r["calibration_s"][:2]) for r in runs), "s"),
        "ops_per_s": _metric(n / ops_s, "1/s"),
        "op_p50_ms": _metric(1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": _metric(1e3 * _p90(lat), "ms"),
        "peak_rss_mb": _metric(main["peak_rss_mb"], "MB"),
    }
    print(f"# inputs_sha256 {main['inputs_sha256']}"
          f" ({'identical' if len(hashes) == 1 else 'DIFFERENT'} in {len(runs)} processes)")
    print("# setup_s per process: " + ", ".join(f"{r['setup_s']:.4f}" for r in runs))
    print(f"# {n} ops in {len(main['rounds'])} rounds, {main['ops_s']:.3f} s timed;"
          f" fail_ratio {failed / n:.4f} ({failed}/{n})")
    print("# failing ops: " + _describe_failures(main["failures"]))
    if main["unexpected_failures"]:
        print("# UNEXPECTED failures: " + _describe_failures(main["unexpected_failures"]))
    cals = main["calibration_s"]
    print(f"# host speed: calibration {1e3 * min(cals):.2f} to {1e3 * max(cals):.2f} ms"
          f" ({len(cals)} samples) against {1e3 * CAL_REF_S:.0f} ms; times scaled round by round")
    print("# raw: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    correct = len(hashes) == 1 and not main["unexpected_failures"]
    return {"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}


def run_trace(args, t_end):
    sys.path.insert(0, HERE)
    from layers import per_layer_metrics

    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.json")
    res = _spawn(args, "trace", args.seconds, t_end, extra=("--spans", spans))
    m = res["metrics"]
    n = m["trace.ops"]
    failed = sum(count for _, _, count in res["failures"] + res["traced_failures"])
    print(f"# inputs_sha256 {res['inputs_sha256']}")
    print(f"# tracing overhead: traced {m['trace.ops_per_s']:.4g} ops/s against untraced"
          f" {m['trace.untraced_ops_per_s']:.4g} ops/s (op time x{m['trace.slowdown']:.3f});"
          f" {n} ops each way in {res['rounds']} rounds;"
          f" check outcomes changed by tracing: {len(res['mismatches'])}")
    print("# failing ops (untraced): " + _describe_failures(res["failures"]))
    print("# failing ops (traced): " + _describe_failures(res["traced_failures"]))
    if res["unexpected_failures"]:
        print("# UNEXPECTED failures: " + _describe_failures(res["unexpected_failures"]))
    print(f"# spans: {res['spans_recorded']} recorded, written to {res['spans_path']}")
    print("# bindings wrapped: " + json.dumps(res["bindings"]))
    for row in res["baseline"]:
        print(f"# per call, traced vs roadmap baseline: {row['what']}: {row['traced_us']} us"
              f" vs {row['roadmap_us']} us ({row['calls']} calls)")
    metrics = {name: _metric(m[name], unit) for name, unit, _ in per_layer_metrics()}
    correct = not res["mismatches"] and not res["unexpected_failures"]
    return {"correct": correct, "attempted": 2 * n, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_end = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "laxkit", "__init__.py")):
        _fail(f"library sources not found under {os.path.join(ROOT, 'src', 'laxkit')}")
    print("# host " + json.dumps(_host()))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    result = (run_trace if args.trace else run_measure)(args, t_end)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
