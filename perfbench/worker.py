"""One workload process: set up, then run whole rounds of ops for a while.

Started by ``run.py`` with the library's ``src`` directory and the process
start time (``PERFBENCH_T0``, a ``time.monotonic`` reading, which Linux
shares across processes) in the environment.  Prints one JSON object.

Modes:
  setup    build the inputs, report the set-up time and the input hash
  measure  set up, then time whole rounds of ops (untraced) until they have
           taken ``--seconds``
  trace    set up, then alternate untraced and traced runs of each round

Setup and measure processes also time a fixed calibration loop: twice right
after set-up, then at least once a second between rounds and once at the
end (``run.py`` scales the timings by it; see CAL_REF_S there).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import laxkit  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

CAL_EVERY_S = 1.0


def calibrate():
    """Seconds taken by a fixed mix of plain-Python, Fraction and small-array
    numpy work that does not touch the library: a probe of host speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i
    a = np.arange(9.0).reshape(3, 3) + 1j
    for _ in range(3000):
        a = a + (np.sin(a) * np.cos(a)).sum() * 1e-12
    x = Fraction(1, 3)
    for i in range(3000):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
    return time.perf_counter() - t0


def _run_op(op):
    """(latency seconds, failure reason or None); the check is not timed."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    lat = time.perf_counter() - t0
    return lat, op.check(out)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _record(fails, label, reason):
    """Count a failed op under its label."""
    entry = fails.setdefault(label, [reason, 0])
    entry[1] += 1


def measure(wl, seconds, cals):
    """Time whole rounds until the ops have taken ``seconds``.  Calibration
    runs between rounds, at least once a second and once more at the end,
    and is not part of the timed phase.  Each round records its op count,
    its time and the index of the calibration made just before it."""
    lat, fails, rounds = [], {}, []
    ops_s = 0.0
    last_cal = time.perf_counter()
    r = 0
    while ops_s < seconds:
        t0 = time.perf_counter()
        ops = wl.round_ops(r)
        for op in ops:
            dt, reason = _run_op(op)
            lat.append(dt)
            if reason is not None:
                _record(fails, op.label, reason)
        dt = time.perf_counter() - t0
        ops_s += dt
        rounds.append((len(ops), dt, len(cals) - 1))
        r += 1
        if ops_s >= seconds or time.perf_counter() - last_cal >= CAL_EVERY_S:
            cals.append(calibrate())
            last_cal = time.perf_counter()
    return {"rounds": rounds, "ops_s": ops_s, "latencies_s": lat,
            "failures": sorted([label, *v] for label, v in fails.items())}


def trace(wl, tracer, seconds, spans_path):
    from layers import SETUP_LAYERS

    setup_metrics = tracer.setup_self_s(SETUP_LAYERS)
    since = tracer.totals()
    untraced = {"n": 0, "s": 0.0, "fail": {}}
    traced = {"n": 0, "s": 0.0, "fail": {}}
    labels_seen = set()
    t_start = time.perf_counter()
    r = 0
    while True:
        ops = wl.round_ops(r)
        for op in ops:
            dt, reason = _run_op(op)
            untraced["n"] += 1
            untraced["s"] += dt
            if reason is not None:
                _record(untraced["fail"], op.label, reason)
        tracer.install()
        try:
            for op in ops:
                tracer.begin_op(op.label)
                dt, reason = _run_op(op)
                traced["n"] += 1
                traced["s"] += dt
                if reason is not None:
                    _record(traced["fail"], op.label, reason)
                labels_seen.add(op.label)
        finally:
            tracer.uninstall()
        r += 1
        if time.perf_counter() - t_start >= seconds:
            break
    mismatches = sorted(
        label for label in labels_seen if untraced["fail"].get(label) != traced["fail"].get(label)
    )
    metrics = {
        "trace.ops": traced["n"],
        "trace.ops_per_s": traced["n"] / traced["s"],
        "trace.untraced_ops_per_s": untraced["n"] / untraced["s"],
        "trace.slowdown": traced["s"] / untraced["s"],
        "trace.outcome_mismatches": len(mismatches),
    }
    metrics.update(setup_metrics)
    metrics.update(tracer.per_layer(traced["n"], since=since))
    baseline = _baseline_rows(tracer)
    tracer.write(spans_path, {"workload": wl.name, "inputs_sha256": wl.inputs_sha256,
                              "baseline": baseline})
    return {
        "rounds": r,
        "metrics": metrics,
        "mismatches": mismatches,
        "failures": sorted([label, *v] for label, v in untraced["fail"].items()),
        "traced_failures": sorted([label, *v] for label, v in traced["fail"].items()),
        "bindings": tracer.bindings,
        "spans_recorded": tracer.n_spans,
        "spans_path": os.path.relpath(spans_path, ROOT),
        "baseline": baseline,
    }


# Per-call figures from the baseline section of the roadmap (2 cores,
# Python 3.11.7, numpy 2.4.6), set next to the traced inclusive per-call
# times.  Traced times include the wrappers of traced child calls.
ROADMAP_BASELINE = (
    ("equations_of_motion A3", "calogero.equations_of_motion", "A3", 1, 202.0),
    ("rk4 step A3 (integrate / steps)", "calogero.integrate", "A3", None, 743.0),
    ("lax_matrix A3", "calogero.lax_matrix", "A3", 1, 590.0),
    ("lax_matrix C3", "calogero.lax_matrix", "C3", 1, 1800.0),
    ("residue H A3 (residue_hamiltonian)", "calogero.residue_hamiltonian", "A3", 1, 46000.0),
    ("residue H C3 (residue_hamiltonian)", "calogero.residue_hamiltonian", "C3", 1, 118000.0),
)


def _baseline_rows(tracer):
    rows = []
    for what, layer, label, per, base_us in ROADMAP_BASELINE:
        got = tracer.per_call_by_label(layer, label)
        if got is None:
            continue
        calls, mean_s = got
        if per is None:  # integrate: one call covers round(T / dt) rk4 steps
            mean_s /= round(workloads.DYN_T / workloads.DYN_DT)
        rows.append({"what": what, "traced_us": round(mean_s * 1e6, 2), "roadmap_us": base_us,
                     "calls": calls})
    idx = next(i for i, layer in enumerate(tracer.layers) if layer.name == "elliptic.Lattice.wp_prime")
    if tracer.work[idx]:
        rows.append({"what": "wp_prime per argument", "roadmap_us": 0.41,
                     "traced_us": round(1e6 * tracer.incl_s[idx] / tracer.work[idx], 3),
                     "calls": tracer.calls[idx]})
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spans", help="span output path (trace mode)")
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(laxkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"laxkit imported from {laxkit.__file__}, not from {src}")
    t0 = float(os.environ.get("PERFBENCH_T0", time.monotonic()))

    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin_op("setup")
        try:
            wl = workloads.build(args.workload, args.seed)
        finally:
            tracer.uninstall()
    else:
        wl = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - t0
    out = {"setup_s": setup_s, "inputs_sha256": wl.inputs_sha256}
    if args.mode != "trace":
        out["calibration_s"] = [calibrate(), calibrate()]
    if args.mode == "measure":
        out.update(measure(wl, args.seconds, out["calibration_s"]))
    elif args.mode == "trace":
        out.update(trace(wl, tracer, args.seconds, args.spans))
    out["unexpected_failures"] = [
        f for f in out.get("failures", []) + out.get("traced_failures", [])
        if not workloads.is_known_red(wl, f[0], f[1])
    ]
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
