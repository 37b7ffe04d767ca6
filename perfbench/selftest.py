"""Self-test of the benchmark, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it makes a one-second run with and without tracing and
asserts that the result line has exactly the keys and metrics (names and
units) that BENCHMARK.json declares, a non-zero op count, no unexpected
failure and no check outcome changed by tracing.  It asserts that one seed
gives the same input hash in two processes and another seed a different
one, and that run.py exits non-zero without a result in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _result(workload, trace):
    proc = _run(["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(res, declared, workload, trace):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True, (workload, trace)
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want, (workload, trace, set(got) ^ set(want))
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    if trace:
        assert res["metrics"]["trace.ops"]["value"] >= 1
        assert res["metrics"]["trace.outcome_mismatches"]["value"] == 0
    else:
        for name, m in res["metrics"].items():
            assert m["value"] > 0, (workload, name, m)


def _input_hash(workload, seed):
    proc = _run(["perfbench/worker.py", "--workload", workload, "--seed", str(seed),
                 "--mode", "setup"])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["inputs_sha256"]


def _check_bare_directory():
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(HERE):
            if name.endswith((".py", ".md")):
                shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
        proc = _run(["perfbench/run.py", "--workload", "cm-residue", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, proc.stdout
        for line in proc.stdout.splitlines():
            assert not line.startswith("{"), line
    finally:
        shutil.rmtree(bare)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for wl in bench["workloads"]:
        name = wl["name"]
        res = _result(name, 0)
        _check_result(res, bench["end_to_end"], name, 0)
        print(f"ok {name} --trace 0: {res['attempted']} ops, {res['failed']} failed")
        res = _result(name, 1)
        _check_result(res, bench["per_layer"], name, 1)
        print(f"ok {name} --trace 1: {res['metrics']['trace.ops']['value']} traced ops")
        h1, h2, h3 = _input_hash(name, 7), _input_hash(name, 7), _input_hash(name, 8)
        assert h1 == h2 != h3, (name, h1, h2, h3)
        print(f"ok {name} inputs: seed 7 -> {h1[:16]} twice, seed 8 -> {h3[:16]}")
    _check_bare_directory()
    print("ok run.py exits non-zero without a result when the library sources are missing")


if __name__ == "__main__":
    main()
