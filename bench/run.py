"""Benchmark of cubicontact: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-catalog --seed 1 --seconds 25 --trace 0

One closed-loop caller: each iteration is a fresh single-threaded worker
process (bench/worker.py) that imports the package, builds the inputs
and makes the workload's calls back to back; iterations run one after
another until ``--seconds`` is used up (at least three).  The seed goes to
the program as ``--seed`` / ``seed=``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``run_s`` is the mean iteration rescaled to a reference machine speed
(see reference_speed_s): on a shared machine identical iterations were
seen to differ by up to 40 %.  ``setup_s`` and ``peak_rss_mb`` are
medians.
``--trace 1`` alternates untraced and traced iterations, and reports
the per-layer metrics (medians over the traced iterations) and the
tracing overhead.

Every iteration must produce the same report bytes and the same exact
work counters, traced or not, and so must every earlier run of the same
workload and seed on the same sources (state kept under .bench_out/);
otherwise the run is not ``correct``.  Verdicts that differ from the
benchmark's own reference (bench/reference.py) are counted in
``failed``, out of ``attempted`` verdicts per workload pass.

The last line of standard output is the result JSON; the line before it
holds the details: per-iteration figures, counters, mismatched verdicts
and machine info.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import layer_metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ITERATIONS = 3
SETUP_REPEATS = 5  # extra set-up-only processes, pooled with the iterations
DEADLINE_S = 170  # whole run, so that it ends within 180 s
# Mean of worker.calibration_s() on the reference machine (2-core x86_64
# KVM guest shared with other tenants, CPython 3.11.7); run_s is in
# seconds at this speed.
CALIBRATION_REF_S = 0.03
OUT_DIR = ".bench_out"


class BenchError(RuntimeError):
    pass


def spawn(root: Path, job: dict, deadline: float) -> dict:
    job = dict(job, t_spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
        cwd=root,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {DEADLINE_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for folder in (root / "src", BENCH_DIR):
        for path in sorted(folder.rglob("*.py")):
            h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(root: Path, name: str, spec: dict, seed: int, seconds: float, trace: bool):
    """Iterations and set-up repeats of one workload; returns (result, details)."""
    deadline = time.monotonic() + DEADLINE_S
    scratch = root / OUT_DIR / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    job = {"spec": spec, "seed": seed, "setup_only": False}
    try:
        setups = [
            spawn(root, dict(job, trace=False, setup_only=True, out=str(scratch / f"setup{i}")), deadline)["setup_s"]
            for i in range(SETUP_REPEATS)
        ]
        iterations = []
        start = time.monotonic()
        while True:
            traced = trace and len(iterations) % 2 == 1
            t = time.monotonic()
            rec = spawn(root, dict(job, trace=traced, out=str(scratch / f"it{len(iterations)}")), deadline)
            rec["traced"], rec["wall_s"] = traced, time.monotonic() - t
            iterations.append(rec)
            now = time.monotonic()
            if now + rec["wall_s"] > deadline:
                break
            if len(iterations) >= MIN_ITERATIONS and now - start + rec["wall_s"] > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if trace and len(iterations) < 2:
        raise BenchError(f"no traced iteration fits in {DEADLINE_S} s")
    return summarize(root, name, seed, trace, setups, iterations)


def summarize(root: Path, name: str, seed: int, trace: bool, setups, iterations):
    problems = []
    first = iterations[0]
    for key in ("digest", "counters", "mismatches"):
        if any(rec[key] != first[key] for rec in iterations):
            problems.append(f"{key} differs between iterations of one run")

    state_path = root / OUT_DIR / "state" / f"{name}-seed{seed}.json"
    state = {"source": source_digest(root), "digest": first["digest"], "counters": first["counters"]}
    try:
        previous = json.loads(state_path.read_text())
    except (OSError, ValueError):
        previous = None
    if previous and previous["source"] == state["source"]:
        for key in ("digest", "counters"):
            if previous[key] != state[key]:
                problems.append(f"{key} differs from an earlier run of this seed")
    else:
        state_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = state_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state))
        os.replace(tmp, state_path)

    plain = [rec for rec in iterations if not rec["traced"]]
    traced = [rec for rec in iterations if rec["traced"]]
    median = statistics.median
    if trace:
        metrics = {
            metric: {"value": median(rec["layers"][metric] for rec in traced), "unit": unit_of(metric)}
            for metric in layer_metric_names()
        }
        overhead = reference_speed_s(traced) / reference_speed_s(plain) - 1
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        attempted, wrong = first["attempted"], first["wrong"]
        metrics = {
            "setup_s": {"value": median(setups + [r["setup_s"] for r in plain]), "unit": "s"},
            "run_s": {"value": reference_speed_s(plain), "unit": "s"},
            "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
            "verdict_accuracy": {"value": 100.0 * (attempted - wrong) / attempted, "unit": "%"},
        }
    details = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "run_s_wall_mean": statistics.fmean(r["run_s"] for r in plain),
        "calibration_s_mean": statistics.fmean(c for r in plain for c in r["cal"]),
        "setup_repeats_s": setups,
        "iterations": [
            {k: rec[k] for k in ("traced", "setup_s", "run_s", "cal", "peak_rss_mb", "wall_s")}
            for rec in iterations
        ],
        "wrong_verdicts": first["wrong"],
        "mismatches": first["mismatches"],
        "counters": first["counters"],
        "report_digest": first["digest"],
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": first["attempted"],
        "failed": first["wrong"],
        "metrics": metrics,
    }
    return result, details


def reference_speed_s(iterations) -> float:
    """Mean iteration wall time, rescaled to the reference machine speed.

    Each worker times a fixed calibration loop (worker.calibration_s)
    right before and after its calls.  The mean calibration time of the
    run measures how fast the machine was on average during the run;
    scaling the mean iteration by CALIBRATION_REF_S / that time gives
    the seconds the calls take on a machine whose loop averages
    CALIBRATION_REF_S.
    """
    run = statistics.fmean(r["run_s"] for r in iterations)
    cal = statistics.fmean(c for r in iterations for c in r["cal"])
    return run * CALIBRATION_REF_S / cal


def unit_of(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(".witness_per_trial"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "cubicontact" / "__init__.py").is_file():
        print("error: run from the root of a cubicontact checkout (no src/cubicontact)", file=sys.stderr)
        return 2
    try:
        result, details = run_workload(
            root, args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
