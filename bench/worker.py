"""One iteration of a workload, in a fresh single-threaded process.

Started by run.py from the root of a checkout as

    python3 bench/worker.py '<job json>'

where the job holds the workload spec, the seed, whether to trace, the
output directory, and ``t_spawn``: the parent's ``time.monotonic()``
just before it started this process.  CLOCK_MONOTONIC is system-wide,
so ``setup_s`` counts interpreter start-up too.  Prints one JSON line.
"""

import json
import sys
import time
from pathlib import Path


CALIBRATION_REPEATS = 10


def calibration_s() -> float:
    """Seconds for a fixed mix of Fraction, integer and dict work.

    Run beside the calls to measure how fast the machine is at the time;
    see run.reference_speed_s.
    """
    from fractions import Fraction

    t0 = time.perf_counter()
    table = {}
    for i in range(1, 3001):
        a = Fraction(i % 13 - 6, i % 7 + 1)
        b = Fraction(i % 5 + 1, i % 11 + 1)
        table[i % 97] = table.get(i % 97, 0) + a * b - a / b
    acc = 0
    for i in range(20000):
        v = i * 7919 % 13
        acc += v * v * 3 % 11
        key = (i % 50, v)
        table[key] = table.get(key, 0) + acc % 7
    return time.perf_counter() - t0


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path.cwd() / "src"))
    spec, seed, out = job["spec"], job["seed"], Path(job["out"])

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(timed=True).install()
    import workloads

    inputs = workloads.setup(spec, out)
    setup_s = time.monotonic() - job["t_spawn"]
    if job["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is None:
        from tracer import Tracer

        tracer = Tracer(timed=False).install()

    cal = [calibration_s() for _ in range(CALIBRATION_REPEATS)]
    t0 = time.perf_counter()
    results = workloads.run(spec, inputs, seed, out)
    run_s = time.perf_counter() - t0
    cal += [calibration_s() for _ in range(CALIBRATION_REPEATS)]
    tracer.uninstall()

    import resource

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    expected, observed, digest = workloads.verdicts(spec, inputs, results, out)
    from reference import compare

    attempted, wrong, mismatches = compare(expected, observed)
    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cal": cal,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "wrong": wrong,
        "mismatches": mismatches,
        "digest": digest,
        "counters": tracer.exact_counters(),
    }
    if job["trace"]:
        record["layers"] = tracer.layer_metrics()
    print(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
