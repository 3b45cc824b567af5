"""Fast checks of the benchmark on tiny configurations.

Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "tiny-verify": {
        "kind": "verify",
        "cubics": ["x3", "xyz"],
        "samples": 1,
        "budget": 1000,
        "primes": [5, 7],
    },
    "tiny-extract": {
        "kind": "extract",
        "type": ["D", 4],
        "compare": "xyz",
        "dim_g": 28,
        "p": 3,
        "signature_primes": [5, 7],
    },
    "tiny-jacobi": {"kind": "jacobi", "algebras": [["G", 2, 14], ["D", 4, 28]]},
}


@pytest.fixture(autouse=True)
def short_runs(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_ITERATIONS", 2)  # one untraced, one traced


def test_workload_names_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted(name, trace):
    result, details = run.run_workload(ROOT, name, TINY[name], seed=3, seconds=0, trace=trace)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0, details["mismatches"]


def _bindings():
    """Every function-valued binding the tracer could have replaced."""
    seen = {}
    for mod in package_modules():
        mod_name = mod.__name__
        for attr, value in vars(mod).items():
            if callable(value):
                seen[(mod_name, attr)] = value
            if isinstance(value, dict) and attr != "__builtins__":
                for key, item in value.items():
                    if callable(item):
                        seen[(mod_name, attr, key)] = item
            if isinstance(value, type) and value.__module__ == mod_name:
                for meth, item in vars(value).items():
                    if callable(item):
                        seen[(mod_name, attr, "." + meth)] = item
    return seen


@pytest.mark.parametrize("timed", [True, False])
def test_wrappers_restored_after_run(timed):
    from cubicontact import catalog_get, verify

    before = _bindings()
    tracer = Tracer(timed=timed).install()
    patched = _bindings()
    # Names bound at import are wrapped apart from their home module's.
    if timed:
        rebound = [("cubicontact.verify", "SUITES", "moment"), ("cubicontact.verify", "moment_point_at")]
    else:
        rebound = [("cubicontact.catalog", "smoothness_probe"), ("cubicontact.moment", "smoothness_probe")]
    for key in rebound:
        assert patched[key] is not before[key]
    T = catalog_get("xyz").tensor()
    verify.run_verification(T, list(verify.SUITES), verify.RunConfig(samples=1, probe_budget=500))
    tracer.uninstall()
    assert _bindings() == before
    counters = tracer.exact_counters()
    assert counters["moment.smoothness_probe.trials"] > 0
    assert counters["nilpotent.verify_jacobi.triples_checked"] == 11 ** 3  # dim n = 3p + 2
    if timed:
        layers = tracer.layer_metrics()
        assert layers["verify.run_moment_suite.calls"] == 1
        assert layers["moment.moment_point_at.calls"] == 1
        assert layers["nilpotent.bracket.calls"] > 0
        assert layers["verify.run_moment_suite.s"] >= layers["verify.run_moment_suite.self_s"]


def test_wrong_reference_is_counted():
    spec = dict(TINY["tiny-extract"], dim_g=29)
    result, details = run.run_workload(ROOT, "tiny-extract-wrong", spec, seed=0, seconds=0, trace=False)
    assert result["failed"] == 2  # dim_g, and dim_h derived from it
    assert set(details["mismatches"]) == {"dim_g", "dim_h"}
    assert result["metrics"]["verdict_accuracy"]["value"] < 100
    assert result["correct"]


def test_reference_singularity_facts():
    from cubicontact import catalog_get, dumps_tensor

    def decide(name):
        p, entries = reference.parse_tensor(dumps_tensor(catalog_get(name).tensor()))
        return reference.singular(p, entries, (5, 7, 11, 13))

    assert decide("j3o-norm") and decide("pfaff6") and decide("xyz")
    assert not decide("x3") and not decide("fermat3")
    p, entries = reference.parse_tensor(dumps_tensor(catalog_get("j3o-norm").tensor()))
    assert reference.structured_witness(p, entries) == {0: 1}
    assert reference.b_rank_mod_prime(p, entries) == 27


def test_refuses_to_run_outside_a_checkout(tmp_path, capsys):
    import os

    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = run.main(["--workload", "jacobi-e7", "--seed", "0", "--seconds", "1"])
    finally:
        os.chdir(cwd)
    assert code != 0
    assert capsys.readouterr().out == ""
