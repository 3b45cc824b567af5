"""The benchmark's workloads: set-up, the timed calls, and the verdicts.

A workload spec is a plain dict, so it can be handed to a worker process
as JSON.  ``kind`` selects how it is run:

* ``verify``: one ``cubicontact verify --which all`` CLI call per cubic,
  on tensors the set-up serializes from the catalog;
* ``extract``: one ``cubicontact extract --embedding --compare`` CLI
  call, on a Chevalley algebra the set-up builds;
* ``jacobi``: exhaustive ``verify_chevalley_jacobi`` through the public
  API, on Chevalley algebras the set-up builds.

CLI calls run in-process through ``cli.main``, so every call after the
first pays no interpreter start-up or import, as for a caller that keeps
the package loaded; each iteration of a run is a fresh process, so no
cache of the package carries over between iterations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import traceback
from pathlib import Path

PRIMES = (5, 7, 11, 13)

WORKLOADS = {
    # Every verify suite on the seven small catalog cubics (p <= 15):
    # group law, exp-differential, dtheta determinants, tau and
    # moment_point_at on sparse cubics; the probe ends early or is
    # exhaustive.  pfaff6 (p = 15) is about half the time.
    "verify-catalog": {
        "kind": "verify",
        "cubics": ("x3", "xq5", "xyz", "fermat3", "det-sym-3", "det3", "pfaff6"),
        "samples": 20,
        "budget": 100_000,
        "primes": PRIMES,
    },
    # The largest catalog cubic (p = 27).  The smoothness probe spends
    # its whole budget on random trials that find nothing, and
    # moment_point_at is at its most expensive per sample.
    "verify-j3o": {
        "kind": "verify",
        "cubics": ("j3o-norm",),
        "samples": 2,
        "budget": 100_000,
        "primes": PRIMES,
    },
    # Lie-algebra side only: Chevalley brackets, extraction, the
    # embedding check and two signature probes; no BCH or moment work.
    "extract-e8": {
        "kind": "extract",
        "type": ("E", 8),
        "compare": "j3o-norm",
        "dim_g": 248,
        "p": 27,
        "signature_primes": (5, 7),
    },
    # The only workload whose work is the Chevalley triple enumeration.
    "jacobi-e7": {
        "kind": "jacobi",
        "algebras": (("E", 6, 78), ("E", 7, 133)),
    },
}


# --- set-up --------------------------------------------------------------


def setup(spec: dict, out: Path) -> dict:
    """Build the inputs of one iteration; timed as part of setup_s."""
    import cubicontact
    from cubicontact.catalog import catalog_get

    kind = spec["kind"]
    if kind == "verify":
        inputs = out / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        tensors = {}
        for name in spec["cubics"]:
            text = cubicontact.dumps_tensor(catalog_get(name).tensor())
            path = inputs / f"{name}.json"
            path.write_text(text + "\n", encoding="utf-8")
            tensors[name] = (path, text)
        return {"tensors": tensors}
    if kind == "extract":
        lie_type, rank = spec["type"]
        cubicontact.algebra_for(lie_type, rank)  # memoized for the CLI call
        catalog_text = cubicontact.dumps_tensor(catalog_get(spec["compare"]).tensor())
        return {"catalog_text": catalog_text}
    if kind == "jacobi":
        algebras = {}
        for lie_type, rank, _dim in spec["algebras"]:
            rs = cubicontact.build_root_system(lie_type, rank)
            algebras[f"{lie_type}{rank}"] = cubicontact.chevalley(rs)
        return {"algebras": algebras}
    raise ValueError(f"unknown workload kind {kind!r}")


# --- the timed calls -------------------------------------------------------


def _call_cli(argv) -> object:
    """Exit code of one in-process CLI call, or "traceback" if it raised."""
    from cubicontact import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:  # counted as wrong for every verdict it prevents
            traceback.print_exc()
            return "traceback"


def run(spec: dict, inputs: dict, seed: int, out: Path) -> dict:
    """The workload's calls, back to back; returns what the calls returned."""
    kind = spec["kind"]
    if kind == "verify":
        codes = {}
        for name, (path, _text) in inputs["tensors"].items():
            argv = [
                "verify", str(path), "--which", "all", "--seed", str(seed),
                "--samples", str(spec["samples"]), "--budget", str(spec["budget"]),
                "--primes", *map(str, spec["primes"]), "--out", str(out / name),
            ]
            codes[name] = _call_cli(argv)
        return codes
    if kind == "extract":
        lie_type, rank = spec["type"]
        argv = [
            "extract", "--type", f"{lie_type}{rank}", "--embedding",
            "--compare", spec["compare"], "--out", str(out / "extract"),
        ]
        return {"exit_code": _call_cli(argv)}
    from cubicontact import verify_chevalley_jacobi

    return {
        name: verify_chevalley_jacobi(alg, seed=seed)
        for name, alg in inputs["algebras"].items()
    }


# --- verdicts and report digest -----------------------------------------


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _files_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _dig(obj, *keys):
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise KeyError(key)
        obj = obj[key]
    return obj


def _put(observed: dict, key: str, obj, *path):
    with contextlib.suppress(KeyError):
        observed[key] = _dig(obj, *path)


def verdicts(spec: dict, inputs: dict, results: dict, out: Path):
    """(expected, observed, report digest) for one iteration."""
    import reference

    kind = spec["kind"]
    expected, observed = {}, {}
    if kind == "verify":
        for name, (_path, text) in inputs["tensors"].items():
            expected.update(reference.verify_expected(name, text, spec["primes"]))
            observed[f"{name}/exit_code"] = results[name]
            reports = sorted((out / name).glob("verify-*.json"))
            report = _read_json(reports[0]) if len(reports) == 1 else None
            for check in (report or {}).get("checks", ()):
                observed[f"{name}/{check['name']}"] = check["status"]
                if check["name"] == "jacobi":
                    _put(observed, f"{name}/assumption_ok", check, "details", "jacobi", "assumption_ok")
                if check["name"] == "moment":
                    with contextlib.suppress(KeyError):
                        witness = _dig(check, "details", "boundary", "probe", "witness")
                        observed[f"{name}/probe"] = reference.probe_class(witness is not None)
        digest = _files_digest(out)
    elif kind == "extract":
        lie_type, rank = spec["type"]
        folder = out / "extract"
        tensor = folder / f"extracted-{lie_type}{rank}.json"
        extracted_text = tensor.read_text(encoding="utf-8") if tensor.is_file() else None
        expected = reference.extract_expected(spec, inputs["catalog_text"], extracted_text)
        observed["exit_code"] = results["exit_code"]
        report = _read_json(folder / f"extract-report-{lie_type}{rank}.json") or {}
        _put(observed, "dim_g", report, "gradings", "dim_g")
        _put(observed, "p", report, "gradings", "p")
        _put(observed, "b_rank", report, "gradings", "b_rank")
        _put(observed, "dim_h", report, "ternary", "dim_h")
        _put(observed, "embedding_ok", report, "embedding", "ok")
        _put(observed, "consistent", report, "comparison", "consistent")
        for side in ("catalog_signature", "extraction_signature"):
            for field in ("b_rank", "probe"):
                _put(observed, f"{side}.{field}", report, "comparison", side, field)
        digest = _files_digest(folder)
    else:
        expected = reference.jacobi_expected(
            (f"{lie_type}{rank}", dim) for lie_type, rank, dim in spec["algebras"]
        )
        h = hashlib.sha256()
        for name, rep in results.items():
            observed[f"{name}/ok"] = rep.ok
            observed[f"{name}/triples_checked"] = rep.triples_checked
            h.update(json.dumps(dataclasses.asdict(rep), sort_keys=True).encode())
        digest = h.hexdigest()
    return expected, observed, digest
