"""Command line interface.

Commands:

  check FILE              assumption and dimension summary of a cubic
  verify FILE [--which]   run verification suites with a seeded config
  extract --type G2       extract the cubic of a simple Lie algebra
  catalog list|emit|signature [NAME]  the catalog of Jordan norm cubics

Exit codes follow the contract: 0 success, 1 failed check or rejected
input (e.g. assumption violation, type A extraction), 2 malformed input
(e.g. an unreadable tensor file or an unparseable Lie type).
All file I/O uses the JSON tensor format; reports are byte-deterministic
for a fixed configuration.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .catalog import catalog_get, catalog_list, compare_to_extraction, signature
from .cubic import (
    ReductionError,
    TensorFormatError,
    assumption_holds,
    b_rank,
    cubic_hash,
    dumps_tensor,
    load_tensor,
    reduction,
)
from .reports import MAX_PROBE_BUDGET, MAX_VERIFY_DIM, PRIME_BOUND, RunConfig, canonical_json
from .verify import SUITES, run_verification

OUT_ENV = "CUBICONTACT_OUT"


def _out_dir(args):
    """The output directory, made before any work, or None for stdout."""
    out = args.out or os.environ.get(OUT_ENV)
    if not out:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(out, name: str, text: str) -> None:
    if out is None:
        print(text)
    else:
        (out / name).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out / name}")


def cmd_check(args) -> int:
    try:
        T = load_tensor(args.cubic)
    except TensorFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rank = b_rank(T)
    ok = rank == T.dim
    record = {
        "cubic_hash": cubic_hash(T),
        "p": T.dim,
        "b_rank": rank,
        "assumption_ok": ok,
        "dim_xc": 2 * T.dim + 3,
    }
    print(canonical_json(record))
    return 0 if ok else 1


def cmd_verify(args) -> int:
    try:
        T = load_tensor(args.cubic)
        if T.dim > MAX_VERIFY_DIM:
            raise TensorFormatError(f"dim {T.dim} is above {MAX_VERIFY_DIM}, the most verify runs")
    except TensorFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    which = list(SUITES) if args.which == "all" else [args.which]
    try:
        cfg = RunConfig(
            seed=args.seed,
            samples=args.samples,
            primes=tuple(args.primes),
            probe_budget=args.budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if "moment" in which and assumption_holds(T):
            # The moment suite's probe reads T mod every prime: reduce it
            # once here, so a denominator divisible by one is rejected
            # before any suite runs.
            for q in cfg.primes:
                reduction(T, q)
        out = _out_dir(args)
        report = run_verification(T, which, cfg)
    except ReductionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(out, f"verify-{cubic_hash(T)[:12]}.{args.format}", report.render(args.format))
    if report.all_pass:
        return 0
    # Name the first check that did not pass.
    for check in report.checks:
        if check["status"] != "pass":
            print(
                f"check {check['name']}: {check['status']}",
                file=sys.stderr,
            )
            break
    return 1


_TYPE_RE = re.compile(r"^([A-Ga-g])\s*([0-9]+)$")


def cmd_extract(args) -> int:
    # The Lie-algebra side is loaded by this command only.
    from .extraction import (
        ExtractionError,
        algebra_for,
        extraction,
        gradings_report,
        ternary_dimension_check,
        verify_embedding,
    )
    from .rootsystems import RootSystemError

    # An unknown compare name or an unparseable type is malformed input;
    # a well-formed type the construction does not support is rejected.
    try:
        entry = catalog_get(args.compare) if args.compare else None
        m = _TYPE_RE.match(args.type.strip())
        if not m:
            raise RootSystemError(f"cannot parse Lie type {args.type!r}")
        lie_type, rank = m.group(1).upper(), int(m.group(2))
    except (KeyError, RootSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _out_dir(args)
    try:
        alg = algebra_for(lie_type, rank)
        data = extraction(alg)
    except (RootSystemError, ExtractionError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    name = f"{lie_type}{rank}"
    _emit(out, f"extracted-{name}.json", dumps_tensor(data.tensor))
    report = {
        "gradings": gradings_report(alg),
        "ternary": ternary_dimension_check(alg),
    }
    if args.embedding:
        report["embedding"] = verify_embedding(alg).to_json()
    if entry is not None:
        report["comparison"] = compare_to_extraction(entry, alg)
    _emit(out, f"extract-report-{name}.json", canonical_json(report))
    if entry is not None and not report["comparison"]["consistent"]:
        return 1
    if args.embedding and not report["embedding"]["ok"]:
        return 1
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        for entry in catalog_list():
            print(f"{entry.name}\tp={entry.p}\t{entry.description}")
        return 0
    # argparse restricts the action to list, emit and signature.
    if not args.name:
        print(f"error: catalog {args.action} needs a name", file=sys.stderr)
        return 2
    try:
        entry = catalog_get(args.name)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _out_dir(args)
    if args.action == "emit":
        _emit(out, f"catalog-{entry.name}.json", dumps_tensor(entry.tensor()))
    else:
        text = canonical_json(signature(entry.tensor()))
        _emit(out, f"signature-{entry.name}.json", text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicontact",
        description="exact verification of the nilpotent contact geometry of a cubic form",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="output directory (or $CUBICONTACT_OUT)")

    p_check = sub.add_parser("check", help="assumption and dimension summary")
    p_check.add_argument("cubic")
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("cubic")
    p_verify.add_argument(
        "--which",
        choices=("all",) + tuple(SUITES),
        default="all",
    )
    defaults = RunConfig()
    p_verify.add_argument("--seed", type=int, default=defaults.seed)
    p_verify.add_argument("--samples", type=int, default=defaults.samples)
    p_verify.add_argument(
        "--primes", type=int, nargs="+", default=list(defaults.primes),
        help=f"distinct probe primes q, each with 5 <= q < {PRIME_BOUND} (2**32)",
    )
    p_verify.add_argument(
        "--budget", type=int, default=defaults.probe_budget,
        help=(
            "probe budget per prime: enumerate F_q^p when q^p <= budget, else "
            "this many random draws after the p^2 structured candidates; "
            f"at most {MAX_PROBE_BUDGET} (10**6)"
        ),
    )
    p_verify.add_argument("--format", choices=("json", "md"), default="json")
    add_out(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_extract = sub.add_parser("extract", help="extract the cubic of a simple Lie algebra")
    p_extract.add_argument("--type", required=True, help="e.g. G2, F4, E8")
    p_extract.add_argument("--compare", default=None, help="catalog entry to compare against")
    p_extract.add_argument(
        "--embedding", action="store_true", help="also run the embedding verification"
    )
    add_out(p_extract)
    p_extract.set_defaults(func=cmd_extract)

    p_cat = sub.add_parser("catalog", help="catalog of Jordan norm cubics")
    p_cat.add_argument("action", choices=("list", "emit", "signature"))
    p_cat.add_argument("name", nargs="?")
    add_out(p_cat)
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # an unusable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
