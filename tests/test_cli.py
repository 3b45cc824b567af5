import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cubicontact
from cubicontact import cubic
from cubicontact.cli import main
from cubicontact.cubic import dumps_tensor, loads_tensor
from cubicontact.catalog import catalog_get, catalog_list
from cubicontact.reports import MAX_VERIFY_DIM, RunConfig
from cubicontact.verify import SUITES


SRC = str(Path(cubicontact.__file__).resolve().parents[1])


@pytest.fixture()
def x3_file(tmp_path):
    path = tmp_path / "x3.json"
    path.write_text(dumps_tensor(catalog_get("x3").tensor()) + "\n")
    return path


def test_check_ok(x3_file, capsys):
    assert main(["check", str(x3_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["p"] == 1 and out["dim_xc"] == 5 and out["assumption_ok"]


def test_check_assumption_failure(tmp_path, capsys):
    # b_rank builds columns only for the indices an entry names, so a
    # one-entry tensor of dim 10**8 is rejected at once, in small memory.
    huge = '{"dim": 100000000, "entries": [{"i": 1, "j": 1, "k": 1, "value": "1"}]}'
    for name, text in (("zero.json", '{"dim": 2, "entries": []}'), ("huge.json", huge)):
        path = tmp_path / name
        path.write_text(text)
        start = time.perf_counter()
        assert main(["check", str(path)]) == 1
        assert time.perf_counter() - start < 1.0


def test_check_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["check", str(path)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2


def test_verify_all_x3(x3_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "verify", str(x3_file), "--which", "all", "--samples", "10",
            "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    reports = list(out.glob("verify-*.json"))
    assert len(reports) == 1
    body = json.loads(reports[0].read_text())
    names = {c["name"] for c in body["checks"]}
    assert names == {"jacobi", "group", "expdiff", "contact", "tau", "moment"}
    assert all(c["status"] == "pass" for c in body["checks"])


def test_verify_refuses_geometry_without_assumption(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"dim": 1, "entries": []}')
    code = main(["verify", str(path), "--which", "contact", "--out", str(tmp_path)])
    assert code == 1


def test_verify_jacobi_runs_regardless(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text('{"dim": 1, "entries": []}')
    code = main(["verify", str(path), "--which", "jacobi", "--samples", "5",
                 "--out", str(tmp_path)])
    assert code == 0


def test_verify_jacobi_on_dim_3000_one_entry_file(tmp_path):
    # n's table is written from the one entry, in O(nnz + p).
    path = tmp_path / "big.json"
    path.write_text('{"dim":3000,"entries":[{"i":1,"j":1,"k":1,"value":"1"}]}\n')
    assert path.stat().st_size == 57
    start = time.perf_counter()
    code = main(["verify", str(path), "--which", "jacobi", "--out", str(tmp_path / "out")])
    assert code == 0
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("which", ["expdiff", "jacobi"])
def test_verify_kronecker_checks_at_the_dim_cap_one_entry_file(tmp_path, which):
    # The Kronecker blocks keep each number under KRONECKER_BLOCK_BITS, so
    # a 58-byte file at MAX_VERIFY_DIM holds tens of MB, not the
    # gigabytes one point z_K over all 3p + 2 columns would.  The run is
    # timed and its peak RSS read in a fresh interpreter.
    path = tmp_path / "cap.json"
    path.write_text(f'{{"dim":{MAX_VERIFY_DIM},"entries":[{{"i":1,"j":1,"k":1,"value":"1"}}]}}\n')
    args = ["verify", str(path), "--which", which, "--samples", "1", "--out", str(tmp_path / "out")]
    code = (
        "import resource, sys, time; from cubicontact.cli import main; t = time.perf_counter(); "
        f"c = main({args!r}); print(c, time.perf_counter() - t, "
        "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    status, seconds, max_rss_kb = done.stdout.split()[-3:]
    assert status == "0" and float(seconds) < 20 and int(max_rss_kb) < 200 * 1024


def test_verify_byte_identical_reports(x3_file, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["verify", str(x3_file), "--which", "all", "--samples", "8", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    f1 = next(out1.glob("*.json")).read_bytes()
    f2 = next(out2.glob("*.json")).read_bytes()
    assert f1 == f2


def test_verify_md_format(x3_file, tmp_path):
    code = main(
        ["verify", str(x3_file), "--which", "jacobi", "--format", "md",
         "--out", str(tmp_path)]
    )
    assert code == 0
    body = next(tmp_path.glob("verify-*.md")).read_text()
    assert body.startswith("# verification report")


def test_extract_g2_writes_normalized_x3(tmp_path):
    code = main(["extract", "--type", "G2", "--compare", "x3", "--out", str(tmp_path)])
    assert code == 0
    T = loads_tensor((tmp_path / "extracted-G2.json").read_text())
    assert T == catalog_get("x3").tensor()
    report = json.loads((tmp_path / "extract-report-G2.json").read_text())
    assert report["comparison"]["consistent"]
    assert report["gradings"]["p"] == 1


def test_extract_type_a_rejected(tmp_path, capsys):
    assert main(["extract", "--type", "A3", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "2 simple roots" in err


def test_extract_type_c_rejected(tmp_path):
    assert main(["extract", "--type", "C3", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("lie_type", ["E9", "A0"])
def test_extract_unsupported_type_is_rejected_not_malformed(lie_type, tmp_path, capsys):
    assert main(["extract", "--type", lie_type, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("rejected: ")


def test_catalog_list_and_emit(tmp_path, capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "j3o-norm" in out and "pfaff6" in out
    assert main(["catalog", "emit", "fermat3", "--out", str(tmp_path)]) == 0
    T = loads_tensor((tmp_path / "catalog-fermat3.json").read_text())
    assert T.dim == 3
    assert main(["catalog", "emit", "nope", "--out", str(tmp_path)]) == 2


def test_out_env_variable(tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("CUBICONTACT_OUT", str(target))
    code = main(["catalog", "emit", "x3"])
    assert code == 0
    T = loads_tensor((target / "catalog-x3.json").read_text())
    assert T.dim == 1


def test_out_env_variable_naming_a_file_exits_2_before_extracting(tmp_path, monkeypatch, capsys):
    def boom(alg):
        raise AssertionError("extraction ran")

    # cmd_extract imports extraction when it runs, from its home module.
    monkeypatch.setattr(importlib.import_module("cubicontact.extraction"), "extraction", boom)
    target = tmp_path / "a-file"
    target.write_text("keep")
    monkeypatch.setenv("CUBICONTACT_OUT", str(target))
    assert main(["extract", "--type", "G2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert target.read_text() == "keep"


def test_stdout_when_no_out(monkeypatch, capsys):
    monkeypatch.delenv("CUBICONTACT_OUT", raising=False)
    assert main(["catalog", "emit", "x3"]) == 0
    assert '"dim":1' in capsys.readouterr().out


def test_catalog_signature_goes_to_out(tmp_path, monkeypatch, capsys):
    # With neither --out nor $CUBICONTACT_OUT it prints; with either it
    # writes the same text to signature-<name>.json.
    monkeypatch.delenv("CUBICONTACT_OUT", raising=False)
    assert main(["catalog", "signature", "xyz"]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["p"] == 3
    assert main(["catalog", "signature", "xyz", "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "signature-xyz.json").read_text() == printed
    monkeypatch.setenv("CUBICONTACT_OUT", str(tmp_path / "env"))
    assert main(["catalog", "signature", "xyz"]) == 0
    assert (tmp_path / "env" / "signature-xyz.json").read_text() == printed
    assert printed not in capsys.readouterr().out


def _diagonal(dim):
    """The tensor document of x_1^3 + ... + x_dim^3."""
    return {
        "dim": dim,
        "entries": [{"i": i, "j": i, "k": i, "value": "1"} for i in range(1, dim + 1)],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "signature", "nope"],
        ["verify", "{x3}", "--samples", "0", "--out", "{out}"],
        ["verify", "{x3}", "--primes", "4", "--out", "{out}"],
        # The probe is blind mod 2 and 3: x^3 + y^3 + z^3 = (x + y + z)^3
        # mod 3 is singular, yet the probe found no witness there.
        ["verify", "{x3}", "--primes", "2", "--out", "{out}"],
        ["verify", "{fermat3}", "--which", "moment", "--primes", "3", "--out", "{out}"],
        ["verify", "{x3}", "--budget", "-1", "--which", "moment", "--out", "{out}"],
        ["extract", "--type", "G2", "--compare", "nope", "--out", "{out}"],
        ["extract", "--type", "X7", "--out", "{out}"],
        ["extract", "--type", "hello", "--out", "{out}"],
        ["extract", "--type", "", "--out", "{out}"],
        ["check", "{zero_den}"],
        ["check", "{bool_value}"],
        ["check", "{bool_index}"],
        ["check", "{bool_dim}"],
        ["check", "{float_index}"],
        ["check", "{directory}"],
        ["verify", "{directory}", "--out", "{out}"],
        ["check", "{non_utf8}"],
        ["verify", "{non_utf8}", "--out", "{out}"],
        ["verify", "{fifth}", "--samples", "2", "--out", "{out}"],
        ["verify", "{fifth}", "--samples", "2", "--primes", "5", "7", "--out", "{out}"],
        ["check", "{oversize_dim}"],
        # verify would hold about 4 KB per dimension before any suite ran.
        ["verify", "{huge_zero}", "--samples", "1", "--out", "{out}"],
        ["verify", "{above_dim_bound}", "--samples", "1", "--out", "{out}"],
        ["check", "{oversize_value}"],
        ["check", "{exponent_value}"],
        ["verify", "{x3}", "--which", "jacobi", "--primes", "1000000000000000003", "--out", "{out}"],
        # 5**20 <= 10**30: the probe would enumerate F_5^20 exhaustively.
        ["verify", "{diagonal20}", "--which", "moment", "--budget", str(10 ** 30), "--out", "{out}"],
        # A probe verdict keys its modes and trials by prime.
        ["verify", "{x3}", "--primes", "5", "5", "--out", "{out}"],
        # An output path that is a file, or lies under one, fails before
        # any suite or extraction runs.
        ["verify", "{x3}", "--out", "{a_file}"],
        ["extract", "--type", "E8", "--embedding", "--out", "{a_file}"],
        ["catalog", "emit", "x3", "--out", "{a_file}"],
        ["catalog", "emit", "x3", "--out", "{a_file}/sub"],
    ],
    ids=[
        "unknown-signature-name", "samples-0", "non-prime", "prime-2", "prime-3", "negative-budget",
        "unknown-compare-name", "unparseable-type", "word-type", "empty-type",
        "zero-denominator", "boolean-value",
        "boolean-index", "boolean-dim", "float-index", "check-directory",
        "verify-directory", "check-non-utf8", "verify-non-utf8",
        "probe-prime-denominator", "probe-prime-denominator-primes",
        "oversize-dim", "verify-huge-dim", "verify-above-dim-bound", "oversize-value",
        "exponent-value", "prime-above-bound", "budget-above-bound", "repeated-prime",
        "verify-out-file",
        "extract-out-file", "catalog-emit-out-file", "catalog-emit-out-under-file",
    ],
)
def test_malformed_input_exits_2_without_traceback(argv, x3_file, tmp_path, capsys):
    tensors = {
        "zero_den": '{"dim": 1, "entries": [{"i": 1, "j": 1, "k": 1, "value": "1/0"}]}',
        "bool_value": '{"dim": 1, "entries": [{"i": 1, "j": 1, "k": 1, "value": true}]}',
        "bool_index": '{"dim": 1, "entries": [{"i": true, "j": 1, "k": 1, "value": "1"}]}',
        "bool_dim": '{"dim": true, "entries": [{"i": 1, "j": 1, "k": 1, "value": "1"}]}',
        "float_index": '{"dim": 2, "entries": [{"i": 1.5, "j": 2, "k": 2, "value": "1"}]}',
        "fifth": '{"dim": 1, "entries": [{"i": 1, "j": 1, "k": 1, "value": "1/5"}]}',
        # Past Python's 4,300-digit limit for int parsing.
        "oversize_dim": '{"dim": 1%s, "entries": []}' % ("0" * 5000),
        "huge_zero": '{"dim": 100000000, "entries": []}',
        "above_dim_bound": '{"dim": %d, "entries": []}' % (MAX_VERIFY_DIM + 1),
        "oversize_value": '{"dim": 1, "entries": [{"i": 1, "j": 1, "k": 1, "value": 1%s}]}' % ("0" * 5000),
        # 63 bytes that Fraction would expand to a 400-million-digit power of ten.
        "exponent_value": '{"dim":1,"entries":[{"i":1,"j":1,"k":1,"value":"1e400000000"}]}',
        "diagonal20": json.dumps(_diagonal(20)),
        "fermat3": json.dumps(_diagonal(3)),
    }
    paths = {}
    for key, text in tensors.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(text)
    paths["directory"] = tmp_path / "a-directory"
    paths["directory"].mkdir()
    paths["non_utf8"] = tmp_path / "non-utf8.json"
    paths["non_utf8"].write_bytes(b"\xff\xfe")
    paths["a_file"] = tmp_path / "a-file"
    paths["a_file"].write_text("keep")
    out = tmp_path / "out"
    argv = [a.format(x3=x3_file, out=out, **paths) for a in argv]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()
    assert paths["a_file"].read_text() == "keep"


def test_probe_primes_lie_below_2_to_the_32():
    assert RunConfig(primes=(4294967291,)).primes == (4294967291,)
    for q in (4294967311, 1000000000000000003):
        with pytest.raises(ValueError, match="below 2"):
            RunConfig(primes=(q,))


def test_probe_primes_are_at_least_5():
    assert RunConfig(primes=(5,)).primes == (5,)
    for q in (2, 3):
        with pytest.raises(ValueError, match="below 5"):
            RunConfig(primes=(q,))
        with pytest.raises(ValueError, match="below 5"):
            RunConfig(primes=(5, q, 7))


def _tensor_with_value(tmp_path, name, index, value):
    doc = json.loads(dumps_tensor(catalog_get(name).tensor()))
    doc["entries"][index]["value"] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def test_probe_prime_denominator_rejected_before_any_suite(tmp_path, capsys, monkeypatch):
    def boom(T, cfg):
        raise AssertionError("a suite ran")

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, boom)
    path = _tensor_with_value(tmp_path, "pfaff6", 4, "1/5")
    out = tmp_path / "out"
    assert main(["verify", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: entry ") and "divisible by 5" in err
    assert not out.exists()


def test_probe_prime_denominator_rejected_whatever_the_probe_order(tmp_path, capsys):
    # The probe finds a witness of xyz mod 5 and never reduces mod 7.
    path = _tensor_with_value(tmp_path, "xyz", 0, "3/7")
    out = tmp_path / "out"
    argv = ["verify", str(path), "--samples", "2", "--primes", "5", "7", "--out", str(out)]
    assert main(argv) == 2
    assert "divisible by 7" in capsys.readouterr().err
    assert not out.exists()


def test_verify_reduces_the_tensor_once_per_prime(tmp_path, monkeypatch):
    # The up-front denominator check and the probe share one reduction.
    real, calls = cubic.reduce_mod, []
    monkeypatch.setattr(cubic, "reduce_mod", lambda T, q: calls.append(q) or real(T, q))
    path = tmp_path / "fermat3.json"
    path.write_text(dumps_tensor(catalog_get("fermat3").tensor()))
    argv = ["verify", str(path), "--which", "moment", "--samples", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert calls == [5, 7, 11, 13]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "{x3}", "--long-run"], "--long-run"),
        (["extract", "--type", "G2", "--format", "md"], "--format"),
        (["catalog", "emit", "x3", "--format", "md"], "--format"),
    ],
    ids=["verify-long-run", "extract-format", "catalog-format"],
)
def test_long_run_flag_is_gone(argv, flag, x3_file, tmp_path, capsys):
    # Only verify renders a report in more than one format.
    out = tmp_path / "out"
    argv = [a.format(x3=x3_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


# --- fuzzed input: the exit-code contract and no traceback ---------------

_JUNK = st.sampled_from([None, True, "x", 1.5, -1, 9, [], {}])
_VALUE = st.sampled_from(["1", "-2", "1/2", "1/5", "3/7", "1/13", "0", 3])
# json.dumps cannot write an int past Python's 4,300-digit limit, so an
# oversize JSON integer is drawn as a marker string naming its digit
# count, and the marker is replaced in the written text.
_OVERSIZE_INT = st.integers(4301, 20_000).map("@int{}@".format)
_EXPONENT_VALUE = st.builds(
    "{}{}{}".format,
    st.sampled_from(["1", "-3", "2/", "0.5"]),
    st.sampled_from(["e", "E", "e-", "e+"]),
    st.integers(0, 10 ** 9),
)
_ADVERSARIAL = st.one_of(_OVERSIZE_INT, _EXPONENT_VALUE)


@st.composite
def _tensor_json(draw):
    """A valid Fermat-like tensor (diagonal entries, so B is onto unless a
    value is 0) plus a few extra entries, with up to two fields mutated."""
    dim = draw(st.integers(1, 4))
    index = st.integers(1, dim)
    entries = [{"i": i, "j": i, "k": i, "value": draw(_VALUE)} for i in range(1, dim + 1)]
    entries += draw(st.lists(
        st.fixed_dictionaries({"i": index, "j": index, "k": index, "value": _VALUE}),
        max_size=2,
    ))
    doc = {"dim": dim, "entries": entries}
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from(["dim", "entries", "entry", "root", "size"]))
        if where == "root":
            return draw(_JUNK)
        if where == "size":
            # An oversize integer as dim, or an oversize or exponent value.
            if draw(st.booleans()):
                doc["dim"] = draw(_OVERSIZE_INT)
            else:
                draw(st.sampled_from(entries))["value"] = draw(_ADVERSARIAL)
            continue
        if where == "entry":
            entry = draw(st.sampled_from(entries))
            key = draw(st.sampled_from(["i", "j", "k", "value"]))
            if draw(st.booleans()):
                entry.pop(key, None)
            else:
                entry[key] = draw(_JUNK)
        else:
            doc[where] = draw(_JUNK)
    return doc


_OPTIONS = st.lists(
    st.sampled_from([
        ["--which", "all"], ["--which", "jacobi"], ["--which", "moment"],
        ["--which", "contact"], ["--which", "nope"],
        ["--seed", "0"], ["--seed", "-3"], ["--seed", "x"],
        ["--samples", "1"], ["--samples", "2"], ["--samples", "0"], ["--samples", "-1"],
        ["--primes", "5", "7"], ["--primes", "2"], ["--primes", "4"], ["--primes", "13"],
        # The largest prime below 2**32, and primes above it.
        ["--primes", "4294967291"], ["--primes", "4294967311"],
        ["--primes", "1000000000000000003"],
        ["--budget", "0"], ["--budget", "50"], ["--budget", "-1"], ["--budget", str(10 ** 30)],
        ["--format", "md"], ["--format", "xml"], ["--bogus"],
    ])
    # A prime option of 1 to 18 digits, each digit count equally likely.
    | st.integers(1, 18).flatmap(lambda d: st.integers(10 ** (d - 1), 10 ** d)).map(
        lambda q: ["--primes", str(q)]
    ),
    max_size=4,
)
# Every drawn example is a few checks on dim <= 4, and the explicit
# dim-200 Jacobi example takes well under a second; the unbounded inputs
# above ran for minutes or hung.
_EXAMPLE_SECONDS = 5.0


_X3 = _diagonal(1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tensor=_tensor_json(), command=st.sampled_from(["check", "verify"]), options=_OPTIONS)
@example(tensor=dict(_X3, dim="@int5000@"), command="check", options=[])
@example(
    tensor=dict(_X3, entries=[dict(_X3["entries"][0], value="1e400000000")]),
    command="check",
    options=[],
)
@example(
    tensor=_X3,
    command="verify",
    options=[["--which", "jacobi"], ["--primes", "1000000000000000003"]],
)
# dim n = 602: no stored bracket has a term that a third row stores, so
# the Jacobi kernel evaluates no jacobiator.
@example(tensor=_diagonal(200), command="verify", options=[["--which", "jacobi"]])
def test_fuzzed_input_keeps_exit_contract(tensor, command, options):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cubic.json"
        text = re.sub(r'"@int(\d+)@"', lambda m: "9" * int(m.group(1)), json.dumps(tensor))
        path.write_text(text)
        argv = [command, str(path)]
        if command == "verify":
            # Bounded work: at most 2 samples and a small probe budget.
            argv += ["--samples", "2", "--budget", "50"]
            argv += [a for opt in options for a in opt]
            argv += ["--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert time.perf_counter() - start < _EXAMPLE_SECONDS, (argv, tensor)
        assert code in (0, 1, 2), (argv, tensor)
        assert "Traceback" not in err.getvalue()


# Well-formed types, supported or not; E7 and E8 are left out to keep
# each example short.  Text without a digit never parses as a type.
_PARSEABLE_TYPES = ["G2", "B3", "D4", "F4", "A2", "C3", "E9"]
_TYPE = st.one_of(
    st.sampled_from(_PARSEABLE_TYPES + ["X7", ""]),
    st.text(alphabet="HXhx -_?\u00e9", max_size=6),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    lie_type=_TYPE,
    compare=st.sampled_from([None, "nope"] + [e.name for e in catalog_list()]),
    embedding=st.booleans(),
)
def test_fuzzed_extract_keeps_exit_contract(lie_type, compare, embedding):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["extract", f"--type={lie_type}", "--out", str(Path(tmp) / "out")]
        if compare is not None:
            argv += ["--compare", compare]
        if embedding:
            argv.append("--embedding")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        malformed = lie_type.strip() not in _PARSEABLE_TYPES or compare == "nope"
        assert (code == 2) == malformed, (argv, code, err.getvalue())
