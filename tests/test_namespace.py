"""The package namespace is lazy, and each entry point loads only the
modules it calls.

``cubicontact`` resolves its public names on first use from a table of
home modules and caches none of them.  The load checks run in a fresh
interpreter with PYTHONDONTWRITEBYTECODE=1, as the benchmark's workers
do, and read ``sys.modules`` afterwards.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubicontact
from cubicontact.catalog import catalog_get
from cubicontact.cubic import dumps_tensor

SRC = Path(__file__).resolve().parents[1] / "src"

# The public names, as the package exported them when every module was
# imported eagerly.
EXPORTED = frozenset(
    """
    SymCubic FFTensor DimensionMismatchError TensorFormatError ReductionError
    b_rank assumption_holds cubic_eval cubic_hash dumps_tensor from_cubic_monomials
    load_tensor loads_tensor normalize_cubic polarize reduce_mod trilinear
    NElem SlWElem act_slw bracket dim_report n_dim verify_jacobi
    bch chart_decompose exp_diff exp_diff_inv solve_line_coordinates
    AssumptionError ChartPoint dtheta_matrix nondegeneracy_certificate tau
    tau_line_constants tau_matches_line_expansion
    MomentPoint ProbeVerdict boundary_report moment_membership moment_of
    moment_point_at smoothness_probe
    RootSystem RootSystemError TypeARejection build_root_system find_alpha
    ChevalleyAlgebra StructureConstantError chevalley verify_chevalley_jacobi
    DoubleGrading ExtractionError algebra_for double_grading extraction
    ternary_dimension_check verify_embedding
    CatalogEntry catalog_get catalog_list compare_to_extraction signature
    RunConfig VerificationReport canonical_json run_verification
    """.split()
)

LIE_SIDE = {"cubicontact.chevalley", "cubicontact.rootsystems", "cubicontact.extraction"}

MODULES_LINE = (
    "import sys; print(' '.join(sorted(m for m in sys.modules"
    " if m.split('.')[0] == 'cubicontact')))"
)


def _loaded(code):
    """The cubicontact modules a fresh interpreter holds after `code`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{MODULES_LINE}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_every_exported_name_resolves_at_its_home():
    assert set(cubicontact.__all__) == EXPORTED
    for name in EXPORTED:
        value = getattr(cubicontact, name)
        home = sys.modules[f"cubicontact.{cubicontact._HOME[name]}"]
        assert value is getattr(home, name)
        assert value.__module__ == home.__name__, name


def test_dir_lists_every_name_and_unknown_names_raise():
    assert EXPORTED <= set(dir(cubicontact))
    assert "__version__" in dir(cubicontact)
    with pytest.raises(AttributeError, match="no_such_name"):
        cubicontact.no_such_name
    with pytest.raises(ImportError):
        from cubicontact import no_such_name  # noqa: F401


def test_names_are_read_from_the_home_module_each_time(monkeypatch):
    home = importlib.import_module("cubicontact.chevalley")

    def stand_in(alg, seed=0):
        return "stand-in"

    monkeypatch.setattr(home, "verify_chevalley_jacobi", stand_in)
    assert cubicontact.verify_chevalley_jacobi is stand_in
    monkeypatch.undo()
    assert cubicontact.verify_chevalley_jacobi is home.verify_chevalley_jacobi
    assert "verify_chevalley_jacobi" not in vars(cubicontact)


def test_function_names_survive_their_submodule_imports():
    code = (
        "import types\n"
        "import cubicontact.bch, cubicontact.chevalley, cubicontact.extraction\n"
        "import cubicontact as c\n"
        "for name in ('bch', 'chevalley', 'extraction'):\n"
        "    assert getattr(c, name) is getattr(sys.modules[f'cubicontact.{name}'], name)\n"
        "    assert isinstance(getattr(c, name), types.FunctionType), name"
    )
    assert LIE_SIDE | {"cubicontact.bch"} <= _loaded(f"import sys\n{code}")


def test_import_loads_only_the_package():
    assert _loaded("import cubicontact") == {"cubicontact"}


def test_catalog_loads_only_the_cubic_side():
    assert _loaded("import cubicontact.catalog") == {
        f"cubicontact.{m}" for m in ("catalog", "cubic", "linalg", "scalars", "sampling")
    } | {"cubicontact"}


def test_verify_loads_no_lie_algebra_module(tmp_path):
    path = tmp_path / "xyz.json"
    path.write_text(dumps_tensor(catalog_get("xyz").tensor()) + "\n")
    argv = [
        "verify", str(path), "--which", "all", "--samples", "1", "--budget", "500",
        "--out", str(tmp_path / "out"),
    ]
    loaded = _loaded(f"from cubicontact import cli\nassert cli.main({argv!r}) == 0")
    assert "cubicontact.verify" in loaded and "cubicontact.moment" in loaded
    assert not loaded & LIE_SIDE


def test_extract_loads_the_lie_algebra_side(tmp_path):
    argv = ["extract", "--type", "G2", "--out", str(tmp_path)]
    assert LIE_SIDE <= _loaded(f"from cubicontact import cli\nassert cli.main({argv!r}) == 0")
