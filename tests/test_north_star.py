"""Source lint for the package's promises: exact arithmetic, no runtime deps.

Every module of ``cubicontact`` is parsed and walked:

  * every import is relative or names a standard-library module;
  * no float literal and no use of the name ``float`` appears;
  * ``math`` is used only for the integer functions ``gcd`` and ``lcm``;
  * only ``scalars`` reads the ``coeffs`` storage of ``QPoly``;
  * only ``scalars`` defines the contraction kernel: ``dot``,
    ``contract``, its form-level core ``contract_cleared``,
    ``clear_denominators``, its inverse ``from_cleared``, its
    rational-only guard ``cleared_form``, ``normalize_cleared``, the
    lowest-terms step of a cleared vector, and the lazy ``ClearedVector``;
  * only ``nilpotent`` defines the Jacobi kernel: ``_jacobiator``,
    ``jacobi_violations``, its generator check ``_generates``, the
    candidate-pair enumeration ``_pairs_through`` and the loop
    ``_nonzero_through`` that the walk and the certificate share, and
    n's structure constants: ``bracket_table``, its stored contraction
    rows ``bracket_views``, and the transpose of the bracket,
    ``bracket_transpose``, so no other module builds rows for n;
  * only ``moment`` pulls theta~ back to n: ``_pullback``;
  * only ``linalg`` defines the elimination kernel: ``_int_rows`` and
    ``_echelon``;
  * no module defines, imports or reads the formal rings the package
    computed over before its kernels became rational-only: ``LinForm``,
    ``_FormalSum``, the per-term form ``TERMS``, ``generic_element``
    and the linear series over them, ``_linear_series`` and ``_add_into``;
  * nor the wrappers of one element of n it kept before a group element
    and a chart element became NElems: ``GroupElem``, ``group_mul``,
    ``group_inv``, ``ChartElem`` and ``to_nelem``.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cubicontact"
MODULES = sorted(SRC.glob("*.py"))
MATH_ALLOWED = {"gcd", "lcm"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _where(path, node):
    return f"{path.name}:{node.lineno}"


def test_modules_found():
    assert any(m.name == "__init__.py" for m in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                bad.append((_where(path, node), name))
    assert not bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floats(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            bad.append((_where(path, node), node.value))
        elif isinstance(node, ast.Name) and node.id == "float":
            bad.append((_where(path, node), "float"))
    assert not bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_math_only_for_gcd_and_lcm(path):
    nodes = list(ast.walk(_tree(path)))
    bad = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            bad += [a.name for a in node.names if a.name not in MATH_ALLOWED]
        elif isinstance(node, ast.Import):
            bad += [a.asname for a in node.names if a.name == "math" and a.asname]
    # Every use of the name math must be the base of math.gcd or math.lcm.
    bases = set()
    for node in nodes:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            bases.add(id(node.value))
            if node.attr not in MATH_ALLOWED:
                bad.append(f"{_where(path, node)} math.{node.attr}")
    for node in nodes:
        if isinstance(node, ast.Name) and node.id == "math" and id(node) not in bases:
            bad.append(f"{_where(path, node)} bare math")
    assert not bad


STORAGE = {"coeffs"}


@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name != "scalars.py"], ids=lambda p: p.name
)
def test_formal_sum_storage_stays_in_scalars(path):
    # QPoly's coefficient tuple is read only in scalars; every other
    # module reads a coefficient through QPoly.coefficient.
    bad = [
        f"{_where(path, node)} .{node.attr}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr in STORAGE
    ]
    assert not bad


# Each shared kernel, by the one module that defines it.
KERNELS = {
    "scalars.py": {"dot", "_dot", "contract", "contract_cleared", "clear_denominators",
                   "cleared_form", "from_cleared", "normalize_cleared", "ClearedVector"},
    "nilpotent.py": {"_jacobiator", "jacobi_violations", "_generates", "_pairs_through",
                     "_nonzero_through", "bracket_transpose", "bracket_table", "bracket_views"},
    "linalg.py": {"_int_rows", "_echelon"},
    "moment.py": {"_pullback"},
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_contraction_kernel_is_defined_only_in_scalars(path):
    # One contraction kernel, one Jacobi kernel with n's structure-constant
    # table and its rows, one elimination kernel and one pull-back of
    # theta~: every other module imports them from their owner instead of
    # keeping its own.
    foreign = set().union(*(v for owner, v in KERNELS.items() if owner != path.name))
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        else:
            continue
        if name in foreign:
            bad.append(f"{_where(path, node)} {name}")
    assert not bad


RETIRED = {"LinForm", "_FormalSum", "TERMS", "generic_element", "_linear_series", "_add_into"}
WRAPPERS = {"GroupElem", "group_mul", "group_inv", "ChartElem", "to_nelem"}


def _uses(path, names):
    """Each definition, name, attribute or import alias in names."""
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found = [node.name]
        elif isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.Attribute):
            found = [node.attr]
        elif isinstance(node, ast.alias):
            found = [node.name, node.asname]
        else:
            continue
        bad += [f"{_where(path, node)} {name}" for name in found if name in names]
    return bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_formal_rings_stay_retired(path):
    # Every kernel takes rational coordinates; a map linear in its
    # argument is checked at one Kronecker point instead of on a
    # generic element of formal linear forms.
    assert not _uses(path, RETIRED)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_element_wrappers_stay_retired(path):
    # A group element is its log and a chart element an NElem with a
    # zero f1 column: no module wraps an element of n in another type.
    assert not _uses(path, WRAPPERS)
