"""Every function the benchmark tracer wraps still exists in the package.

bench/tracer.py names the functions it times, counts and captures.  A
name that no longer resolves would only fail a traced benchmark run; a
traced name without an in-package caller must not be deleted unseen,
and its per-layer metrics read 0 unless a workload calls it directly,
so the traced names no package code refers to are listed in
UNCALLED_IN_PACKAGE.  A traced method counts as referenced only through
an attribute (x.method), so a function of the same name, such as
nilpotent.bracket for ChevalleyAlgebra.bracket, cannot stand in for it.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PACKAGE = ROOT / "src" / "cubicontact"

# Traced names with no reference in the package outside their own
# definition.  verify_chevalley_jacobi is the public entry point the
# benchmark's Jacobi workload calls; ChevalleyAlgebra.bracket, the
# bracket of label dicts, is kept as public API and for the tracer (the
# embedding check reads the table by position), and so are
# solve_line_coordinates, the line solve as QPolys in z, interpolated
# from chart_decompose at z = 0, 1, -1 (the tau check runs the int
# kernel at those points itself), moment_of, the
# moment value on one generator (moment_point_at reads the whole moment
# covector instead), and nilpotent.bracket, n's bracket of two elements
# (the group law and the moment map contract with the rows of n's stored
# table themselves); the others are kept as references for tests
# (trilinear for the closed-form contractions,
# mat_inv and mat_mul for the dense extraction reference, bracket_labels
# for the Chevalley tables).  A function that loses its last caller
# joins this set, so its metrics cannot read 0 unnoticed.
UNCALLED_IN_PACKAGE = {
    ("bch", "solve_line_coordinates"),
    ("chevalley", "verify_chevalley_jacobi"),
    ("chevalley", "ChevalleyAlgebra.bracket"),
    ("chevalley", "ChevalleyAlgebra.bracket_labels"),
    ("cubic", "trilinear"),
    ("linalg", "mat_inv"),
    ("linalg", "mat_mul"),
    ("moment", "moment_of"),
    ("nilpotent", "bracket"),
}


def _traced_names():
    """(module, qualname) pairs from TIMED, COUNTED and CAPTURED."""
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TIMED", "COUNTED", "CAPTURED"):
                tables[target.id] = ast.literal_eval(node.value)
    assert set(tables) == {"TIMED", "COUNTED", "CAPTURED"}
    names = set(tables["CAPTURED"])
    for table in (tables["TIMED"], tables["COUNTED"]):
        names |= {(module, fn) for module, fns in table.items() for fn in fns}
    return sorted(names)


def test_traced_names_resolve():
    names = _traced_names()
    assert ("cubic", "trilinear") in names
    for module, qualname in names:
        owner = importlib.import_module(f"cubicontact.{module}")
        if "." in qualname:
            cls_name, qualname = qualname.split(".")
            owner = vars(getattr(owner, cls_name))
            assert callable(owner.get(qualname)), f"{module}.{cls_name}.{qualname}"
        else:
            assert callable(getattr(owner, qualname, None)), f"{module}.{qualname}"


def _referenced_names():
    """Names read (called, or stored in a table) in package code, as
    (bare names, attribute names).

    A reference inside the definition of a function of the same name,
    such as a recursive call, does not count.
    """
    names, attributes = set(), set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        loaded = isinstance(getattr(node, "ctx", None), ast.Load)
        if loaded and isinstance(node, ast.Name) and node.id not in inside:
            names.add(node.id)
        elif loaded and isinstance(node, ast.Attribute) and node.attr not in inside:
            attributes.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return names, attributes


def _is_referenced(qualname, names, attributes):
    """A method through an attribute; a function by name or as module.attr."""
    if "." in qualname:
        return qualname.rsplit(".", 1)[-1] in attributes
    return qualname in names or qualname in attributes


def test_uncalled_traced_names_are_listed():
    names, attributes = _referenced_names()
    uncalled = {
        (module, qualname)
        for module, qualname in _traced_names()
        if not _is_referenced(qualname, names, attributes)
    }
    assert uncalled == UNCALLED_IN_PACKAGE


def test_method_is_not_referenced_by_a_function_of_the_same_name():
    names, attributes = {"bracket"}, set()
    assert _is_referenced("bracket", names, attributes)
    assert not _is_referenced("ChevalleyAlgebra.bracket", names, attributes)
    assert _is_referenced("ChevalleyAlgebra.bracket", set(), {"bracket"})
