"""Every function the benchmark tracer wraps still exists in the package.

bench/tracer.py names the functions it times, counts and captures.  A
name that no longer resolves would only fail a traced benchmark run; a
traced name without an in-package caller must not be deleted unseen,
and its per-layer metrics read 0 unless a workload calls it directly,
so the traced names that no reachable package code refers to are listed
in UNCALLED_IN_PACKAGE.  A reference counts only from code that the
package's module-level code reaches, so a function whose one referrer
nothing calls is uncalled too.  A traced method counts as referenced
only through an attribute (x.method), so a function of the same name,
such as nilpotent.bracket for ChevalleyAlgebra.bracket, cannot stand in
for it.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PACKAGE = ROOT / "src" / "cubicontact"

# Traced names with no reference from reachable package code.
# verify_chevalley_jacobi is the public entry point the
# benchmark's Jacobi workload calls; ChevalleyAlgebra.bracket, the
# bracket of label dicts, is kept as public API and for the tracer (the
# embedding check reads the table by position), and so are
# solve_line_coordinates, the line solve as an NElem of QPolys in z,
# interpolated from chart_decompose at z = 0, 1, -1 (the tau check runs
# the int kernel at those points itself), chart_decompose, whose one referrer
# is solve_line_coordinates, polarize, B(v1, v2) as a covector, whose
# one referrer is contact.tau, which no package code calls, moment_of, the
# moment value on one generator (moment_point_at reads the whole moment
# covector instead), and nilpotent.bracket, n's bracket of two elements
# (the group law and the moment map contract with the rows of n's stored
# table themselves); the others are kept as references for tests
# (trilinear for the closed-form contractions,
# mat_inv and mat_mul for the dense extraction reference, bracket_labels
# for the Chevalley tables).  A function that loses its last caller
# joins this set, so its metrics cannot read 0 unnoticed.
UNCALLED_IN_PACKAGE = {
    ("bch", "chart_decompose"),
    ("bch", "solve_line_coordinates"),
    ("chevalley", "verify_chevalley_jacobi"),
    ("chevalley", "ChevalleyAlgebra.bracket"),
    ("chevalley", "ChevalleyAlgebra.bracket_labels"),
    ("cubic", "polarize"),
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


def _referenced_names(package=PACKAGE):
    """Names read (called, or stored in a table) by package code that
    module-level code reaches, as (bare names, attribute names).

    Module-level code (class bodies, decorators and default values
    included) is reached, and so is every dunder method, which the
    interpreter calls.  A function or method body is reached once reached
    code refers to it as _is_referenced reads a traced name; the scan
    runs to a fixed point, so a reference from a function nothing reaches,
    a recursive call included, does not count.
    """
    names, attributes = set(), set()
    bodies = []  # (qualname, names read, attributes read) per definition

    def visit(node, reads, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for outer in node.decorator_list + node.args.defaults + node.args.kw_defaults:
                if outer is not None:
                    visit(outer, reads, None)
            body = (set(), set())
            bodies.append((f"{owner}.{node.name}" if owner else node.name, *body))
            for child in node.body:
                visit(child, body, None)
            return
        if isinstance(node, ast.ClassDef):
            for outer in node.decorator_list + node.bases + node.keywords:
                visit(outer, reads, None)
            for child in node.body:
                visit(child, reads, node.name)
            return
        if isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Name):
                reads[0].add(node.id)
            elif isinstance(node, ast.Attribute):
                reads[1].add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, reads, None)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (names, attributes), None)
    pending = bodies
    while True:
        reached = [
            body for body in pending
            if _is_dunder(body[0]) or _is_referenced(body[0], names, attributes)
        ]
        if not reached:
            return names, attributes
        for body in reached:
            names |= body[1]
            attributes |= body[2]
        pending = [body for body in pending if body not in reached]


def _is_dunder(qualname):
    name = qualname.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


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


def test_reference_counts_only_from_reached_code(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class K:\n"
        "    def __init__(self):\n"
        "        self.method()\n"
        "    def method(self):\n"
        "        helper()\n"
        "    def unread(self):\n"
        "        orphan_callee()\n"
        "def helper():\n"
        "    return helper()\n"
        "def orphan():\n"
        "    return orphan_callee(), orphan()\n"
        "def main(x=default()):\n"
        "    return K()\n"
        "if __name__ == '__main__':\n"
        "    main()\n",
        encoding="utf-8",
    )
    names, attributes = _referenced_names(tmp_path)
    assert {"main", "default", "K", "helper"} <= names
    assert "method" in attributes
    assert not {"orphan", "orphan_callee"} & names
