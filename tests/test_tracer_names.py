"""Every function the benchmark tracer wraps still exists in the package.

bench/tracer.py names the functions it times, counts and captures.  A
name that no longer resolves would only fail a traced benchmark run; a
traced name without an in-package caller (cubic.trilinear, kept as the
reference of the closed-form contractions) must not be deleted unseen.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
