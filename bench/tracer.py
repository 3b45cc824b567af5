"""Per-layer spans recorded from outside the package.

The tracer replaces chosen public functions of ``cubicontact`` with
wrappers at every place they are looked up: module attributes (including
names bound by ``from .x import f`` in other modules), class attributes,
and module-level dicts such as ``verify.SUITES``.  ``uninstall`` puts
every original object back.

Three kinds of wrapper:

* timed: ``calls``, inclusive seconds ``s`` and ``self_s`` (the span's
  duration minus the time its child spans cover);
* counted: ``calls`` only.  Used for the hot leaves, which run 10^5 to
  10^7 times a run; their time is left inside the ``self_s`` of the
  timed span that calls them, so the wrapper adds one increment per
  call and no clock reads;
* captured: reads an exact work counter from the returned object.
  Capture is also installed in untraced runs, where it is the only
  wrapper; it sits on functions called a handful of times per run.

Spans live in memory and are summarised when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from time import perf_counter

# module -> functions timed as spans.  "Class.method" names a method.
TIMED = {
    "verify": (
        "run_jacobi_suite",
        "run_group_suite",
        "run_expdiff_suite",
        "run_contact_suite",
        "run_tau_suite",
        "run_moment_suite",
    ),
    "nilpotent": ("verify_jacobi",),
    "bch": (
        "bch",
        "exp_diff",
        "exp_diff_inv",
        "chart_decompose",
        "solve_line_coordinates",
    ),
    "cubic": ("trilinear", "b_rank", "reduce_mod"),
    "contact": (
        "dtheta_matrix",
        "nondegeneracy_certificate",
        "tau_line_constants",
        "tau_matches_line_expansion",
    ),
    "linalg": ("mat_det", "mat_rank", "mat_inv", "mat_mul"),
    "moment": (
        "moment_point_at",
        "moment_of",
        "moment_membership",
        "smoothness_probe",
    ),
    "rootsystems": ("build_root_system",),
    "chevalley": ("ChevalleyAlgebra.bracket", "verify_chevalley_jacobi"),
    "extraction": ("double_grading", "extraction", "verify_embedding"),
    "catalog": ("signature",),
    "reports": ("canonical_json",),
}

# Hot leaves: call counts only, their time stays with the caller.
COUNTED = {
    "nilpotent": ("bracket",),
    "cubic": ("polarize",),
    "chevalley": ("ChevalleyAlgebra.bracket_labels", "ChevalleyAlgebra.n_constant"),
}

# Exact work counters read from returned objects, in every run.
CAPTURED = {
    ("moment", "smoothness_probe"),
    ("chevalley", "verify_chevalley_jacobi"),
    ("nilpotent", "verify_jacobi"),
    ("extraction", "verify_embedding"),
}

# linalg functions whose largest matrix side is recorded as max_n.
SIZED = {"mat_det", "mat_rank", "mat_inv", "mat_mul"}


def short_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def layer_metric_names():
    """Per-layer metric names, in the order BENCHMARK.json lists them."""
    names = []
    for module, fns in TIMED.items():
        for fn in fns:
            base = short_name(module, fn)
            names += [f"{base}.calls", f"{base}.s", f"{base}.self_s"]
            if module == "linalg" and fn in SIZED:
                names.append(f"{base}.max_n")
    for module, fns in COUNTED.items():
        names += [f"{short_name(module, fn)}.calls" for fn in fns]
    names += list(COUNTER_NAMES)
    return names


COUNTER_NAMES = (
    "moment.smoothness_probe.trials",
    "moment.smoothness_probe.witness_per_trial",
    "chevalley.verify_chevalley_jacobi.triples_checked",
    "nilpotent.verify_jacobi.triples_checked",
    "extraction.verify_embedding.pairs_checked",
)


def package_modules():
    """Every module of the package, imported now so that names bound by
    modules imported later (cli) cannot escape the wrappers."""
    import cubicontact

    for info in pkgutil.iter_modules(cubicontact.__path__):
        if info.name != "__main__":  # runs the CLI on import
            importlib.import_module(f"cubicontact.{info.name}")
    return [
        m for name, m in sorted(sys.modules.items())
        if name == "cubicontact" or name.startswith("cubicontact.")
    ]


class Stat:
    __slots__ = ("calls", "s", "self_s", "depth", "max_n")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.max_n = 0


def _matrix_side(args) -> int:
    side = 0
    for m in args:
        if isinstance(m, (list, tuple)) and m:
            side = max(side, len(m), len(m[0]) if isinstance(m[0], (list, tuple)) else 0)
    return side


class Tracer:
    """Installs wrappers on the package; ``timed=False`` installs capture only."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.stats = {}
        self.counters = {name: 0 for name in COUNTER_NAMES if not name.endswith("_per_trial")}
        self.witnesses = 0
        self._stack = []  # child seconds accumulated per open span
        self._patches = []  # (setter, original) in install order

    # -- wrappers -------------------------------------------------------

    def _capture(self, name, result):
        c = self.counters
        if name == "moment.smoothness_probe":
            c["moment.smoothness_probe.trials"] += sum(n for _q, n in result.trials)
            self.witnesses += int(result.witness is not None)
        elif name == "extraction.verify_embedding":
            c["extraction.verify_embedding.pairs_checked"] += result.pairs_checked
        else:
            c[f"{name}.triples_checked"] += result.triples_checked

    def _timed(self, name, fn, capture, sized):
        st = self.stats.setdefault(name, Stat())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sized:
                st.max_n = max(st.max_n, _matrix_side(args))
            st.depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - child
                if st.depth == 0:  # recursion: count the outermost span once
                    st.s += dt
                if stack:
                    stack[-1] += dt
            if capture:
                self._capture(name, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        st = self.stats.setdefault(name, Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _captured(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._capture(name, result)
            return result

        return wrapper

    # -- install / uninstall --------------------------------------------

    def _plan(self):
        plan = []  # (module, qualname, kind)
        if self.timed:
            for module, fns in TIMED.items():
                plan += [(module, fn, "timed") for fn in fns]
            for module, fns in COUNTED.items():
                plan += [(module, fn, "counted") for fn in fns]
        else:
            plan += [(module, fn, "captured") for module, fn in sorted(CAPTURED)]
        return plan

    def install(self):
        modules = package_modules()
        for module, qualname, kind in self._plan():
            home = sys.modules[f"cubicontact.{module}"]
            name = short_name(module, qualname)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(kind, name, original, module, meth))
                continue
            original = getattr(home, qualname)
            wrapped = self._wrap(kind, name, original, module, qualname)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapped)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                self._set_item(value, key, wrapped)
        return self

    def _wrap(self, kind, name, fn, module, qualname):
        if kind == "counted":
            return self._counted(name, fn)
        if kind == "captured":
            return self._captured(name, fn)
        capture = (module, qualname) in CAPTURED
        sized = module == "linalg" and qualname in SIZED
        return self._timed(name, fn, capture, sized)

    def _set(self, owner, attr, value):
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._patches.append((lambda v, o=owner, a=attr: setattr(o, a, v), original))

    def _set_item(self, mapping, key, value):
        original = mapping[key]
        mapping[key] = value
        self._patches.append((lambda v, m=mapping, k=key: m.__setitem__(k, v), original))

    def uninstall(self):
        while self._patches:
            setter, original = self._patches.pop()
            setter(original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values of one traced iteration, every name present."""
        out = self.exact_counters()
        for metric in layer_metric_names():
            if metric not in out:
                base, field = metric.rsplit(".", 1)
                out[metric] = getattr(self.stats.get(base, Stat()), field)
        return out

    def exact_counters(self) -> dict:
        c = dict(self.counters)
        trials = c["moment.smoothness_probe.trials"]
        c["moment.smoothness_probe.witness_per_trial"] = self.witnesses / trials if trials else 0.0
        return c
