"""Exact construction and verification of the graded nilpotent geometry
attached to a cubic form: the three-step Lie algebra and group law, the
chart contact form with its nondegeneracy certificate, the moment
variety membership, and the re-derivation of the cubics hidden inside
simple Lie algebras through root-system gradings.

``import cubicontact`` loads no submodule.  Each public name resolves
on first use, by importing its home module from the table below, and is
not cached here: every access reads the home module's current binding.
``bch``, ``chevalley`` and ``extraction`` name both a function and a
submodule; the package attribute stays the function after the submodule
is imported."""

import sys
from importlib import import_module
from types import ModuleType

_HOMES = {
    "cubic": (
        "SymCubic FFTensor DimensionMismatchError TensorFormatError ReductionError"
        " ProbeVerdict b_rank assumption_holds cubic_eval cubic_hash dumps_tensor"
        " from_cubic_monomials load_tensor loads_tensor normalize_cubic polarize"
        " reduce_mod smoothness_probe trilinear"
    ),
    "nilpotent": "NElem SlWElem act_slw bracket dim_report n_dim verify_jacobi",
    "bch": "bch chart_decompose exp_diff exp_diff_inv solve_line_coordinates",
    "contact": (
        "AssumptionError ChartPoint dtheta_matrix nondegeneracy_certificate tau"
        " tau_line_constants tau_matches_line_expansion"
    ),
    "moment": "MomentPoint boundary_report moment_membership moment_of moment_point_at",
    "rootsystems": "RootSystem RootSystemError TypeARejection build_root_system find_alpha",
    "chevalley": "ChevalleyAlgebra StructureConstantError chevalley verify_chevalley_jacobi",
    "extraction": (
        "DoubleGrading ExtractionError algebra_for double_grading extraction"
        " ternary_dimension_check verify_embedding"
    ),
    "catalog": "CatalogEntry catalog_get catalog_list compare_to_extraction signature",
    "reports": "RunConfig VerificationReport canonical_json",
    "verify": "run_verification",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it here; a public name of the same
        # spelling stays the function its home module defines.
        if not (name in _HOME and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
