"""Exact construction and verification of the graded nilpotent geometry
attached to a cubic form: the three-step Lie algebra and group law, the
chart contact form with its nondegeneracy certificate, the moment
variety membership, and the re-derivation of the cubics hidden inside
simple Lie algebras through root-system gradings."""

from .cubic import (
    SymCubic,
    FFTensor,
    DimensionMismatchError,
    TensorFormatError,
    ReductionError,
    b_rank,
    assumption_holds,
    cubic_eval,
    cubic_hash,
    dumps_tensor,
    from_cubic_monomials,
    load_tensor,
    loads_tensor,
    normalize_cubic,
    polarize,
    reduce_mod,
    trilinear,
)
from .nilpotent import (
    NElem,
    SlWElem,
    act_slw,
    bracket,
    dim_report,
    generic_element,
    n_dim,
    verify_jacobi,
)
from .bch import (
    ChartElem,
    GroupElem,
    bch,
    chart_decompose,
    exp_diff,
    exp_diff_inv,
    group_inv,
    group_mul,
    solve_line_coordinates,
)
from .contact import (
    AssumptionError,
    ChartPoint,
    dtheta_matrix,
    nondegeneracy_certificate,
    tau,
    tau_line_constants,
    tau_matches_line_expansion,
)
from .moment import (
    MomentPoint,
    ProbeVerdict,
    boundary_report,
    moment_membership,
    moment_of,
    moment_point_at,
    smoothness_probe,
)
from .rootsystems import (
    RootSystem,
    RootSystemError,
    TypeARejection,
    build_root_system,
    find_alpha,
)
from .chevalley import (
    ChevalleyAlgebra,
    StructureConstantError,
    chevalley,
    verify_chevalley_jacobi,
)
from .extraction import (
    DoubleGrading,
    ExtractionError,
    algebra_for,
    double_grading,
    extraction,
    ternary_dimension_check,
    verify_embedding,
)
from .catalog import (
    CatalogEntry,
    catalog_get,
    catalog_list,
    compare_to_extraction,
    signature,
)
from .reports import RunConfig, VerificationReport, canonical_json
from .verify import run_verification

__version__ = "0.1.0"
