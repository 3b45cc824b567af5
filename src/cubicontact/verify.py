"""Verification suites tying the modules into reproducible checks.

Each suite consumes a cubic and a RunConfig and returns (status,
details); statuses are 'pass', 'fail', 'inapplicable' or 'refused'.
All randomness flows from the config seed, so reports are reproducible
byte for byte.
"""

from __future__ import annotations

from .bch import bch, exp_diff, exp_diff_inv, roundtrip_bound
from .contact import (
    ChartPoint,
    dtheta_matrix,
    nondegeneracy_certificate,
    sample_chart_point,
    tau_line_constants,
    tau_matches_line_expansion,
)
from .cubic import SymCubic, assumption_holds, b_rank, cubic_hash
from .linalg import mat_det
from .moment import (
    boundary_report,
    moment_membership,
    moment_point_at,
    moment_point_closed_form,
)
from .nilpotent import NElem, dim_report, kronecker_points, verify_jacobi
from .reports import RunConfig, VerificationReport, jsonable
from .sampling import SeededSampler
from .scalars import Q1


def _sample_nelem(sampler: SeededSampler, p: int) -> NElem:
    return NElem.from_parts(
        p,
        col1=sampler.vector(p),
        col2=sampler.vector(p),
        n2=sampler.vector(p),
        n3=(sampler.fraction(), sampler.fraction()),
    )


def run_jacobi_suite(T: SymCubic, cfg: RunConfig):
    # The table checked is T's stored one, which bracket, bracket_transpose
    # and the group law contract with, so no sample ties it to them.
    rep = verify_jacobi(T)
    dims = dim_report(T)
    status = "pass" if rep.ok and dims["consistent"] else "fail"
    return status, {"jacobi": rep.to_json(), "dimensions": dims}


def run_group_suite(T: SymCubic, cfg: RunConfig):
    p = T.dim
    sampler = SeededSampler(cfg.seed)
    failures = []
    for s in range(cfg.samples):
        # A group element is its log: the product is bch, the inverse -a.
        a = _sample_nelem(sampler, p)
        b = _sample_nelem(sampler, p)
        c = _sample_nelem(sampler, p)
        if bch(bch(a, b, T), c, T) != bch(a, bch(b, c, T), T):
            failures.append({"check": "associativity", "sample": s})
        if not bch(a, -a, T).is_zero():
            failures.append({"check": "inverse", "sample": s})
        if bch(a, NElem.zero(p), T) != a:
            failures.append({"check": "identity", "sample": s})
        if failures:
            break
    status = "pass" if not failures else "fail"
    return status, {"samples": cfg.samples, "failures": failures}


def run_expdiff_suite(T: SymCubic, cfg: RunConfig):
    p = T.dim
    sampler = SeededSampler(cfg.seed ^ 0x5A5A)
    failures = []
    x_fixed = _sample_nelem(sampler, p)
    # Both maps are linear, so one round trip of a Kronecker point checks
    # every basis element of its block at once.
    points = kronecker_points(p, roundtrip_bound(x_fixed, T))
    if any(exp_diff(x_fixed, exp_diff_inv(x_fixed, z, T), T) != z for z in points):
        failures.append({"check": "basis_roundtrip"})
    for s in range(cfg.samples):
        x = _sample_nelem(sampler, p)
        z = _sample_nelem(sampler, p)
        if exp_diff(x, exp_diff_inv(x, z, T), T) != z:
            failures.append({"check": "roundtrip", "sample": s})
            break
    status = "pass" if not failures else "fail"
    return status, {"samples": cfg.samples, "failures": failures}


def run_contact_suite(T: SymCubic, cfg: RunConfig):
    cert = nondegeneracy_certificate(T, samples=cfg.samples, seed=cfg.seed)
    base = ChartPoint.base(T.dim)
    rows, den = dtheta_matrix(base, T)
    base_det = mat_det(rows) / den ** len(rows)
    expected = Q1  # y = 1 at the base point: det = y^(2p+2)
    details = {
        "certificate": cert.to_json(),
        "base_point_det": str(base_det),
    }
    status = "pass" if cert.ok and base_det == expected else "fail"
    return status, details


def run_tau_suite(T: SymCubic, cfg: RunConfig):
    p = T.dim
    sampler = SeededSampler(cfg.seed ^ 0x7A7A)
    s1, s2, s3 = tau_line_constants(T)
    failures = []
    for s in range(cfg.samples):
        v = sampler.vector(p)
        if not tau_matches_line_expansion(v, T):
            failures.append({"sample": s})
            break
    magnitudes_ok = (abs(s1), abs(s2), abs(s3)) == (
        Q1,
        Q1 / 2,
        Q1 / 6,
    )
    status = "pass" if not failures and magnitudes_ok else "fail"
    return status, {
        "constants": [str(s1), str(s2), str(s3)],
        "magnitudes_ok": magnitudes_ok,
        "failures": failures,
    }


def run_moment_suite(T: SymCubic, cfg: RunConfig):
    p = T.dim
    sampler = SeededSampler(cfg.seed ^ 0x3C3C)
    failures = []
    for s in range(cfg.samples):
        pt = sample_chart_point(sampler, p)
        m = moment_point_at(pt, T)
        if m != moment_point_closed_form(pt, T):
            failures.append({"check": "closed_form", "sample": s})
            break
        if not moment_membership(m, T):
            failures.append({"check": "membership", "sample": s})
            break
        if not any(m.cleared[0][p:p + 2]):  # phi3
            failures.append({"check": "phi3_nonzero", "sample": s})
            break
    boundary = boundary_report(
        T, primes=cfg.primes, budget=cfg.probe_budget, seed=cfg.seed
    )
    status = "pass" if not failures else "fail"
    return status, {
        "samples": cfg.samples,
        "failures": failures,
        "boundary": boundary,
        "prop5_inapplicable": boundary["inapplicable"],
    }


SUITES = {
    "jacobi": run_jacobi_suite,
    "group": run_group_suite,
    "expdiff": run_expdiff_suite,
    "contact": run_contact_suite,
    "tau": run_tau_suite,
    "moment": run_moment_suite,
}

# Suites that require the surjectivity assumption.
_GEOMETRIC = ("contact", "tau", "moment")


def run_verification(T: SymCubic, which, cfg: RunConfig) -> VerificationReport:
    report = VerificationReport(cubic_hash=cubic_hash(T), p=T.dim, config=cfg)
    ok_assumption = assumption_holds(T)
    for name in which:
        suite = SUITES[name]
        if name in _GEOMETRIC and not ok_assumption:
            report.add(
                name,
                "refused",
                {"reason": "surjectivity assumption violated", "b_rank": b_rank(T)},
            )
            continue
        status, details = suite(T, cfg)
        report.add(name, status, jsonable(details))
    return report
