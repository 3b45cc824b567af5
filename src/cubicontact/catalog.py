"""Catalog of cubic norms of (semi-)simple cubic Jordan algebras.

Builders return SymCubic tensors under the full-sum convention; integer
monomial cubics (determinants, the Pfaffian, the octonion norm) are
stored via the minimal integer symmetrization, so their cubic value is
3! times the underlying polynomial (e.g. the symmetric 3x3 determinant
entry evaluates to 6 at the identity matrix).

The octonion multiplication is generated by Cayley-Dickson doubling
from the quaternions,

    (a, b) (c, d) = (a c - conj(d) b, d a + b conj(c)),

over the basis e0 = 1, e1..e7 with n(x) = sum x_i^2 and t(x) = 2 x_0.
The 27-variable norm of hermitian 3x3 octonion matrices

    [[l1, a3, conj(a2)], [conj(a3), l2, a1], [a2, conj(a1), l3]]

is  N = l1 l2 l3 - sum_i l_i n(a_i) + t(a1 (a2 a3)).

Signatures are equivalence-motivated fingerprints (p, polarization
rank, finite-field probe class); linear equivalence itself is out of
scope and never asserted.  The probe class says whether the probe found
a singular point of a reduction mod one of its primes; a singular
reduction does not make the cubic singular over Q.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from .cubic import (
    SymCubic,
    b_rank,
    cubic_eval,
    cubic_hash,
    from_cubic_monomials,
    smoothness_probe,
)
from .sampling import SeededSampler

# --- octonions ----------------------------------------------------------


def _cd_mul(x, y):
    """Cayley-Dickson product of equal-length power-of-two vectors."""
    n = len(x)
    if n == 1:
        return [x[0] * y[0]]
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    ac = _cd_mul(a, c)
    db = _cd_mul(_cd_conj(d), b)
    da = _cd_mul(d, a)
    bc = _cd_mul(b, _cd_conj(c))
    return [s - t for s, t in zip(ac, db)] + [s + t for s, t in zip(da, bc)]


def _cd_conj(x):
    return [x[0]] + [-t for t in x[1:]]


def octonion_table():
    """mult[i][j] = (k, sign) with e_i e_j = sign e_k."""
    table = []
    for i in range(8):
        row = []
        ei = [1 if t == i else 0 for t in range(8)]
        for j in range(8):
            ej = [1 if t == j else 0 for t in range(8)]
            prod = _cd_mul(ei, ej)
            nz = [(k, v) for k, v in enumerate(prod) if v]
            assert len(nz) == 1 and abs(nz[0][1]) == 1
            row.append(nz[0])
        table.append(tuple(row))
    return tuple(table)


# --- tensor builders ------------------------------------------------------


def x3_cubic() -> SymCubic:
    return SymCubic(1, {(0, 0, 0): 1})


def xq_cubic(p: int) -> SymCubic:
    """x times the standard diagonal quadratic form on the last p-1 slots."""
    if p < 2:
        raise ValueError("xq needs p >= 2")
    return SymCubic(p, {(0, i, i): 1 for i in range(1, p)})


def xyz_cubic() -> SymCubic:
    return SymCubic(3, {(0, 1, 2): 1})


def fermat_cubic(p: int = 3) -> SymCubic:
    return SymCubic(p, {(i, i, i): 1 for i in range(p)})


def det_sym3_cubic() -> SymCubic:
    """Determinant of a symmetric 3x3 matrix, coordinates
    (x11, x22, x33, x12, x13, x23)."""
    monomials = {
        (0, 1, 2): 1,
        (3, 4, 5): 2,
        (0, 5, 5): -1,
        (1, 4, 4): -1,
        (2, 3, 3): -1,
    }
    return from_cubic_monomials(6, monomials, scale=6)


def det3_cubic() -> SymCubic:
    """Determinant of a general 3x3 matrix, coordinates row-major."""
    monomials = {}
    for perm in itertools.permutations(range(3)):
        sign = _perm_sign(perm)
        tri = tuple(sorted(3 * r + perm[r] for r in range(3)))
        monomials[tri] = monomials.get(tri, 0) + sign
    return from_cubic_monomials(9, monomials, scale=6)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


_PFAFF_INDEX = {
    pair: idx
    for idx, pair in enumerate(
        (i, j) for i in range(6) for j in range(i + 1, 6)
    )
}


def _pfaffian_monomials(indices):
    """Monomials of the Pfaffian of the skew matrix on `indices`."""
    if not indices:
        return {(): 1}
    out = {}
    first = indices[0]
    rest = indices[1:]
    for pos, j in enumerate(rest):
        sub = rest[:pos] + rest[pos + 1:]
        sign = (-1) ** pos
        for mono, coeff in _pfaffian_monomials(sub).items():
            key = tuple(sorted(mono + (_PFAFF_INDEX[(first, j)],)))
            out[key] = out.get(key, 0) + sign * coeff
    return out


def pfaff6_cubic() -> SymCubic:
    """Pfaffian of a 6x6 skew matrix, coordinates m_ij for i < j."""
    monomials = _pfaffian_monomials(tuple(range(6)))
    return from_cubic_monomials(15, monomials, scale=6)


def j3o_norm_cubic() -> SymCubic:
    """Cubic norm of hermitian 3x3 octonion matrices (27 variables).

    Coordinates: (l1, l2, l3) then the octonion coordinates of a1, a2,
    a3 in blocks of 8.
    """
    monomials = {(0, 1, 2): 1}

    def var(block, coord):
        return 3 + 8 * block + coord

    # - l_i n(a_i)
    for i in range(3):
        for c in range(8):
            key = tuple(sorted((i, var(i, c), var(i, c))))
            monomials[key] = monomials.get(key, 0) - 1
    # + t(a1 (a2 a3)) = 2 [a1_0 (a2 a3)_0 - sum_{k>=1} a1_k (a2 a3)_k]
    table = octonion_table()
    for b in range(8):
        for c in range(8):
            k, sign = table[b][c]
            eta = 1 if k == 0 else -1
            key = tuple(sorted((var(0, k), var(1, b), var(2, c))))
            monomials[key] = monomials.get(key, 0) + 2 * eta * sign
    monomials = {k: v for k, v in monomials.items() if v}
    return from_cubic_monomials(27, monomials, scale=6)


# --- the catalog ----------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    p: int
    build: object  # zero-argument builder
    expected_signature: dict
    description: str

    def tensor(self) -> SymCubic:
        T = self.build()
        assert T.dim == self.p
        return T


_ENTRIES = (
    CatalogEntry(
        "x3", 1, x3_cubic,
        {"p": 1, "b_rank": 1, "probe": "none-found"},
        "x^3 on one variable",
    ),
    CatalogEntry(
        "xq5", 5, lambda: xq_cubic(5),
        {"p": 5, "b_rank": 5, "probe": "witness-found"},
        "x q(y) with q the standard diagonal quadric on 4 variables",
    ),
    CatalogEntry(
        "xyz", 3, xyz_cubic,
        {"p": 3, "b_rank": 3, "probe": "witness-found"},
        "xyz, the diagonal rank-3 norm",
    ),
    CatalogEntry(
        "fermat3", 3, lambda: fermat_cubic(3),
        {"p": 3, "b_rank": 3, "probe": "none-found"},
        "x^3 + y^3 + z^3 (smooth plane cubic)",
    ),
    CatalogEntry(
        "det-sym-3", 6, det_sym3_cubic,
        {"p": 6, "b_rank": 6, "probe": "witness-found"},
        "determinant of a symmetric 3x3 matrix",
    ),
    CatalogEntry(
        "det3", 9, det3_cubic,
        {"p": 9, "b_rank": 9, "probe": "witness-found"},
        "determinant of a general 3x3 matrix",
    ),
    CatalogEntry(
        "pfaff6", 15, pfaff6_cubic,
        {"p": 15, "b_rank": 15, "probe": "witness-found"},
        "Pfaffian of a 6x6 skew matrix",
    ),
    CatalogEntry(
        "j3o-norm", 27, j3o_norm_cubic,
        {"p": 27, "b_rank": 27, "probe": "witness-found"},
        "cubic norm of hermitian 3x3 octonion matrices",
    ),
)


def catalog_list():
    return _ENTRIES


def catalog_get(name: str) -> CatalogEntry:
    wanted = name.lower()
    for entry in _ENTRIES:
        if entry.name.lower() == wanted:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")


# --- signatures -----------------------------------------------------------

SIGNATURE_PROBE_PRIMES = (5, 7)
SIGNATURE_PROBE_BUDGET = 200_000
SIGNATURE_PROBE_SEED = 1405


def signature(T: SymCubic) -> dict:
    """Equivalence-motivated fingerprint of a cubic.

    The probe verdict is computed at a reduced budget compared to the
    verification default; with the fixed seed the whole record is
    deterministic.  The entry count and evaluation hash are reported for
    change detection but are basis dependent, so consistency comparisons
    use only p, b_rank and the probe class.
    """
    probe = smoothness_probe(
        T, SIGNATURE_PROBE_PRIMES, SIGNATURE_PROBE_BUDGET, SIGNATURE_PROBE_SEED
    )
    sampler = SeededSampler(7)
    values = [str(cubic_eval(T, sampler.vector(T.dim))) for _ in range(8)]
    eval_hash = hashlib.sha256("|".join(values).encode("ascii")).hexdigest()[:16]
    return {
        "p": T.dim,
        "b_rank": b_rank(T),
        "probe": probe.verdict_class,
        "nnz_normalized": len(T.entries),
        "eval_hash": eval_hash,
        "cubic_hash": cubic_hash(T),
    }


_COMPARE_FIELDS = ("p", "b_rank", "probe")


def compare_signatures(sig_a: dict, sig_b: dict) -> dict:
    mismatches = [
        {"field": f, "left": sig_a[f], "right": sig_b[f]}
        for f in _COMPARE_FIELDS
        if sig_a[f] != sig_b[f]
    ]
    return {
        "consistent": not mismatches,
        "mismatches": mismatches,
    }


def compare_to_extraction(entry: CatalogEntry, alg) -> dict:
    """Signature consistency of a catalog cubic with an extracted one.

    Never asserts linear equivalence; equal p, polarization rank and
    probe class is the full claim.
    """
    from .extraction import extraction

    data = extraction(alg)
    sig_cat = signature(entry.tensor())
    sig_ext = signature(data.tensor)
    result = compare_signatures(sig_cat, sig_ext)
    result.update(
        {
            "catalog": entry.name,
            "algebra": f"{alg.rs.lie_type}{alg.rs.rank}",
            "catalog_signature": sig_cat,
            "extraction_signature": sig_ext,
        }
    )
    return result
