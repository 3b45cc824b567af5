"""The three-step graded nilpotent Lie algebra built from a cubic form.

For a cubic with polarization B on Q^p, the algebra is

    n = n1 + n2 + n3,   n1 = V (x) W,  n2 = V*,  n3 = W,

with W two dimensional carrying the fixed symplectic form
omega(f1, f2) = +1.  The brackets are

    [v1 (x) w1, v2 (x) w2] = omega(w1, w2) B(v1, v2)   in n2,
    [v*, v (x) w]          = v*(v) w                   in n3,

all other graded pieces bracketing to zero (degrees beyond three).  The
grade-3 part is central and the Jacobi identity holds exactly because
dim W = 2; ``verify_jacobi`` re-derives that fact by brute enumeration.

Elements carry their grade-1 part as a p x 2 matrix whose columns are
the f1 and f2 coefficients.  All values are immutable; every operation
is a pure function, safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cubic import (
    SymCubic,
    DimensionMismatchError,
    assumption_holds,
    cubic_hash,
    polarize,
)
from .scalars import LinForm, Q0, Q1


def _dot(u, v):
    s = Q0
    for a, b in zip(u, v):
        if a and b:
            s = s + a * b
    return s


def _vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


@dataclass(frozen=True)
class NElem:
    """Graded element of n; also the log coordinate of a group element.

    n1: p rows of (f1 coefficient, f2 coefficient)
    n2: covector coordinates, length p
    n3: (f1 coefficient, f2 coefficient)
    """

    n1: tuple
    n2: tuple
    n3: tuple

    @staticmethod
    def zero(p: int) -> "NElem":
        return NElem(tuple(((Q0, Q0)) for _ in range(p)), (Q0,) * p, (Q0, Q0))

    @staticmethod
    def from_parts(p, col1=None, col2=None, n2=None, n3=None) -> "NElem":
        c1 = tuple(col1) if col1 is not None else (Q0,) * p
        c2 = tuple(col2) if col2 is not None else (Q0,) * p
        nn2 = tuple(n2) if n2 is not None else (Q0,) * p
        nn3 = tuple(n3) if n3 is not None else (Q0, Q0)
        return NElem(tuple(zip(c1, c2)), nn2, nn3)

    @property
    def dim(self) -> int:
        return len(self.n2)

    def col(self, a: int):
        return tuple(row[a] for row in self.n1)

    def __add__(self, other: "NElem") -> "NElem":
        return NElem(
            tuple((r1[0] + r2[0], r1[1] + r2[1]) for r1, r2 in zip(self.n1, other.n1)),
            _vadd(self.n2, other.n2),
            _vadd(self.n3, other.n3),
        )

    def __sub__(self, other: "NElem") -> "NElem":
        return self + (-other)

    def __neg__(self) -> "NElem":
        return NElem(
            tuple((-r[0], -r[1]) for r in self.n1),
            tuple(-x for x in self.n2),
            (-self.n3[0], -self.n3[1]),
        )

    def __mul__(self, s) -> "NElem":
        return NElem(
            tuple((r[0] * s, r[1] * s) for r in self.n1),
            tuple(x * s for x in self.n2),
            (self.n3[0] * s, self.n3[1] * s),
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return (
            all(not r[0] and not r[1] for r in self.n1)
            and all(not x for x in self.n2)
            and not self.n3[0]
            and not self.n3[1]
        )

    def map_scalars(self, f) -> "NElem":
        return NElem(
            tuple((f(r[0]), f(r[1])) for r in self.n1),
            tuple(f(x) for x in self.n2),
            (f(self.n3[0]), f(self.n3[1])),
        )


def _check_same_dim(x: NElem, y: NElem, T: SymCubic):
    if not (x.dim == y.dim == T.dim):
        raise DimensionMismatchError(
            f"dimensions differ: {x.dim}, {y.dim}, tensor {T.dim}"
        )


def bracket(x: NElem, y: NElem, T: SymCubic) -> NElem:
    """Lie bracket of n.  Output lives in grades 2 and 3 only."""
    _check_same_dim(x, y, T)
    p = T.dim
    # omega(f1, f2) = +1: the n2 part is B(x_f1, y_f2) - B(x_f2, y_f1).
    n2 = _vsub(polarize(T, x.col(0), y.col(1)), polarize(T, x.col(1), y.col(0)))
    n3 = tuple(
        _dot(x.n2, y.col(a)) - _dot(y.n2, x.col(a)) for a in (0, 1)
    )
    return NElem(tuple(((Q0, Q0)) for _ in range(p)), n2, n3)


# --- basis bookkeeping -------------------------------------------------
#
# Basis order: e_i (x) f1 for i < p, then e_i (x) f2, then the dual basis
# eps_i of n2, then f1, f2.  dim n = 3p + 2.

def n_dim(p: int) -> int:
    return 3 * p + 2


def basis_degree(p: int, idx: int) -> int:
    if idx < 2 * p:
        return 1
    if idx < 3 * p:
        return 2
    return 3


def basis_element(p: int, idx: int) -> NElem:
    z = [Q0] * p
    if idx < p:
        col1 = list(z)
        col1[idx] = Q1
        return NElem.from_parts(p, col1=col1)
    if idx < 2 * p:
        col2 = list(z)
        col2[idx - p] = Q1
        return NElem.from_parts(p, col2=col2)
    if idx < 3 * p:
        n2 = list(z)
        n2[idx - 2 * p] = Q1
        return NElem.from_parts(p, n2=n2)
    if idx == 3 * p:
        return NElem.from_parts(p, n3=(Q1, Q0))
    if idx == 3 * p + 1:
        return NElem.from_parts(p, n3=(Q0, Q1))
    raise IndexError(idx)


def n_basis(p: int):
    return [basis_element(p, i) for i in range(n_dim(p))]


def generic_element(p: int) -> NElem:
    """The element sum_i a_i b_i over the basis b_i, a_i formal coordinates.

    Its coordinates are the LinForm coordinates a_i in basis order, so a
    map that is linear in its NElem argument, evaluated once here, yields
    its value on basis_element(p, i) as the coefficient of a_i.
    """
    a = LinForm.coordinate
    return NElem(
        tuple((a(i), a(p + i)) for i in range(p)),
        tuple(a(2 * p + i) for i in range(p)),
        (a(3 * p), a(3 * p + 1)),
    )


def bracket_table(T: SymCubic):
    """Sparse table of basis brackets in basis coordinates.

    table[a][b] is a tuple of (index, coefficient) pairs.  Used by the
    Jacobi enumeration and by the structure-constant comparison against
    Chevalley subalgebras.
    """
    p = T.dim
    d = n_dim(p)
    table = [[() for _ in range(d)] for _ in range(d)]

    def cov_entries(i, j):
        out = []
        for k in range(p):
            v = T.value(i, j, k)
            if v:
                out.append((2 * p + k, v))
        return tuple(out)

    for i in range(p):
        for j in range(p):
            cov = cov_entries(i, j)
            if cov:
                # [e_i f1, e_j f2] = +B(e_i, e_j); [e_i f2, e_j f1] = -B
                table[i][p + j] = cov
                table[p + i][j] = tuple((k, -v) for k, v in cov)
    for i in range(p):
        for a in (0, 1):
            # [eps_i, e_i f_a] = f_a
            table[2 * p + i][a * p + i] = ((3 * p + a, Q1),)
            table[a * p + i][2 * p + i] = ((3 * p + a, -Q1),)
    return table


@dataclass(frozen=True)
class JacobiReport:
    p: int
    dim_n: int
    triples_checked: int
    violations: tuple
    assumption_ok: bool
    cubic_hash: str

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "cubic_hash": self.cubic_hash,
            "p": self.p,
            "dim_n": self.dim_n,
            "triples_checked": self.triples_checked,
            "jacobi_violations": [list(v) for v in self.violations],
            "assumption_ok": self.assumption_ok,
        }


def verify_jacobi(T: SymCubic, max_violations: int = 16) -> JacobiReport:
    """Check antisymmetry and the Jacobi identity on the basis of n.

    Antisymmetry is checked on every pair: a violation (a, b) with
    a <= b means [b_a, b_b] != -[b_b, b_a] (for a == b: a nonzero
    self-bracket).  Given antisymmetry the jacobiator
    [x,[y,z]] + [y,[z,x]] + [z,[x,y]] is alternating, so it is evaluated
    on the C(d, 3) triples i < j < k only (see
    chevalley.verify_chevalley_jacobi); a violation (i, j, k) is a
    triple with a nonzero jacobiator.  triples_checked is C(d, 3).
    """
    p = T.dim
    d = n_dim(p)
    table = bracket_table(T)
    violations = []

    def report():
        return JacobiReport(
            p, d, d * (d - 1) * (d - 2) // 6, tuple(violations),
            assumption_holds(T), cubic_hash(T),
        )

    for a in range(d):
        for b in range(a, d):
            if dict(table[a][b]) != {k: -c for k, c in table[b][a]}:
                violations.append((a, b))
                if len(violations) >= max_violations:
                    return report()
    for i in range(d):
        ti = table[i]
        for j in range(i + 1, d):
            tj = table[j]
            for k in range(j + 1, d):
                tk = table[k]
                acc = {}
                for (b, c) in tj[k]:
                    for (b2, c2) in ti[b]:
                        acc[b2] = acc.get(b2, Q0) + c * c2
                for (b, c) in tk[i]:
                    for (b2, c2) in tj[b]:
                        acc[b2] = acc.get(b2, Q0) + c * c2
                for (b, c) in ti[j]:
                    for (b2, c2) in tk[b]:
                        acc[b2] = acc.get(b2, Q0) + c * c2
                if any(acc.values()):
                    violations.append((i, j, k))
                    if len(violations) >= max_violations:
                        return report()
    return report()


@dataclass(frozen=True)
class SlWElem:
    """Traceless 2x2 matrix acting on W in the basis (f1, f2)."""

    mat: tuple  # ((a, b), (c, d)) with a + d = 0

    def __post_init__(self):
        (a, _b), (_c, d) = self.mat
        if a + d != 0:
            raise ValueError("sl(W) element must be traceless")

    @staticmethod
    def of(a, b, c) -> "SlWElem":
        from .scalars import frac

        a, b, c = frac(a), frac(b), frac(c)
        return SlWElem(((a, b), (c, -a)))


def act_slw(g: SlWElem, x: NElem) -> NElem:
    """Derivation action: g on the W factor of n1, zero on n2, g on n3."""
    (a, b), (c, d) = g.mat
    p = x.dim
    new_n1 = tuple(
        (a * r[0] + b * r[1], c * r[0] + d * r[1]) for r in x.n1
    )
    n3 = (a * x.n3[0] + b * x.n3[1], c * x.n3[0] + d * x.n3[1])
    return NElem(new_n1, (Q0,) * p, n3)


def dim_report(T: SymCubic) -> dict:
    """Dimension bookkeeping: dim n, dim N + 1 - p, and 2p + 3 agree."""
    p = T.dim
    dim_n = n_dim(p)
    via_group = dim_n + 1 - p
    formula = 2 * p + 3
    return {
        "p": p,
        "dim_n": dim_n,
        "dim_xc_via_group": via_group,
        "dim_xc_formula": formula,
        "consistent": via_group == formula,
    }
