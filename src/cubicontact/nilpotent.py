"""The three-step graded nilpotent Lie algebra built from a cubic form.

For a cubic with polarization B on Q^p, the algebra is

    n = n1 + n2 + n3,   n1 = V (x) W,  n2 = V*,  n3 = W,

with W two dimensional carrying the fixed symplectic form
omega(f1, f2) = +1.  The brackets are

    [v1 (x) w1, v2 (x) w2] = omega(w1, w2) B(v1, v2)   in n2,
    [v*, v (x) w]          = v*(v) w                   in n3,

all other graded pieces bracketing to zero (degrees beyond three).  The
grade-3 part is central and the Jacobi identity holds exactly because
dim W = 2.  Times dt, the lcm of T's denominators, each structure
constant is an entry of T.scaled() or +-dt, an int in ``bracket_table``,
the one place these rules are written.  ``bracket_views`` builds it once
per tensor and keeps it on T, as T.scaled() is kept, with two views for
``scalars.contract_cleared``: row i as (j, k, c) triples, and the same
rows with j and k swapped.  ``bracket`` is one contraction over the
rows, ``bracket_transpose`` (u o ad_x, for the moment map) one over the
swapped rows, and the group law (``bch``) contracts with the rows too,
so the table the jacobi suite checks is the bracket every consumer
runs.  ``jacobi_violations``, the Jacobi kernel shared with the
Chevalley algebras, checks antisymmetry on every stored entry and the
jacobiator of every basis triple the table can make nonzero, each from
its smallest index.  A caller that knows basis elements generating its
algebra may pass them: on an antisymmetric table, once ad of each
generator is a derivation, so is ad of every element (the x with ad_x a
derivation form a subalgebra), and the Jacobi identity holds without
the walk over all triples.  The walk and this certificate evaluate
the pairs of one enumeration, ``_pairs_through``, per position.  The
Chevalley check passes its e_{+-alpha_i}; n passes none, since its
brackets [e_i (x) f1, e_j (x) f2] are sums of eps_k, and single-term
brackets of basis elements cannot show that a set generates it.

Elements carry their 3p + 2 coordinates in basis order (see
basis_element), a scalars.ClearedVector.  ``bracket`` and the other
kernels take rational coordinates only and raise TypeError on any
other.  All values are immutable; every operation is a pure function,
safe for concurrent use.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice

from .cubic import (
    SymCubic,
    DimensionMismatchError,
    assumption_holds,
    cubic_hash,
)
from .scalars import ClearedVector, Q0, Q1, cleared_form, contract_cleared, frac


class NElem(ClearedVector):
    """Element of n in basis coordinates; also the log coordinate of a
    group element.

    coords: the 3p + 2 coordinates in basis order (see basis_element):
    col(0), the f1 column of the grade-1 part, then col(1), the f2
    column, then n2, the covector, then n3, the f1 and f2 coefficients.
    The group law returns its results through ``of_cleared``.
    """

    def __init__(self, coords: tuple):
        if len(coords) % 3 != 2:
            raise DimensionMismatchError(f"{len(coords)} coordinates, not 3p + 2 for any p")
        super().__init__(coords)

    @staticmethod
    def zero(p: int) -> "NElem":
        return NElem((Q0,) * n_dim(p))

    @staticmethod
    def from_parts(p, col1=None, col2=None, n2=None, n3=None) -> "NElem":
        coords = ()
        for name, part, size in (
            ("col1", col1, p), ("col2", col2, p), ("n2", n2, p), ("n3", n3, 2),
        ):
            part = (Q0,) * size if part is None else tuple(part)
            if len(part) != size:
                raise DimensionMismatchError(
                    f"{name} has length {len(part)}, expected {size}"
                )
            coords += part
        return NElem(coords)

    @property
    def dim(self) -> int:
        return (len(self) - 2) // 3

    def col(self, a: int):
        p = self.dim
        return self.coords[a * p:(a + 1) * p]

    @property
    def n2(self):
        p = self.dim
        return self.coords[2 * p:3 * p]

    @property
    def n3(self):
        return self.coords[-2:]

    def __add__(self, other: "NElem") -> "NElem":
        return NElem(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "NElem") -> "NElem":
        return NElem(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "NElem":
        c = self.cleared
        if c:
            return NElem.of_cleared([-n for n in c[0]], c[1])
        return NElem(tuple(-a for a in self.coords))

    def __mul__(self, s) -> "NElem":
        return NElem(tuple(a * s for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        if "coords" in self.__dict__:
            return not any(self.coords)
        return not any(self.cleared[0])


def _check_same_dim(x: NElem, y: NElem, T: SymCubic):
    if not (x.dim == y.dim == T.dim):
        raise DimensionMismatchError(
            f"dimensions differ: {x.dim}, {y.dim}, tensor {T.dim}"
        )


def bracket(x: NElem, y: NElem, T: SymCubic) -> NElem:
    """Lie bracket of n: one contraction of the cleared forms of x and y
    over the rows of bracket_views(T), over dt dx dy."""
    _check_same_dim(x, y, T)
    rows = bracket_views(T)[1]
    nums, den = contract_cleared(rows, cleared_form(x), cleared_form(y), len(rows), T.scaled()[0])
    return NElem.of_cleared(nums, den)


def bracket_transpose(cx, cu, T: SymCubic):
    """u o ad_x, the covector Y -> u([x, Y]), from the cleared forms
    cx = (xs, dx) of x and cu = (us, du) of u, as (nums, dt dx du): its
    value on b_j sums x_i c u_k over the (j, k, c) of row i, one
    contraction over the swapped rows of bracket_views(T)."""
    swapped = bracket_views(T)[2]
    return contract_cleared(swapped, cx, cu, len(swapped), T.scaled()[0])


# --- basis bookkeeping -------------------------------------------------
#
# Basis order: e_i (x) f1 for i < p, then e_i (x) f2, then the dual basis
# eps_i of n2, then f1, f2.  dim n = 3p + 2.

def n_dim(p: int) -> int:
    return 3 * p + 2


def basis_element(p: int, idx: int) -> NElem:
    if not 0 <= idx < n_dim(p):
        raise IndexError(idx)
    return NElem(tuple(Q1 if k == idx else Q0 for k in range(n_dim(p))))


# Bits per coordinate of a Kronecker block, so that a map evaluated on it
# holds O(n) numbers of bounded size, not the n^2 s / 2 bits of one point.
KRONECKER_BLOCK_BITS = 1 << 15


def kronecker_points(p: int, bound: int):
    """The Kronecker points of n for ``bound``, one per block of w =
    max(1, KRONECKER_BLOCK_BITS // s) columns: N = 2^s, s = b + 1 for b
    the bit length of ``bound``, so N > 2 bound, and block j0 is
    z_j = N^(j - j0) for j0 <= j < j0 + w, else 0.  For 3p + 2 <= w this
    is the one point z_K = (1, N, N^2, ..., N^(3p+1)).

    Let L be a map linear in its NElem argument, such as the round trip
    of exp_diff and exp_diff_inv in Y that the expdiff suite checks, the
    one caller, and D an int for which every entry of D L is an integer
    c_kj with |c_kj| <= bound.
    Then D L(z)_k = sum_j c_kj N^(j - j0) over the block, whose balanced
    base-N digits are the c_kj (L. Kronecker, J. reine angew. Math. 92,
    1882; von zur Gathen and Gerhard, Modern Computer Algebra, 3rd ed.,
    8.4).  So two such maps agree at every block exactly when they agree
    on every basis element.  The caller derives the bound from the
    formulas it intends, so the verdict is exact only for code that meets
    it: a fault that pushes a coefficient of D L past N/2, or gives L a
    denominator not dividing D, can cancel at z and go unseen.
    """
    shift, n = bound.bit_length() + 1, n_dim(p)
    width = max(1, KRONECKER_BLOCK_BITS // shift)
    for j0 in range(0, n, width):
        nums = [0] * n
        nums[j0:j0 + width] = [1 << (shift * j) for j in range(min(width, n - j0))]
        yield NElem.of_cleared(nums, 1)


def bracket_table(T: SymCubic) -> list:
    """dt times the structure-constant table of n, (dt, rows) = T.scaled().

    Row i maps j to the nonzero (k, int) terms of dt [b_i, b_j], sorted by
    k and absent when the bracket is zero: the format of
    ChevalleyAlgebra.table.  Each (j, k, v) of rows[i] gives
    [e_i (x) f1, e_j (x) f2] its eps_k term v and [e_i (x) f2, e_j (x) f1]
    the negative; [eps_m, e_m (x) f_s] = dt f_s = -[e_m (x) f_s, eps_m].
    Jacobiators scale by dt^2.  O(nnz + p).
    """
    p = T.dim
    dt, rows = T.scaled()
    table = [{} for _ in range(n_dim(p))]
    for i, row in enumerate(rows):
        for j, k, val in row:
            table[i].setdefault(p + j, []).append((2 * p + k, val))
            table[p + i].setdefault(j, []).append((2 * p + k, -val))
    for m in range(p):
        for s in (0, 1):
            table[2 * p + m][s * p + m] = [(3 * p + s, dt)]
            table[s * p + m][2 * p + m] = [(3 * p + s, -dt)]
    return [{j: tuple(sorted(terms)) for j, terms in row.items()} for row in table]


def bracket_views(T: SymCubic):
    """(table, rows, swapped): T's bracket_table, built once per tensor
    and kept on it, with its views for contract_cleared: rows[i] the
    (j, k, c) of table[i], and swapped[i] the same terms as (k, j, c).
    Every caller shares them, so none may change the table."""
    if T._bracket is None:
        table = bracket_table(T)
        rows = tuple(tuple((j, k, c) for j, terms in row.items() for k, c in terms) for row in table)
        T._bracket = table, rows, tuple(tuple((k, j, c) for j, k, c in row) for row in rows)
    return T._bracket


def _jacobiator(rows, i, j, k) -> dict:
    """[b_i,[b_j,b_k]] + [b_j,[b_k,b_i]] + [b_k,[b_i,b_j]] by index."""
    acc = {}
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        inner = rows[y].get(z)
        if inner is None:
            continue
        row_x = rows[x]
        for w, cw in inner:
            for v, cv in row_x.get(w, ()):
                val = acc.get(v, 0) + cw * cv
                if val:
                    acc[v] = val
                else:
                    del acc[v]
    return acc


def _generates(rows, generators) -> bool:
    """Whether single-term brackets [b_s, b_j] = c b_k, c != 0, for s in
    ``generators``, reach every basis position from ``generators``: then
    each b_k is a bracket of generators, and they generate the algebra."""
    reached = set(generators)
    frontier = list(reached)
    while frontier:
        j = frontier.pop()
        for s in generators:
            terms = rows[s].get(j, ())
            if len(terms) == 1 and terms[0][1] and terms[0][0] not in reached:
                reached.add(terms[0][0])
                frontier.append(terms[0][0])
    return reached.issuperset(range(len(rows)))


def _pairs_through(rows, s, holders, producers, lo) -> set:
    """The pairs lo < y < z, packed as y d + z, for which a rotation of
    {s, y, z} passes the candidate rule: [b_x, [b_y, b_z]] can be nonzero
    only if [b_y, b_z] is stored and row x stores one of its terms.  Each
    rotation is read as _jacobiator reads it when s comes first: s a
    candidate of [b_y, b_z], z > y one of [b_s, b_y], or z < y one of
    [b_y, b_s].  ``holders`` maps a position to the rows storing it, in
    order; ``producers`` to the packed stored pairs y < z holding it, by y.
    """
    d = len(rows)
    row_s = rows[s]
    pairs = set()
    for w in row_s:
        pw = producers.get(w, ())
        pairs.update(pw[bisect_left(pw, (lo + 1) * d):])
    for y, terms in row_s.items():
        if y > lo:
            yd = y * d
            for w, _c in terms:
                hw = holders.get(w, ())
                pairs.update(map(yd.__add__, hw[bisect_right(hw, y):]))
    for y in holders.get(s, ()):
        for w, _c in rows[y][s]:
            hw = holders.get(w, ())
            pairs.update([z * d + y for z in hw[bisect_right(hw, lo):bisect_left(hw, y)]])
    return pairs


def _nonzero_through(rows, order, holders, producers):
    """The triples (s, y, z) with a nonzero jacobiator, for s in ``order``
    (repeats skipped) and y < z a pair of _pairs_through(s) holding no
    position met in ``order`` so far: lo < y, where 0, ..., lo are met.
    Over every position in order, each triple is taken once, from its
    smallest index, and skipped only when no rotation passes the
    candidate rule, so that every term is zero."""
    d = len(rows)
    done, lo = set(), -1
    for s in order:
        if s in done:
            continue
        done.add(s)
        while lo + 1 in done:
            lo += 1
        for pair in _pairs_through(rows, s, holders, producers, lo):
            y, z = divmod(pair, d)
            if y not in done and z not in done and _jacobiator(rows, s, y, z):
                yield s, y, z


def jacobi_violations(rows, generators=()):
    """Every antisymmetry and Jacobi violation of a bracket table.

    ``rows`` has the format of ``bracket_table``: terms sorted by
    position, no zero coefficient, so [b_a, b_b] = -[b_b, b_a] exactly
    when the two stored tuples agree up to sign.  First come the pairs
    (a, b), a <= b, where they do not (a == b: a nonzero self-bracket),
    in order.  Then come the triples i < j < k with a nonzero
    jacobiator, in order: _nonzero_through over every position.  For an
    antisymmetric bracket, whose jacobiator alternates, these C(d, 3)
    cover all d^3.

    ``generators``, a list of basis positions, may certify the table
    whole before the walk.  If the table is antisymmetric, single-term
    brackets with the generators reach every position (see _generates)
    and _nonzero_through over the generators finds nothing, then each
    ad_s is a derivation (the jacobiator alternates, so a pair skipped
    for s was evaluated with an earlier generator) and there is no
    violation: {x : ad_x is a derivation} is a subalgebra, since ad_x a
    derivation gives ad_[x,y] = [ad_x, ad_y] and a commutator of
    derivations is one, and it holds generators of the whole algebra.
    Otherwise the walk runs, so the violations are the same for every
    ``generators``.
    """
    d = len(rows)
    bad = set()
    holders = {}  # basis position -> the rows that store it, in order
    producers = {}  # basis position -> packed stored pairs a < b whose bracket has it
    for a, row in enumerate(rows):
        for b, terms in row.items():
            if tuple([(k, -c) for k, c in rows[b].get(a, ())]) != terms:
                bad.add((min(a, b), max(a, b)))
            holders.setdefault(b, []).append(a)
            if a < b:
                for w, _c in terms:
                    producers.setdefault(w, []).append(a * d + b)
    if (not bad and _generates(rows, generators)
            and not any(_nonzero_through(rows, generators, holders, producers))):
        return
    yield from sorted(bad)
    yield from sorted(_nonzero_through(rows, range(d), holders, producers))


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


MAX_VIOLATIONS = 16


def verify_jacobi(T: SymCubic) -> JacobiReport:
    """Antisymmetry and the Jacobi identity on the basis of n.

    The int table of dt times the constants (see bracket_table) is
    checked by jacobi_violations, with no generators (single-term brackets
    of basis elements do not generate n), so the walk always runs; the
    report keeps its first MAX_VIOLATIONS violations.  triples_checked
    is C(d, 3): every triple the kernel skips has a zero jacobiator.
    The table is T's stored one (bracket_views), the one that bracket,
    bracket_transpose and the group law contract with.
    """
    p = T.dim
    d = n_dim(p)
    found = jacobi_violations(bracket_views(T)[0])
    violations = tuple(islice(found, MAX_VIOLATIONS))
    return JacobiReport(
        p, d, d * (d - 1) * (d - 2) // 6, violations, assumption_holds(T), cubic_hash(T)
    )


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
        a, b, c = frac(a), frac(b), frac(c)
        return SlWElem(((a, b), (c, -a)))


def act_slw(g: SlWElem, x: NElem) -> NElem:
    """Derivation action: g on the W factor of n1, zero on n2, g on n3."""
    (a, b), (c, d) = g.mat
    c0, c1 = x.col(0), x.col(1)
    u, v = x.n3
    return NElem(
        tuple(a * s + b * t for s, t in zip(c0, c1))
        + tuple(c * s + d * t for s, t in zip(c0, c1))
        + (Q0,) * x.dim
        + (a * u + b * v, c * u + d * v)
    )


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
