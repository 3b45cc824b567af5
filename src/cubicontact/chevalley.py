"""Chevalley bases with exact integer structure constants.

Basis: coroot generators h_1..h_r and root vectors e_beta for every
root.  Brackets:

    [h_i, h_j] = 0
    [h_i, e_beta] = <beta, alpha_i^vee> e_beta
    [e_beta, e_-beta] = H_beta   (beta^vee in the simple coroot basis)
    [e_beta, e_gamma] = N(beta, gamma) e_{beta+gamma}   if beta+gamma is a root

The integers N are fixed by the classical extraspecial-pair scheme: for
every non-simple positive root gamma, among its decompositions
gamma = alpha + beta into positive roots with alpha before beta in the
(height, lex) order, the pair with minimal alpha is extraspecial and
gets N = p + 1 > 0, where p is the length of the descending alpha-string
through beta.  Every other constant follows from the standard relations:

  * antisymmetry N(x, y) = -N(y, x) and negation N(-x, -y) = -N(x, y);
  * for x + y + z = 0:  N(x, y)/(z, z) = N(y, z)/(x, x) = N(z, x)/(y, y);
  * for a special pair (alpha, beta) with extraspecial (eps, delta):
        N(alpha, beta) N(eps, -gamma)
            = N(-beta, eps) N(-alpha, eps - beta)
            + N(eps, -alpha) N(-beta, eps - alpha),
    a Jacobi consequence on (e_eps, e_-alpha, e_-beta).

The relations are evaluated in ints: the pairings and root lengths
(x, x) are the ints of ``RootSystem.pairing`` and ``norm2`` (tabled
once per algebra), and each division is a divmod.  Every constant is
checked to be a nonzero integer (a remainder or a zero raises
``StructureConstantError``).
The brackets of basis elements are kept in one integer table indexed by
basis position, filled a row at a time on first use from the rules
above; ``bracket_labels``, ``bracket`` and the Jacobi check all read it.
The table has the format of nilpotent.bracket_table, so both algebras
are checked by the one Jacobi kernel in ``nilpotent``: the exhaustive
check compares every stored entry with its transpose and covers the
jacobiator of every unordered basis triple; the sampled check evaluates
it on seeded triples.  The exhaustive check grades the basis by the root
lattice, so it evaluates only triples whose total weight is 0 or a root.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nilpotent import _jacobiator, _vsub, jacobi_violations
from .rootsystems import RootSystem, _neg, _vadd
from .sampling import SeededSampler


class StructureConstantError(ValueError):
    """A derived structure constant is not a nonzero integer."""


def _integral(num: int, den: int, x, y) -> int:
    val, rem = divmod(num, den)
    if rem:
        raise StructureConstantError(
            f"non-integral structure constant N{(x, y)} = {num}/{den}"
        )
    return val


class ChevalleyAlgebra:
    """Simple Lie algebra over Q in a Chevalley basis.

    Elements are dicts from basis labels to rational coefficients; the
    labels are ("h", i) for the coroot generators and ("e", root) for
    root vectors.

    The bracket of basis elements b_i, b_j (positions in ``labels``) is
    row i, entry j of the structure-constant table: the tuple of nonzero
    (k, int coefficient) terms of [b_i, b_j], absent when the bracket is
    zero.  Rows are filled on first use.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.labels = tuple(
            [("h", i) for i in range(rs.rank)]
            + [("e", b) for b in rs.pos_roots]
            + [("e", _neg(b)) for b in rs.pos_roots]
        )
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self._n_memo = {}
        self._norm2 = {b: rs.norm2(b) for b in rs.pos_roots}
        self._extraspecial = self._build_extraspecial()
        self._rows = [None] * len(self.labels)
        # Results other modules derive from this algebra, memoized per
        # object (for example its highest-root extraction).
        self.derived = {}

    # -- bookkeeping ----------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def _build_extraspecial(self):
        rs = self.rs
        out = {}
        for gamma in rs.pos_roots:
            if sum(gamma) == 1:
                continue
            best = None
            for alpha in rs.pos_roots:
                beta = _vsub(gamma, alpha)
                if not rs.is_positive(beta):
                    continue
                if rs.order_index(alpha) >= rs.order_index(beta):
                    continue
                if best is None or rs.order_index(alpha) < rs.order_index(best[0]):
                    best = (alpha, beta)
            if best is None:
                # gamma = alpha + alpha never happens; a decomposition
                # with alpha == beta is impossible for roots.
                raise RuntimeError(f"no decomposition for {gamma}")
            out[gamma] = best
        return out

    def string_p(self, alpha, beta) -> int:
        """Largest k with beta - k alpha a root."""
        rs = self.rs
        k = 0
        gamma = beta
        while True:
            gamma = _vsub(gamma, alpha)
            if rs.is_root(gamma) and any(gamma):
                k += 1
            else:
                return k

    # -- structure constants --------------------------------------------

    def n_constant(self, x, y) -> int:
        """N(x, y) with [e_x, e_y] = N(x, y) e_{x+y}; 0 if x+y not a root."""
        hit = self._n_memo.get((x, y))
        if hit is not None:
            return hit
        s = _vadd(x, y)
        if not any(s) or not self.rs.is_root(s):
            return 0
        val = self._n_compute(x, y, s)
        if not val:
            raise StructureConstantError(
                f"vanishing structure constant N{(x, y)}"
            )
        self._n_memo[(x, y)] = val
        return val

    def _n_compute(self, x, y, s):
        rs = self.rs
        xpos = rs.is_positive(x)
        ypos = rs.is_positive(y)
        if xpos and ypos:
            if rs.order_index(x) > rs.order_index(y):
                return -self.n_constant(y, x)
            eps, delta = self._extraspecial[s]
            if (x, y) == (eps, delta):
                return self.string_p(x, y) + 1
            # Special pair: Jacobi on (e_eps, e_-x, e_-y).
            t1 = 0
            if rs.is_root(_vsub(eps, y)):
                t1 = self.n_constant(_neg(y), eps) * self.n_constant(
                    _neg(x), _vsub(eps, y)
                )
            t2 = 0
            if rs.is_root(_vsub(eps, x)):
                t2 = self.n_constant(eps, _neg(x)) * self.n_constant(
                    _neg(y), _vsub(eps, x)
                )
            denom = self.n_constant(eps, _neg(s))
            return _integral(t1 + t2, denom, x, y)
        if not xpos and not ypos:
            return -self.n_constant(_neg(x), _neg(y))
        # Mixed signs.
        if not xpos:
            return -self.n_constant(y, x)
        # x positive, y negative now.
        if rs.is_positive(s):
            mu = _neg(y)
            nu = s
            return _integral(
                -self._norm2[nu] * self.n_constant(mu, nu), self._norm2[x], x, y
            )
        return self.n_constant(_neg(y), _neg(x))

    # -- brackets ---------------------------------------------------------

    def _row(self, i: int) -> dict:
        """Row i of the structure-constant table, filled on first use."""
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = self._fill_row(i)
        return row

    def table(self) -> list:
        """Every row of the structure-constant table."""
        return [self._row(i) for i in range(len(self.labels))]

    def _fill_row(self, i: int) -> dict:
        """Nonzero brackets [b_i, b_j] from the Chevalley rules."""
        rs = self.rs
        labels = self.labels
        r = rs.rank
        kind, va = labels[i]
        row = {}
        if kind == "h":
            alpha = rs.simple_root(va)
            for j in range(r, len(labels)):
                c = rs.pairing(labels[j][1], alpha)
                if c:
                    row[j] = ((j, c),)
            return row
        for j in range(r):
            c = rs.pairing(va, rs.simple_root(j))
            if c:
                row[j] = ((i, -c),)
        for j in range(r, len(labels)):
            vb = labels[j][1]
            s = _vadd(va, vb)
            if not any(s):
                coords = rs.coroot_coordinates(va)
                row[j] = tuple((t, c) for t, c in enumerate(coords) if c)
                continue
            k = self.index.get(("e", s))
            if k is not None:
                row[j] = ((k, self.n_constant(va, vb)),)
        return row

    def bracket_labels(self, la, lb) -> dict:
        """Bracket of two basis elements as a sparse label dict."""
        labels = self.labels
        terms = self._row(self.index[la]).get(self.index[lb], ())
        return {labels[k]: c for k, c in terms}

    def bracket(self, u: dict, v: dict) -> dict:
        index = self.index
        labels = self.labels
        v_terms = [(index[lb], cb) for lb, cb in v.items() if cb]
        out = {}
        for la, ca in u.items():
            if not ca:
                continue
            row = self._row(index[la])
            for j, cb in v_terms:
                for k, cc in row.get(j, ()):
                    lc = labels[k]
                    val = out.get(lc, 0) + ca * cb * cc
                    if val:
                        out[lc] = val
                    else:
                        out.pop(lc, None)
        return out


def chevalley(rs: RootSystem) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(rs)


@dataclass(frozen=True)
class ChevalleyJacobiReport:
    lie_type: str
    rank: int
    dimension: int
    mode: str
    triples_checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_chevalley_jacobi(
    alg: ChevalleyAlgebra, sample: int | None = None, seed: int = 0
) -> ChevalleyJacobiReport:
    """Jacobi over basis triples; exhaustive when sample is None.

    Both modes read the algebra's integer structure-constant table and
    work on basis positions; labels appear only in reported violations.

    Exhaustive mode runs nilpotent.jacobi_violations on the table, graded
    by the root lattice: h_i has weight 0 and e_beta the simple-root
    coordinates of beta in base 64 (they lie within 6, so sums of up to
    three roots keep distinct codes).  It yields the label pairs whose
    brackets are not antisymmetric, then every unordered triple with a
    nonzero jacobiator; the triples it skips have zero jacobiators, so it
    checks C(d, 3) triples.  Sampled mode evaluates the jacobiator of
    ``sample`` seeded triples.
    """
    labels = alg.labels
    d = len(labels)
    rows = alg.table()
    if sample is None:
        weight = [sum(x * 64 ** i for i, x in enumerate(v)) if k == "e" else 0
                  for k, v in labels]
        found = jacobi_violations(rows, weight)
        checked = d * (d - 1) * (d - 2) // 6
        mode = "exhaustive"
    else:
        sampler = SeededSampler(seed)
        triples = [
            tuple(sampler.int_range(0, d - 1) for _ in range(3))
            for _ in range(sample)
        ]
        found = (t for t in triples if _jacobiator(rows, *t))
        checked = len(triples)
        mode = "sampled"
    return ChevalleyJacobiReport(
        lie_type=alg.rs.lie_type,
        rank=alg.rs.rank,
        dimension=d,
        mode=mode,
        triples_checked=checked,
        violations=tuple(tuple(labels[i] for i in v) for v in found),
    )
