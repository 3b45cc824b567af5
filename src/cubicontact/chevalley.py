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

Roots are basis positions with int codes, so beta + gamma is an int sum
and one dict lookup, and ``n_constant`` memoizes N by position pair.
The relations are evaluated in ints from pairings, root lengths and
coroots tabled once per algebra, and each division is a divmod.  Every
constant is checked to be a nonzero integer (a remainder or a zero
raises ``StructureConstantError``).
The brackets of basis elements are kept in one integer table indexed by
basis position, filled a row at a time on first use from the rules
above; ``bracket_labels``, ``bracket`` and the Jacobi check all read it.
It has the format of nilpotent.bracket_table, ints in both, so one
Jacobi kernel in ``nilpotent`` checks both algebras: the check compares
every stored entry with its transpose and covers the jacobiator of
every unordered basis triple, each from its smallest index.  The kernel
reads the table alone: root codes add only here.

The check hands the kernel the 2 rank positions of the
e_{+-alpha_i}, which generate the algebra.  On an antisymmetric table
the x with ad_x a derivation form a subalgebra (ad_x a derivation gives
ad_[x,y] = [ad_x, ad_y], and a commutator of derivations is one), so
once the jacobiators of each generator with its candidate pairs are
zero and single-term brackets with the generators reach every basis
position, Jacobi holds on every triple.  When either fails, the kernel
walks all triples, so the report is the same as without generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nilpotent import jacobi_violations
from .rootsystems import RootSystem, _neg


class StructureConstantError(ValueError):
    """A derived structure constant is not a nonzero integer."""


class ChevalleyAlgebra:
    """Simple Lie algebra over Q in a Chevalley basis.

    Elements are dicts from basis labels to rational coefficients; the
    labels are ("h", i) for the coroot generators and ("e", root) for
    root vectors.  Positions in ``labels``: h_0..h_{r-1}, the m positive
    roots in (height, lex) order, then their negatives, so -beta is m
    positions from beta.  ``codes`` holds sum_t beta_t 64^t per position
    (0 for h_i).  Coordinates lie in [-6, 6] up to rank 8, so the codes
    looked up (sums of two roots, and beta - k alpha one step past an
    alpha-string) stay within +-18 < 32 and keep distinct codes.
    ``pairings`` holds <beta, alpha_i^vee> per position, ``coroots``
    the coordinates of beta^vee.

    The bracket of basis elements b_i, b_j is row i, entry j of the
    structure-constant table: the tuple of nonzero (k, int coefficient)
    terms of [b_i, b_j], absent when the bracket is zero.  Rows are
    filled on first use.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        r = rs.rank
        pos = rs.pos_roots
        self.labels = tuple(
            [("h", i) for i in range(r)]
            + [("e", b) for b in pos]
            + [("e", _neg(b)) for b in pos]
        )
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        split = self._split = r + len(pos)  # first negative root position
        # Position of -beta for the position of beta.
        self._opposite = [*range(r), *range(split, split + len(pos)), *range(r, split)]
        self.codes = tuple(
            sum(c * 64 ** t for t, c in enumerate(lab[1])) if lab[0] == "e" else 0
            for lab in self.labels
        )
        self._at = {c: i for i, c in enumerate(self.codes) if c}
        norm2 = [rs.norm2(b) for b in pos]
        self._norm2 = [None] * r + norm2 + norm2
        pairings = [tuple(sum(c * a for c, a in zip(b, row)) for row in rs.cartan)
                    for b in pos]
        self.pairings = [(0,) * r] * r + pairings + [_neg(p) for p in pairings]
        coroots = [rs.coroot_coordinates(b) for b in pos]
        self.coroots = [None] * r + coroots + [_neg(c) for c in coroots]
        self._n_memo = {}
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
        """gamma -> extraspecial (alpha, beta), positive root positions."""
        r, at, codes = self.rs.rank, self._at, self.codes
        out = {}
        for g in range(r, self._split):
            if sum(self.labels[g][1]) == 1:
                continue
            for a in range(r, g):
                b = at.get(codes[g] - codes[a])
                if b is not None and a < b < self._split:
                    out[g] = (a, b)
                    break
            else:
                # gamma = alpha + alpha never happens; a decomposition
                # with alpha == beta is impossible for roots.
                raise RuntimeError(f"no decomposition for {self.labels[g][1]}")
        return out

    def string_p(self, alpha: int, beta: int) -> int:
        """Largest k with beta - k alpha a root (root positions)."""
        at = self._at
        step = self.codes[alpha]
        code = self.codes[beta] - step
        k = 0
        while code in at:
            k += 1
            code -= step
        return k

    def simple_root_vectors(self) -> list:
        """Positions of e_{alpha_i}, then of e_{-alpha_i}: 2 rank
        elements that generate the algebra."""
        pos = [self.index["e", self.rs.simple_root(i)] for i in range(self.rs.rank)]
        return pos + [self._opposite[i] for i in pos]

    # -- structure constants --------------------------------------------

    def _exact(self, num: int, den: int, x: int, y: int) -> int:
        val, rem = divmod(num, den)
        if rem:
            raise StructureConstantError(
                f"non-integral structure constant "
                f"N({self.labels[x][1]}, {self.labels[y][1]}) = {num}/{den}"
            )
        return val

    def n_constant(self, x: int, y: int) -> int:
        """N(x, y) of root positions: [e_x, e_y] = N(x, y) e_{x+y}, or 0."""
        hit = self._n_memo.get((x, y))
        if hit is not None:
            return hit
        s = self._at.get(self.codes[x] + self.codes[y])
        if s is None:
            return 0
        val = self._n_compute(x, y, s)
        if not val:
            raise StructureConstantError(
                f"vanishing structure constant "
                f"N({self.labels[x][1]}, {self.labels[y][1]})"
            )
        self._n_memo[(x, y)] = val
        return val

    def _n_compute(self, x, y, s):
        split, opp, n = self._split, self._opposite, self.n_constant
        xpos = x < split
        ypos = y < split
        if xpos and ypos:
            if x > y:
                return -n(y, x)
            eps, delta = self._extraspecial[s]
            if (x, y) == (eps, delta):
                return self.string_p(x, y) + 1
            # Special pair: Jacobi on (e_eps, e_-x, e_-y).
            at, codes = self._at, self.codes
            t1 = 0
            k = at.get(codes[eps] - codes[y])
            if k is not None:
                t1 = n(opp[y], eps) * n(opp[x], k)
            t2 = 0
            k = at.get(codes[eps] - codes[x])
            if k is not None:
                t2 = n(eps, opp[x]) * n(opp[y], k)
            return self._exact(t1 + t2, n(eps, opp[s]), x, y)
        if not xpos and not ypos:
            return -n(opp[x], opp[y])
        # Mixed signs.
        if not xpos:
            return -n(y, x)
        # x positive, y negative now.
        if s < split:
            norm2 = self._norm2
            return self._exact(-norm2[s] * n(opp[y], s), norm2[x], x, y)
        return n(opp[y], opp[x])

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
        r = self.rs.rank
        d = len(self.labels)
        pairings = self.pairings
        row = {}
        if i < r:
            for j in range(r, d):
                c = pairings[j][i]
                if c:
                    row[j] = ((j, c),)
            return row
        for j, c in enumerate(pairings[i]):
            if c:
                row[j] = ((i, -c),)
        at, codes = self._at, self.codes
        code = codes[i]
        for j in range(r, d):
            s = code + codes[j]
            if not s:
                row[j] = tuple((t, c) for t, c in enumerate(self.coroots[i]) if c)
                continue
            k = at.get(s)
            if k is not None:
                row[j] = ((k, self.n_constant(i, j)),)
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
    triples_checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_chevalley_jacobi(alg: ChevalleyAlgebra, seed: int = 0) -> ChevalleyJacobiReport:
    """Jacobi over every basis triple, exhaustive.

    It reads the algebra's integer structure-constant table and works on
    basis positions; labels appear only in reported violations.  It runs
    nilpotent.jacobi_violations on the table with the generators
    e_{+-alpha_i}, which yields the label pairs whose brackets are not
    antisymmetric, then every unordered triple with a nonzero
    jacobiator; the triples it skips have zero jacobiators, so it checks
    C(d, 3) triples.  On a Lie algebra it evaluates only the jacobiators
    of each generator with its candidate pairs (12,799 of C(133, 3) on
    E7); any violation sends it through the walk, which takes each
    triple from its smallest index.  ``seed`` is ignored, since nothing
    is sampled; it stays for callers that pass one seed to every check,
    as bench/workloads.py does.
    """
    d = len(alg.labels)
    found = jacobi_violations(alg.table(), alg.simple_root_vectors())
    return ChevalleyJacobiReport(
        lie_type=alg.rs.lie_type,
        rank=alg.rs.rank,
        dimension=d,
        triples_checked=d * (d - 1) * (d - 2) // 6,
        violations=tuple(tuple(alg.labels[i] for i in v) for v in found),
    )
