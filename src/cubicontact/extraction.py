"""Gradings of a simple Lie algebra and extraction of its hidden cubic.

The coroot of the highest root psi induces the five-step grading with
ad-eigenvalues 0, +-1, +-2 and one-dimensional extremes.  Together with
the coroot of psi - alpha (alpha the unique simple root adjacent to psi)
it induces a double grading by integer pairs: e_beta has degree
(<beta, psi^vee>, <beta, (psi - alpha)^vee>), read off the algebra's
simple-coroot pairings and the coroot coordinates of psi and psi - alpha,
and the h_i have degree (0, 0).  The distinguished pieces

    g(0,1), g(1,0), g(1,1), g(2,1) = g_psi, g(1,2) = g_{psi-alpha}

carry two bracket pairings

    g(0,1) (x) g(1,1) -> g(1,2),      g(1,0) (x) g(1,1) -> g(2,1),

which are perfect for the supported types.  As [e_beta, e_gamma] is a
multiple of e_{beta+gamma}, each matches basis vectors one to one (beta
with target - beta) and is read off the integer structure-constant
table.  The linear map phi : g(0,1) -> g(1,0) matching the two pairings
is thus a scaled signed permutation, and the cubic form on V = g(0,1) is
read off from

    [phi(X), [phi(X), X]] = c(X) e_psi.

``verify_embedding`` then checks, structure constant by structure
constant, that the span of the five pieces with its Chevalley bracket is
isomorphic as a graded Lie algebra to the abstract three-step algebra
built from the extracted cubic.  By the same weight argument the
identification is a scaled injection of basis positions: the cubic is a
weight vector of the torus, so each B(e_i, e_j) is a multiple of one
eps_k, and its image [x_i, phi(x_j)] is a multiple of one root vector.
Types A and C are rejected with diagnostics (A: no unique adjacent
simple root; C: the distinguished pieces have mismatched dimensions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chevalley import ChevalleyAlgebra, chevalley
from .cubic import SymCubic, b_rank, normalize_cubic, perm_multiplicity
from .nilpotent import bracket_table, n_dim
from .rootsystems import build_root_system, find_alpha
from .scalars import Q0, Q1


class ExtractionError(ValueError):
    pass


def algebra_for(lie_type: str, rank: int) -> ChevalleyAlgebra:
    return _algebra(lie_type.upper(), rank)


@lru_cache(maxsize=None)
def _algebra(lie_type: str, rank: int) -> ChevalleyAlgebra:
    return chevalley(build_root_system(lie_type, rank))


@dataclass(frozen=True)
class DoubleGrading:
    """Simultaneous eigenspaces of the psi and (psi - alpha) coroots."""

    alpha_index: int
    alpha: tuple
    psi: tuple
    assignment: tuple  # (label, (a, b)) pairs, basis order
    pieces: dict  # (a, b) -> tuple of labels

    def piece(self, a, b):
        return self.pieces.get((a, b), ())

    def five_step_dims(self) -> tuple:
        """Dimensions of the psi-coroot pieces of degree -2..2."""
        return tuple(
            sum(len(labs) for (a, _b), labs in self.pieces.items() if a == e)
            for e in range(-2, 3)
        )

    def piece_dims(self) -> dict:
        return {f"{a},{b}": len(labs) for (a, b), labs in sorted(self.pieces.items())}


def double_grading(alg: ChevalleyAlgebra) -> DoubleGrading:
    """Degree (<beta, psi^vee>, <beta, (psi - alpha)^vee>) of each e_beta.

    The h_i have degree (0, 0).  The first degree is the five-step
    grading by the psi coroot: it must lie in -2..2, with lines in
    degree +-2.
    """
    alpha_index, alpha = find_alpha(alg.rs)
    psi = alg.rs.highest_root
    psi_alpha = tuple(p - a for p, a in zip(psi, alpha))
    # <beta, gamma^vee> = sum_i (gamma^vee)_i <beta, alpha_i^vee>.
    duals = [alg.coroots[alg.index["e", g]] for g in (psi, psi_alpha)]
    assignment = []
    pieces = {}
    for lab, pairs in zip(alg.labels, alg.pairings):
        ab = tuple(sum(c * q for c, q in zip(dual, pairs)) for dual in duals)
        if not -2 <= ab[0] <= 2:
            raise ExtractionError(f"eigenvalue {ab[0]} outside -2..2 for {lab}")
        assignment.append((lab, ab))
        pieces.setdefault(ab, []).append(lab)
    dg = DoubleGrading(
        alpha_index=alpha_index,
        alpha=alpha,
        psi=psi,
        assignment=tuple(assignment),
        pieces={k: tuple(v) for k, v in pieces.items()},
    )
    dims = dg.five_step_dims()
    if dims[0] != 1 or dims[4] != 1:
        raise ExtractionError(f"extreme grading pieces not lines: dims {dims}")
    return dg


@dataclass(frozen=True)
class ExtractionData:
    """Pieces, phi and cubic of one algebra.  The two pairings are
    matchings of basis vectors, so phi(x_a) = r_a z_pi(a) for each a."""

    lie_type: str
    rank: int
    p: int
    dg: DoubleGrading
    x_basis: tuple  # labels of g(0,1), the V side
    z_basis: tuple  # labels of g(1,0)
    y_basis: tuple  # labels of g(1,1)
    psi_label: tuple
    psi_alpha_label: tuple
    phi: tuple  # (pi(a), r_a) for each a
    raw_tensor: SymCubic
    tensor: SymCubic  # normalized
    norm_scalar: Fraction


def _distinguished(alg: ChevalleyAlgebra, dg: DoubleGrading):
    x_basis = dg.piece(0, 1)
    z_basis = dg.piece(1, 0)
    y_basis = dg.piece(1, 1)
    top = dg.piece(2, 1)
    side = dg.piece(1, 2)
    p = len(y_basis)
    if p == 0 or not (len(x_basis) == len(z_basis) == p):
        raise ExtractionError(
            f"type {alg.rs.lie_type}{alg.rs.rank}: distinguished pieces have "
            f"dims {(len(x_basis), len(z_basis), p)}; the construction needs "
            "three equal positive dimensions"
        )
    if len(top) != 1 or len(side) != 1:
        raise ExtractionError("corner pieces are not lines")
    return x_basis, z_basis, y_basis, top[0], side[0]


def _matching(alg: ChevalleyAlgebra, left, y_pos: dict, target) -> dict:
    """m -> (a, n) with [left_a, y_m] = n e_target; y_pos maps the basis
    position of y_m to m.  Rejects a pairing that is not one to one."""
    index, labels = alg.index, alg.labels
    t = index[target]
    pairs = []
    for a, la in enumerate(left):
        for j, terms in alg._row(index[la]).items():
            m = y_pos.get(j)
            if m is None:
                continue
            extra = [labels[k] for k, _n in terms if k != t]
            if extra:
                raise ExtractionError(
                    f"bracket [{la}, {labels[j]}] leaves the target line: {extra}"
                )
            pairs.append((m, a, terms[0][1]))
    every = list(range(len(left)))
    ys = sorted(m for m, _a, _n in pairs)
    if ys != every or sorted(a for _m, a, _n in pairs) != every:
        raise ExtractionError(
            f"pairings are not perfect: the pairing into {target} is not one to one"
        )
    return {m: (a, n) for m, a, n in pairs}


def extraction(alg: ChevalleyAlgebra) -> ExtractionData:
    """Pairings, phi and the cubic, once per algebra object: in a Chevalley
    basis both pairings are matchings, so phi is a scaled permutation."""
    hit = alg.derived.get("extraction")
    if hit is not None:
        return hit
    dg = double_grading(alg)
    x_basis, z_basis, y_basis, psi_label, psi_alpha_label = _distinguished(alg, dg)
    p = len(y_basis)
    index = alg.index
    y_pos = {index[lab]: m for m, lab in enumerate(y_basis)}
    lower = _matching(alg, x_basis, y_pos, psi_alpha_label)
    upper = _matching(alg, z_basis, y_pos, psi_label)
    # x_a and z_pi(a) share the partner y_m: phi(x_a) = (l_a / u_pi(a)) z_pi(a).
    phi = [None] * p
    for m, (a, n_low) in lower.items():
        b, n_up = upper[m]
        phi[a] = (b, Fraction(n_low, n_up))

    # F(a, b, c) = e_psi coefficient of [phi(x_a), [phi(x_b), x_c]]: an entry
    # [z_pi(b), x_c] = n y_m gives r_b n l_a, for the a matched to y_m.  The
    # symmetric cubic averages F over the distinct orderings of a triple.
    x_pos = {index[lab]: c for c, lab in enumerate(x_basis)}
    sums = {}
    for b, (zb, r) in enumerate(phi):
        for j, terms in alg._row(index[z_basis[zb]]).items():
            c = x_pos.get(j)
            if c is None:
                continue
            for k, n in terms:
                if k not in y_pos:
                    raise ExtractionError(
                        f"[phi(x_{b}), x_{c}] leaves g(1,1): {alg.labels[k]}"
                    )
                a, n_low = lower[y_pos[k]]
                tri = tuple(sorted((a, b, c)))
                sums[tri] = sums.get(tri, Q0) + r * n * n_low
    raw = SymCubic(
        p, {tri: v / perm_multiplicity(tri) for tri, v in sorted(sums.items())}
    )
    normalized, scalar = normalize_cubic(raw)
    data = ExtractionData(
        lie_type=alg.rs.lie_type,
        rank=alg.rs.rank,
        p=p,
        dg=dg,
        x_basis=tuple(x_basis),
        z_basis=tuple(z_basis),
        y_basis=tuple(y_basis),
        psi_label=psi_label,
        psi_alpha_label=psi_alpha_label,
        phi=tuple(phi),
        raw_tensor=raw,
        tensor=normalized,
        norm_scalar=scalar,
    )
    alg.derived["extraction"] = data
    return data


def gradings_report(alg: ChevalleyAlgebra) -> dict:
    """CLI-facing summary of the gradings and the extraction."""
    data = extraction(alg)
    return {
        "type": f"{alg.rs.lie_type}{alg.rs.rank}",
        "dim_g": alg.dimension,
        "five_step_dims": list(data.dg.five_step_dims()),
        "double_grading_dims": data.dg.piece_dims(),
        "p": data.p,
        "b_rank": b_rank(data.tensor),
        "normalization_scalar": str(data.norm_scalar),
    }


@dataclass(frozen=True)
class EmbeddingReport:
    lie_type: str
    rank: int
    p: int
    dim_n: int
    pairs_checked: int
    ok: bool
    first_mismatch: tuple | None
    norm_scalar: Fraction

    def to_json(self) -> dict:
        return {
            "type": f"{self.lie_type}{self.rank}",
            "p": self.p,
            "dim_n": self.dim_n,
            "pairs_checked": self.pairs_checked,
            "ok": self.ok,
            "first_mismatch": (
                None if self.first_mismatch is None else str(self.first_mismatch)
            ),
            "normalization_scalar": str(self.norm_scalar),
        }


def _image_bracket(alg: ChevalleyAlgebra, theta, a, b) -> dict:
    """[theta(a), theta(b)] as Chevalley basis position -> coefficient."""
    (sa, ca), (sb, cb) = theta[a], theta[b]
    if not (ca and cb):
        return {}
    return {k: ca * cb * n for k, n in alg._row(sa).get(sb, ())}


def _theta(alg: ChevalleyAlgebra, data: ExtractionData, table) -> list:
    """(sigma(a), c_a) for the basis vectors e_i (x) f1, e_i (x) f2, eps_k
    of n; table is bracket_table(raw cubic), dt times n's structure
    constants.  c_a = 0 is a zero image."""
    p = data.p
    dt = data.raw_tensor.scaled()[0]
    index = alg.index
    theta = [(index[lab], Q1) for lab in data.x_basis]
    theta += [(index[data.z_basis[b]], r) for b, r in data.phi]
    # [e_i (x) f1, e_j (x) f2] = B(e_i, e_j), as omega(f1, f2) = 1.
    eps = [None] * p
    for i in range(p):
        for j in range(p):
            terms = table[i].get(p + j)
            if not terms:
                continue
            if len(terms) != 1:
                raise ExtractionError(
                    f"B(e_{i}, e_{j}) has {len(terms)} coordinates: "
                    "the cubic is not a weight vector"
                )
            (k, c), = terms
            if eps[k - 2 * p] is None:
                # Off one basis vector, J(eps_k) becomes a zero image,
                # which the comparison rejects.
                got = list(_image_bracket(alg, theta, i, p + j).items())
                m, n = got[0] if len(got) == 1 else (None, Q0)
                eps[k - 2 * p] = (m, n * dt / c)
    if None in eps:
        raise ExtractionError("extracted cubic violates the surjectivity assumption")
    return theta + eps


def verify_embedding(alg: ChevalleyAlgebra) -> EmbeddingReport:
    """Structure-constant comparison of the graded span with abstract n.

    The identification theta of n(raw cubic) with the span sends each
    basis vector a of n to c_a times one basis vector sigma(a) of g:
    e_i (x) f1 -> x_i, e_i (x) f2 -> phi(x_i) = r_i z_pi(i), and the dual
    basis eps_k of V* -> J(eps_k) = [x_i, phi(x_j)] / c for the first
    pair with B(e_i, e_j) = c eps_k.  Both are single terms: the cubic
    is a weight vector, so T(i, j, k) != 0 fixes the weight of x_k, hence
    k, and B(e_i, e_j) is a multiple of one eps_k; [x_i, z_pi(j)] is a
    multiple of one root vector, as a root space is a line.  B is onto
    (the surjectivity assumption), so every eps_k is reached.  The W line is read off
    eps_0: f1 -> kappa1 e_{psi-alpha} and f2 -> kappa2 e_psi with
    [eps_0, e_0 (x) f1] = f1 and [eps_0, e_0 (x) f2] = f2.

    The check is the comparison of every bracket of basis elements of n
    with the Chevalley bracket of their images, read off both tables by
    position; any inconsistency of the data used to build theta shows
    up there.  Only a zero kappa is reported before it, as the
    comparison cannot see a degenerate W line.  For each a it visits
    only the b stored in n's row a and the b whose image position is
    stored in the Chevalley row of sigma(a): every other pair is zero on
    both sides.  pairs_checked counts all d^2 pairs, and a mismatch
    reports the first (a, b) in order with the count a walk of every
    pair would reach.  Labels appear only in the recorded mismatch.
    """
    data = extraction(alg)
    p = data.p
    index = alg.index
    table = bracket_table(data.raw_tensor)
    theta = _theta(alg, data, table)

    # W line images, from the brackets of eps_0 with e_0 (x) f1, f2.
    kappa1 = _image_bracket(alg, theta, 2 * p, 0).get(index[data.psi_alpha_label], Q0)
    kappa2 = _image_bracket(alg, theta, 2 * p, p).get(index[data.psi_label], Q0)
    if not kappa1 or not kappa2:
        return _embedding_report(data, 0, ("degenerate W normalization",))
    theta.append((index[data.psi_alpha_label], kappa1))
    theta.append((index[data.psi_label], kappa2))

    # Structure-constant comparison, sparse on both sides: [a, b] can be
    # nonzero only if n's row a stores b, or if the Chevalley row of
    # sigma(a) stores the position of a nonzero image theta(b).  The
    # table's dt is divided out of theta's coefficients once.
    dt = data.raw_tensor.scaled()[0]
    image = [(s, c / dt) for s, c in theta]
    preimages = {}
    for b, (s, c) in enumerate(theta):
        if c:
            preimages.setdefault(s, []).append(b)
    d = n_dim(p)
    for a, (sa, ca) in enumerate(theta):
        cands = set(table[a])
        if ca:
            for t in alg._row(sa):
                cands.update(preimages.get(t, ()))
        for b in sorted(cands):
            expected = {}
            for idx, coeff in table[a].get(b, ()):
                s, c = image[idx]
                val = expected.get(s, Q0) + c * coeff
                if val:
                    expected[s] = val
                else:
                    expected.pop(s, None)
            got = _image_bracket(alg, theta, a, b)
            if got != expected:
                labels = alg.labels
                got, expected = (
                    {labels[k]: v for k, v in m.items()} for m in (got, expected)
                )
                # The count a dense walk of (a, b) in order would reach.
                return _embedding_report(data, a * d + b + 1, (a, b, got, expected))
    return _embedding_report(data, d * d)


def _embedding_report(data: ExtractionData, pairs, mismatch=None) -> EmbeddingReport:
    return EmbeddingReport(
        lie_type=data.lie_type,
        rank=data.rank,
        p=data.p,
        dim_n=n_dim(data.p),
        pairs_checked=pairs,
        ok=mismatch is None,
        first_mismatch=mismatch,
        norm_scalar=data.norm_scalar,
    )


def ternary_dimension_check(alg: ChevalleyAlgebra) -> dict:
    """Dimension bookkeeping of the hexagonal double-grading layout."""
    data = extraction(alg)
    dim_g = alg.dimension
    p = data.p
    dim_h = dim_g - 8 - 6 * p
    return {
        "type": f"{alg.rs.lie_type}{alg.rs.rank}",
        "dim_g": dim_g,
        "p": p,
        "dim_h": dim_h,
        "pieces": data.dg.piece_dims(),
    }
