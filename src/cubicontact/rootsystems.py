"""Root systems of the simple Lie algebras, rank up to 8.

Roots are integer coordinate tuples in the simple root basis.  The
Cartan matrix convention is A[i][j] = <alpha_j, alpha_i^vee>, i.e. row i
holds the pairings against the i-th simple coroot.  Positive roots are
enumerated from the simple ones by the standard root-string closure:
beta + alpha_i is a root iff p_i(beta) - <beta, alpha_i^vee> > 0 where
p_i(beta) is the length of the descending alpha_i-string through beta.

The inner product is the symmetrized Cartan matrix with the minimal
integer symmetrizer, so ``inner`` and ``norm2`` are ints.  ``pairing``
<beta, gamma^vee> and ``coroot_coordinates`` divide them with divmod
and raise RootSystemError on a remainder.  ``chevalley`` tables the
simple-coroot pairings, lengths and coroots of the roots once per
algebra from ``cartan``, ``norm2`` and ``coroot_coordinates``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


class RootSystemError(ValueError):
    pass


class TypeARejection(RootSystemError):
    """Type A is rejected: the adjacent simple root is not unique."""

    def __init__(self, lie_type, rank, candidates):
        self.lie_type = lie_type
        self.rank = rank
        self.candidates = candidates
        super().__init__(
            f"type {lie_type}{rank}: {len(candidates)} simple roots adjacent "
            f"to the highest root (need exactly one): {candidates}"
        )


_E_CHAIN = {6: [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
            7: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)],
            8: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]}


def cartan_matrix(lie_type: str, rank: int):
    """Cartan matrix with rows indexed by coroots (0-based nodes)."""
    t = lie_type.upper()
    n = rank
    if t == "A" and 1 <= n <= 8:
        edges = [(i, i + 1, -1, -1) for i in range(n - 1)]
    elif t == "B" and 2 <= n <= 8:
        edges = [(i, i + 1, -1, -1) for i in range(n - 2)]
        edges.append((n - 2, n - 1, -1, -2))
    elif t == "C" and 2 <= n <= 8:
        edges = [(i, i + 1, -1, -1) for i in range(n - 2)]
        edges.append((n - 2, n - 1, -2, -1))
    elif t == "D" and 4 <= n <= 8:
        edges = [(i, i + 1, -1, -1) for i in range(n - 2)]
        edges.append((n - 3, n - 1, -1, -1))
    elif t == "E" and n in (6, 7, 8):
        edges = [(i, j, -1, -1) for i, j in _E_CHAIN[n]]
    elif t == "F" and n == 4:
        edges = [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]
    elif t == "G" and n == 2:
        edges = [(0, 1, -3, -1)]
    else:
        raise RootSystemError(f"unsupported type {lie_type}{rank}")
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i, j, aij, aji in edges:
        a[i][j] = aij
        a[j][i] = aji
    return a


def symmetrizer(cartan):
    """Minimal positive integers d with d_i a_ij = d_j a_ji."""
    n = len(cartan)
    d = [None] * n
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if d[i] is None:
                continue
            for j in range(n):
                if cartan[i][j] and d[j] is None:
                    d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                    changed = True
    if any(x is None for x in d):
        raise RootSystemError("Dynkin diagram is not connected")
    denom = math.lcm(*(x.denominator for x in d))
    ints = [int(x * denom) for x in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


@dataclass(frozen=True)
class RootSystem:
    lie_type: str
    rank: int
    cartan: tuple
    sym_d: tuple
    pos_roots: tuple  # ordered by (height, lex)
    highest_root: tuple
    _pos_set: frozenset = field(repr=False)

    def is_root(self, beta) -> bool:
        return beta in self._pos_set or _neg(beta) in self._pos_set

    def all_roots(self):
        return list(self.pos_roots) + [_neg(b) for b in self.pos_roots]

    def inner(self, beta, gamma) -> int:
        a = self.cartan
        d = self.sym_d
        total = 0
        for i, bi in enumerate(beta):
            if not bi:
                continue
            for j, gj in enumerate(gamma):
                if gj:
                    total += bi * gj * d[i] * a[i][j]
        return total

    def norm2(self, beta) -> int:
        return self.inner(beta, beta)

    def pairing(self, beta, gamma) -> int:
        """<beta, gamma^vee> = 2 (beta, gamma) / (gamma, gamma), an integer."""
        val, rem = divmod(2 * self.inner(beta, gamma), self.norm2(gamma))
        if rem:
            raise RootSystemError(f"non-integral pairing {beta} {gamma}")
        return val

    def simple_root(self, i: int):
        return tuple(1 if t == i else 0 for t in range(self.rank))

    def coroot_coordinates(self, beta):
        """beta^vee in the simple coroot basis (integer coordinates)."""
        n2 = self.norm2(beta)
        out = []
        for i, c in enumerate(beta):
            v, rem = divmod(2 * c * self.sym_d[i], n2)
            if rem:
                raise RootSystemError(f"non-integral coroot for {beta}")
            out.append(v)
        return tuple(out)


def _neg(beta):
    return tuple(-x for x in beta)


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def build_root_system(lie_type: str, rank: int) -> RootSystem:
    """Enumerate all roots by closure and identify the highest root."""
    a = cartan_matrix(lie_type, rank)
    d = symmetrizer(a)
    n = rank
    simples = [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]
    pos = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(n):
                pairing = sum(beta[j] * a[i][j] for j in range(n))
                down = 0
                gamma = beta
                while True:
                    gamma = tuple(
                        c - (1 if t == i else 0) for t, c in enumerate(gamma)
                    )
                    if gamma in pos:
                        down += 1
                    else:
                        break
                if down - pairing > 0:
                    up = _vadd(beta, simples[i])
                    if up not in pos:
                        pos.add(up)
                        new.append(up)
        frontier = new
    ordered = tuple(sorted(pos, key=lambda b: (sum(b), b)))
    highest = ordered[-1]
    # The highest root is the unique maximal-height root.
    max_h = sum(highest)
    if sum(1 for b in ordered if sum(b) == max_h) != 1:
        raise RootSystemError("highest root is not unique")
    rs = RootSystem(
        lie_type=lie_type.upper(),
        rank=rank,
        cartan=tuple(tuple(r) for r in a),
        sym_d=tuple(d),
        pos_roots=ordered,
        highest_root=highest,
        _pos_set=frozenset(pos),
    )
    for i in range(n):
        if rs.is_root(_vadd(highest, simples[i])):
            raise RootSystemError("highest root admits a higher neighbour")
    return rs


def find_alpha(rs: RootSystem):
    """The unique simple root alpha with psi - alpha a root (non-A types)."""
    psi = rs.highest_root
    candidates = []
    for i in range(rs.rank):
        diff = tuple(c - s for c, s in zip(psi, rs.simple_root(i)))
        if rs.is_root(diff):
            candidates.append(i)
    if rs.lie_type == "A":
        raise TypeARejection(rs.lie_type, rs.rank, candidates)
    if len(candidates) != 1:
        raise RootSystemError(
            f"type {rs.lie_type}{rs.rank}: expected one adjacent simple root, "
            f"found {candidates}"
        )
    return candidates[0], rs.simple_root(candidates[0])
