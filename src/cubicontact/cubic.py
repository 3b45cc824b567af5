"""Cubic forms as symmetric trilinear tensors, with exact arithmetic.

A cubic form on Q^p is stored as the fully symmetric trilinear tensor T
with entries indexed by 0-based triples i <= j <= k.  The value of the
cubic at v is the full sum over all index orderings,

    c(v) = sum_{i,j,k} T(e_i, e_j, e_k) v_i v_j v_k,

so no 1/6 normalization ever appears and the polarization identity
B(v, v)(v) = c(v) holds on the nose.  The polarization

    B(v1, v2) = c(v1, v2, .)

is the covector with k-th coordinate sum_{i,j} T_sym(i,j,k) v1_i v2_j.
Because T is fully symmetric, every trilinear value is a contraction of
one polarization, c(x, y, w) = B(x, w) . y, whatever pair is polarized.
``polarize`` walks T's ordered entries grouped by first index, times the
lcm of the entries' denominators (``SymCubic.scaled``), so a zero v1_i
skips its whole group and a unit vector costs only its own group.  It
runs as one integer pass of the cleared-vector kernel
(``scalars.contract``) over rational vectors, ints or Fractions: both
are cleared to numerators over a common denominator, (nums, den), the
terms are summed in Python ints, and each output coordinate is built
once.  Any other coordinate raises TypeError.  ``cubic_eval`` and
``trilinear`` pair that polarization's int numerators with one more
vector's and build a single Fraction.  The group law reads n's stored
table (``nilpotent.bracket_views``), which is built from ``T.scaled()``.
Both tables are memoized on the tensor.

The surjectivity condition on B (rank of the span of all B(e_i, e_j)
equal to p) is what makes the downstream geometry work; it is exposed
here as ``b_rank``, also memoized on the tensor.  ``smoothness_probe``
searches the reductions mod q (``reduction``) for a singular point; the
moment module's boundary report and the catalog signature read it.

The JSON interchange format (1-based indices, values as 'num/den'
strings) is the file format used by every command of the package.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, product
from math import lcm
from operator import mul

from .linalg import mat_rank
from .sampling import SeededSampler
from .scalars import Q0, cleared_form, contract, contract_cleared, frac


class DimensionMismatchError(ValueError):
    pass


class TensorFormatError(ValueError):
    pass


class ReductionError(ValueError):
    """A tensor entry has a denominator divisible by the modulus."""

    def __init__(self, triple, value, modulus):
        self.triple = triple
        self.value = value
        self.modulus = modulus
        super().__init__(
            f"entry {triple} = {value} has denominator divisible by {modulus}"
        )


def _canonical_triple(i, j, k):
    return tuple(sorted((i, j, k)))


def _distinct_perms(tri):
    i, j, k = tri
    if i == j == k:
        return ((i, j, k),)
    if i == j:
        return ((i, i, k), (i, k, i), (k, i, i))
    if j == k:
        return ((i, j, j), (j, i, j), (j, j, i))
    return (
        (i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i),
    )


def perm_multiplicity(tri) -> int:
    """Number of distinct orderings of a sorted index triple."""
    return len(_distinct_perms(tri))


class SymCubic:
    """Symmetric trilinear tensor on Q^p (sparse, canonical i<=j<=k keys)."""

    # _bracket holds n's structure constants, kept by nilpotent.bracket_views.
    __slots__ = ("dim", "entries", "_scaled", "_b_rank", "_hash", "_reduced", "_bracket")

    def __init__(self, dim: int, entries):
        if dim < 1:
            raise TensorFormatError("dimension must be a positive integer")
        self.dim = dim
        canon = {}
        for tri, val in entries.items():
            i, j, k = tri
            if not (0 <= i <= j <= k < dim):
                raise TensorFormatError(
                    f"triple {tri} not in canonical 0-based range for dim {dim}"
                )
            v = frac(val)
            if v:
                canon[(i, j, k)] = v
        self.entries = canon
        self._scaled = None
        self._bracket = None
        self._b_rank = None
        self._hash = None
        self._reduced = {}

    def value(self, i, j, k) -> Fraction:
        return self.entries.get(_canonical_triple(i, j, k), Q0)

    def scaled(self):
        """(d, rows), d the lcm of the entries' denominators: row i holds
        (j, k, d T_ijk), an int, for each ordered permutation (i, j, k)
        of an entry."""
        if self._scaled is None:
            d = lcm(*(v.denominator for v in self.entries.values()))
            rows = [[] for _ in range(self.dim)]
            for tri, val in sorted(self.entries.items()):
                v = val.numerator * (d // val.denominator)
                for i, j, k in _distinct_perms(tri):
                    rows[i].append((j, k, v))
            self._scaled = d, tuple(map(tuple, rows))
        return self._scaled

    def items_canonical(self):
        return sorted(self.entries.items())

    def scale(self, s) -> "SymCubic":
        s = frac(s)
        return SymCubic(self.dim, {t: v * s for t, v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, SymCubic):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, tuple(self.items_canonical())))

    def __repr__(self):
        return f"SymCubic(dim={self.dim}, nnz={len(self.entries)})"


def _check_vec(T: SymCubic, v, name="vector"):
    if len(v) != T.dim:
        raise DimensionMismatchError(
            f"{name} has length {len(v)}, tensor dimension is {T.dim}"
        )


def cubic_eval(T: SymCubic, v) -> Fraction:
    """c(v) = B(v, v) . v, the full symmetric sum over all index orderings."""
    _check_vec(T, v)
    c = cleared_form(v)
    return _trilinear_cleared(T, c, c, c)


def _trilinear_cleared(T: SymCubic, c1, c2, c3) -> Fraction:
    """c(v1, v2, v3) = B(v1, v2) . v3 from the vectors' cleared forms: the
    int numerators of B(v1, v2) paired with v3's, one Fraction."""
    dt, rows = T.scaled()
    b, db = contract_cleared(rows, c1, c2, T.dim, dt)
    return Fraction(sum(map(mul, b, c3[0])), db * c3[1])


def polarize(T: SymCubic, v1, v2):
    """B(v1, v2) = c(v1, v2, .), as a covector coordinate tuple.

    One pass of ``contract`` over ``T.scaled()``.
    """
    _check_vec(T, v1, "v1")
    _check_vec(T, v2, "v2")
    dt, rows = T.scaled()
    return contract(rows, v1, v2, T.dim, dt)


def trilinear(T: SymCubic, v1, v2, v3) -> Fraction:
    """Full symmetric trilinear value c(v1, v2, v3) = B(v1, v2) . v3."""
    _check_vec(T, v1, "v1")
    _check_vec(T, v2, "v2")
    return _trilinear_cleared(T, *map(cleared_form, (v1, v2, v3)))


def b_rank(T: SymCubic) -> int:
    """Rank over Q of span{ B(e_i, e_j) : i <= j } inside the dual space.

    B(e_i, e_j)_k = T(i, j, k): a row {k: T(i, j, k)} is built only for
    each pair that occurs in an entry, all others being zero.  The rank
    is computed once per tensor.
    """
    if T._b_rank is not None:
        return T._b_rank
    rows = {}
    for (i, j, k), val in T.entries.items():
        for pair, col in (((i, j), k), ((i, k), j), ((j, k), i)):
            rows.setdefault(pair, {})[col] = val
    T._b_rank = mat_rank(list(rows.values()))
    return T._b_rank


def assumption_holds(T: SymCubic) -> bool:
    """True when the polarization map is surjective (b_rank == p)."""
    return b_rank(T) == T.dim


@dataclass(frozen=True)
class FFTensor:
    """SymCubic reduced mod a prime; entries are ints in [0, q)."""

    modulus: int
    dim: int
    entries: tuple  # sorted ((i, j, k), int) pairs


def reduce_mod(T: SymCubic, q: int) -> FFTensor:
    if q < 2:
        raise ValueError("modulus must be a prime >= 2")
    out = []
    for tri, val in T.items_canonical():
        den = val.denominator
        if den % q == 0:
            raise ReductionError(tri, val, q)
        r = (val.numerator % q) * pow(den % q, q - 2, q) % q
        if r:
            out.append((tri, r))
    return FFTensor(modulus=q, dim=T.dim, entries=tuple(out))


def reduction(T: SymCubic, q: int) -> FFTensor:
    """reduce_mod(T, q), computed once per tensor and modulus."""
    if q not in T._reduced:
        T._reduced[q] = reduce_mod(T, q)
    return T._reduced[q]


# --- finite field smoothness probe --------------------------------------

@dataclass(frozen=True)
class ProbeVerdict:
    cubic_hash: str
    primes: tuple
    modes: tuple  # (q, 'exhaustive'|'structured+random') in probe order
    trials: tuple  # (q, count actually tested)
    witness: tuple | None  # (q, coordinates) or None

    @property
    def found(self) -> bool:
        return self.witness is not None

    @property
    def verdict_class(self) -> str:
        return "witness-found" if self.found else "none-found"

    def to_json(self) -> dict:
        return {
            "cubic_hash": self.cubic_hash,
            "primes": list(self.primes),
            "modes": {str(q): m for q, m in self.modes},
            "trials": {str(q): n for q, n in self.trials},
            "witness": (
                None
                if self.witness is None
                else {"q": self.witness[0], "v": list(self.witness[1])}
            ),
        }


def _quadric_data(ff):
    """Per-coordinate quadratic forms of B(v, v) mod q, for fast scans."""
    q = ff.modulus
    per_k = [[] for _ in range(ff.dim)]
    for (i, j, k), val in ff.entries:
        # Contribution of the symmetric entry to each output slot.
        for (a, b, c) in {(i, j, k), (i, k, j), (j, k, i)}:
            coeff = val if a == b else (2 * val) % q
            per_k[c].append((a, b, coeff))
    return per_k


# Not contract_cleared on T.scaled(): this stops at the first nonzero coordinate.
def _is_quadric_zero(per_k, v, q) -> bool:
    for terms in per_k:
        acc = 0
        for a, b, coeff in terms:
            acc += coeff * v[a] * v[b]
        if acc % q:
            return False
    return True


def _structured_candidates(p: int, q: int):
    """e_i for every i, then e_i + e_j and e_i - e_j for i < j, mod q.

    The singular locus of a cubic often contains a coordinate vector or
    a sum or difference of two: the gradient of a Jordan norm is the
    sharp map, which vanishes on rank-one elements such as diag(1, 0, 0)
    (McCrimmon, A Taste of Jordan Algebras, 2004).  A random vector hits
    such a cone with probability about q^-codim, so these p^2 vectors
    are tested first.
    """
    for i in range(p):
        v = [0] * p
        v[i] = 1
        yield v
    for i in range(p):
        for j in range(i + 1, p):
            for sign in (1, q - 1):
                v = [0] * p
                v[i] = 1
                v[j] = sign
                yield v


def _random_candidates(p: int, q: int, budget: int, seed: int):
    """The nonzero vectors among `budget` seeded draws mod q."""
    sampler = SeededSampler(seed ^ (q << 20))
    for _ in range(budget):
        v = sampler.residue_vector(p, q)
        if any(v):
            yield v


def smoothness_probe(
    T: SymCubic, primes=(5, 7, 11, 13), budget: int = 10 ** 6, seed: int = 0
) -> ProbeVerdict:
    """Search for v != 0 over F_q, q >= 5, with B(v, v) = 0.

    Such a v is a singular point of the reduction mod q of the projective
    cubic hypersurface, since the gradient of c at v equals 3 B(v, v)
    under the full-sum normalization (zero mod 3 for every v: q >= 5).

    Per prime q, in mode 'exhaustive' when q^p <= budget, every nonzero
    vector is tested in lexicographic order.  Otherwise, in mode
    'structured+random', the p^2 vectors of _structured_candidates are
    tested first, then the nonzero ones among `budget` seeded random
    draws; the budget does not bound the p^2 structured candidates, so
    trials may exceed it.  trials counts the vectors tested.  A witness
    proves only that the reduction mod q is singular, not the
    hypersurface over Q: x^3 + 5 y^3 + z^3 is smooth over Q, yet e_y is
    a witness mod 5.  'none-found' is evidence of smoothness, not a
    proof.
    """
    p = T.dim
    modes = []
    trials = []
    witness = None
    for q in primes:
        per_k = _quadric_data(reduction(T, q))
        if q ** p <= budget:
            modes.append((q, "exhaustive"))
            candidates = islice(product(range(q), repeat=p), 1, None)
        else:
            modes.append((q, "structured+random"))
            candidates = chain(
                _structured_candidates(p, q),
                _random_candidates(p, q, budget, seed),
            )
        count = 0
        for v in candidates:
            count += 1
            if _is_quadric_zero(per_k, v, q):
                witness = (q, tuple(v))
                break
        trials.append((q, count))
        if witness is not None:
            break
    return ProbeVerdict(
        cubic_hash=cubic_hash(T),
        primes=tuple(primes),
        modes=tuple(modes),
        trials=tuple(trials),
        witness=witness,
    )


def from_cubic_monomials(dim: int, monomials, scale=1) -> SymCubic:
    """Tensor for a cubic polynomial given by monomial coefficients.

    ``monomials`` maps sorted 0-based index triples (i <= j <= k) to the
    coefficient of x_i x_j x_k in the polynomial P.  The resulting tensor
    satisfies cubic_eval(T, v) = scale * P(v).
    """
    entries = {}
    for tri, coeff in monomials.items():
        tri = tuple(sorted(tri))
        c = frac(coeff) * frac(scale) / perm_multiplicity(tri)
        if c:
            entries[tri] = entries.get(tri, Q0) + c
    return SymCubic(dim, entries)


def normalize_cubic(T: SymCubic):
    """Scale so the lexicographically first nonzero entry is 1.

    Returns (normalized tensor, scalar) with normalized = T / scalar.
    The zero tensor is returned unchanged with scalar 1.
    """
    items = T.items_canonical()
    if not items:
        return T, Fraction(1)
    lead = items[0][1]
    return T.scale(Fraction(1) / lead), lead


# --- JSON interchange -------------------------------------------------

def dumps_tensor(T: SymCubic) -> str:
    """Canonical JSON text (1-based indices, 'num/den' value strings)."""
    recs = []
    for (i, j, k), val in T.items_canonical():
        recs.append(
            {"i": i + 1, "j": j + 1, "k": k + 1, "value": str(val)}
        )
    return json.dumps(
        {"dim": T.dim, "entries": recs}, sort_keys=True, separators=(",", ":")
    )


def _json_index(x) -> int:
    """An entry index must be a JSON integer: not a boolean, not a float."""
    if type(x) is not int:
        raise TypeError(f"index {x!r} is not an integer")
    return x


def loads_tensor(text: str) -> SymCubic:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int over Python's digit limit
        raise TensorFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise TensorFormatError("tensor JSON needs 'dim' and 'entries'")
    dim = obj["dim"]
    # bool is a subclass of int, but a JSON true/false is not a number.
    if type(dim) is not int or dim < 1:
        raise TensorFormatError("'dim' must be a positive integer")
    entries = {}
    if not isinstance(obj["entries"], list):
        raise TensorFormatError("'entries' must be a list")
    for rec in obj["entries"]:
        try:
            i, j, k = (_json_index(rec[key]) - 1 for key in ("i", "j", "k"))
            if isinstance(rec["value"], bool):
                raise TypeError("boolean value")
            val = frac(rec["value"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise TensorFormatError(f"bad entry record {rec!r}") from exc
        if not (0 <= i <= j <= k < dim):
            raise TensorFormatError(
                f"entry indices {rec!r} not 1-based canonical for dim {dim}"
            )
        if (i, j, k) in entries:
            raise TensorFormatError(f"duplicate entry for triple {rec!r}")
        entries[(i, j, k)] = val
    return SymCubic(dim, entries)


def load_tensor(path) -> SymCubic:
    """Read a tensor file; an unreadable or non-UTF-8 file is malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise TensorFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise TensorFormatError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    return loads_tensor(text)


def cubic_hash(T: SymCubic) -> str:
    """Content hash of the canonical JSON form, computed once per tensor."""
    if T._hash is None:
        T._hash = hashlib.sha256(dumps_tensor(T).encode("ascii")).hexdigest()
    return T._hash
