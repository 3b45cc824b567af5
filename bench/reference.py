"""Reference verdicts computed by the benchmark itself.

Nothing here imports ``cubicontact``: tensors are read from the JSON
interchange files the benchmark hands to the CLI (1-based canonical
triples i <= j <= k, values as 'num/den' strings, full-sum convention),
and every fact is derived with plain ``fractions`` and modular
arithmetic.

* The verification suites check identities, so on a cubic whose
  polarization B has rank p every suite must pass.  Rank is computed
  modulo a large prime; rank p there implies rank p over Q.
* B(v, v)_k = sum_{i,j} T(i, j, k) v_i v_j.  If some e_i or e_i +- e_j
  has B(v, v) = 0 over Q, the projective cubic is singular, and v is a
  nonzero witness mod every probe prime (q > 2 and prime to the
  denominators).  The correct probe verdict is then "witness-found".
* A cubic with no such witness is decided by scanning F_q^p exhaustively
  for each probe prime, which the benchmark only does for tiny q^p (x3,
  fermat3).  Anything else is undecided and raises UndecidedError.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb

RANK_PRIME = (1 << 61) - 1
SCAN_LIMIT = 10 ** 5


class UndecidedError(RuntimeError):
    """The reference cannot decide a verdict for this input."""


def parse_tensor(text: str):
    """(p, {(i, j, k) 0-based sorted: Fraction}) from interchange JSON."""
    obj = json.loads(text)
    entries = {}
    for rec in obj["entries"]:
        key = tuple(sorted((rec["i"] - 1, rec["j"] - 1, rec["k"] - 1)))
        entries[key] = Fraction(rec["value"])
    return obj["dim"], entries


def _t(entries, i, j, k):
    return entries.get(tuple(sorted((i, j, k))), 0)


def b_rank_mod_prime(p: int, entries) -> int:
    """Rank of span{B(e_i, e_j)} over F_P, P = 2^61 - 1."""
    P = RANK_PRIME

    def red(x: Fraction) -> int:
        return x.numerator % P * pow(x.denominator % P, P - 2, P) % P

    rows = []
    for i in range(p):
        for j in range(i, p):
            row = [red(Fraction(_t(entries, i, j, k))) for k in range(p)]
            if any(row):
                rows.append(row)
    rank = 0
    for col in range(p):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], P - 2, P)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv % P
                rows[r] = [(a - f * b) % P for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def structured_witness(p: int, entries):
    """First v among e_i, e_i + e_j, e_i - e_j with B(v, v) = 0 over Q."""
    for i in range(p):
        if all(_t(entries, i, i, k) == 0 for k in range(p)):
            return {i: 1}
    for i in range(p):
        for j in range(i + 1, p):
            for s in (1, -1):
                if all(
                    _t(entries, i, i, k) + 2 * s * _t(entries, i, j, k) + _t(entries, j, j, k) == 0
                    for k in range(p)
                ):
                    return {i: 1, j: s}
    return None


def _has_witness_mod(p: int, entries, q: int) -> bool:
    per_k = [[] for _ in range(p)]
    for i in range(p):
        for j in range(p):
            for k in range(p):
                c = _t(entries, i, j, k)
                if c:
                    per_k[k].append((i, j, c.numerator * pow(c.denominator, q - 2, q) % q))
    for v in itertools.product(range(q), repeat=p):
        if any(v) and all(
            sum(c * v[i] * v[j] for i, j, c in terms) % q == 0 for terms in per_k
        ):
            return True
    return False


def singular(p: int, entries, primes) -> bool:
    """Whether B(v, v) = 0 has a nonzero solution mod the probe primes."""
    if structured_witness(p, entries) is not None:
        return True
    if all(q ** p <= SCAN_LIMIT for q in primes):
        return any(_has_witness_mod(p, entries, q) for q in primes)
    raise UndecidedError(f"cannot decide singularity for p={p} without a structured witness")


def probe_class(is_singular: bool) -> str:
    return "witness-found" if is_singular else "none-found"


# --- expected verdicts per workload kind ---------------------------------

VERIFY_SUITES = ("jacobi", "group", "expdiff", "contact", "tau", "moment")


def verify_expected(name: str, tensor_text: str, primes) -> dict:
    p, entries = parse_tensor(tensor_text)
    if b_rank_mod_prime(p, entries) != p:
        raise UndecidedError(f"{name}: polarization rank below p, suites would be refused")
    expected = {f"{name}/exit_code": 0, f"{name}/assumption_ok": True}
    for suite in VERIFY_SUITES:
        expected[f"{name}/{suite}"] = "pass"
    expected[f"{name}/probe"] = probe_class(singular(p, entries, primes))
    return expected


def extract_expected(spec: dict, catalog_text: str, extracted_text) -> dict:
    """Verdicts of ``extract --embedding --compare`` (an ``extract`` spec
    of workloads.py).  The extracted cubic of a supported type has full
    polarization rank p; only its singularity is read from the tensor the
    CLI wrote, which is None when the call wrote none."""
    primes = spec["signature_primes"]
    p_cat, e_cat = parse_tensor(catalog_text)
    cat_rank = b_rank_mod_prime(p_cat, e_cat)
    cat_class = probe_class(singular(p_cat, e_cat, primes))
    p = spec["p"]
    ext_class = None  # matches no observation
    if extracted_text is not None:
        p_ext, e_ext = parse_tensor(extracted_text)
        ext_class = probe_class(singular(p_ext, e_ext, primes))
    return {
        "exit_code": 0,
        "dim_g": spec["dim_g"],
        "p": p,
        "b_rank": p,
        "dim_h": spec["dim_g"] - 8 - 6 * p,
        "embedding_ok": True,
        "consistent": (p_cat, cat_rank, cat_class) == (p, p, ext_class),
        "catalog_signature.b_rank": cat_rank,
        "catalog_signature.probe": cat_class,
        "extraction_signature.b_rank": p,
        "extraction_signature.probe": ext_class,
    }


def jacobi_expected(algebras) -> dict:
    expected = {}
    for name, dim in algebras:
        expected[f"{name}/ok"] = True
        expected[f"{name}/triples_checked"] = comb(dim, 3)
    return expected


def compare(expected: dict, observed: dict):
    """(attempted, wrong, mismatches); a missing observation is wrong."""
    mismatches = {
        key: {"expected": want, "observed": observed.get(key)}
        for key, want in expected.items()
        if key not in observed or observed[key] != want
    }
    return len(expected), len(mismatches), mismatches
