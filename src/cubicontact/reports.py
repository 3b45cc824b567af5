"""Run configuration, canonical serialization and report assembly.

Reports are byte-deterministic: identical RunConfig values produce
identical bytes.  For that reason no wall-clock timing ever enters a
report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction


# Probe primes must lie in [5, 2**32).  Mod 3 grad c = 3 B(v, v) vanishes
# identically, and mod 2 and 3 so do integer cubics, stored at 6 times
# their polynomial.  The probe draws residues from 32-bit words, which
# sample a larger modulus non-uniformly, and the bound keeps the trial
# division in _is_prime under 2**16 steps.
PRIME_BOUND = 2 ** 32
# The probe enumerates F_q^p when q**p <= budget (5**20 points take
# hours), and otherwise makes budget random draws per prime after its p**2
# structured candidates, which the budget does not bound.
MAX_PROBE_BUDGET = 10 ** 6
# verify holds about 4 KB per dimension of the tensor (vectors over n's
# 3p + 2 basis, n's stored bracket table and its two row views, Kronecker
# blocks of 4 KB per coordinate) before any suite can refuse the cubic, so
# a 40-byte file could ask for gigabytes; the CLI refuses a larger dim.
MAX_VERIFY_DIM = 10 ** 4


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    samples: int = 100
    primes: tuple = (5, 7, 11, 13)
    probe_budget: int = 10 ** 6

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.probe_budget <= MAX_PROBE_BUDGET:
            raise ValueError(f"probe budget must be in [0, {MAX_PROBE_BUDGET}]")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"probe primes repeat: {list(self.primes)}")
        for q in self.primes:
            if q >= PRIME_BOUND:
                raise ValueError(f"prime {q} is not below 2**32")
            if not _is_prime(q):
                raise ValueError(f"{q} is not prime")
            if q < 5:
                raise ValueError(f"prime {q} is below 5: the probe is blind mod 2 and mod 3")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "primes": list(self.primes),
            "probe_budget": self.probe_budget,
        }


def jsonable(obj):
    """Recursively convert Fractions and tuples for canonical JSON."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


@dataclass
class VerificationReport:
    cubic_hash: str
    p: int
    config: RunConfig
    checks: list = field(default_factory=list)

    def add(self, name: str, status: str, details: dict):
        assert status in ("pass", "fail", "inapplicable", "refused")
        self.checks.append({"name": name, "status": status, "details": details})

    @property
    def all_pass(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": "cubicontact/verify-v1",
            "cubic": {"hash": self.cubic_hash, "p": self.p},
            "config": self.config.to_json(),
            "checks": self.checks,
        }

    def render(self, fmt: str = "json") -> str:
        if fmt == "json":
            return canonical_json(self.to_json())
        lines = [
            "# verification report",
            "",
            f"- cubic hash: `{self.cubic_hash}`",
            f"- p: {self.p}",
            f"- config: `{canonical_json(self.config.to_json())}`",
            "",
        ]
        for c in self.checks:
            lines.append(f"## {c['name']}: {c['status'].upper()}")
            lines.append("")
            lines.append("```json")
            lines.append(canonical_json(c["details"]))
            lines.append("```")
            lines.append("")
        return "\n".join(lines)
