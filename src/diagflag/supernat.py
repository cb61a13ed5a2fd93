"""Supernatural numbers, their finite divisors, and periodic exhaustions.

A supernatural number is a formal product of prime powers p^a where each
exponent is a positive integer or infinite.  Its finite divisors, ordered
by divisibility, index the direct systems built elsewhere in this library.
An exhaustion is a divisibility chain of finite divisors that is cofinal:
every finite divisor divides some member of the chain.  Exhaustions are
presented here by a first term and a periodic list of multipliers, which
gives a finite certificate for cofinality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import DomainError, ScaleError, ValidationReport, is_int

INF = math.inf

Exponent = int | float  # positive int, or INF


# Deterministic Miller-Rabin with the first thirteen primes as bases is
# exact below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2015; twelve bases would stop at 3.2 * 10^23).
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Exact primality for n below `PRIME_TEST_LIMIT`, in time polynomial
    in the number of digits; ScaleError at or above the bound."""
    if n >= PRIME_TEST_LIMIT:
        raise ScaleError(f"primality of {n} is only decided below {PRIME_TEST_LIMIT}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if n < 1:
        raise DomainError(f"cannot factorize non-positive integer {n}")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _split(n: int, primes: tuple[int, ...]) -> tuple[dict[int, int], int]:
    """The nonzero exponents in n of the given primes, and the rest of n."""
    exponents: dict[int, int] = {}
    for p in primes:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            exponents[p] = k
    return exponents, n


@dataclass(frozen=True)
class SupernaturalNumber:
    """Finitely supported map prime -> exponent, at least one exponent INF.

    Stored as a sorted tuple of (prime, exponent) pairs so values are
    hashable; use :meth:`from_factors` to build from a mapping.
    """

    factors: tuple[tuple[int, Exponent], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for p, a in self.factors:
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            if p in seen:
                raise DomainError(f"duplicate prime {p}")
            seen.add(p)
            if a is not INF and not is_int(a, 1):
                raise DomainError(f"exponent of {p} must be a positive integer or INF")
        if tuple(sorted(self.factors)) != self.factors:
            raise DomainError("factor pairs must be sorted by prime")
        if not any(a is INF for _, a in self.factors):
            raise DomainError("at least one exponent must be INF (the number must be infinite)")

    @classmethod
    def from_factors(cls, mapping: Mapping[int, Exponent]) -> "SupernaturalNumber":
        return cls(tuple(sorted(mapping.items())))

    def exponent(self, p: int) -> Exponent:
        for q, a in self.factors:
            if q == p:
                return a
        return 0

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def infinite_primes(self) -> tuple[int, ...]:
        return tuple(p for p, a in self.factors if a is INF)

    @property
    def finite_factor_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((p, a) for p, a in self.factors if a is not INF)

    def divisors_up_to(self, bound: int) -> list[int]:
        """All finite divisors <= bound, ascending (integer arithmetic only)."""
        divs = [1]
        for p, a in self.factors:
            new = []
            for d in divs:
                v = d
                e = 0
                while v <= bound and (a is INF or e <= a):
                    new.append(v)
                    v *= p
                    e += 1
            divs = new
        return sorted(divs)

    def to_json_obj(self) -> dict:
        return {
            "factors": {str(p): ("inf" if a is INF else a) for p, a in self.factors}
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SupernaturalNumber":
        try:
            raw = obj["factors"]
            mapping = {
                int(p): (INF if a == "inf" else a) for p, a in raw.items()
            }
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise DomainError(f"bad supernatural-number document: {exc}") from exc
        return cls.from_factors(mapping)


def divides_sn(s: int, sn: SupernaturalNumber) -> bool:
    """Whether the positive integer s is a finite divisor of sn; only the
    primes of sn are divided out of s."""
    if s < 1:
        raise DomainError("divisor candidates must be >= 1")
    exponents, rest = _split(s, sn.primes)
    return rest == 1 and all(k <= sn.exponent(p) for p, k in exponents.items())


@dataclass(frozen=True)
class ExhaustionSpec:
    """Chain s_1 | s_2 | ... generated by a periodic multiplier cycle.

    s_{n+1} = s_n * cycle[(n-1) mod len(cycle)].  Divisibility of
    consecutive terms is automatic; membership in the divisor set and
    cofinality are checked against a supernatural number by
    :func:`validate_exhaustion`.
    """

    s1: int
    cycle: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_int(self.s1, 1):
            raise DomainError("s1 must be a positive integer")
        if not self.cycle:
            raise DomainError("cycle must be nonempty")
        if not all(is_int(c, 1) for c in self.cycle):
            raise DomainError("cycle entries must be positive integers")

    def term(self, n: int) -> int:
        """The n-th term s_n (1-based)."""
        if n < 1:
            raise DomainError("term index must be >= 1")
        s = self.s1
        for i in range(n - 1):
            s *= self.cycle[i % len(self.cycle)]
        return s

    def terms(self, count: int) -> Iterator[int]:
        s = self.s1
        for i in range(count):
            yield s
            s *= self.cycle[i % len(self.cycle)]

    @property
    def cycle_product(self) -> int:
        out = 1
        for c in self.cycle:
            out *= c
        return out

    def to_json_obj(self) -> dict:
        return {"s1": self.s1, "cycle": list(self.cycle)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExhaustionSpec":
        try:
            return cls(obj["s1"], tuple(obj["cycle"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad exhaustion document: {exc}") from exc


def step_ratio(spec: ExhaustionSpec, n: int) -> int:
    """The ratio s_{n+1}/s_n, i.e. the multiplier applied at step n."""
    if n < 1:
        raise DomainError("step index must be >= 1")
    return spec.cycle[(n - 1) % len(spec.cycle)]


def default_exhaustion_spec(sn: SupernaturalNumber, min_s1: int = 1) -> ExhaustionSpec:
    """A canonical valid exhaustion: the full finite part times the smallest
    power of the infinite-prime product reaching min_s1, cycling by that
    product."""
    finite = 1
    for p, a in sn.finite_factor_pairs:
        finite *= p**a
    step = 1
    for p in sn.infinite_primes:
        step *= p
    s1 = finite
    while s1 < min_s1:
        s1 *= step
    spec = ExhaustionSpec(s1, (step,))
    report = validate_exhaustion(spec, sn)
    if not report.ok:
        raise DomainError(f"no canonical exhaustion: {'; '.join(report.violations)}")
    return spec


def validate_exhaustion(spec: ExhaustionSpec, sn: SupernaturalNumber) -> ValidationReport:
    """Check that the periodic chain is an exhaustion of sn.

    Violated clauses are reported, not raised:

    * membership -- every term must be a finite divisor of sn.  With a
      periodic cycle this means: no prime outside sn occurs in s1 or the
      cycle, no prime of finite exponent occurs in the cycle, and s1 does
      not exceed any finite exponent.  Only the primes of sn are divided
      out; what is left of s1 or of the cycle product is reported as one
      factor, without factoring it.
    * cofinality -- every finite divisor of sn must divide some term.
      Symbolically: every infinite-exponent prime divides the cycle
      product, and for each finite exponent a_p the power p^a_p divides
      s1 * (cycle product)^a_p.
    """
    violations: list[str] = []
    s1_f, s1_rest = _split(spec.s1, sn.primes)
    prod_f, prod_rest = _split(spec.cycle_product, sn.primes)

    for p, k in s1_f.items():
        a = sn.exponent(p)
        if k > a:
            violations.append(f"membership: s1 carries {p}^{k} but the exponent of {p} is {a}")
    if s1_rest > 1:
        violations.append(f"membership: s1 carries the factor {s1_rest}, prime to the number")
    for p in prod_f:
        a = sn.exponent(p)
        if a is not INF:
            violations.append(
                f"membership: cycle multiplies by {p} whose exponent {a} is finite, so terms eventually leave the divisor set"
            )
    if prod_rest > 1:
        violations.append(f"membership: cycle introduces the factor {prod_rest}, prime to the number")

    for p in sn.infinite_primes:
        if p not in prod_f:
            violations.append(f"cofinality: prime {p} has infinite exponent but never appears in the cycle")
    for p, a in sn.finite_factor_pairs:
        have = s1_f.get(p, 0) + prod_f.get(p, 0) * a
        if have < a:
            violations.append(f"cofinality: {p}^{a} divides the number but no term reaches exponent {a}")

    return ValidationReport(tuple(violations))
