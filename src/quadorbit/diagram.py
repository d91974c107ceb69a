"""Cycle structure of the logistic map on the initial-value sets.

For p = 2m + 1 (p = 3 mod 4) or p = 2m - 1 (p = 1 mod 4), m odd, the state
diagram restricted to the initial-value set decomposes by the divisors
d != 1 of m: each contributes phi(d) / (2k) cycles of period k, where k is
the least exponent with 2^k = +-1 mod d.  Everything here is either that
bookkeeping or the brute-force oracle that checks it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import lcm

from .errors import InvalidFieldError
from .generator import logistic_cycle
from .ivsets import build_iv_set, check_enumerable
from .numtheory import factorize, is_prime, mult_order, prime_flags


# Largest p brute_census walks; like the IV set it is built from, `census
# --brute` on it finishes within about a minute and a gigabyte.
BRUTE_CENSUS_MAX_P = 1 << 24


def cycle_modulus(p: int) -> int:
    """The odd m with p = 2m + 1 (p = 3 mod 4) or p = 2m - 1 (p = 1 mod 4)."""
    if not is_prime(p) or p <= 3:
        raise InvalidFieldError(f"{p} is not a prime > 3")
    return (p - 1) // 2 if p % 4 == 3 else (p + 1) // 2


@dataclass(frozen=True, slots=True)
class CensusRow:
    divisor: int
    order_of_2: int
    totient: int
    cycles: int
    period: int
    # Whether some power of 2 hits -1 mod the divisor; recorded because the
    # two counting regimes in the underlying argument split on it.
    minus_one_reachable: bool


@dataclass(frozen=True)
class CycleCensus:
    """Predicted cycle structure on the initial-value set of F_p."""

    p: int
    modulus: int
    rows: list[CensusRow]

    def cycle_count(self) -> int:
        return sum(row.cycles for row in self.rows)

    def state_count(self) -> int:
        return sum(row.cycles * row.period for row in self.rows)

    def period_counter(self) -> Counter[int]:
        counts: Counter[int] = Counter()
        for row in self.rows:
            counts[row.period] += row.cycles
        return counts


def _divisor_orders(m: int) -> list[tuple[int, int, int]]:
    """(d, ord_d(2), phi(d)) for every divisor d of odd m, sorted by d.

    m is factored once.  ord_q(2) comes from the factorization of q - 1 and
    is lifted along q^k: ord_{q^k}(2) is ord_{q^(k-1)}(2) or q times it.  A
    divisor's order is the lcm, and its totient the product, over its prime
    powers (Cohen, A Course in Computational Algebraic Number Theory, 1.4).
    """
    entries = [(1, 1, 1)]
    for q, e in factorize(m).items():
        order = mult_order(2, q, factorize(q - 1))
        power, totient = q, q - 1
        lifted = []
        for _ in range(e):
            if pow(2, order, power) != 1:
                order *= q
            lifted.append((power, order, totient))
            power, totient = power * q, totient * q
        entries += [(d * qk, lcm(o, ok), t * tk) for d, o, t in entries for qk, ok, tk in lifted]
    return sorted(entries)


def census(p: int) -> CycleCensus:
    """Per-divisor cycle counts and periods, straight from the formulas."""
    m = cycle_modulus(p)
    rows = []
    for d, order, totient in _divisor_orders(m)[1:]:
        reachable = order % 2 == 0 and pow(2, order // 2, d) == d - 1
        period = order // 2 if reachable else order
        rows.append(
            CensusRow(
                divisor=d,
                order_of_2=order,
                totient=totient,
                cycles=totient // (2 * period),
                period=period,
                minus_one_reachable=reachable,
            )
        )
    return CycleCensus(p=p, modulus=m, rows=rows)


def brute_census(p: int) -> Counter[int]:
    """Observed cycle lengths on the initial-value set: {period: count}.

    Walks the logistic map from every element, deduplicating cycles.  This
    is the oracle the census formulas are checked against.
    """
    check_enumerable(p, BRUTE_CENSUS_MAX_P, "the cycles")
    iv = build_iv_set(p)
    visited: set[int] = set()
    counts: Counter[int] = Counter()
    for a in iv.elements:
        if a in visited:
            continue
        cycle = logistic_cycle(a, p)
        visited.update(cycle)
        counts[len(cycle)] += 1
    return counts


@dataclass(frozen=True, slots=True)
class MaximalityReport:
    """Whether the whole initial-value set is one logistic cycle."""

    p: int
    is_maximal: bool
    p1: int | None
    condition_branch: str  # full_order | half_order_odd | fails
    max_period: int | None


def is_maximal_prime(p: int) -> MaximalityReport:
    """Test the single-cycle criterion: p = 2*p1 +- 1 with p1 prime, plus
    an order condition on 2 mod p1; the period is then (p1 - 1) / 2."""
    m = cycle_modulus(p)
    if not is_prime(m):
        return MaximalityReport(p=p, is_maximal=False, p1=None, condition_branch="fails", max_period=None)
    order = mult_order(2, m, factorize(m - 1))
    if order == m - 1:
        branch = "full_order"
    elif order == (m - 1) // 2 and order % 2 == 1:
        branch = "half_order_odd"
    else:
        return MaximalityReport(p=p, is_maximal=False, p1=m, condition_branch="fails", max_period=None)
    return MaximalityReport(p=p, is_maximal=True, p1=m, condition_branch=branch, max_period=(m - 1) // 2)


def two_safe_primes(limit: int) -> list[int]:
    """All p <= limit with p = 2*p1 + 1, p1 = 2*p2 + 1, and p, p1, p2 prime."""
    if limit < 11:
        return []
    flags = prime_flags(limit)
    found = []
    for p in range(11, limit + 1, 4):  # such p are always 3 mod 4
        if flags[p]:
            p1 = (p - 1) // 2
            if flags[p1] and flags[(p1 - 1) // 2]:
                found.append(p)
    return found


def analogous_two_safe_primes(limit: int) -> list[int]:
    """All primes p <= limit, p = 1 mod 4, with p = 2*p1 - 1 and p1 a safe prime."""
    if limit < 13:
        return []
    flags = prime_flags(limit)
    found = []
    for p1 in range(3, (limit + 1) // 2 + 1, 2):
        if not (flags[p1] and flags[(p1 - 1) // 2]):
            continue
        p = 2 * p1 - 1
        if p <= limit and p % 4 == 1 and flags[p]:
            found.append(p)
    return found
