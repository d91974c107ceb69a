"""Cycle structure of the logistic map on the initial-value sets.

For p = 2m + 1 (p = 3 mod 4) or p = 2m - 1 (p = 1 mod 4), m odd, the state
diagram restricted to the initial-value set decomposes by the divisors
d != 1 of m: each contributes phi(d) / (2k) cycles of period k, where k is
the least exponent with 2^k = +-1 mod d.  k is ord_d(2) / 2 exactly when every
prime power of d has an order of 2 with the same 2-adic valuation v >= 1, since
(Z/q^e)^x is cyclic for odd q; otherwise k = ord_d(2).  Everything here is either
that bookkeeping or the brute-force oracle that checks it.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from math import lcm
from typing import NamedTuple

from .generator import logistic_cycle
from .ivsets import check_enumerable, member_blocks, param_kind
from .numtheory import check_prime, factorize, is_prime, mult_order, prime_flags


# Largest p brute_census walks; like the IV set it is built from, `census
# --brute` on it finishes within about a minute and a gigabyte.
BRUTE_CENSUS_MAX_P = 1 << 24


def _modulus_of(p: int) -> int:
    """The odd m with p = 2m + 1 (p = 3 mod 4) or p = 2m - 1 (p = 1 mod 4), for any odd p."""
    return (p - 1) // 2 if p % 4 == 3 else (p + 1) // 2


def cycle_modulus(p: int) -> int:
    """_modulus_of(p), once p is checked to be a prime > 3."""
    return _modulus_of(check_prime(p, 5))


class CensusRow(NamedTuple):
    divisor: int
    order_of_2: int
    totient: int
    cycles: int
    period: int
    # Whether some power of 2 hits -1 mod the divisor; recorded because the
    # two counting regimes in the underlying argument split on it.
    minus_one_reachable: bool


class CycleCensus(NamedTuple):
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


def _order_of_2(q: int) -> int:
    """ord_q(2) for an odd prime q, from the factorization of q - 1."""
    return mult_order(2, q, factorize(q - 1))


def _divisor_cycles(m: int, factor=factorize, order_of_2=_order_of_2) -> list[tuple[int, int, int, int]]:
    """(d, ord_d(2), phi(d), b) for every divisor d > 1 of odd m, in no
    particular order: census sorts the table, a sweep cell sums it.

    m is factored once by `factor`, and `order_of_2` gives ord_q(2) for each
    prime q | m; a sweep cell passes its factor table and a memo.  ord_q(2)
    is lifted along q^k: ord_{q^k}(2) is ord_{q^(k-1)}(2) or q times it, so
    its 2-adic valuation stays that of ord_q(2).  A divisor's order is the
    lcm, and its totient the product, over its prime powers (Cohen, A Course
    in Computational Algebraic Number Theory, 1.4); b, the or of their
    orders' lowest set bits, gives the period (_period).
    """
    entries = [(1, 1, 1, 0)]
    for q, e in factor(m).items():
        order = order_of_2(q)
        low = order & -order
        power, totient = q, q - 1
        lifted = [(power, order, totient)]
        for _ in range(e - 1):
            power, totient = power * q, totient * q
            if pow(2, order, power) != 1:
                order *= q
            lifted.append((power, order, totient))
        entries += [(d * qk, lcm(o, ok), t * tk, b | low) for d, o, t, b in entries for qk, ok, tk in lifted]
    return entries[1:]


def _period(o: int, b: int) -> int:
    """A _divisor_cycles entry's period: half its order o exactly when b == o & -o > 1 (one shared 2-adic valuation)."""
    return o // 2 if b == o & -o > 1 else o


def census(p: int) -> CycleCensus:
    """Per-divisor cycle counts and periods, straight from the formulas."""
    m = cycle_modulus(p)
    periods = ((d, o, t, _period(o, b)) for d, o, t, b in sorted(_divisor_cycles(m)))
    rows = [CensusRow(d, o, t, t // (2 * k), k, minus_one_reachable=k != o) for d, o, t, k in periods]
    return CycleCensus(p=p, modulus=m, rows=rows)


def brute_census(p: int) -> Counter[int]:
    """Observed cycle lengths on the initial-value set: {period: count}.

    Walks the logistic map from each member_blocks flag still set, clearing the flags of the states it walks.
    This is the oracle the census formulas are checked against.
    """
    check_enumerable(p, BRUTE_CENSUS_MAX_P, "the cycles")
    todo = bytearray().join([b"\0", *member_blocks(p, param_kind(p))])  # byte a flags element a
    counts: Counter[int] = Counter()
    a = 0
    while (a := todo.find(1, a)) >= 0:
        cycle = logistic_cycle(a, p)
        for x in cycle:
            todo[x] = 0
        counts[len(cycle)] += 1
        del cycle  # else the next walk builds its list beside this one
    return counts


class MaximalityReport(NamedTuple):
    """Whether the whole initial-value set is one logistic cycle."""

    p: int
    is_maximal: bool
    p1: int | None
    condition_branch: str  # full_order | half_order_odd | fails
    max_period: int | None


def maximal_branch(m: int, order_of_2=_order_of_2) -> str:
    """Order condition on 2 mod the prime m for a single cycle: full_order
    (order m - 1), half_order_odd (odd order (m - 1) / 2) or fails."""
    order = order_of_2(m)
    return "full_order" if order == m - 1 else "half_order_odd" if order == (m - 1) // 2 and order % 2 else "fails"


def is_maximal_prime(p: int) -> MaximalityReport:
    """Test the single-cycle criterion: p = 2*p1 +- 1 with p1 prime, plus
    an order condition on 2 mod p1; the period is then (p1 - 1) / 2."""
    m = cycle_modulus(p)
    if not is_prime(m):
        return MaximalityReport(p=p, is_maximal=False, p1=None, condition_branch="fails", max_period=None)
    branch = maximal_branch(m)
    maximal = branch != "fails"
    period = (m - 1) // 2 if maximal else None
    return MaximalityReport(p=p, is_maximal=maximal, p1=m, condition_branch=branch, max_period=period)


def _prime_stats(m: int, factor=factorize, order_of_2=_order_of_2) -> tuple[int, float, float]:
    """(cycles, mean period per cycle, mean period per seed) of p = 2m +- 1, summed over _divisor_cycles."""
    cycles = weighted = 0
    for _, o, t, b in _divisor_cycles(m, factor, order_of_2):
        k = _period(o, b)
        cycles += t // (2 * k)
        weighted += t * k  # twice cycles * period^2, as 2 * period | totient
    states = (m - 1) // 2  # cycles * period sums to phi(d) / 2 over d | m, d > 1
    return cycles, states / cycles, weighted // 2 / states


def two_safe_primes(limit: int) -> list[int]:
    """All p <= limit with p = 2*p1 + 1, p1 = 2*p2 + 1, and p, p1, p2 prime, ascending (one sieve search over p1)."""
    flags = prime_flags(limit)
    p1s = compress(range((limit - 1) // 2 + 1), flags)
    return [2 * p1 + 1 for p1 in p1s if flags[p1 // 2] and flags[2 * p1 + 1]]


def analogous_two_safe_primes(limit: int) -> list[int]:
    """All p = 2*p1 - 1 <= limit with p1 = 2*p2 + 1 and p, p1, p2 prime: [13] from 13 on.  As p = 4*p2 + 1,
    p2 = 1 mod 3 makes 3 | p1 and p2 = 2 mod 3 makes 3 | p, so only p2 = 3 leaves p1 = 7 and p = 13 prime."""
    return [13] if limit >= 13 else []
