import random

import pytest

from quadorbit.diagram import (
    _divisor_cycles,
    _period,
    analogous_two_safe_primes,
    brute_census,
    census,
    cycle_modulus,
    is_maximal_prime,
    two_safe_primes,
)
from quadorbit.errors import InvalidFieldError
from quadorbit.ivsets import build_iv_set
from quadorbit.numtheory import euler_phi, factorize, is_prime, mult_order, order_up_to_sign, primes_up_to

PRIMES = [p for p in primes_up_to(500) if p > 3]

# First ten members of the 2-safe sequence (chains p2 -> p1 -> p of primes).
FIRST_TEN_TWO_SAFE = [11, 23, 47, 167, 359, 719, 1439, 2039, 2879, 4079]


def test_cycle_modulus():
    assert cycle_modulus(23) == 11
    assert cycle_modulus(17) == 9
    assert cycle_modulus(13) == 7
    with pytest.raises(InvalidFieldError):
        cycle_modulus(21)


def test_census_examples():
    c = census(23)
    assert c.modulus == 11
    assert [(r.divisor, r.order_of_2, r.totient, r.cycles, r.period) for r in c.rows] == [(11, 10, 10, 1, 5)]
    c = census(17)
    assert [(r.divisor, r.order_of_2, r.totient, r.cycles, r.period) for r in c.rows] == [
        (3, 2, 2, 1, 1),
        (9, 6, 6, 1, 3),
    ]
    c = census(13)
    assert [(r.divisor, r.order_of_2, r.totient, r.cycles, r.period) for r in c.rows] == [(7, 3, 6, 1, 3)]
    assert not c.rows[0].minus_one_reachable


def test_census_totals_match_iv_size():
    for p in [q for q in primes_up_to(2000) if q > 3]:
        c = census(p)
        assert c.state_count() == len(build_iv_set(p).elements), p
        for row in c.rows:
            assert row.totient % (2 * row.period) == 0
            expected_period = row.order_of_2 // 2 if row.minus_one_reachable else row.order_of_2
            assert row.period == expected_period


def test_census_matches_brute_force():
    for p in PRIMES:
        assert census(p).period_counter() == brute_census(p), p


def test_brute_census_examples():
    assert dict(brute_census(23)) == {5: 1}
    assert dict(brute_census(17)) == {1: 1, 3: 1}


def test_is_maximal_examples():
    rep = is_maximal_prime(23)
    assert (rep.is_maximal, rep.p1, rep.condition_branch, rep.max_period) == (True, 11, "full_order", 5)
    rep = is_maximal_prime(13)
    assert (rep.is_maximal, rep.p1, rep.condition_branch, rep.max_period) == (True, 7, "half_order_odd", 3)
    rep = is_maximal_prime(17)
    assert (rep.is_maximal, rep.p1) == (False, None)
    assert is_maximal_prime(41).condition_branch == "fails"  # p1 = 21 composite


def test_is_maximal_agrees_with_brute_single_cycle():
    for p in [q for q in primes_up_to(2000) if q > 3]:
        counts = brute_census(p)
        iv_size = len(build_iv_set(p).elements)
        single = set(counts) == {iv_size} and counts[iv_size] == 1
        rep = is_maximal_prime(p)
        assert rep.is_maximal == single, p
        if rep.is_maximal:
            assert rep.max_period == iv_size


def test_two_safe_primes_sequence():
    assert two_safe_primes(4100)[:10] == FIRST_TEN_TWO_SAFE
    assert two_safe_primes(4079) == FIRST_TEN_TWO_SAFE
    assert two_safe_primes(10) == []
    assert two_safe_primes(11) == [11]  # the first prime sits on the search's upper range bound


def test_two_safe_primes_chains_are_prime():
    found = two_safe_primes(5000)
    # 4127 and 4919 extend the ten listed above: their halving chains are
    # prime as well, so any "all below 5000" listing must include them.
    assert found == FIRST_TEN_TWO_SAFE + [4127, 4919]
    for p in found:
        p1 = (p - 1) // 2
        p2 = (p1 - 1) // 2
        assert is_prime(p) and is_prime(p1) and is_prime(p2)
        assert p == 2 * p1 + 1 and p1 == 2 * p2 + 1


def test_two_safe_primes_are_maximal():
    for p in two_safe_primes(5000):
        assert is_maximal_prime(p).is_maximal


def test_analogous_two_safe():
    assert analogous_two_safe_primes(10**6) == [13]
    assert analogous_two_safe_primes(12) == []
    assert analogous_two_safe_primes(13) == [13]  # the limit is inclusive

    # A plain trial-division scan for chains p = 2*p1 - 1, p1 = 2*p2 + 1, all prime: the oracle for the closed form.
    def prime(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    scanned = [p for p in range(5, 10**5 + 1, 4) if prime(p) and prime((p + 1) // 2) and prime((p - 1) // 4)]
    assert scanned == analogous_two_safe_primes(10**5) == [13]
    rep = is_maximal_prime(13)
    assert rep.is_maximal and rep.p1 == 7


def _census_primes_for_lifting_oracle():
    primes = [p for p in primes_up_to(2999) if p >= 5]
    rng = random.Random(40)
    sampled = set()
    while len(sampled) < 20:
        candidate = rng.getrandbits(40) | (1 << 39) | 1
        if is_prime(candidate):
            sampled.add(candidate)
    return primes + sorted(sampled)


def test_census_orders_match_direct_per_divisor_computation():
    # census lifts ord_q(2) along prime powers and combines them by lcm; the
    # oracle computes each divisor's order, totient and order up to sign
    # (the period) from scratch.
    for p in _census_primes_for_lifting_oracle():
        c = census(p)
        divisors = [1]
        for q, k in factorize(c.modulus).items():
            divisors = [d * q**i for d in divisors for i in range(k + 1)]
        assert [r.divisor for r in c.rows] == sorted(divisors)[1:], p
        for r in c.rows:
            assert r.order_of_2 == mult_order(2, r.divisor), (p, r.divisor)
            assert r.totient == euler_phi(r.divisor), (p, r.divisor)
            assert r.period == order_up_to_sign(r.divisor), (p, r.divisor)
            assert r.minus_one_reachable == (r.period != r.order_of_2), (p, r.divisor)


def test_divisor_cycles_match_direct_per_divisor_computation():
    # Every divisor of every odd m below 2^13, composite m included: the
    # period read off the 2-adic valuations of the prime-power orders must be
    # the order up to sign, also where those valuations differ (d = 15: 2 and 4).
    # The table comes in no particular order, so it is sorted here.
    mixed = set()
    for m in range(3, 1 << 13, 2):
        table = sorted(_divisor_cycles(m))
        divisors = [1]
        for q, k in factorize(m).items():
            divisors = [d * q**i for d in divisors for i in range(k + 1)]
        assert [row[0] for row in table] == sorted(divisors)[1:], m
        for d, order, totient, low_bits in table:
            assert order == mult_order(2, d), (m, d)
            assert totient == euler_phi(d), (m, d)
            assert _period(order, low_bits) == order_up_to_sign(d), (m, d)
            orders = [mult_order(2, q**k) for q, k in factorize(d).items()]
            lows = {o & -o for o in orders}
            assert low_bits == sum(lows), (m, d)  # distinct powers of 2, so their sum is their or
            if len(lows) > 1:
                mixed.add(d)
    assert {15, 35} <= mixed
