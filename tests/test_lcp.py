import math
import random

import pytest

from quadorbit.diagram import cycle_modulus
from quadorbit.errors import DomainError
from quadorbit.ivsets import build_iv_set
from quadorbit.lcp import (
    berlekamp_massey_profile,
    bound_dickson,
    bound_quadratic,
    bound_sqrt,
    linear_complexity_via_gcd,
    profile_for_seed,
    verify_profile_bounds,
)
from quadorbit.numtheory import primes_up_to

SMALL_PRIMES = [p for p in primes_up_to(100) if p > 2]


def test_profile_trivial_sequences():
    assert berlekamp_massey_profile([0] * 10, 7) == [0] * 10
    assert berlekamp_massey_profile([4] * 10, 7) == [1] * 10
    # a leading zero block costs the full prefix length once broken
    assert berlekamp_massey_profile([0, 0, 0, 1], 5) == [0, 0, 0, 4]


def test_profile_monotone_with_bounded_jumps():
    rng = random.Random(20)
    for _ in range(100):
        p = rng.choice(SMALL_PRIMES)
        seq = [rng.randrange(p) for _ in range(60)]
        prof = berlekamp_massey_profile(seq, p)
        prev = 0
        for n, cur in enumerate(prof, start=1):
            assert cur >= prev
            assert cur <= max(prev, n - prev)
            prev = cur


def test_profile_needs_enough_terms():
    with pytest.raises(DomainError):
        berlekamp_massey_profile([1, 2, 3], 7, n_max=5)


@pytest.mark.parametrize("n_max", [0, -3])
def test_profile_length_must_be_positive(n_max):
    with pytest.raises(DomainError):
        berlekamp_massey_profile([1, 2, 3, 4, 5], 7, n_max)
    with pytest.raises(DomainError):
        profile_for_seed(23, 1, n_max)
    with pytest.raises(DomainError):
        verify_profile_bounds(23, 1, n_max)


def test_gcd_route_trivial_cases():
    assert linear_complexity_via_gcd([5], 7) == 1
    assert linear_complexity_via_gcd([0, 0, 0], 7) == 0
    with pytest.raises(DomainError):
        linear_complexity_via_gcd([], 7)


def test_synthesis_matches_gcd_on_random_periodic_sequences():
    rng = random.Random(21)
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        period = rng.randrange(1, 51)
        cycle = [rng.randrange(p) for _ in range(period)]
        via_bm = berlekamp_massey_profile(cycle * 2, p)[-1]
        assert via_bm == linear_complexity_via_gcd(cycle, p), (p, cycle)


def test_profile_for_seed_examples():
    prof = profile_for_seed(23, 1)
    assert prof.period == 5
    assert prof.n_max == 10
    assert prof.profile[-1] == prof.linear_complexity <= prof.period
    assert prof.profile == sorted(prof.profile)
    # both routes computed the same stabilized value
    assert berlekamp_massey_profile([1, 8, 12, 3, 2] * 2, 23)[-1] == prof.linear_complexity


def test_bound_quadratic_saturates_beyond_two_periods():
    t, m = 11, 23
    saturated = bound_quadratic(2 * t, t, m)
    assert saturated == pytest.approx(t * t / (4 * m) - math.sqrt(m))
    for n in range(2 * t, 4 * t):
        assert bound_quadratic(n, t, m) == saturated
    assert bound_quadratic(1, t, m) < 0


def test_bound_sqrt_values():
    for l_s in (1, 5, 100):
        assert bound_sqrt(8, l_s) == pytest.approx(min(1.0, l_s))
    assert bound_sqrt(10**8, 7) == 7


def test_quadratic_bound_dominates_dickson_bound():
    rng = random.Random(22)
    for _ in range(500):
        p = rng.choice([q for q in primes_up_to(5000) if q > 3])
        m = cycle_modulus(p)
        t = rng.randrange(1, m + 1)
        n = rng.randrange(1, 4 * t + 2)
        assert bound_quadratic(n, t, m) > bound_dickson(n, t, p)


def test_verify_bounds_examples():
    rep = verify_profile_bounds(23, 1, 10)
    assert rep.holds and rep.period == 5 and rep.modulus == 11
    rep = verify_profile_bounds(13, 2)
    assert rep.holds
    rep = verify_profile_bounds(17, 3)
    assert rep.holds


def test_verify_bounds_needs_iv_seed():
    with pytest.raises(DomainError):
        verify_profile_bounds(23, 5)


def test_bound_crossover_on_a_large_maximal_prime():
    # The sqrt-shaped bound carries small N, the quadratic one takes over
    # for large N once p is big enough; find the switch point instead of
    # asserting a value.
    p = 4079
    rep = verify_profile_bounds(p, build_iv_set(p).elements[0])
    t, m, l_s = rep.period, rep.modulus, rep.linear_complexity
    n_max = 2 * t
    sqrt_leads = [n for n in range(1, n_max + 1) if bound_sqrt(n, l_s) > bound_quadratic(n, t, m)]
    quad_leads = [n for n in range(1, n_max + 1) if bound_quadratic(n, t, m) > bound_sqrt(n, l_s)]
    assert sqrt_leads and quad_leads
    assert min(sqrt_leads) < min(quad_leads)
    assert max(quad_leads) == n_max
    # for a small maximal prime the quadratic bound never gets ahead
    assert all(bound_sqrt(n, 179) >= bound_quadratic(n, 179, 359) for n in range(1, 359))


def test_verify_bounds_counts_synthesized_steps():
    # The profile clears both bound curves long before N = 2T, so synthesis
    # stops early while the verdict still covers every N up to n_max.
    p = 6599
    rep = verify_profile_bounds(p, build_iv_set(p).elements[0])
    assert rep.holds
    assert rep.n_checked == 2 * rep.period == 3298
    assert rep.n_synthesized == 297
    rep = verify_profile_bounds(23, 1, 10)
    assert rep.n_synthesized <= rep.n_checked == 10
