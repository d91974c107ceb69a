import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadorbit import lcp
from quadorbit.cli import main
from quadorbit.diagram import cycle_modulus, is_maximal_prime
from quadorbit.errors import DomainError
from quadorbit.ivsets import build_iv_set
from quadorbit.lcp import (
    BOUND_SLACK,
    berlekamp_massey_profile,
    bound_dickson,
    bound_quadratic,
    bound_sqrt,
    linear_complexity_via_gcd,
    profile_for_seed,
    verify_profile_bounds,
)
from quadorbit.generator import in_iv_set, logistic_cycle
from quadorbit.numtheory import is_prime, primes_up_to

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


def _poly_divmod_degree(u: list[int], v: list[int], p: int) -> list[int]:
    """Remainder of u by v over F_p; u and v are coefficient lists, v != 0."""
    r = u[:]
    dv = len(v) - 1
    inv_lead = pow(v[-1], -1, p)
    for i in range(len(r) - 1, dv - 1, -1):
        q = r[i] * inv_lead % p
        if q:
            lo = i - dv
            r[lo : i + 1] = [(a - q * b) % p for a, b in zip(r[lo : i + 1], v)]
    while r and r[-1] == 0:
        r.pop()
    return r


def _list_euclid_complexity(cycle, p):
    """T - deg gcd(X^T - 1, s^T(X)) by Euclid on coefficient lists, the
    reference for the packed Euclid of linear_complexity_via_gcd."""
    t = len(cycle)
    u = [(-1) % p] + [0] * (t - 1) + [1]
    v = [c % p for c in cycle]
    while v and v[-1] == 0:
        v.pop()
    while v:
        u, v = v, _poly_divmod_degree(u, v, p)
    return t - (len(u) - 1)


REFERENCE_GCD_PRIMES = [p for p in primes_up_to(1000) if p > 3]


def test_gcd_route_matches_list_euclid_on_iv_cycles():
    # 926 distinct cycles, each in its rotation from its least state.
    cycles = {
        (p, lcp._canonical(logistic_cycle(a, p))) for p in REFERENCE_GCD_PRIMES for a in build_iv_set(p).elements
    }
    assert len(cycles) == 926
    for p, cycle in cycles:
        assert linear_complexity_via_gcd(list(cycle), p) == _list_euclid_complexity(cycle, p), (p, cycle)


def _test_cycle(rng, p, shape, t):
    """One period of length t: random, a planted period d | t, all zero,
    all p - 1, constant, or sparse (long runs of zeros, so remainder
    degrees drop by more than one and quotients have degree > 1)."""
    if shape == "planted":
        d = rng.choice([d for d in range(1, t + 1) if t % d == 0])
        return [rng.randrange(p) for _ in range(d)] * (t // d)
    if shape == "sparse":
        return [rng.randrange(p) if rng.random() < 0.15 else 0 for _ in range(t)]
    fill = {"zero": 0, "top": p - 1, "constant": rng.randrange(p)}.get(shape)
    return [rng.randrange(p) if fill is None else fill for _ in range(t)]


SHAPES = ("random", "planted", "zero", "top", "constant", "sparse")

# k-bit primes close to 2^k whose 2^(2k + 2) mod p is close to p (251 is the
# only 8-bit prime above 0.97 * 2^8), so Barrett's M = floor(2^b / p) falls
# furthest short of 2^b / p and leaves slots of u most often in [p, 2p).  A
# two-term step takes a slot up to (2p - 1)^2 and Barrett multiplies it by M,
# so these primes come nearest to the widths b = 2k + 2 and w = b + k + 2.
NEAR_TOP_PRIMES = [251, 8147, 64489, 2108521687, 2248207351885633493]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2999, 65537, 2**31 - 1, 2**61 - 1, *NEAR_TOP_PRIMES])
def test_gcd_route_matches_list_euclid_on_shaped_sequences(p):
    rng = random.Random(p)
    for shape in SHAPES:
        for t in [1, 2, 3, 12, *rng.sample(range(4, 120), 12)]:
            cycle = _test_cycle(rng, p, shape, t)
            assert linear_complexity_via_gcd(cycle, p) == _list_euclid_complexity(cycle, p), (p, shape, cycle)


@st.composite
def primes_of_every_bit_length(draw):
    """A prime of k bits for k = 2..62: the first prime from a drawn k-bit
    start, wrapping round to 2^(k-1)."""
    k = draw(st.integers(2, 62))
    x = draw(st.integers(1 << (k - 1), (1 << k) - 1))
    while not is_prime(x):
        x = x + 1 if x + 1 < 1 << k else 1 << (k - 1)
    return x


@settings(max_examples=300, deadline=None)
@given(primes_of_every_bit_length(), st.sampled_from(SHAPES), st.integers(1, 80), st.randoms(use_true_random=False))
def test_gcd_route_matches_list_euclid_at_every_slot_width(p, shape, t, rng):
    # The slot widths are derived from bits(p), so p of every bit length
    # from 2 to 62 is drawn, with cycles whose remainder sequences are
    # abnormal (constant and planted-period cycles have large gcds).
    cycle = _test_cycle(rng, p, shape, t)
    assert linear_complexity_via_gcd(cycle, p) == _list_euclid_complexity(cycle, p), (p, shape, cycle)


def test_profile_for_seed_examples():
    prof = profile_for_seed(23, 1)
    assert prof.period == 5
    assert prof.n_max == 10
    assert prof.profile[-1] == prof.linear_complexity <= prof.period
    assert prof.profile == sorted(prof.profile)
    # both routes computed the same stabilized value
    assert berlekamp_massey_profile([1, 8, 12, 3, 2] * 2, 23)[-1] == prof.linear_complexity


PROFILE_SHAPES = (*SHAPES, "leading_zero")


def _test_sequence(rng, p, shape, n):
    """n terms: a random tail after a run of zeros, or a _test_cycle shape
    repeated, of period n or shorter (so the profile stops climbing)."""
    if shape == "leading_zero":
        zeros = rng.randrange(n + 1)
        return [0] * zeros + [rng.randrange(p) for _ in range(n - zeros)]
    if n == 0:
        return []
    cycle = _test_cycle(rng, p, shape, rng.choice([n, rng.randrange(1, n + 1)]))
    return (cycle * n)[:n]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101, 2999, 65537, 2**31 - 1, 2**61 - 1, *NEAR_TOP_PRIMES])
def test_euclid_profile_matches_berlekamp_massey_on_shaped_sequences(p):
    rng = random.Random(p)
    for shape in PROFILE_SHAPES:
        for n in [0, 1, 2, 3, *rng.sample(range(4, 90), 16)]:
            seq = _test_sequence(rng, p, shape, n)
            assert lcp._euclid_profile(seq, p) == berlekamp_massey_profile(seq, p), (p, shape, seq)


def test_euclid_profile_matches_berlekamp_massey_on_iv_seeds():
    # 2T terms from every IV seed of every prime below 400 (3,432 seeds, so
    # every rotation of their cycles), and from one seed per cycle of each
    # prime up to 1000 above it (643 cycles).
    checked = 0
    for p in REFERENCE_GCD_PRIMES:
        seen = set()
        for a in build_iv_set(p).elements:
            if a in seen:
                continue
            cycle = logistic_cycle(a, p)
            if p > 400:
                seen.update(cycle)
            seq = cycle * 2
            assert lcp._euclid_profile(seq, p) == berlekamp_massey_profile(seq, p), (p, a)
            checked += 1
    assert checked == 3432 + 643


@settings(max_examples=300, deadline=None)
@given(
    primes_of_every_bit_length(),
    st.sampled_from(PROFILE_SHAPES),
    st.integers(0, 80),
    st.randoms(use_true_random=False),
)
def test_euclid_profile_matches_berlekamp_massey_at_every_slot_width(p, shape, n, rng):
    seq = _test_sequence(rng, p, shape, n)
    assert lcp._euclid_profile(seq, p) == berlekamp_massey_profile(seq, p), (p, shape, seq)


def _list_remainder_degrees(u, v, p):
    """Degrees of the nonzero remainders of Euclid on coefficient lists (constant term first), v's first."""
    degrees = []
    while v and v[-1] == 0:
        v = v[:-1]
    while v:
        degrees.append(len(v) - 1)
        u, v = v, _poly_divmod_degree(u, v, p)
    return degrees


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(primes_of_every_bit_length(), st.sampled_from(NEAR_TOP_PRIMES)),
    st.sampled_from(PROFILE_SHAPES),
    st.integers(1, 80),
    st.randoms(use_true_random=False),
)
def test_remainder_degrees_match_list_euclid_on_both_inputs(p, shape, n, rng):
    # Every remainder degree in order, not only the last one that the gcd
    # reads or the ones before 2 D_k >= N that the profile reads: X^T - 1 by
    # s^T(X) for the gcd, and X^N by s_0 X^(N-1) + ... + s_(N-1) for the profile.
    seq = _test_sequence(rng, p, shape, n)
    gcd_input = _list_remainder_degrees([p - 1] + [0] * (n - 1) + [1], seq, p)
    assert list(lcp._remainder_degrees(seq[::-1], p, p - 1)) == gcd_input, (p, shape, seq)
    profile_input = _list_remainder_degrees([0] * n + [1], seq[::-1], p)
    assert list(lcp._remainder_degrees(seq, p, 0)) == profile_input, (p, shape, seq)


def test_packed_euclids_on_sequences_whose_slots_pass_2_to_the_2k_plus_1():
    # Two seeded periodic sequences mod 64489 found by a random search: with b
    # one bit narrower (and w with it), a slot passes 2^b, Barrett leaves a
    # slot at 2p or above, and the next step's quotient overflows its bits.
    p = 64489
    rng = random.Random(2)
    cycle = [rng.randrange(p) for _ in range(15)] * 10
    assert linear_complexity_via_gcd(cycle, p) == _list_euclid_complexity(cycle, p) == 15
    rng = random.Random(687)
    seq = [rng.randrange(p) for _ in range(40)] * 4
    assert lcp._euclid_profile(seq[:150], p) == berlekamp_massey_profile(seq[:150], p)


@pytest.mark.parametrize("p", [23, 47, 359, 2999])
def test_profile_for_seed_equals_the_berlekamp_massey_profile(p):
    # profile_for_seed reads its profile off the Euclid route; over fewer
    # terms than one period, exactly one, two periods (the default) and more.
    seed = build_iv_set(p).elements[-1]
    cycle = logistic_cycle(seed, p)
    t = len(cycle)
    for n_max in (1, t // 2, t - 1, t, None, 2 * t + 3):
        prof = profile_for_seed(p, seed, n_max)
        assert prof.profile == berlekamp_massey_profile(cycle * 3, p, n_max or 2 * t), (p, n_max)


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


def _textbook_profile(seq, p):
    """L(S, N) for N = 1..len(seq): Massey's algorithm as usually written,
    with a fresh connection polynomial per length change."""
    c, b = [1], [1]
    length, shift, b_disc = 0, 1, 1
    profile = []
    for n in range(len(seq)):
        d = seq[n]
        for i in range(1, len(c)):
            d += c[i] * seq[n - i]  # zero padding past deg C makes any wrapped index harmless
        d %= p
        if d == 0:
            shift += 1
        else:
            coef = d * pow(b_disc, -1, p) % p
            t = c + [0] * max(0, len(b) + shift - len(c))
            for i, v in enumerate(b):
                t[i + shift] = (t[i + shift] - coef * v) % p
            if 2 * length <= n:
                length, b, b_disc, shift = n + 1 - length, c, d, 1
            else:
                shift += 1
            c = t
        profile.append(length)
    return profile


# n_max values checked for every seed; "over" stands for 2T + 7.
N_MAXES = (None, 1, 7, 50, "over")
REFERENCE_PRIMES = [p for p in primes_up_to(600) if p > 3]


@pytest.fixture(scope="module")
def reference_profiles():
    """(p, seed, T, profile over max(2T + 7, 50) terms) for every IV seed of
    every prime below 600, from a plain walk and the textbook algorithm."""
    cases = []
    for p in REFERENCE_PRIMES:
        for seed in build_iv_set(p).elements:
            cycle, x = [seed], 4 * seed * (seed + 1) % p
            while x != seed:
                cycle.append(x)
                x = 4 * x * (x + 1) % p
            t = len(cycle)
            terms = max(2 * t + 7, 50)
            cases.append((p, seed, t, _textbook_profile((cycle * (terms // t + 1))[:terms], p)))
    return cases


def _check_every_seed(cases):
    """Compare every report field, and bound_violations on the reference
    profile, with a bound check at every N <= n_max, using the bound curves
    the library module currently holds."""
    compared = tripped = 0
    for p, seed, t, profile in cases:
        m, l_s = cycle_modulus(p), profile[2 * t - 1]
        quad = [lcp.bound_quadratic(n, t, m) for n in range(1, len(profile) + 1)]
        sqr = [lcp.bound_sqrt(n, l_s) for n in range(1, len(profile) + 1)]
        below = []  # (N, L(S,N), bound, kind) for every N the profile covers
        for n, length in enumerate(profile, start=1):
            if length < quad[n - 1] - BOUND_SLACK:
                below.append((n, length, quad[n - 1], "quadratic"))
            if length < sqr[n - 1] - BOUND_SLACK:
                below.append((n, length, sqr[n - 1], "sqrt"))
        for n_max in N_MAXES:
            n_checked = {None: 2 * t, "over": 2 * t + 7}.get(n_max, n_max)
            violations = [v for v in below if v[0] <= n_checked]
            threshold = max(quad[n_checked - 1], sqr[n_checked - 1])
            n_synthesized = next((n for n in range(1, n_checked + 1) if profile[n - 1] >= threshold), n_checked)
            perfect = all(profile[n - 1] == (n + 1) // 2 for n in range(1, n_synthesized + 1))
            stop, found = lcp.bound_violations(profile, t, m, l_s, n_checked, threshold)
            assert (stop, [tuple(v) for v in found]) == (n_synthesized, violations), (p, seed, n_max, perfect)
            rep = verify_profile_bounds(p, seed, None if n_max is None else n_checked)
            got = (rep.p, rep.seed, rep.period, rep.modulus, rep.linear_complexity, rep.n_checked, rep.n_synthesized)
            assert got == (p, seed, t, m, l_s, n_checked, n_synthesized), (p, seed, n_max)
            assert [(v.n, v.observed, v.bound, v.kind) for v in rep.violations] == violations, (p, seed, n_max)
            compared += 1
            tripped += bool(violations)
    return compared, tripped


def test_verifier_matches_a_bound_check_at_every_n(reference_profiles):
    compared, _ = _check_every_seed(reference_profiles)
    assert compared == len(N_MAXES) * len(reference_profiles)


@pytest.mark.parametrize(
    "curve",
    [lambda n, l_s: n / 3, lambda n, l_s: min(math.sqrt(8 * n) - 1, l_s)],
    ids=["n/3", "sqrt(8n)-1"],
)
def test_verifier_matches_under_curves_that_trip_mid_profile(reference_profiles, monkeypatch, curve):
    # Monotone in N like the real curves, but tight enough that profiles
    # fall below them, so violations are found between skipped stretches.
    # Synthesis then rarely stops early; primes below 400 keep this quick.
    monkeypatch.setattr("quadorbit.lcp.bound_sqrt", curve)
    compared, tripped = _check_every_seed([case for case in reference_profiles if case[0] < 400])
    assert 0 < tripped < compared


def test_synthesized_steps_pinned_over_maximal_primes():
    # Recorded before the walk cache, the bound-check horizon and the map
    # discrepancy: the early stop must land on the same N for every seed.
    digest = hashlib.sha256()
    for p in primes_up_to(1499):
        if p > 3 and is_maximal_prime(p).is_maximal:
            for seed in build_iv_set(p).elements:
                digest.update(f"{p} {seed} {verify_profile_bounds(p, seed).n_synthesized}\n".encode())
    assert digest.hexdigest() == "f563d0d16b4ec7a774c027be58ed9a7304154e0e021635649c2f5d0c126ea279"


def test_only_the_last_cycle_is_kept(monkeypatch):
    # Every IV seed of p = 359 (one 89-state cycle, long enough to build a
    # wall), then seeds of the 60- and 30-state IV cycles of p = 367 taken in
    # turn, the first of them also a state of the cycle of 359.  Each report
    # equals a cold one, and only the cycle of the seed just verified is kept.
    first = build_iv_set(359).elements
    other = {}
    for a in build_iv_set(367).elements:
        other.setdefault(lcp._canonical(logistic_cycle(a, 367)), []).append(a)
    long, short = sorted(other.values(), key=len, reverse=True)[:2]
    assert (len(first), len(long), len(short)) == (89, 60, 30)
    kept = set(lcp._canonical(logistic_cycle(first[0], 359)))
    shared = next(a for a in long if a in kept)
    long.remove(shared)
    cases = [(359, a) for a in first] + [(367, shared)]
    cases += [(367, a) for pair in zip(short, long) for a in pair]
    expected = []
    for p, a in cases:
        monkeypatch.setattr(lcp, "_last", None)
        expected.append(verify_profile_bounds(p, a))
    monkeypatch.setattr(lcp, "_last", None)
    walled = False
    for (p, a), rep in zip(cases, expected):
        assert verify_profile_bounds(p, a) == rep, (p, a)
        last = lcp._last
        assert last.p == p and a in last.index and len(last.states) == rep.period
        assert last.index == {s: i for i, s in enumerate(last.states)}
        walled |= last.wall_depth > 0
    assert walled


def test_cycle_complexity_is_computed_once_per_cycle(monkeypatch):
    # L(S) is fetched once per walked cycle, not hashed in on every call.
    p = 2999
    assert is_maximal_prime(p).is_maximal
    monkeypatch.setattr(lcp, "_last", None)
    lcp._cycle_complexity_cached.cache_clear()
    for a in build_iv_set(p).elements:
        verify_profile_bounds(p, a)
    info = lcp._cycle_complexity_cached.cache_info()
    assert info.hits + info.misses == 1


def test_certified_verdicts_never_go_stale(monkeypatch):
    # Every IV seed of the maximal prime 359 (one 89-state cycle), with
    # bound_sqrt patched partway to a curve that the perfect profile falls
    # below.  Each report equals a cold one taken under the curve of its call,
    # so no verdict taken under the old curve is reused, and owns its list of
    # violations.  A seed off the kept cycle is still tested for the IV set.
    p, curve = 359, lambda n, l_s: min(math.sqrt(8 * n) - 1, l_s)
    seeds = build_iv_set(p).elements

    def verify(cold):
        monkeypatch.setattr(lcp, "_last", None)
        reports = []
        for i, a in enumerate(seeds):
            if i == 60:
                walled = lcp._last.wall_depth > 0
                monkeypatch.setattr(lcp, "bound_sqrt", curve)
            if cold:
                lcp._last = None
            reports.append(verify_profile_bounds(p, a))
        monkeypatch.setattr(lcp, "bound_sqrt", bound_sqrt)
        return reports, walled

    expected, _ = verify(cold=True)
    reports, walled = verify(cold=False)
    assert walled and reports == expected
    assert not any(rep.violations for rep in expected[:60]) and all(rep.violations for rep in expected[60:])
    reports[-1].violations.clear()  # each report owns its list
    assert reports[:-1] == expected[:-1]
    outside = next(a for a in range(1, p) if not in_iv_set(a, p))
    verify_profile_bounds(p, seeds[0])
    with pytest.raises(DomainError):
        verify_profile_bounds(p, outside)


def _hankel_dets(seq, j, p):
    """Row j of the number wall from sympy's exact integer determinants."""
    from sympy import Matrix

    return [int(Matrix(j, j, lambda a, b: seq[k + a + b]).det()) % p for k in range(len(seq) - 2 * j + 2)]


@st.composite
def periodic_sequences(draw):
    """(p, one period, wall depth): random periods, short planted periods
    repeated, and all-zero periods.  The small primes make zero divisors, and
    blocks of zeros that need elimination, common and take the wall's inverse
    table; the large ones exceed the wall's entry count (at most 24 * 7) and
    take one pow per new divisor."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 10007, 65537, 2**31 - 1]))
    shape = draw(st.sampled_from(["random", "planted", "zero"]))
    if shape == "zero":
        cycle = [0] * draw(st.integers(1, 8))
    elif shape == "planted":
        cycle = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3)) * draw(st.integers(2, 5))
    else:
        cycle = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=12))
    return p, cycle, draw(st.integers(1, 7))


@settings(max_examples=200, deadline=None)
@given(periodic_sequences())
def test_number_wall_rows_are_hankel_determinants(case):
    pytest.importorskip("sympy")
    p, cycle, depth = case
    t = len(cycle)
    seq = (cycle * (2 * depth // t + 2))[: t + 2 * depth - 2]
    rows = list(lcp._wall_rows(seq, depth, p))
    assert rows == [_hankel_dets(seq, j, p) for j in range(1, depth + 1)], case
    zeros = {k: [j for j, row in enumerate(rows, 1) if row[k] == 0] for k in range(t)}
    assert lcp._zero_rows(cycle, depth, p) == {k: js for k, js in zeros.items() if js}, case


def test_first_zeros_match_perfect_profiles_on_iv_cycles(reference_profiles):
    # A rotation has L(S,N) = ceil(N/2) for every N <= 2J exactly when its
    # Hankel determinants H_1..H_J are nonzero, at every depth J up to L(S).
    walls = {}
    checked = 0
    for p, seed, t, profile in reference_profiles:
        if p >= 400:
            continue
        rec = lcp._locate_on_cycle(seed, p)
        cycle, start = rec.states, rec.index[seed]
        depth = min(t, profile[2 * t - 1])
        if (p, cycle) not in walls:
            walls[p, cycle] = lcp._zero_rows(cycle, depth, p)
        first = min(walls[p, cycle].get(start, [depth + 1]))
        perfect = next((n - 1 for n in range(1, 2 * t + 1) if profile[n - 1] != (n + 1) // 2), 2 * t)
        assert min(first - 1, depth) == min(perfect // 2, depth), (p, seed)
        checked += 1
    assert checked > 3000 and len(walls) > 100


def test_wall_profile_matches_the_textbook_profile_on_iv_cycles(reference_profiles):
    # With D_0 = 0 < D_1 < ... the rows j <= J where H_j(k) != 0, rotation k
    # has L(S, n) = D_i for D_(i-1) + D_i <= n < D_i + D_(i+1), fixed up to
    # n = D + J for the last of them, D.  One wall of depth min(40, L(S)) per
    # cycle gives every smaller depth J too.  Rotations with zero rows are
    # read off the rule; those with H_J(k) = 0 stop short of 2J, where the
    # verifier falls back to Berlekamp-Massey.
    walls = {}
    with_zero_rows = short = terms = 0
    for p, seed, t, profile in reference_profiles:
        rec = lcp._locate_on_cycle(seed, p)
        cycle, start = rec.states, rec.index[seed]
        depth = min(40, profile[2 * t - 1])  # rows past L(S) are all zero
        if (p, cycle) not in walls:
            walls[p, cycle] = lcp._zero_rows(cycle, depth, p)
        rows = walls[p, cycle].get(start, [])
        for j in sorted({depth, 20, 7, 2} & set(range(1, depth + 1))):
            below = [i for i in rows if i <= j]
            read = lcp._wall_profile(below, j)
            assert len(read) == max(i for i in range(j + 1) if i not in below) + j, (p, seed, j)
            assert read == profile[: len(read)], (p, seed, j)
            with_zero_rows += bool(below)
            short += j in below
            terms += len(read)
    assert with_zero_rows > 500 and short > 20 and terms > 500_000


BOUNDS_WINDOW = [p for p in primes_up_to(3200) if p >= 2800 and is_maximal_prime(p).is_maximal]


def test_wall_path_reports_equal_berlekamp_massey_reports(monkeypatch):
    # Every IV seed of the seven maximal primes in [2800, 3200): the reports
    # with the walls equal those with every seed sent through a prefix Euclid
    # from a cold start.  With the walls, the prefix Euclid runs exactly for
    # the seeds verified before their cycle's wall pays off and for those
    # whose wall reading stops short (H_J = 0): here 99 of 5,283 seeds, all
    # before their walls.
    assert len(BOUNDS_WINDOW) == 7
    cases = [(p, a) for p in BOUNDS_WINDOW for a in build_iv_set(p).elements]
    calls = []
    euclid = lcp._euclid_profile
    monkeypatch.setattr(lcp, "_euclid_profile", lambda seq, p: calls.append(p) or euclid(seq, p))
    monkeypatch.setattr(lcp, "_last", None)
    with_walls, prefixed = [], 0  # prefixed counts seeds, as doubling may run several Euclids for one seed
    for p, a in cases:
        ran = len(calls)
        with_walls.append(verify_profile_bounds(p, a))
        rec = lcp._locate_on_cycle(a, p)
        depth, zeros = rec.wall_depth, rec.zeros
        assert (len(calls) > ran) == (not depth or depth in zeros.get(rec.index[a], ())), (p, a)
        prefixed += len(calls) > ran
    assert prefixed == 99 and len(cases) == 5283
    for (p, a), rep in zip(cases, with_walls):
        monkeypatch.setattr(lcp, "_last", None)
        ran = len(calls)
        assert verify_profile_bounds(p, a) == rep, (p, a)
        assert lcp._last.wall_depth == 0 and len(calls) > ran, (p, a)


def test_one_bound_check_builds_no_wall(monkeypatch, tmp_path):
    # A wall costs O(T J) and pays off only over many seeds of one cycle, so
    # one verify call builds none, and `lcp --bounds` judges the profile it
    # prints with no verify call at all.
    monkeypatch.setattr(lcp, "_last", None)
    p = 6599
    seed = build_iv_set(p).elements[0]
    assert verify_profile_bounds(p, seed).n_synthesized == 297
    rec = lcp._locate_on_cycle(seed, p)
    assert (rec.wall_depth, rec.zeros) == (0, {})
    monkeypatch.setattr(lcp, "_last", None)
    assert main(["lcp", "--p", str(p), "--bounds", "--out", str(tmp_path / "lcp.csv")]) == 0
    assert lcp._last is None


def test_lcp_bounds_threshold_covers_late_violations(monkeypatch, capsys):
    # A curve that rises only past N = 20 puts the threshold, its value at
    # n_max, above every length: the check must not stop before N = 21.
    monkeypatch.setattr(lcp, "bound_sqrt", lambda n, l_s: 10**6 if n > 20 else -1.0)
    assert main(["lcp", "--p", "23", "--n-max", "40", "--bounds"]) == 3
    assert "# bounds_hold: false" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,digest",
    [
        ("lcp --p 6599 --bounds", "e9a70a986a92a67b1f3f8f7530de8b1f66aa336e63487e6a36463d315bb15157"),
        ("lcp --p 23 --n-max 1 --bounds", "f76a9fb7d491bff28f34998e9c517ba1d47b6f853ec464fde48e0032a26cd516"),
    ],
)
def test_lcp_bounds_judges_the_printed_profile(monkeypatch, capsys, argv, digest):
    # The verdict comes from bound_violations on the profile `lcp` prints: no
    # second walk and no verify call.  The digests are of the output from
    # when the verdict came from verify_profile_bounds.
    def refuse(*args):
        raise AssertionError("lcp --bounds must not walk or verify a second time")

    monkeypatch.setattr(lcp, "_last", None)
    monkeypatch.setattr(lcp, "logistic_cycle", refuse)
    monkeypatch.setattr(lcp, "verify_profile_bounds", refuse)
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
