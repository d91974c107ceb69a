import gc
import random
from collections import Counter
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadorbit
from quadorbit.diagram import brute_census, census, cycle_modulus
from quadorbit.errors import DegenerateParameterError, DomainError, InvalidElementError, InvalidFieldError
from quadorbit.generator import (
    KIND_DICKSON,
    KIND_LOGISTIC,
    KIND_LOGISTIC_GENERAL,
    GeneratorSpec,
    logistic_map,
    logistic_preimages,
    orbit,
    predict_orbit,
)
from quadorbit.ivsets import (
    KIND_NORM_ONE,
    KIND_SPLIT,
    build_iv_set,
    canonical_param,
    conjugation_check,
    fiber_table,
    in_iv_set,
    param_fibers,
    param_kind,
    preimage_signs,
    seed_from_param,
)
from quadorbit.lcp import berlekamp_massey_profile, linear_complexity_via_gcd, verify_profile_bounds
from quadorbit.numtheory import Fp2Context, dickson_eval, fp2_context, legendre, mult_order, primes_up_to, sqrt_mod

PRIMES = [p for p in primes_up_to(500) if p > 3]
PROPERTY_PRIMES = [p for p in primes_up_to(30_000) if p > 3]
WIDE_PRIMES = [p for p in primes_up_to(1 << 17) if p >= 3000]

# Fiber tables for p = 23 (split) and p = 17 (norm-one over x^2 - 3).
FIBERS_23 = {
    1: [4, 6, 17, 19],
    2: [2, 11, 12, 21],
    3: [5, 9, 14, 18],
    8: [7, 10, 13, 16],
    12: [3, 8, 15, 20],
}
FIBERS_17 = {
    3: {(2, 1), (15, 16), (2, 16), (15, 1)},
    7: {(5, 5), (12, 12), (5, 12), (12, 5)},
    12: {(8, 2), (9, 15), (8, 15), (9, 2)},
    14: {(7, 4), (10, 13), (7, 13), (10, 4)},
}


def test_build_iv_set_examples():
    iv = build_iv_set(23)
    assert iv.elements == [1, 2, 3, 8, 12]
    assert iv.kind == KIND_SPLIT
    iv = build_iv_set(17)
    assert iv.elements == [3, 7, 12, 14]
    assert iv.kind == KIND_NORM_ONE
    assert build_iv_set(7).elements == [1]
    assert build_iv_set(5).elements == [3]


def _euler_members(p):
    """The initial-value elements by Euler's criterion: a + 1 is a square, and a is one (p = 3 mod 4) or is not."""
    want, half = (1 if p % 4 == 3 else p - 1), (p - 1) // 2
    return [a for a in range(1, p - 1) if pow(a, half, p) == want and pow(a + 1, half, p) == 1]


def test_build_iv_set_matches_euler_criterion():
    for p in primes_up_to(2000):
        if p >= 5:
            assert build_iv_set(p).elements == _euler_members(p), p


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_build_iv_set_is_the_same_for_any_scan_block(monkeypatch, chunk):
    # Many blocks per prime, so every block edge is crossed; the default block holds all of these primes.
    expected = {p: build_iv_set(p).elements for p in primes_up_to(700) if p >= 5}
    monkeypatch.setattr("quadorbit.ivsets.SCAN_CHUNK", chunk)
    for p, elements in expected.items():
        assert build_iv_set(p).elements == elements, p


def _walked_census(p):
    """{period: count} over the Euler-criterion members, each walked by orbit() and deduplicated with a set."""
    seen, counts = set(), Counter()
    for a in _euler_members(p):
        if a not in seen:
            walk = orbit(GeneratorSpec(KIND_LOGISTIC, p, a))
            assert walk.tail == [], (p, a)
            seen.update(walk.cycle)
            counts[walk.period] += 1
    return counts


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_brute_census_is_the_same_for_any_scan_block(monkeypatch, chunk):
    # Many blocks per prime, so todo crosses every join between blocks and a last block padded past p - 1.
    expected = {p: _walked_census(p) for p in primes_up_to(700) if p >= 5}
    monkeypatch.setattr("quadorbit.ivsets.SCAN_CHUNK", chunk)
    for p, counts in expected.items():
        assert brute_census(p) == counts, p


def test_norm_one_params_match_brute_force():
    for p in primes_up_to(300):
        if p % 4 != 1:
            continue
        ns = fp2_context(p).non_residue
        expected = [
            (c0, c1)
            for c0 in range(p)
            for c1 in range(p)
            if (c0 * c0 - ns * c1 * c1) % p == 1 and (c0, c1) not in ((1, 0), (p - 1, 0))
        ]
        assert sorted(pair for _, f in fiber_table(p) for pair in zip(f[::2], f[1::2])) == expected, p


def _scanned_fibers(p):
    """Fibers binned one parameter at a time through seed_from_param.

    Norm-one parameters come from a scan over c1 that reads the c0 with
    c0^2 = 1 + ns * c1^2 off a square map of all of F_p: no shared table.
    """
    fibers = {}
    if param_kind(p) == KIND_SPLIT:
        for t in range(2, p - 1):
            fibers.setdefault(seed_from_param(t, p), []).append(t)
        return fibers
    ctx = fp2_context(p)
    roots = {}
    for x in range(p):
        roots.setdefault(x * x % p, []).append(x)
    params = [ctx.elem(c0, c1) for c1 in range(1, p) for c0 in roots.get((1 + ctx.non_residue * c1 * c1) % p, [])]
    assert len(params) == p - 1  # the norm-one group has p + 1 elements, two of them +-1
    for t in sorted(params, key=lambda t: (t.c0, t.c1)):
        fibers.setdefault(seed_from_param(t), []).append((t.c0, t.c1))
    return fibers


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_fiber_table_is_the_same_for_any_scan_block(monkeypatch, chunk):
    # fiber_table joins the member blocks, so a misaligned join or a lost block would move or drop its keys.
    expected = {p: _scanned_fibers(p) for p in primes_up_to(700) if p >= 5}
    monkeypatch.setattr("quadorbit.ivsets.SCAN_CHUNK", chunk)
    for p, scanned in expected.items():
        table = fiber_table(p)
        assert [a for a, _ in table] == _euler_members(p), p
        fibers = dict(table) if param_kind(p) == KIND_SPLIT else {a: list(zip(f[::2], f[1::2])) for a, f in table}
        assert fibers == scanned, p


def test_fiber_table_keys_cross_the_default_block_edge():
    # The largest split and norm-one primes below 2^17 each span two default blocks.
    for p in (max(q for q in WIDE_PRIMES if q % 4 == 3), max(q for q in WIDE_PRIMES if q % 4 == 1)):
        assert [a for a, _ in fiber_table(p)] == _euler_members(p), p


def test_fiber_table_matches_a_per_parameter_scan():
    for p in [q for q in primes_up_to(3000) if q >= 5]:
        expected = _scanned_fibers(p)
        table = fiber_table(p)
        assert [a for a, _ in table] == sorted(expected), p
        fibers = param_fibers(p)
        if param_kind(p) == KIND_SPLIT:
            assert dict(table) == fibers == expected, p
        else:
            assert {a: list(zip(f[::2], f[1::2])) for a, f in table} == expected, p
            assert {a: [(t.c0, t.c1) for t in f] for a, f in fibers.items()} == expected, p


def _fail_after_one(data, flags):
    """compress that yields one element and then fails, inside the fiber loop."""
    yield next(compress(data, flags))
    raise RuntimeError("element scan failed")


@pytest.mark.parametrize("p", [23, 17])
@pytest.mark.parametrize("collecting", [True, False])
def test_fiber_table_leaves_the_collector_as_it_found_it(monkeypatch, p, collecting):
    # fiber_table pauses the cyclic collector while it builds the table; it
    # must hand back the caller's setting, on a failed build too.
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        assert fiber_table(p)
        assert gc.isenabled() is collecting
        monkeypatch.setattr("quadorbit.ivsets.compress", _fail_after_one)
        with pytest.raises(RuntimeError):
            fiber_table(p)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WIDE_PRIMES), st.randoms(use_true_random=False))
def test_sampled_parameters_land_in_the_fiber_that_lists_them(p, rng):
    fibers = dict(fiber_table(p))
    assert list(fibers) == build_iv_set(p).elements
    ctx = fp2_context(p)
    for _ in range(16):
        if param_kind(p) == KIND_SPLIT:
            t = rng.randrange(2, p - 1)
            assert t in fibers[seed_from_param(t, p)], (p, t)
            continue
        # A norm-one parameter: c0^2 = 1 + ns * c1^2, solved with sqrt_mod, not with the fiber table.
        c1 = rng.randrange(1, p)
        while legendre(1 + ctx.non_residue * c1 * c1, p) != 1:
            c1 = rng.randrange(1, p)
        c0 = sqrt_mod((1 + ctx.non_residue * c1 * c1) % p, p) * rng.choice((1, -1)) % p
        fiber = fibers[seed_from_param(ctx.elem(c0, c1))]
        assert (c0, c1) in zip(fiber[::2], fiber[1::2]), (p, c0, c1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PROPERTY_PRIMES))
def test_fibers_iv_set_and_census_agree(p):
    fibers = param_fibers(p)
    assert sorted(fibers) == build_iv_set(p).elements
    for fiber in fibers.values():
        if param_kind(p) == KIND_SPLIT:
            group = set(fiber)
            assert all(p - t in group and pow(t, -1, p) in group for t in fiber)
        else:
            group = {(t.c0, t.c1) for t in fiber}
            for t in fiber:
                neg, inv = -t, t.inverse()
                assert (neg.c0, neg.c1) in group and (inv.c0, inv.c1) in group
    assert census(p).period_counter() == brute_census(p)


def test_build_iv_set_rejects_small_p():
    with pytest.raises(InvalidFieldError):
        build_iv_set(3)
    with pytest.raises(InvalidFieldError):
        param_kind(9)


def test_in_iv_set_rejects_p_that_is_not_a_prime_above_3():
    for p in (3, 9):
        with pytest.raises(InvalidFieldError):
            quadorbit.in_iv_set(1, p)


def test_counting_formula():
    for p in PRIMES:
        iv = build_iv_set(p)
        assert len(iv.elements) == iv.expected_size, p


def test_membership_signs():
    for p in PRIMES[:40]:
        iv = build_iv_set(p)
        sign = 1 if p % 4 == 3 else -1
        for a in iv.elements:
            assert legendre(a, p) == sign
            assert legendre(a + 1, p) == 1
            assert in_iv_set(a, p)
        for a in range(p):
            assert in_iv_set(a, p) == (a in set(iv.elements))


def test_seed_from_param_examples():
    assert seed_from_param(2, 23) == 2
    assert seed_from_param(4, 23) == 1
    ctx = fp2_context(17)
    assert seed_from_param(ctx.elem(2, 1)) == 3


def test_seed_from_param_degenerate():
    for t in (0, 1, 22):
        with pytest.raises(DegenerateParameterError):
            seed_from_param(t, 23)
    ctx = fp2_context(17)
    with pytest.raises(DegenerateParameterError):
        seed_from_param(ctx.elem(16, 0))  # -1
    with pytest.raises(DomainError):
        seed_from_param(ctx.elem(2, 3))  # norm != 1
    with pytest.raises(DomainError):
        seed_from_param(5)  # missing modulus
    # Int parameters are split ones: p must be a prime = 3 mod 4.  The IV sets of 5 and 13 are {3} and
    # {2, 8, 11}, so images 4 and 9 would lie outside them.
    for t, p in ((2, 5), (3, 13)):
        with pytest.raises(DomainError):
            seed_from_param(t, p)
    for t in (2, 3):
        with pytest.raises(InvalidFieldError):
            seed_from_param(t, 9)


def test_seed_from_param_refuses_extension_parameters_outside_norm_one_fields():
    # For p = 3 mod 4 the parameters are split ints: every norm-one extension element would map outside the set.
    for p in (7, 11, 19, 23):
        ctx = fp2_context(p)
        params = [(c0, c1) for c0 in range(p) for c1 in range(1, p) if (c0 * c0 - ctx.non_residue * c1 * c1) % p == 1]
        assert len(params) == p - 1  # the norm-one group has p + 1 elements, two of them +-1
        for c0, c1 in params:
            with pytest.raises(DomainError) as raised:
                seed_from_param(ctx.elem(c0, c1))
            assert str(raised.value) == f"Fp2Element parameters are norm-one ones, which need p = 1 mod 4, got p={p}"
    with pytest.raises(InvalidFieldError, match="15 is not a prime > 3"):
        seed_from_param(Fp2Context(15, 2).elem(4, 0))


def test_param_fibers_reproduce_tables():
    assert param_fibers(23) == FIBERS_23
    fibers = param_fibers(17)
    assert {a: {(t.c0, t.c1) for t in fiber} for a, fiber in fibers.items()} == FIBERS_17


def test_param_fibers_four_to_one():
    for p in PRIMES[:30]:
        iv = build_iv_set(p)
        fibers = param_fibers(p)
        assert sorted(fibers) == iv.elements
        size = sum(len(f) for f in fibers.values())
        assert size == 4 * len(iv.elements)
        if iv.kind == KIND_SPLIT:
            assert size == p - 3
            for a, fiber in fibers.items():
                group = set(fiber)
                for t in fiber:
                    assert (p - t) % p in group
                    assert pow(t, -1, p) in group
        else:
            assert size == p - 1
            for a, fiber in fibers.items():
                group = {(t.c0, t.c1) for t in fiber}
                for t in fiber:
                    assert ((-t).c0, (-t).c1) in group
                    inv = t.inverse()
                    assert (inv.c0, inv.c1) in group


def test_images_land_in_iv_set():
    for p in PRIMES:
        fibers = param_fibers(p)
        assert sorted(fibers) == build_iv_set(p).elements
        for a in fibers:
            assert in_iv_set(a, p)


def test_canonical_param_examples():
    assert canonical_param(2, 23) == 2
    t = canonical_param(12, 17)
    assert (t.c0, t.c1) == (8, 2)


def test_canonical_param_roundtrip():
    for p in PRIMES:
        kind = param_kind(p)
        for a in build_iv_set(p).elements:
            t = canonical_param(a, p)
            if kind == KIND_SPLIT:
                assert seed_from_param(t, p) == a
            else:
                assert seed_from_param(t) == a
    with pytest.raises(DomainError):
        canonical_param(5, 23)


def test_canonical_param_is_fiber_minimum():
    for p in (23, 31, 17, 29):
        fibers = param_fibers(p)
        for a, fiber in fibers.items():
            t = canonical_param(a, p)
            if param_kind(p) == KIND_SPLIT:
                assert t == min(fiber)
            else:
                lo = min(fiber, key=lambda x: (x.c0, x.c1))
                assert (t.c0, t.c1) == (lo.c0, lo.c1)


@pytest.mark.parametrize("p", [2**61 - 1, 2**61 - 31, 2**80 - 65, 2**80 - 143])
def test_canonical_param_at_61_and_80_bits(p):
    # 61- and 80-bit primes of both classes, far past any fiber table: each canonical parameter maps back to
    # its seed and is the least of the four members +-t, +-1/t of its fiber, inverted here independently.
    rng = random.Random(p)
    seeds = []
    while len(seeds) < 20:
        a = rng.randrange(p)
        if in_iv_set(a, p):
            seeds.append(a)
    for a in seeds:
        t = canonical_param(a, p)
        if param_kind(p) == KIND_SPLIT:
            t_inv = pow(t, -1, p)
            fiber = [t, p - t, t_inv, p - t_inv]
            assert [seed_from_param(x, p) for x in fiber] == [a] * 4
            assert t == min(fiber), (p, a)
        else:
            t_inv = t.inverse()
            fiber = [t, -t, t_inv, -t_inv]
            assert [seed_from_param(x) for x in fiber] == [a] * 4
            assert (t.c0, t.c1) == min((x.c0, x.c1) for x in fiber), (p, a)


def test_conjugation_check_examples():
    lhs, rhs = conjugation_check(2, 23)
    assert lhs == rhs == 1
    ctx = fp2_context(17)
    lhs, rhs = conjugation_check(ctx.elem(2, 1))
    assert lhs == rhs == 14


def test_conjugation_law_exhaustive():
    for p in [q for q in primes_up_to(200) if q > 3]:
        if param_kind(p) == KIND_SPLIT:
            for t in range(2, p - 1):
                lhs, rhs = conjugation_check(t, p)
                assert lhs == rhs, (p, t)
        else:
            for fiber in param_fibers(p).values():
                for t in fiber:
                    lhs, rhs = conjugation_check(t)
                    assert lhs == rhs, (p, t)


def test_preimage_signs_examples():
    s1, s2 = preimage_signs(1, 23)
    assert {s1, s2} == {1, -1}
    s1, s2 = preimage_signs(3, 17)
    assert {s1, s2} == {1, -1}


def test_preimage_signs_split_and_product_law():
    for p in [q for q in primes_up_to(200) if q > 3]:
        for a in build_iv_set(p).elements:
            s1, s2 = preimage_signs(a, p)
            assert s1 != s2
            assert s1 * s2 == legendre(-1, p) * legendre(a, p)
    with pytest.raises(DomainError):
        preimage_signs(5, 23)


# numtheory.check_prime's refusal for each least it takes.
REFUSALS = {2: "is not a prime", 3: "is not an odd prime", 5: "is not a prime > 3"}


@pytest.mark.parametrize("p", [-7, 0, 1, 2, 3, 4, 9])
def test_entry_points_check_p_before_using_it_as_a_modulus(p):
    """Each call accepts a prime p >= its least and refuses every other p with the InvalidFieldError of that least,
    before p is a modulus: no ZeroDivisionError at p = 0, and no answer for a non-prime p from an a = 0 mod p or
    a + 1 = 0 mod p shortcut.  p = 2 and p = 3, the primes tried, sit on the boundaries between the wordings."""
    calls = [
        (2, lambda: berlekamp_massey_profile([1, 2], p)),
        (2, lambda: linear_complexity_via_gcd([1, 2], p)),
        (3, lambda: legendre(3, p)),
        (3, lambda: fp2_context(p)),
        (3, lambda: GeneratorSpec(KIND_DICKSON, p, 1)),
        (5, lambda: GeneratorSpec(KIND_LOGISTIC, p, 1)),
        (5, lambda: GeneratorSpec(KIND_LOGISTIC_GENERAL, p, 1, 3)),
        (3, lambda: sqrt_mod(1, p)),
        (3, lambda: sqrt_mod(p, p)),
        (3, lambda: logistic_preimages(1, p)),
        (3, lambda: logistic_preimages(p - 1, p)),
        (5, lambda: in_iv_set(1, p)),
        (5, lambda: predict_orbit(p, 1)),
        (5, lambda: cycle_modulus(p)),
        (5, lambda: param_kind(p)),
        (5, lambda: verify_profile_bounds(p, 1)),
        (5, lambda: canonical_param(1, p)),
        (5, lambda: preimage_signs(1, p)),
    ]
    for least, call in calls:
        if p in (2, 3) and p >= least:
            call()  # raises no InvalidFieldError
            continue
        with pytest.raises(InvalidFieldError) as raised:
            call()
        assert str(raised.value) == f"{p} {REFUSALS[least]}"


@pytest.mark.parametrize(
    ("call", "error", "message"),
    [
        (lambda: dickson_eval(2, 3, 1, 0), InvalidFieldError, "0 is not a prime"),
        (lambda: logistic_map(1, 0), InvalidFieldError, "0 is not a prime"),
        (lambda: mult_order(2, 0), InvalidElementError, "2 is not invertible mod 0"),
        (lambda: berlekamp_massey_profile([1, 2], 0), InvalidFieldError, "0 is not a prime"),
        (lambda: linear_complexity_via_gcd([1, 2], 0), InvalidFieldError, "0 is not a prime"),
        (lambda: linear_complexity_via_gcd([1, 2], 9), InvalidFieldError, "9 is not a prime"),
    ],
    ids=["dickson_eval", "logistic_map", "mult_order", "berlekamp_massey_profile", "gcd_route_p0", "gcd_route_p9"],
)
def test_modular_routines_refuse_a_bad_modulus_with_a_domain_error(call, error, message):
    """No ZeroDivisionError at p = 0, and no bare ValueError from pow for a composite p."""
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def test_iv_set_closed_under_logistic_map():
    for p in PRIMES:
        members = set(build_iv_set(p).elements)
        for a in members:
            assert logistic_map(a, p) in members, (p, a)
