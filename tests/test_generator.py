import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadorbit.errors import BudgetExceededError, DomainError, InvalidFieldError
from quadorbit.generator import (
    KIND_DICKSON,
    KIND_LOGISTIC,
    KIND_LOGISTIC_GENERAL,
    GeneratorSpec,
    conjugate_seed,
    dickson_eval,
    in_iv_set,
    logistic_cycle,
    logistic_map,
    logistic_preimages,
    lucas_order,
    orbit,
    predict_orbit,
    step,
)
from quadorbit.ivsets import build_iv_set
from quadorbit.numtheory import fp2_context, legendre, primes_up_to, sqrt_mod

PROPERTY_PRIMES = [p for p in primes_up_to(10**5) if p > 3]


def dickson_brute(e, x, a, p):
    if e == 0:
        return 2 % p
    prev, cur = 2 % p, x % p
    for _ in range(e - 1):
        prev, cur = cur, (x * cur - a * prev) % p
    return cur


def logistic_orbit(p, seed):
    return orbit(GeneratorSpec(kind=KIND_LOGISTIC, p=p, seed=seed))


def test_dickson_eval_base_cases():
    for x in (0, 5, 11):
        assert dickson_eval(0, x, 1, 23) == 2
    assert dickson_eval(1, 5, 1, 23) == 5
    assert dickson_eval(2, 3, 1, 23) == 7  # x^2 - 2


def test_dickson_eval_matches_unrolled_recurrence():
    rng = random.Random(10)
    for _ in range(500):
        p = rng.choice(primes_up_to(200)[1:])
        e, x, a = rng.randrange(0, 64), rng.randrange(p), rng.randrange(p)
        assert dickson_eval(e, x, a, p) == dickson_brute(e, x, a, p), (e, x, a, p)


def test_dickson_composition_degree_six():
    inner = dickson_eval(3, 3, 1, 23)
    assert dickson_eval(6, 3, 1, 23) == dickson_eval(2, inner, 1, 23)


def test_dickson_semigroup_property():
    rng = random.Random(11)
    primes = primes_up_to(100)[1:11]
    for p in primes:
        for _ in range(20):
            x = rng.randrange(p)
            for e in range(2, 6):
                for f in range(2, 6):
                    lhs = dickson_eval(e, dickson_eval(f, x, 1, p), 1, p)
                    assert lhs == dickson_eval(e * f, x, 1, p)


def test_step_examples():
    assert step(GeneratorSpec(kind=KIND_LOGISTIC, p=23, seed=0), 1) == 8
    assert step(GeneratorSpec(kind=KIND_LOGISTIC, p=17, seed=0), 12) == 12
    assert step(GeneratorSpec(kind=KIND_DICKSON, p=23, seed=0), 2) == 2
    spec = GeneratorSpec(kind=KIND_LOGISTIC_GENERAL, p=23, seed=0, mu=3)
    assert step(spec, 2) == 3 * 2 * 3 % 23


def test_spec_validation():
    with pytest.raises(InvalidFieldError):
        GeneratorSpec(kind=KIND_LOGISTIC, p=4, seed=1)
    with pytest.raises(DomainError):
        GeneratorSpec(kind=KIND_LOGISTIC, p=3, seed=1)
    with pytest.raises(DomainError):
        GeneratorSpec(kind=KIND_LOGISTIC_GENERAL, p=23, seed=1)
    with pytest.raises(DomainError):
        GeneratorSpec(kind="florp", p=23, seed=1)
    assert GeneratorSpec(kind=KIND_DICKSON, p=3, seed=5).seed == 2


def test_conjugate_seed_examples():
    assert conjugate_seed(1, 23) == 6
    assert conjugate_seed(12, 17) == 16


def test_conjugation_identity_everywhere():
    for p in (5, 7, 11, 13, 17, 23, 101):
        for s in range(p):
            assert conjugate_seed(logistic_map(s, p), p) == dickson_eval(2, conjugate_seed(s, p), 1, p)


def test_orbit_pointwise_shadowing():
    for p, s in ((23, 1), (17, 5), (101, 42)):
        log = GeneratorSpec(kind=KIND_LOGISTIC, p=p, seed=s)
        dick = GeneratorSpec(kind=KIND_DICKSON, p=p, seed=conjugate_seed(s, p))
        x, y = s, conjugate_seed(s, p)
        for _ in range(10):
            x, y = step(log, x), step(dick, y)
            assert conjugate_seed(x, p) == y


def test_orbit_examples():
    rep = logistic_orbit(23, 1)
    assert rep.tail == [] and rep.cycle == [1, 8, 12, 3, 2]
    assert (rep.tail_length, rep.period) == (0, 5)
    rep = logistic_orbit(17, 3)
    assert rep.cycle == [3, 14, 7]
    rep = logistic_orbit(17, 12)
    assert rep.cycle == [12] and rep.period == 1


def test_orbit_with_tail():
    rep = orbit(GeneratorSpec(kind=KIND_DICKSON, p=23, seed=0))
    assert rep.tail == [0, 21] and rep.cycle == [2]


def test_orbit_invariants():
    rng = random.Random(12)
    for _ in range(100):
        p = rng.choice(primes_up_to(300)[2:])
        spec = GeneratorSpec(kind=KIND_LOGISTIC, p=p, seed=rng.randrange(p))
        rep = orbit(spec)
        states = rep.tail + rep.cycle
        assert len(set(states)) == len(states)
        assert step(spec, rep.cycle[-1]) == rep.cycle[0]
        if rep.tail:
            assert step(spec, rep.tail[-1]) == (rep.tail + rep.cycle)[len(rep.tail)]


def test_orbit_budget():
    with pytest.raises(BudgetExceededError):
        orbit(GeneratorSpec(kind=KIND_LOGISTIC, p=23, seed=1), max_steps=2)


def test_logistic_cycle_matches_orbit_on_iv_seeds():
    for p in primes_up_to(499):
        if p < 5:
            continue
        for a in build_iv_set(p).elements:
            assert logistic_cycle(a, p) == logistic_orbit(p, a).cycle, (p, a)


def test_logistic_cycle_rejects_seed_with_tail():
    assert logistic_orbit(23, 11).tail == [11, 22]
    with pytest.raises(AssertionError):
        logistic_cycle(11, 23)


def test_logistic_preimages_against_scan():
    for p in primes_up_to(499):
        if p <= 3:
            continue
        counts = Counter(logistic_map(x, p) for x in range(p))
        for a in range(p):
            pre = logistic_preimages(a, p)
            assert len(pre) == counts.get(a, 0), (p, a)
            for x in pre:
                assert logistic_map(x, p) == a


def test_preimage_count_matches_legendre_rule():
    # Two preimages exactly when a and its image share a Legendre symbol
    # (both zero included: a = 0 has preimages {0, -1}); one preimage only
    # at a = -1, and none otherwise.
    for p in primes_up_to(499):
        if p <= 3:
            continue
        for a in range(p):
            n = len(logistic_preimages(a, p))
            same = legendre(a, p) == legendre(logistic_map(a, p), p)
            assert (n == 2) == same, (p, a)
            assert (n == 1) == (a == p - 1), (p, a)


def test_predict_orbit_iv_examples():
    pred = predict_orbit(23, 2, "iv_set")
    assert (pred.tail_length, pred.period, pred.degenerate) == (0, 5, False)
    pred = predict_orbit(17, 12, "iv_set")
    assert (pred.tail_length, pred.period) == (0, 1)


def test_predict_orbit_rejects_bad_inputs():
    with pytest.raises(DomainError):
        predict_orbit(23, 5, "iv_set")  # 5 is not in the IV set of F_23
    with pytest.raises(InvalidFieldError):
        predict_orbit(25, 2, "iv_set")
    with pytest.raises(DomainError):
        predict_orbit(23, 2, "sideways")


def test_predict_orbit_degenerate_spine():
    pred = predict_orbit(23, 0, "any")  # conjugates to the Dickson fixed point 2
    assert (pred.tail_length, pred.period, pred.degenerate) == (0, 1, True)
    pred = predict_orbit(23, 22, "any")  # conjugates to -2
    assert (pred.tail_length, pred.period, pred.degenerate) == (1, 1, True)


def test_predict_orbit_iv_matches_brute_force():
    for p in primes_up_to(199):
        if p <= 3:
            continue
        for a in build_iv_set(p).elements:
            rep = logistic_orbit(p, a)
            pred = predict_orbit(p, a, "iv_set")
            assert not pred.degenerate
            assert (pred.tail_length, pred.period) == (rep.tail_length, rep.period), (p, a)


def test_predict_orbit_any_matches_dickson_orbits():
    for p in primes_up_to(199):
        if p <= 3:
            continue
        for s in range(p):
            rep = orbit(GeneratorSpec(kind=KIND_DICKSON, p=p, seed=conjugate_seed(s, p)))
            pred = predict_orbit(p, s, "any")
            assert (pred.tail_length, pred.period) == (rep.tail_length, rep.period), (p, s)


def _root_order_by_multiplication(u, p):
    # A root t = (u + sqrt(u^2 - 4)) / 2 as an F_{p^2} element, multiplied
    # by itself until it reaches 1.
    ctx = fp2_context(p)
    inv2 = (p + 1) // 2
    disc = (u * u - 4) % p
    if legendre(disc, p) == -1:
        t = ctx.elem(u * inv2, sqrt_mod(disc * pow(ctx.non_residue, -1, p), p) * inv2)
    else:
        t = ctx.elem((u + sqrt_mod(disc, p)) * inv2)
    x, n = t, 1
    while x != ctx.elem(1):
        x, n = x * t, n + 1
    return n


def test_lucas_order_matches_repeated_multiplication():
    for p in primes_up_to(150):
        if p == 2:
            continue
        for u in range(p):
            assert lucas_order(u, p) == _root_order_by_multiplication(u, p), (p, u)
    assert lucas_order(2, 23) == 1 and lucas_order(21, 23) == 2  # disc 0: t = 1 and t = -1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PROPERTY_PRIMES), st.integers(min_value=0, max_value=10**5))
def test_predict_orbit_matches_orbit_walk(p, seed):
    s = seed % p
    rep = logistic_orbit(p, s)
    walked = (rep.tail_length, rep.period)
    pred = predict_orbit(p, s, "any")
    assert (pred.tail_length, pred.period) == walked
    if in_iv_set(s, p):
        pred = predict_orbit(p, s, "iv_set")
        assert (pred.tail_length, pred.period) == walked


def _walk_on_step(spec, budget):
    """(tail, cycle) from a first-repeat walk that calls step() per state, or None past the budget."""
    seq, seen = [spec.seed], {spec.seed: 0}
    for i in range(1, budget + 1):
        nxt = step(spec, seq[-1])
        if nxt in seen:
            return seq[: seen[nxt]], seq[seen[nxt] :]
        seen[nxt] = i
        seq.append(nxt)
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([q for q in primes_up_to(2000) if q > 3]),
    st.sampled_from([KIND_LOGISTIC, KIND_DICKSON, KIND_LOGISTIC_GENERAL]),
    st.data(),
)
def test_orbit_matches_a_walk_on_step(p, kind, data):
    seed = data.draw(st.integers(min_value=0, max_value=p - 1))
    mu = data.draw(st.integers(-(10**6), 10**6).filter(lambda m: m % p)) if kind == KIND_LOGISTIC_GENERAL else None
    spec = GeneratorSpec(kind=kind, p=p, seed=seed, mu=mu)
    tail, cycle = _walk_on_step(spec, p)
    rep = orbit(spec)
    assert (rep.tail, rep.cycle) == (tail, cycle)
    # The walk needs exactly tail + period steps: one fewer must run out.
    states = len(tail) + len(cycle)
    budget = data.draw(st.integers(min_value=0, max_value=states + 2))
    for steps in (states - 1, states, budget):
        if _walk_on_step(spec, steps) is None:
            with pytest.raises(BudgetExceededError):
                orbit(spec, max_steps=steps)
        else:
            assert orbit(spec, max_steps=steps) == rep
