import random

import pytest

from quadorbit.errors import DomainError, InvalidElementError, InvalidFieldError
from quadorbit.numtheory import (
    MR_PROVEN_LIMIT,
    euler_phi,
    factorize,
    fp2_context,
    is_prime,
    legendre,
    mult_order,
    order_up_to_sign,
    prime_flags,
    primes_up_to,
    split_two_power,
    sqrt_mod,
    table_factorizer,
)

ODD_PRIMES = [p for p in primes_up_to(200) if p > 2]


def trial_division_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_examples():
    assert is_prime(23)
    assert not is_prime(1)
    assert is_prime(6599)


def test_is_prime_against_trial_division():
    for n in range(2000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_prime_flags_against_trial_division():
    for n in (-1, 0, 1, 2, 3, 4, 1000):
        flags = prime_flags(n)
        assert len(flags) == max(n + 1, 0)
        assert [i for i, flag in enumerate(flags) if flag] == [i for i in range(n + 1) if trial_division_is_prime(i)]
        assert primes_up_to(n) == [i for i, flag in enumerate(flags) if flag]


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert is_prime(9223372036854775783)  # largest prime below 2^63
    # strong pseudoprimes to small witness sets
    assert not is_prime(3215031751)
    assert not is_prime(341550071728321)
    assert not is_prime(318665857834031151167461)


def test_legendre_examples():
    assert legendre(1, 23) == 1
    assert legendre(12, 17) == -1
    assert legendre(2, 23) == 1  # 5^2 = 25 = 2 mod 23


def test_legendre_matches_euler_criterion():
    for p in ODD_PRIMES:
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 0 if euler == 0 else (1 if euler == 1 else -1)
            assert legendre(a, p) == expected, (a, p)


def test_legendre_multiplicative():
    rng = random.Random(1)
    for _ in range(300):
        p = rng.choice(ODD_PRIMES)
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_rejects_bad_modulus():
    with pytest.raises(InvalidFieldError):
        legendre(3, 2)
    with pytest.raises(InvalidFieldError):
        legendre(3, 15)


def test_sqrt_mod_roundtrip():
    for p in ODD_PRIMES:
        for a in range(p):
            if legendre(a, p) != -1:
                r = sqrt_mod(a, p)
                assert r * r % p == a % p
                assert r <= p - r
    # Primes whose p - 1 holds a large power of two, then 61- and 80-bit primes = 1 and 3 mod 4, on random residues.
    large = [3 * 2**30 + 1, 6 * 2**40 + 1, 27 * 2**40 + 1, 2**61 - 31, 2**61 - 1, 2**80 - 143, 2**80 - 65]
    rng = random.Random(24)
    for p in large:
        assert is_prime(p)
        for _ in range(20):
            a = pow(rng.randrange(1, p), 2, p)
            r = sqrt_mod(a, p)
            assert r * r % p == a and r <= p - r, (a, p)
    with pytest.raises(InvalidElementError):
        sqrt_mod(5, 23)  # 5 is a non-residue mod 23


def test_factorize_examples():
    assert factorize(22) == {2: 1, 11: 1}
    assert factorize(1) == {}
    assert factorize(16) == {2: 4}


def test_factorize_reconstructs_and_is_prime():
    rng = random.Random(2)
    values = list(range(1, 2000)) + [rng.randrange(10**9, 10**12) for _ in range(40)]
    values += [2**61 - 1, 3**7 * 2**10 * 6599, 614889782588491410]  # product of first 15 primes
    for n in values:
        fact = factorize(n)
        product = 1
        for prime, exp in fact.items():
            assert is_prime(prime), (n, prime)
            product *= prime**exp
        assert product == n


def test_euler_phi():
    assert euler_phi(1) == 1
    for n in range(1, 500):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)
    for n in (0, -5):
        with pytest.raises(InvalidElementError, match=f"cannot factorize {n}"):
            euler_phi(n)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_mult_order_examples():
    assert mult_order(2, 11) == 10
    assert mult_order(2, 9) == 6
    assert mult_order(1, 7) == 1


def test_mult_order_minimal():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(3, 500)
        g = rng.randrange(1, n)
        if _gcd(g, n) != 1:
            continue
        k = mult_order(g, n)
        assert pow(g, k, n) == 1
        assert euler_phi(n) % k == 0
        for prime in factorize(k):
            assert pow(g, k // prime, n) != 1


def test_mult_order_rejects_noninvertible():
    with pytest.raises(InvalidElementError):
        mult_order(0, 7)
    with pytest.raises(InvalidElementError):
        mult_order(6, 9)


def test_order_up_to_sign_examples():
    assert order_up_to_sign(11) == 5  # 2^5 = 32 = -1 mod 11
    assert order_up_to_sign(9) == 3  # 2^3 = 8 = -1 mod 9
    assert order_up_to_sign(3) == 1


def test_order_up_to_sign_properties():
    for m in range(3, 400, 2):
        k = order_up_to_sign(m)
        full = mult_order(2, m)
        assert k in (full, full // 2)
        assert pow(2, k, m) in (1, m - 1)
        for j in range(1, k):
            assert pow(2, j, m) not in (1, m - 1)


def test_order_up_to_sign_rejects_even_or_small():
    with pytest.raises(InvalidElementError):
        order_up_to_sign(8)
    with pytest.raises(InvalidElementError):
        order_up_to_sign(1)


def test_split_two_power():
    assert split_two_power(40) == (3, 5)
    assert split_two_power(1) == (0, 1)
    assert split_two_power(-8) == (3, -1)
    assert split_two_power(3 << 200) == (200, 3)
    rng = random.Random(27)
    for n in [rng.randrange(1, 1 << 80) << rng.randrange(90) for _ in range(500)] + list(range(-300, 0)):
        e, m = 0, n
        while m % 2 == 0:
            m //= 2
            e += 1
        assert split_two_power(n) == (e, m), n
    with pytest.raises(DomainError):
        split_two_power(0)


def test_fp2_context_picks_smallest_non_residue():
    assert fp2_context(17).non_residue == 3
    assert fp2_context(23).non_residue == 5
    with pytest.raises(InvalidFieldError):
        fp2_context(15)


def test_fp2_norm_example():
    ctx = fp2_context(17)
    assert ctx.elem(2, 1).norm() == 1  # 2^2 - 3 * 1^2


def test_fp2_norm_multiplicative_and_frobenius():
    ctx = fp2_context(10007)
    rng = random.Random(4)
    for _ in range(1000):
        x = ctx.elem(rng.randrange(10007), rng.randrange(10007))
        y = ctx.elem(rng.randrange(10007), rng.randrange(10007))
        assert (x * y).norm() == x.norm() * y.norm() % 10007
        # The p-power map flips the sign of c1, and x times its image is the norm.
        via_frobenius = x * ctx.elem(x.c0, -x.c1)
        assert via_frobenius.c1 == 0
        assert via_frobenius.c0 == x.norm()


def test_fp2_inverse():
    ctx = fp2_context(23)
    rng = random.Random(5)
    for _ in range(200):
        x = ctx.elem(rng.randrange(23), rng.randrange(23))
        if x.c0 == 0 and x.c1 == 0:
            continue
        assert x * x.inverse() == ctx.elem(1)
    with pytest.raises(InvalidElementError):
        ctx.elem(0, 0).inverse()


# Published psi_k with the number of bases is_prime uses below each: psi_k is
# the least strong pseudoprime to the first k prime bases.
MR_TIER_BOUNDS = [
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
]

# The largest prime below each bound (checked with sympy.prevprime).
LARGEST_PRIME_BELOW_BOUND = [
    2039,
    1373639,
    25325981,
    3215031749,
    2152302898729,
    3474749660329,
    341550071728289,
    3825123056546412979,
    318665857834031151167441,
    3317044064679887385961813,
]

FIRST_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@pytest.mark.parametrize("bound, k", MR_TIER_BOUNDS)
def test_is_prime_rejects_each_tier_bound(bound, k):
    # Each bound fools the k bases proven below it, so the tier boundary is
    # exactly where k stops being enough.
    assert all(strong_probable_prime(bound, a) for a in FIRST_PRIME_BASES[:k])
    assert is_prime(bound) is False


@pytest.mark.parametrize("prime", LARGEST_PRIME_BELOW_BOUND)
def test_is_prime_accepts_largest_prime_below_each_tier_bound(prime):
    assert is_prime(prime) is True


def test_proven_limit_is_the_last_tier_bound():
    assert MR_PROVEN_LIMIT == MR_TIER_BOUNDS[-1][0]


def test_factorize_around_the_trial_division_limit():
    # 1021 is the largest trial prime; 1031 and 1033 are the first primes rho
    # has to find.
    cases = {
        1021**2: {1021: 2},
        1021 * 1031: {1021: 1, 1031: 1},
        1031**2: {1031: 2},
        1031**3 * 1033: {1031: 3, 1033: 1},
        2**10 * 3 * 1031 * 1033: {2: 10, 3: 1, 1031: 1, 1033: 1},
        (2**31 - 1) ** 2: {2**31 - 1: 2},
        (2**31 - 1) * (2**61 - 1): {2**31 - 1: 1, 2**61 - 1: 1},
        1000003 * 1000033: {1000003: 1, 1000033: 1},
    }
    for n, expected in cases.items():
        assert factorize(n) == expected, n


def test_table_factorizer_matches_factorize():
    factor = table_factorizer(1 << 23)
    for n in range(1, (1 << 16) + 1):
        assert factor(n) == factorize(n), n
    rng = random.Random(23)
    for n in [rng.randrange(1 << 16, (1 << 23) + 1) for _ in range(4000)] + [(1 << 23) - 1, 1 << 23]:
        assert factor(n) == factorize(n), n
    # Primes in ascending order, as factorize gives them.
    assert list(factor(2887 * 7 * 3**2 * 2)) == [2, 3, 7, 2887]


def _seeded_values(bits, count, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(bits) | (1 << (bits - 1)) for _ in range(count)]


@pytest.mark.parametrize("bits", [24, 47, 62])
def test_differential_against_sympy(bits):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(bits)
    values = _seeded_values(bits, 30, bits)
    # Primes and products of two primes of half the size, which rho must split.
    values += [sympy.nextprime(v) for v in values[:10]]
    half = [sympy.nextprime(v) for v in _seeded_values(bits // 2, 10, bits + 1)]
    values += [a * b for a, b in zip(half, reversed(half))]
    for n in values:
        assert is_prime(n) == sympy.isprime(n), n
        assert factorize(n) == sympy.factorint(n), n
    for n in values[:15]:
        g = rng.randrange(2, n)
        while _gcd(g, n) != 1:
            g += 1
        assert mult_order(g, n) == sympy.n_order(g, n), (g, n)


def test_published_bounds_and_primes_against_sympy():
    sympy = pytest.importorskip("sympy")
    for (bound, _), prime in zip(MR_TIER_BOUNDS, LARGEST_PRIME_BELOW_BOUND):
        assert not sympy.isprime(bound)
        assert sympy.prevprime(bound) == prime
