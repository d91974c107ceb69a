"""Exact arithmetic over F_p and its quadratic extension.

Elements of F_p are plain Python ints reduced into [0, p); the quadratic
extension F_{p^2} gets a real element class because its arithmetic is not
built into the language.  The Dickson/Lucas ladder dickson_eval is here too,
and square roots come from it.  Everything is pure and deterministic: the
same inputs always give the same output bytes.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from typing import Callable, NamedTuple

from .errors import DomainError, InvalidElementError, InvalidFieldError

# Trial divisors and Miller-Rabin bases of is_prime: the primes up to 53.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

# Deterministic Miller-Rabin tiers: for n below each bound, the first k prime
# bases prove primality.  The bounds are the published psi_k, the least
# strong pseudoprimes to the first k prime bases (Pomerance, Selfridge and
# Wagstaff 1980; Jaeschke 1993; Jiang and Deng 2014; Sorenson and Webster 2017).
_MR_TIERS = (
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
)

# is_prime is proven for every n below this.
MR_PROVEN_LIMIT = _MR_TIERS[-1][0]


@lru_cache(maxsize=1 << 12)
def is_prime(n: int) -> bool:
    """Primality test, deterministic for 0 <= n < MR_PROVEN_LIMIT (about 3.3 * 10^24).

    Miller-Rabin with the first k prime bases, k the smallest proven for n's
    size.  Above the limit all 16 bases up to 53 are used, which makes it a
    strong probable-prime test only.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    r, d = split_two_power(n - 1)
    for bound, k in _MR_TIERS:
        if n < bound:
            break
    else:
        k = len(_SMALL_PRIMES)
    for a in _SMALL_PRIMES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int, least: int = 2) -> int:
    """p, once it is a prime >= least: any prime (2), an odd one (3) or one > 3 (5); else InvalidFieldError."""
    if p < least or not is_prime(p):
        raise InvalidFieldError(f"{p} is not " + {2: "a prime", 3: "an odd prime", 5: "a prime > 3"}[least])
    return p


def prime_flags(n: int) -> bytearray:
    """Sieve of Eratosthenes: flags[i] is 1 exactly when i <= n is prime."""
    if n < 2:
        return bytearray(max(n + 1, 0))
    flags = bytearray(b"\x01") * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((n - start) // p + 1)
    return flags


def primes_up_to(n: int) -> list[int]:
    """All primes <= n."""
    return list(compress(range(n + 1), prime_flags(n)))


def table_factorizer(n: int) -> Callable[[int], dict[int, int]]:
    """factorize for every 1 <= k <= n < 2^32, read off one smallest-prime-factor table.

    Entry i of the table is the least prime dividing a composite i, and 0 when
    i is prime or below 2: each prime q <= sqrt(n), largest first, writes q
    over its multiples from q^2 on, so the least one is written last.
    """
    table = array("H", [0]) * (n + 1)
    for q in reversed(primes_up_to(isqrt(n))):
        table[q * q :: q] = array("H", [q]) * len(range(q * q, n + 1, q))

    def factor(k: int) -> dict[int, int]:
        factors: dict[int, int] = {}
        while k > 1:
            q = table[k] or k
            factors[q] = factors.get(q, 0) + 1
            k //= q
        return factors

    return factor


def legendre(a: int, p: int) -> int:
    """Legendre symbol of a modulo an odd prime p: one of -1, 0, +1.

    Computed by the quadratic-reciprocity (Jacobi) iteration rather than by
    Euler's criterion; the criterion is kept as a test oracle only.
    """
    check_prime(p, 3)
    a %= p
    if a == 0:
        return 0
    result = 1
    n = p
    while a:
        if not a & 1:  # an odd a skips the call
            e, a = split_two_power(a)
            if e % 2 and n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result


def dickson_eval(e: int, x: int, a: int, p: int) -> int:
    """Degree-e Dickson polynomial value D_e(x, a) mod p.

    O(log e) Lucas-style ladder for the recurrence D_0 = 2, D_1 = x,
    D_e = x * D_{e-1} - a * D_{e-2}, using the doubling identities
    D_{2k} = D_k^2 - 2a^k and D_{2k+1} = D_k * D_{k+1} - a^k * x.
    """
    if e < 0:
        raise DomainError(f"Dickson degree must be >= 0, got {e}")
    if p < 2:  # a comparison, not is_prime: lucas_order calls this in its loop
        raise InvalidFieldError(f"{p} is not a prime")
    x %= p
    a %= p
    if e == 0:
        return 2 % p
    lo, hi = 2 % p, x  # D_k, D_{k+1} for k = 0
    ak = 1  # a^k
    for bit in bin(e)[2:]:
        mid = (lo * hi - ak * x) % p
        if bit == "1":
            lo = mid
            hi = (hi * hi - 2 * ak * a) % p
            ak = ak * ak * a % p
        else:
            hi = mid
            lo = (lo * lo - 2 * ak) % p
            ak = ak * ak % p
    return lo


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p, normalized to min(r, p - r).

    Muller's Lucas-sequence root (2004): for the first P >= 1 with P^2 - 4a a non-residue, X^2 - P*X + a has
    roots b, b^p in F_{p^2} with b^(p+1) = a, so D_{(p+1)/2}(P, a) = 2 * b^((p+1)/2), twice a root of a in F_p.
    Raises InvalidElementError if a is a non-residue; a p that is not an odd prime raises legendre's InvalidFieldError.
    """
    if legendre(a, p) == -1:
        raise InvalidElementError(f"{a % p} is not a quadratic residue mod {p}")
    a %= p
    if a == 0:
        return 0
    P = 1
    while legendre(P * P - 4 * a, p) != -1:
        P += 1
    r = dickson_eval((p + 1) // 2, P, a, p) * ((p + 1) // 2) % p
    return min(r, p - r)


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite n (Brent's cycle-detection rho).

    The parameter sequence is fixed, so the factor found is deterministic.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        y, r, q = 2, 1, 1
        g, x, ys = 1, y, y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable for composite n


# Trial divisors of _factorize: the primes below 2^10.  The cofactor they
# leave has no prime factor below 2^10 and goes to is_prime and Brent-rho.
_TRIAL_PRIMES = tuple(primes_up_to((1 << 10) - 1))


@lru_cache(maxsize=1 << 12)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    factors: dict[int, int] = {}
    for d in _TRIAL_PRIMES:
        if d * d > n:
            break
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            f = _brent_rho(m)
            stack.append(f)
            stack.append(m // f)
    return tuple(sorted(factors.items()))


def factorize(n: int) -> dict[int, int]:
    """Complete prime factorization of n >= 1 as {prime: exponent}.

    Trial division by the primes below 2^10, then Miller-Rabin on the
    cofactor and Brent-rho while it is composite; results are cached
    (least recently used, 4096 entries).
    """
    if n < 1:
        raise InvalidElementError(f"cannot factorize {n}")
    return dict(_factorize(n))


def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1."""
    phi = 1
    for prime, exp in factorize(n).items():
        phi *= prime ** (exp - 1) * (prime - 1)
    return phi


def mult_order(g: int, n: int, group_order_factorization: dict[int, int] | None = None) -> int:
    """Order of g in (Z/nZ)^x: the least k >= 1 with g^k = 1 mod n.

    Starts from the group order (Euler's totient of n, or any multiple of
    the order supplied by the caller) and divides out prime factors.
    """
    if n < 1 or (g := g % n) == 0 or gcd(g, n) != 1:
        raise InvalidElementError(f"{g} is not invertible mod {n}")
    fact = group_order_factorization
    if fact is None:
        fact = factorize(euler_phi(n))
    k = 1
    for prime, exp in fact.items():
        k *= prime**exp
    for prime in fact:
        while k % prime == 0 and pow(g, k // prime, n) == 1:
            k //= prime
    return k


def order_up_to_sign(m: int) -> int:
    """Least k >= 1 with 2^k = +1 or -1 mod m, for odd m >= 3.

    Equals the order of 2 mod m when -1 is not a power of 2, and half the
    order otherwise.
    """
    if m < 3 or m % 2 == 0:
        raise InvalidElementError(f"order up to sign needs odd m >= 3, got {m}")
    k = mult_order(2, m)
    if k % 2 == 0 and pow(2, k // 2, m) == m - 1:
        return k // 2
    return k


def split_two_power(n: int) -> tuple[int, int]:
    """Write n = 2^e * m with m odd, for n != 0; returns (e, m), e read off the lowest set bit n & -n."""
    if n == 0:
        raise DomainError("0 has no odd part")
    e = (n & -n).bit_length() - 1
    return e, n >> e


class Fp2Element:
    """c0 + c1*a in F_{p^2}, where a is a fixed square root of a non-residue; immutable, and not a tuple."""

    __slots__ = ("c0", "c1", "ctx")

    def __init__(self, c0: int, c1: int, ctx: Fp2Context) -> None:
        for name, value in zip(self.__slots__, (c0, c1, ctx)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return type(other) is Fp2Element and (self.c0, self.c1, self.ctx) == (other.c0, other.c1, other.ctx)

    def __hash__(self) -> int:
        return hash((self.c0, self.c1, self.ctx))

    def __neg__(self) -> "Fp2Element":
        p = self.ctx.p
        return Fp2Element(-self.c0 % p, -self.c1 % p, self.ctx)

    def __mul__(self, other: "Fp2Element") -> "Fp2Element":
        p, ns = self.ctx.p, self.ctx.non_residue
        c0 = (self.c0 * other.c0 + ns * self.c1 * other.c1) % p
        c1 = (self.c0 * other.c1 + self.c1 * other.c0) % p
        return Fp2Element(c0, c1, self.ctx)

    def inverse(self) -> "Fp2Element":
        nrm = self.norm()
        if nrm == 0:
            raise InvalidElementError("zero has no inverse")
        inv_norm = pow(nrm, -1, self.ctx.p)
        return Fp2Element(self.c0 * inv_norm % self.ctx.p, -self.c1 * inv_norm % self.ctx.p, self.ctx)

    def norm(self) -> int:
        """Norm down to F_p: c0^2 - non_residue * c1^2."""
        return (self.c0 * self.c0 - self.ctx.non_residue * self.c1 * self.c1) % self.ctx.p

    def __repr__(self) -> str:
        return f"({self.c0}+{self.c1}a mod {self.ctx.p})"


class Fp2Context(NamedTuple):
    """Arithmetic context for F_{p^2} = F_p(a) with a^2 = non_residue."""

    p: int
    non_residue: int

    def elem(self, c0: int, c1: int = 0) -> Fp2Element:
        return Fp2Element(c0 % self.p, c1 % self.p, self)


def fp2_context(p: int) -> Fp2Context:
    """Quadratic extension context for an odd prime p.

    The non-residue is the smallest positive one, so representations (and
    any tables printed from them) are reproducible across runs.
    """
    check_prime(p, 3)
    ns = 2
    while legendre(ns, p) != -1:
        ns += 1
    return Fp2Context(p, ns)
