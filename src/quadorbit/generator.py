"""The quadratic generators and their orbit analysis.

Two conjugate maps over F_p drive everything: the logistic map
s -> 4s(s+1) and the degree-2 Dickson map x -> x^2 - 2.  The affine change
of variable x = 4s + 2 carries orbits of the first onto orbits of the
second, which is what makes the order-based period prediction work.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BudgetExceededError, DomainError, InvalidElementError, InvalidFieldError
from .numtheory import check_prime, dickson_eval, factorize, legendre, order_up_to_sign, split_two_power, sqrt_mod

KIND_LOGISTIC = "logistic"
KIND_DICKSON = "dickson2"
KIND_LOGISTIC_GENERAL = "logistic_general"

_KINDS = (KIND_LOGISTIC, KIND_DICKSON, KIND_LOGISTIC_GENERAL)


def logistic_map(s: int, p: int, mu: int = 4) -> int:
    """One logistic step mu * s * (s + 1) mod p."""
    if p < 2:
        raise InvalidFieldError(f"{p} is not a prime")
    return mu * s * (s + 1) % p


def dickson2_map(x: int, p: int) -> int:
    """One degree-2 Dickson step x^2 - 2 mod p."""
    return (x * x - 2) % p


def conjugate_seed(s: int, p: int) -> int:
    """Map a logistic state to the Dickson state 4s + 2 that shadows it."""
    return (4 * s + 2) % p


class _SpecFields(NamedTuple):
    kind: str
    p: int
    seed: int
    mu: int | None = None


class GeneratorSpec(_SpecFields):
    """Which map to iterate, over which field, from which seed (stored mod p)."""

    __slots__ = ()

    def __new__(cls, kind: str, p: int, seed: int, mu: int | None = None) -> GeneratorSpec:
        if kind not in _KINDS:
            raise DomainError(f"unknown generator kind {kind!r}")
        check_prime(p, 3 if kind == KIND_DICKSON else 5)
        if kind == KIND_LOGISTIC_GENERAL:
            if mu is None or mu % p == 0:
                raise DomainError("logistic_general needs a nonzero control parameter mu")
        return super().__new__(cls, kind, p, seed % p, mu)

    # _replace builds through _make, so both validate too.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def step(spec: GeneratorSpec, s: int) -> int:
    """Apply the spec's map once to state s."""
    if spec.kind == KIND_LOGISTIC:
        return logistic_map(s, spec.p)
    if spec.kind == KIND_DICKSON:
        return dickson2_map(s, spec.p)
    return logistic_map(s, spec.p, spec.mu % spec.p)


class OrbitReport(NamedTuple):
    """Exact tail and cycle of an iterated-map orbit."""

    tail: list[int]
    cycle: list[int]

    @property
    def tail_length(self) -> int:
        return len(self.tail)

    @property
    def period(self) -> int:
        return len(self.cycle)


def orbit(spec: GeneratorSpec, max_steps: int | None = None) -> OrbitReport:
    """Iterate from the seed until the first repeated state.

    First-repeat detection with a hash map keeps the exact tail, which the
    cycle-structure bookkeeping needs.  Any max_steps >= p is guaranteed to
    suffice; smaller budgets raise BudgetExceededError if exhausted.
    """
    budget = max_steps if max_steps is not None else spec.p
    p, x = spec.p, spec.seed
    mu = spec.mu % p if spec.kind == KIND_LOGISTIC_GENERAL else 4
    # step() inlined as x -> x(ax + b) + c: x^2 - 2, or mu * x * (x + 1) for the logistic kinds.
    a, b, c = (1, 0, -2) if spec.kind == KIND_DICKSON else (mu, mu, 0)
    seen = {x: 0}
    for i in range(1, budget + 1):
        x = (x * (a * x + b) + c) % p
        if x in seen:
            break
        seen[x] = i
    if len(seen) > budget:  # no repeat: every step added a state
        raise BudgetExceededError(f"no repeat within {budget} steps from seed {spec.seed} mod {spec.p}")
    seq, start = list(seen), seen[x]  # insertion order is the walk
    return OrbitReport(tail=seq[:start], cycle=seq[start:])


def logistic_cycle(seed: int, p: int) -> list[int]:
    """The logistic cycle through a seed in [0, p) that lies on a cycle.

    A list-only walk back to the seed: cheaper than orbit()'s first-repeat
    map, for callers (initial-value seeds) that know there is no tail.
    """
    # logistic_map inlined: this loop runs once per state of the cycle.
    cycle = [seed]
    x = 4 * seed * (seed + 1) % p
    for _ in range(p):
        if x == seed:
            return cycle
        cycle.append(x)
        x = 4 * x * (x + 1) % p
    raise AssertionError(f"walk from {seed} mod {p} never returned")


def logistic_preimages(a: int, p: int) -> tuple[int, ...]:
    """All x with 4x(x+1) = a mod p, sorted; solved via (2x+1)^2 = a + 1 (sqrt_mod checks p before any % p).
    A root r = 0 (a + 1 = 0 mod p) gives the one x = (p - 1)/2."""
    try:
        r = sqrt_mod(a + 1, p)
    except InvalidElementError:  # a + 1 is a non-residue
        return ()
    inv2 = (p + 1) // 2
    return tuple(sorted({(r - 1) * inv2 % p, (-r - 1) * inv2 % p}))


class OrbitPrediction(NamedTuple):
    """Analytically predicted tail length and period for an orbit.

    degenerate is set when the underlying parameter has 2-power order
    (Dickson seeds on the 0 -> -2 -> 2 spine), where the period is 1.
    """

    tail_length: int
    period: int
    degenerate: bool = False


def lucas_order(u: int, p: int) -> int:
    """Multiplicative order of a root t of X^2 - u*X + 1 over an odd prime p.

    The roots satisfy t + 1/t = u, Vasiga-Shallit's parametrization of
    x^2 - 2, so D_n(u, 1) = t^n + t^-n equals 2 exactly when t^n = 1.
    The roots lie in F_p (order dividing p - 1) unless u^2 - 4 is a
    non-residue; then they are norm-one conjugates in F_{p^2} (order
    dividing p + 1).  Each prime q is divided out of k while D_{k/q}(u, 1) = 2.
    """
    k = p + 1 if legendre(u * u - 4, p) == -1 else p - 1
    for q in factorize(k):
        while k % q == 0 and dickson_eval(k // q, u, 1, p) == 2:
            k //= q
    return k


def in_iv_set(a: int, p: int) -> bool:
    """Membership test for the initial-value set of F_p, p a prime > 3."""
    sign = 1 if check_prime(p, 5) % 4 == 3 else -1
    a %= p
    return legendre(a, p) == sign and legendre(a + 1, p) == 1


def predict_orbit(p: int, seed: int, seed_class: str = "iv_set") -> OrbitPrediction:
    """Predict (tail length, period) of the logistic orbit of seed mod p.

    lucas_order gives the order of a parameter t with t + 1/t = u = 4s + 2,
    the conjugate Dickson seed (the conjugation is a bijection on states),
    written 2^e * m with m odd: the tail is e, and the period is the least k
    with 2^k = +-1 mod m, or 1 (degenerate) when m = 1.

    seed_class "any" accepts every seed, "iv_set" only the long-period
    initial-value set.  There t = t'^2 for a hyperbola parameter t' with
    t' + 1/t' = 2 * sqrt(a + 1) (Vasiga-Shallit); both parameter groups have
    order 2 * odd, so e = 0 and m, the odd part of ord(t'), is at least 3.
    """
    check_prime(p, 5)
    seed %= p
    if seed_class not in ("iv_set", "any"):
        raise DomainError(f"unknown seed class {seed_class!r}")
    if seed_class == "iv_set" and not in_iv_set(seed, p):
        raise DomainError(f"seed {seed} is not in the initial-value set of F_{p}")
    e, m = split_two_power(lucas_order(conjugate_seed(seed, p), p))
    return OrbitPrediction(tail_length=e, period=order_up_to_sign(m) if m > 1 else 1, degenerate=m == 1)
