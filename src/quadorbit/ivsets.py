"""Long-period initial-value sets and their hyperbola parametrization.

The seeds guaranteed to sit on logistic cycles are cut out by two Legendre
conditions: for p = 3 mod 4 both a and a + 1 must be nonzero squares, for
p = 1 mod 4 the element a must be a non-square while a + 1 is a square.
Each such set is the image of a four-to-one map t -> ((t - 1/t)/2)^2 whose
parameter t ranges over F_p minus {0, +-1} in the first case (the split
torus) and over the norm-one subgroup of F_{p^2} minus {+-1} in the second.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import compress
from operator import and_, gt
from typing import Iterator, NamedTuple

from .errors import DegenerateParameterError, DomainError, InvalidFieldError
from .generator import in_iv_set, logistic_map, logistic_preimages
from .numtheory import Fp2Element, fp2_context, is_prime, legendre, sqrt_mod

KIND_SPLIT = "split"
KIND_NORM_ONE = "norm_one"

# Largest p each O(p) enumeration accepts: the CLI command on it finishes
# within about a minute and a gigabyte.  Fibers hold four parameters per
# element (extension elements for p = 1 mod 4), hence the lower limit.
IV_SET_MAX_P = 1 << 24
FIBERS_MAX_P = 1 << 20


def check_enumerable(p: int, limit: int, what: str) -> None:
    """Refuse an O(p) enumeration above its limit, before it allocates."""
    if p > limit:
        raise DomainError(
            f"enumerating {what} of F_p needs p <= {limit}, got {p}; "
            "`census` and `orbit --predict` work analytically at any size"
        )


def param_kind(p: int) -> str:
    """Which parameter space F_p uses: split for p = 3 mod 4, norm_one else."""
    if not is_prime(p) or p <= 3:
        raise InvalidFieldError(f"{p} is not a prime > 3")
    return KIND_SPLIT if p % 4 == 3 else KIND_NORM_ONE


class IvSet(NamedTuple):
    """The initial-value set of F_p, with the parameter space it comes from."""

    p: int
    kind: str
    elements: list[int]

    @property
    def expected_size(self) -> int:
        return (self.p - 3) // 4 if self.kind == KIND_SPLIT else (self.p - 1) // 4


def build_iv_set(p: int) -> IvSet:
    """Exact membership scan over F_p.

    A bytearray of square flags is filled from 1 <= x <= (p - 1)/2 (x and
    p - x share a square), then the flags of every a in [1, p - 2] and of
    a + 1 are compared pairwise.  The table is filled here and nowhere else,
    so the set stays an independent oracle for the parametrization.
    """
    kind = param_kind(p)
    check_enumerable(p, IV_SET_MAX_P, "the initial-value set")
    squares = bytearray(p)
    for x in range(1, (p + 1) // 2):
        squares[x * x % p] = 1
    flags = memoryview(squares)
    # Split: a and a + 1 are both squares.  Norm one: a + 1 is and a is not.
    test = map(and_, flags[1:-1], flags[2:]) if kind == KIND_SPLIT else map(gt, flags[2:], flags[1:-1])
    return IvSet(p=p, kind=kind, elements=list(compress(range(1, p - 1), test)))


def _seed_from_split_param(t: int, p: int) -> int:
    t %= p
    if t in (0, 1, p - 1):
        raise DegenerateParameterError(f"parameter {t} mod {p} is outside the split torus")
    half_diff = (t - pow(t, -1, p)) * ((p + 1) // 2) % p
    return half_diff * half_diff % p


def _seed_from_norm_one_param(t: Fp2Element) -> int:
    p, ns = t.ctx.p, t.ctx.non_residue
    c0, c1 = t.c0, t.c1
    if (c0 * c0 - ns * c1 * c1) % p != 1:
        raise DomainError(f"parameter {t} does not have norm 1")
    if c1 == 0:
        raise DegenerateParameterError(f"parameter {t} is +-1")
    # On the norm-one group 1/t is the conjugate (c0, -c1).
    i0, i1 = c0, -c1 % p
    inv2 = (p + 1) // 2
    h0, h1 = (c0 - i0) * inv2 % p, (c1 - i1) * inv2 % p
    sq0, sq1 = (h0 * h0 + ns * h1 * h1) % p, 2 * h0 * h1 % p
    if sq1 != 0:
        raise AssertionError(f"image of {t} left the base field")
    return sq0


def seed_from_param(t: int | Fp2Element, p: int | None = None) -> int:
    """Image of a hyperbola parameter in the initial-value set.

    Split parameters are ints (p required); norm-one parameters are
    Fp2Element values carrying their own context.
    """
    if isinstance(t, Fp2Element):
        return _seed_from_norm_one_param(t)
    if p is None:
        raise DomainError("split parameters need the modulus p")
    return _seed_from_split_param(t, p)


def _norm_one_coords(p: int, ns: int) -> Iterator[tuple[int, int]]:
    """(c0, c1) of the norm-one subgroup of F_{p^2}^x minus {+-1}, in order.

    c0 + c1*a has norm one exactly when c1^2 = (c0^2 - 1)/ns.  A table
    roots[x*x % p] = x for 1 <= x <= (p - 1)/2 gives the root min(r, p - r)
    of every nonzero square and 0 for a non-residue, so each c0 costs one
    lookup and yields (c0, c1) before (c0, p - c1).
    """
    inv_ns = pow(ns, -1, p)
    roots = array("I", [0]) * p
    for x in range(1, (p + 1) // 2):
        roots[x * x % p] = x
    for c0 in range(p):
        c1 = roots[(c0 * c0 - 1) * inv_ns % p]  # 0 for t = +-1 and for non-residues
        if c1:
            yield c0, c1
            yield c0, p - c1


def fiber_table(p: int) -> list[tuple[int, list[int]]]:
    """(a, fiber) for every initial-value element a, ascending: every parameter
    t goes through t -> ((t - 1/t)/2)^2 and is binned by its image.  A fiber
    is its four t ascending, or flat c0, c1, c0, c1, ... in (c0, c1) order.
    """
    kind = param_kind(p)
    check_enumerable(p, FIBERS_MAX_P, "the parameter fibers")
    bins: defaultdict[int, list[int]] = defaultdict(list)
    if kind == KIND_SPLIT:
        # inv[t] = -(p // t) * inv[p % t] with p % t < t: a table, not a pow per t.
        inv, inv4 = array("I", [0]) * (p - 1), pow(4, -1, p)
        inv[1] = 1
        for t in range(2, p - 1):
            inv[t] = t_inv = -(p // t) * inv[p % t] % p
            bins[(t - t_inv) ** 2 * inv4 % p].append(t)
    else:
        # On the norm-one group 1/t is the conjugate, so (t - 1/t)/2 = c1*a squares to ns * c1^2.
        ns = fp2_context(p).non_residue
        for c0, c1 in _norm_one_coords(p, ns):
            bins[ns * c1 * c1 % p].extend((c0, c1))
    width = 4 if kind == KIND_SPLIT else 8
    for a, fiber in bins.items():
        if len(fiber) != width:
            raise AssertionError(f"fiber of {a} mod {p} has {len(fiber) * 4 // width} parameters")
    return sorted(bins.items())


def param_fibers(p: int) -> dict[int, list[int] | list[Fp2Element]]:
    """fiber_table as a dict, norm-one parameters as Fp2Element: sorted fibers,
    closed under t -> -t and t -> 1/t."""
    table = fiber_table(p)
    if param_kind(p) == KIND_SPLIT:
        return dict(table)
    ctx = fp2_context(p)
    return {a: [Fp2Element(fiber[i], fiber[i + 1], ctx) for i in range(0, 8, 2)] for a, fiber in table}


def canonical_param(a: int, p: int) -> int | Fp2Element:
    """The smallest parameter mapping to a (ints by value, else (c0, c1) order).

    Recovered from square roots of a and a + 1 in O(log p) rather than by
    scanning the parameter space; the tie-break is an artifact convention.
    """
    a %= p
    if not in_iv_set(a, p):
        raise DomainError(f"{a} is not in the initial-value set of F_{p}")
    if param_kind(p) == KIND_SPLIT:
        t = (sqrt_mod(a, p) + sqrt_mod(a + 1, p)) % p
        t_inv = pow(t, -1, p)
        return min(t, p - t, t_inv, p - t_inv)
    ctx = fp2_context(p)
    c1 = sqrt_mod(a * pow(ctx.non_residue, -1, p) % p, p)
    t = ctx.elem(sqrt_mod(a + 1, p), c1)
    t_inv = t.inverse()
    return min((t, -t, t_inv, -t_inv), key=lambda x: (x.c0, x.c1))


def conjugation_check(t: int | Fp2Element, p: int | None = None) -> tuple[int, int]:
    """Both sides of the transport law: (LM(image(t)), image(t^2)).

    Equality is the tested identity.  If t^2 lands on +-1 the right-hand
    image is undefined and DegenerateParameterError propagates; that cannot
    happen for valid parameters (the parameter groups have order 2 * odd),
    so it is signalled rather than silently skipped.
    """
    if isinstance(t, Fp2Element):
        a = _seed_from_norm_one_param(t)
        return logistic_map(a, t.ctx.p), _seed_from_norm_one_param(t * t)
    if p is None:
        raise DomainError("split parameters need the modulus p")
    a = _seed_from_split_param(t, p)
    return logistic_map(a, p), _seed_from_split_param(t * t % p, p)


def preimage_signs(a: int, p: int) -> tuple[int, int]:
    """Legendre symbols of the two logistic preimages of an IV element.

    Ordered by preimage value; the two signs always differ, which is what
    pins every initial-value element onto a cycle.
    """
    a %= p
    if not in_iv_set(a, p):
        raise DomainError(f"{a} is not in the initial-value set of F_{p}")
    pre = logistic_preimages(a, p)
    if len(pre) != 2:
        raise AssertionError(f"IV element {a} mod {p} has {len(pre)} preimages")
    return legendre(pre[0], p), legendre(pre[1], p)
