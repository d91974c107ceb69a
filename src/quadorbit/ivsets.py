"""Long-period initial-value sets and their hyperbola parametrization.

The seeds guaranteed to sit on logistic cycles are cut out by two Legendre
conditions: for p = 3 mod 4 both a and a + 1 must be nonzero squares, for
p = 1 mod 4 the element a must be a non-square while a + 1 is a square.
Each such set is the image of a four-to-one map t -> ((t - 1/t)/2)^2 whose
parameter t ranges over F_p minus {0, +-1} in the first case (the split
torus) and over the norm-one subgroup of F_{p^2} minus {+-1} in the second.
"""

from __future__ import annotations

import gc
from array import array
from itertools import compress
from typing import Iterator, NamedTuple

from .errors import DegenerateParameterError, DomainError
from .generator import in_iv_set, logistic_map, logistic_preimages
from .numtheory import Fp2Element, check_prime, fp2_context, legendre, sqrt_mod

KIND_SPLIT = "split"
KIND_NORM_ONE = "norm_one"

# Largest p each O(p) enumeration accepts: the CLI command on it finishes
# within about a minute and a gigabyte.  Fibers hold four parameters per
# element (extension elements for p = 1 mod 4), hence the lower limit.
IV_SET_MAX_P = 1 << 24
FIBERS_MAX_P = 1 << 22

# Flags per big-int compare in member_blocks.  Freeing a block above glibc's 128 KB mmap threshold raises the
# threshold, and the element list then grows on the heap: ivset at 2^24 peaked at 219 MB against 190 MB.
SCAN_CHUNK = 1 << 16


def check_enumerable(p: int, limit: int, what: str) -> None:
    """Refuse an O(p) enumeration above its limit, before it allocates."""
    if p > limit:
        raise DomainError(
            f"enumerating {what} of F_p needs p <= {limit}, got {p}; "
            "`census` and `orbit --predict` work analytically at any size"
        )


def param_kind(p: int) -> str:
    """Which parameter space F_p uses: split for p = 3 mod 4, norm_one else."""
    return KIND_SPLIT if check_prime(p, 5) % 4 == 3 else KIND_NORM_ONE


class IvSet(NamedTuple):
    """The initial-value set of F_p, with the parameter space it comes from."""

    p: int
    kind: str
    elements: list[int]

    @property
    def expected_size(self) -> int:
        return (self.p - 3) // 4 if self.kind == KIND_SPLIT else (self.p - 1) // 4


def member_blocks(p: int, kind: str) -> Iterator[bytes]:
    """Initial-value member flags of F_p, SCAN_CHUNK per block: byte i of block j flags 1 + j * SCAN_CHUNK + i.

    Square flags are filled from 1 <= x <= (p - 1)/2 (x and p - x share a square) and read SCAN_CHUNK + 1 at a
    time as an int f whose byte i flags start + i, so byte i of f & (f >> 8) or (f >> 8) & ~f flags an element;
    flags from p - 1 on are 0.  The table is filled here and nowhere else, so the set stays an independent oracle;
    build_iv_set, fiber_table and diagram.brute_census read their members off these blocks.
    """
    squares = bytearray(p)
    for x in range(1, (p + 1) // 2):
        squares[x * x % p] = 1
    for start in range(1, p - 1, SCAN_CHUNK):
        # Split: a and a + 1 are both squares.  Norm one: a + 1 is and a is not.
        f = int.from_bytes(squares[start : start + SCAN_CHUNK + 1], "little")
        test = f & (f >> 8) if kind == KIND_SPLIT else (f >> 8) & ~f
        yield test.to_bytes(SCAN_CHUNK, "little")


def build_iv_set(p: int) -> IvSet:
    """Exact membership scan over F_p: the elements flagged by member_blocks, ascending."""
    kind = param_kind(p)
    check_enumerable(p, IV_SET_MAX_P, "the initial-value set")
    elements: list[int] = []
    for start, block in zip(range(1, p - 1, SCAN_CHUNK), member_blocks(p, kind)):
        elements.extend(compress(range(start, p - 1), block))
    return IvSet(p=p, kind=kind, elements=elements)


def seed_from_param(t: int | Fp2Element, p: int | None = None) -> int:
    """Image ((t - 1/t)/2)^2 of a hyperbola parameter in the initial-value set.

    Split parameters are ints modulo a prime p = 3 mod 4; norm-one parameters are Fp2Element values carrying their own
    context, and t = c0 + c1*alpha of norm one has 1/t = c0 - c1*alpha, so its image is ns*c1^2 (as in fiber_table).
    """
    if isinstance(t, Fp2Element):
        if param_kind(t.ctx.p) != KIND_NORM_ONE:
            raise DomainError(f"Fp2Element parameters are norm-one ones, which need p = 1 mod 4, got p={t.ctx.p}")
        if t.norm() != 1:
            raise DomainError(f"parameter {t} does not have norm 1")
        if t.c1 == 0:
            raise DegenerateParameterError(f"parameter {t} is +-1")
        return t.ctx.non_residue * t.c1 * t.c1 % t.ctx.p
    if p is None:
        raise DomainError("split parameters need the modulus p")
    if param_kind(p) != KIND_SPLIT:
        raise DomainError(f"int parameters are split ones, which need p = 3 mod 4, got p={p}")
    t %= p
    if t in (0, 1, p - 1):
        raise DegenerateParameterError(f"parameter {t} mod {p} is outside the split torus")
    half_diff = (t - pow(t, -1, p)) * ((p + 1) // 2) % p
    return half_diff * half_diff % p


def fiber_table(p: int) -> list[tuple[int, list[int]]]:
    """(a, fiber) for every initial-value element a, ascending, read off the hyperbola s^2 - r^2 = 1.

    Split: a = r^2 and a + 1 = s^2 give t = s + r with 1/t = s - r, as (s + r)(s - r) = 1, so
    (t - 1/t)/2 = r squares to a.  The fiber {+-(s + r), +-(s - r)} is lo, hi, p - hi, p - lo, where
    lo < hi are |s - r| and min(s + r, p - s - r), both below p/2.  Norm one: t = c0 + c1*alpha of
    norm c0^2 - ns*c1^2 = 1 has 1/t = c0 - c1*alpha, so (t - 1/t)/2 = c1*alpha squares to ns*c1^2 = a
    and c0^2 = a + 1.  The fiber is c0, c1, c0, p - c1, p - c0, c1, p - c0, p - c1, flat in (c0, c1)
    order.  r, s, c0 and c1, the roots below p/2, come from one table roots[x*x % p] = x, and the
    elements from member_blocks, as for build_iv_set: no forward map, no binning and no sort.
    """
    kind = param_kind(p)
    check_enumerable(p, FIBERS_MAX_P, "the parameter fibers")
    roots = array("I", [0]) * p
    for x in range(1, (p + 1) // 2):
        roots[x * x % p] = x
    # Byte i of the joined blocks flags element 1 + i; flags from p - 1 on are 0.
    elements = compress(range(1, p - 1), b"".join(member_blocks(p, kind)))
    table = []
    collecting = gc.isenabled()
    gc.disable()  # the table holds only ints and lists of ints: the cyclic collector would only rescan it
    try:
        if kind == KIND_SPLIT:
            for a in elements:
                r, s = roots[a], roots[a + 1]
                w, u = abs(s - r), min(s + r, p - s - r)
                lo, hi = (w, u) if w < u else (u, w)
                if lo != hi:  # four distinct parameters; a fiber left out fails the count below
                    table.append((a, [lo, hi, p - hi, p - lo]))
        else:
            inv_ns = pow(fp2_context(p).non_residue, -1, p)
            for a in elements:
                c0, c1 = roots[a + 1], roots[a * inv_ns % p]
                if c1:  # c0 is nonzero as a + 1 is a square, so the four parameters are distinct
                    table.append((a, [c0, c1, c0, p - c1, p - c0, c1, p - c0, p - c1]))
    finally:
        if collecting:
            gc.enable()
    if 4 * len(table) != (p - 3 if kind == KIND_SPLIT else p - 1):
        raise AssertionError(f"{len(table)} fibers of four distinct parameters do not cover the parameters mod {p}")
    return table


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

    Read off the hyperbola as in fiber_table, from the roots r of a and s of
    a + 1, both below p/2: the split minimum is its lo, and the norm-one one
    is c0 = s with c1 = sqrt(a/ns), in O(log p) rather than by a scan.
    """
    if not in_iv_set(a, p):  # in_iv_set checks p before any % p
        raise DomainError(f"{a % p} is not in the initial-value set of F_{p}")
    a %= p
    s = sqrt_mod(a + 1, p)
    if param_kind(p) == KIND_SPLIT:
        r = sqrt_mod(a, p)  # a is a non-residue for p = 1 mod 4
        return min(abs(s - r), s + r, p - s - r)
    ctx = fp2_context(p)
    return ctx.elem(s, sqrt_mod(a * pow(ctx.non_residue, -1, p) % p, p))


def conjugation_check(t: int | Fp2Element, p: int | None = None) -> tuple[int, int]:
    """Both sides of the transport law: (LM(image(t)), image(t^2)).

    Equality is the tested identity.  If t^2 lands on +-1 the right-hand
    image is undefined and DegenerateParameterError propagates; that cannot
    happen for valid parameters (the parameter groups have order 2 * odd),
    so it is signalled rather than silently skipped.
    """
    a = seed_from_param(t, p)
    return logistic_map(a, t.ctx.p if isinstance(t, Fp2Element) else p), seed_from_param(t * t, p)


def preimage_signs(a: int, p: int) -> tuple[int, int]:
    """Legendre symbols of the two logistic preimages of an IV element.

    Ordered by preimage value; the two signs always differ, which is what
    pins every initial-value element onto a cycle.
    """
    if not in_iv_set(a, p):  # in_iv_set checks p before any % p
        raise DomainError(f"{a % p} is not in the initial-value set of F_{p}")
    a %= p
    pre = logistic_preimages(a, p)
    if len(pre) != 2:
        raise AssertionError(f"IV element {a} mod {p} has {len(pre)} preimages")
    return legendre(pre[0], p), legendre(pre[1], p)
