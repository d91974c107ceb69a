"""Linear complexity profiles and closed-form lower bounds.

The profile L(S, N) is read off the remainder degrees of one Euclid over F_p
(continued fractions), and tested against Berlekamp-Massey, which synthesizes
it prefix by prefix.  A periodic sequence's stabilized value is also
T - deg gcd(X^T - 1, s^T(X)), a separate route checked against it.  Both
routes read remainder degrees off one kernel, _remainder_degrees, a Euclid on
packed polynomials, one int each with a fixed-width slot per coefficient.

One check, bound_violations, judges a given profile against both bounds.  The
bound verifier hands it a seed's profile from a prefix Euclid or a number wall:
the rows j <= J where a rotation's Hankel determinant H_j is nonzero give its
profile up to N = D + J, D the last one.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError
from .diagram import _modulus_of
from .generator import KIND_LOGISTIC, GeneratorSpec, in_iv_set, logistic_cycle, orbit
from .numtheory import check_prime


def berlekamp_massey_profile(seq: Iterable[int], p: int, n_max: int | None = None) -> list[int]:
    """The linear complexity profile [L(S,1), ..., L(S,n_max)] of seq over F_p.

    Berlekamp-Massey over F_p.  The discrepancy at step n is
    s_n + sum_i conn[i] * s_{n-i}, taken as one map over the reversed
    connection polynomial and the len(conn) - 1 terms before s_n (its
    degree never exceeds the current length, which never exceeds n).  The
    update subtracts coef * X^gap * prev in a plain loop.
    """
    check_prime(p)
    data = [s % p for s in seq]
    if n_max is None:
        n_max = len(data)
    elif n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    if n_max > len(data):
        raise DomainError(f"profile to N={n_max} needs {n_max} terms, got {len(data)}")
    conn = [1]  # connection polynomial, constant term first
    prev = [1]  # last polynomial before the previous length change
    length = 0
    gap = 1  # X-power separating conn from prev
    prev_disc_inv = 1
    profile = []
    for n, s_n in enumerate(data[:n_max]):
        disc = (s_n + sum(map(mul, conn[:0:-1], data[n + 1 - len(conn) : n]))) % p
        if disc != 0:
            coef = disc * prev_disc_inv % p
            jump = 2 * length <= n
            saved = conn[:] if jump else None
            need = gap + len(prev)
            if need > len(conn):
                conn.extend([0] * (need - len(conn)))
            for i, v in enumerate(prev, gap):
                conn[i] = (conn[i] - coef * v) % p
            while len(conn) > 1 and conn[-1] == 0:
                conn.pop()
            if jump:
                prev = saved
                prev_disc_inv = pow(disc, -1, p)
                length = n + 1 - length
                gap = 1
            else:
                gap += 1
        else:
            gap += 1
        profile.append(length)
    return profile


def _remainder_degrees(coeffs: Sequence[int], p: int, constant: int) -> Iterator[int]:
    """The degree of each nonzero remainder of Euclid over F_p on u = X^n + constant and v = sum coeffs[i] X^(n-1-i).

    n = len(coeffs) and 0 <= constant < p; deg v is the first degree yielded.  Each
    polynomial is packed into one int, coefficient i in bits [w i, w (i + 1))
    (Kronecker substitution), so a Euclid step is a few big-int operations on
    every slot at once.  With k = bits(p), slots below 2p before each step, and
    u_i, v_i the slots of u and v:
    - while du > dv, a step adds (q1 X + q0) X^(du - dv - 1) v to u, with
      q1 = -u_du / v_dv and q0 = -(u_(du-1) + q1 v_(dv-1)) / v_dv mod p read
      off the top two slots of u and v (top_u + q1 top_v is u_(du-1) +
      q1 v_(dv-1) mod p, its upper slot being 0 mod p), zeroing slots du and
      du - 1 mod p; at du = dv it adds (-u_du / v_dv) v.  A slot gains at
      most 2 (p - 1)(2p - 1), so it ends at most (2p - 1)^2 < 4p^2 <= 2^b,
      b = 2k + 2: all terms are nonnegative and no slot carries into the next;
    - a Barrett step on all slots, q = (u M >> b) & low, M = floor(2^b / p),
      low the bottom w - b bits of each slot, and u -= p q, brings every
      slot back below 2p and never below 0.  Each slot * M < 4p 2^b <=
      2^w, w = b + k + 2, so no product spills into the next slot;
    - the top slots, and below them any slots that are 0 mod p, are masked
      off.  Every slot above the one read is 0 mod p, so (u >> w du) % p
      reads slot du exactly; after the mask, the top slot of u is its
      leading coefficient and the zero polynomial is the int 0.
    b and w are the least widths that keep these bounds for every k-bit p.
    """
    n = len(coeffs)
    k = p.bit_length()
    b = 2 * k + 2
    w = b + k + 2
    m = (1 << b) // p
    low = ((1 << w * (n + 1)) - 1) // ((1 << w) - 1) * ((1 << w - b) - 1)  # the low w - b bits of every slot
    u = (1 << w * n) + constant
    v = int((f"{{:0{w}b}}" * n).format(*[c % p for c in coeffs]) or "0", 2)
    while v:
        dv = (v.bit_length() - 1) // w
        yield dv
        neg_inv = -pow(v >> w * dv, -1, p)
        top_v = v >> w * (dv - 1) if dv else v << w  # slots dv and dv - 1 of v (0 below slot 0)
        du = (u.bit_length() - 1) // w
        while du >= dv:
            if du > dv:
                top_u = u >> w * (du - 1)
                q1 = (top_u >> w) * neg_inv % p
                u += ((q1 << w | (top_u + q1 * top_v) * neg_inv % p) * v) << w * (du - dv - 1)
                du -= 2
            else:
                u += ((u >> w * du) * neg_inv % p) * v
                du -= 1
            u -= p * ((u * m >> b) & low)
            while du >= 0 and not (u >> w * du) % p:
                du -= 1
            u &= (1 << w * (du + 1)) - 1
        u, v = v, u


def _euclid_profile(seq: Sequence[int], p: int) -> list[int]:
    """[L(S, 1), ..., L(S, N)] of seq over F_p, N = len(seq), from one Euclid (continued fractions).

    Divide X^N by s_0 X^(N-1) + ... + s_(N-1) (Mills 1975; Dornstetter 1987).  With D_k = N - deg r_k for
    the remainders r_0, r_1, ... and D_(-2) = D_(-1) = 0, L(S, n) = D_k for D_(k-1) + D_k <= n < D_k + D_(k+1),
    which reaches N once 2 D_k >= N or r_(k+1) = 0.  Only degrees are read, off _remainder_degrees.
    """
    n_terms = len(seq)
    profile, jump = [], 0  # jump = D_(k-1): L(S, n) for n below D_(k-1) + D_k
    for dv in _remainder_degrees(seq, p, 0):
        profile += [jump] * (min(jump + n_terms - dv - 1, n_terms) - len(profile))
        jump = n_terms - dv
        if 2 * jump >= n_terms:
            break
    return profile + [jump] * (n_terms - len(profile))


def linear_complexity_via_gcd(cycle: list[int], p: int) -> int:
    """L(S) of the T-periodic sequence with one period given by cycle.

    Computed as T - deg gcd(X^T - 1, s^T(X)) by polynomial Euclid over F_p:
    the gcd is the last remainder that _remainder_degrees yields, s^T(X)
    being the period reversed, top coefficient first.  An all-zero cycle gives 0.
    """
    t = len(cycle)
    if t == 0:
        raise DomainError("cycle must be nonempty")
    check_prime(p)
    degree = t
    for degree in _remainder_degrees(cycle[::-1], p, p - 1):
        pass
    return t - degree


@lru_cache(maxsize=64)
def _cycle_complexity_cached(p: int, canonical_cycle: tuple[int, ...]) -> int:
    return linear_complexity_via_gcd(list(canonical_cycle), p)


def _canonical(cycle: list[int]) -> tuple[int, ...]:
    """The rotation of an orbit cycle that starts at its minimum state.

    L(S) of a periodic sequence is shift-invariant (rotating multiplies
    s^T(X) by a power of X, coprime to X^T - 1), and orbit cycles visit
    distinct states, so this is the key of _cycle_complexity_cached: seeds
    on a shared cycle pay for one gcd instead of one each.
    """
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


class _Cycle:
    """The cycle last walked by verify_profile_bounds, kept for the next call.

    states is the canonical rotation and index maps each state to its place in
    it, so the cycle's other seeds read their rotation with no walk.  l_s and m
    are fetched once per cycle; wall_depth and zeros are the depth J of its
    number wall and _zero_rows of it, and prefix_work the prefix profiles its
    seeds have cost so far, sum n_synthesized^2 / 4.  verdicts maps n_max and
    the two curves, as the module holds them at the call, to a pair: the
    threshold and, once a seed is certified, the perfect profile's (stop,
    violations), else None.  Patched curves make a new key, so they never meet
    a verdict taken under others.
    """

    __slots__ = ("p", "states", "index", "l_s", "m", "verdicts", "wall_depth", "zeros", "prefix_work")

    def __init__(self, p: int, states: tuple[int, ...]) -> None:
        self.p, self.states = p, states
        self.index = {s: i for i, s in enumerate(states)}
        self.l_s, self.m, self.verdicts = _cycle_complexity_cached(p, states), _modulus_of(p), {}
        self.wall_depth, self.zeros, self.prefix_work = 0, {}, 0


_last: _Cycle | None = None


def _locate_on_cycle(seed: int, p: int) -> _Cycle:
    """The cycle through an IV seed: the last one walked if the seed mod p is on it,
    else a new walk (logistic_cycle), which replaces it.  The logistic map sends
    the IV set into itself, so only a seed off the kept cycle is tested for it,
    and p with it (before any % p): the kept cycle's p passed that test."""
    global _last
    if _last is None or _last.p != p or seed % p not in _last.index:
        if not in_iv_set(seed, p):
            raise DomainError(f"seed {seed % p} is not in the initial-value set of F_{p}")
        _last = _Cycle(p, _canonical(logistic_cycle(seed % p, p)))
    return _last


def _hankel_det(seq: Sequence[int], n: int, p: int) -> int:
    """det(seq[a + b]) for 0 <= a, b < n over F_p, by Gaussian elimination."""
    rows = [list(seq[a : a + n]) for a in range(n)]
    det = 1
    while rows:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            return 0
        pivot = rows.pop(i)  # moving row i to the top takes i transpositions
        det = (-det if i % 2 else det) * pivot[0] % p
        inv = pow(pivot[0], -1, p)
        tail = [y * inv % p for y in pivot[1:]]
        rows = [[(x - row[0] * y) % p for x, y in zip(row[1:], tail)] for row in rows]
    return det


def _wall_rows(seq: Sequence[int], depth: int, p: int) -> Iterator[list[int]]:
    """Rows 1..depth of the number wall of seq over F_p.

    Row j holds the Hankel determinants H_j(k) = det(seq[k + a + b]),
    0 <= a, b < j, for k = 0..len(seq) - 2j + 1.  Below rows H_0 = 1 and
    H_{-1} = 0, each row follows from the two above it by the
    Desnanot-Jacobi identity
        H_{j+1}(k) H_{j-1}(k+2) = H_j(k) H_j(k+2) - H_j(k+1)^2.
    Where the divisor H_{j-1}(k+2) is 0 and its four neighbours A = H_{j-2}(k+3),
    B = H_{j-1}(k+1), C = H_{j-1}(k+3), D = H_j(k+1) are not, that zero is
    isolated and the long cross rule (Lunnon 2001, with Hankel signs)
        H_{j+1}(k) A^2 = -(H_{j-3}(k+4) D^2 + H_{j-1}(k) C^2 + H_{j-1}(k+4) B^2)
    gives the entry; inside a larger block of zeros it comes from elimination.
    Inverses come from one table, inv(i) = -(p // i) inv(p mod i), when p is
    at most the wall's entry count, and from one pow per new divisor above it.
    """
    far, near, above, row = [], [0] * len(seq), [1] * len(seq), [s % p for s in seq]
    inverses: list[int] | dict[int, int] = {0: 0}
    if p <= len(seq) * depth:
        inverses = [0, 1]
        for i in range(2, p):
            inverses.append(-(p // i) * inverses[p % i] % p)
    for j in range(1, depth + 1):
        yield row
        if j == depth:
            return
        div = above[2 : len(row)]
        if isinstance(inverses, dict):
            inverses.update({e: pow(e, -1, p) for e in set(div) - inverses.keys()})
        below = [(a * c - b * b) * inverses[e] % p for a, b, c, e in zip(row, row[1:], row[2:], div)]
        if 0 in div:
            for k, e in enumerate(div):
                if e == 0:
                    a, b, c, d = near[k + 3], above[k + 1], above[k + 3], row[k + 1]
                    if a and b and c:  # then d = b c / a is nonzero too
                        frame = far[k + 4] * d * d + above[k] * c * c + above[k + 4] * b * b
                        below[k] = -frame * pow(a, -2, p) % p
                    else:
                        below[k] = _hankel_det(seq[k:], j + 1, p)
        far, near, above, row = near, above, row, below


def _zero_rows(cycle: Sequence[int], depth: int, p: int) -> dict[int, list[int]]:
    """{k: the rows j <= depth with H_j(k) = 0} over the rotations k of a
    periodic sequence that have such a row; the others are left out."""
    t = len(cycle)
    zeros: dict[int, list[int]] = {}
    seq = (cycle * (2 * depth // t + 2))[: t + 2 * depth - 2]
    for j, row in enumerate(_wall_rows(seq, depth, p), start=1):
        if 0 in row[:t]:
            for k in (k for k, v in enumerate(row[:t]) if not v):
                zeros.setdefault(k, []).append(j)
    return zeros


def _wall_profile(zero_rows: Sequence[int], depth: int) -> list[int]:
    """[L(S, 1), ..., L(S, D + depth)] of a sequence whose Hankel determinants
    H_j, j <= depth, are zero exactly at zero_rows, D the last nonzero row.

    With D_0 = 0 < D_1 < ... the rows j <= depth where H_j != 0, L(S, n) = D_i
    for D_(i-1) + D_i <= n < D_i + D_(i+1) (Lunnon 2001; _euclid_profile's rule).
    """
    rows = [j for j in range(depth + 1) if j not in zero_rows] + [depth + 1]
    profile: list[int] = []
    for d, d_next in zip(rows, rows[1:]):
        profile += [d] * (d + d_next - 1 - len(profile))
    return profile


def bound_quadratic(n: int, period: int, modulus: int) -> float:
    """Lower bound min(N^2, 4T^2) / (16m) - sqrt(m) for seeds in the IV set.

    May be negative for small N; callers clamp to zero for display only.
    """
    return min(n * n, 4 * period * period) / (16 * modulus) - math.sqrt(modulus)


def bound_sqrt(n: int, linear_complexity: int) -> float:
    """Lower bound min(sqrt(2N) - 3, L(S)), valid for any periodic sequence."""
    return min(math.sqrt(2 * n) - 3, float(linear_complexity))


def bound_dickson(n: int, period: int, p: int) -> float:
    """The older degree-2 Dickson bound min(N^2, 4T^2) / (16(p+1)) - sqrt(p+1): bound_quadratic at m = p + 1.

    Kept as a comparison curve; the IV-set bound dominates it pointwise.
    """
    return bound_quadratic(n, period, p + 1)


class LcpProfile(NamedTuple):
    """Profile L(S,N) for N = 1..n_max plus the stabilized complexity."""

    p: int
    profile: list[int]
    period: int
    linear_complexity: int

    @property
    def n_max(self) -> int:
        return len(self.profile)


def profile_for_seed(p: int, seed: int, n_max: int | None = None) -> LcpProfile:
    """Profile of the logistic output sequence from seed, on its periodic part.

    The sequence analyzed is the orbit's cycle repeated; seeds in the
    initial-value set are on cycles already, so there the sequence is just
    the generator output.  The stabilized complexity comes from the gcd
    route, independently of the profile's Euclid.
    """
    if n_max is not None and n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    rep = orbit(GeneratorSpec(kind=KIND_LOGISTIC, p=p, seed=seed))
    t = rep.period
    if n_max is None:
        n_max = 2 * t
    reps = -(-n_max // t)
    seq = (rep.cycle * reps)[:n_max]
    return LcpProfile(
        p=p,
        profile=_euclid_profile(seq, p),
        period=t,
        linear_complexity=_cycle_complexity_cached(p, _canonical(rep.cycle)),
    )


class BoundViolation(NamedTuple):
    n: int
    observed: int
    bound: float
    kind: str


class BoundCheckReport(NamedTuple):
    """Outcome of checking both profile bounds against one seed's profile."""

    p: int
    seed: int
    period: int
    modulus: int
    linear_complexity: int
    n_checked: int  # the verdict covers N = 1..n_checked
    n_synthesized: int  # the early stop: profile terms examined, computed or certified
    violations: list[BoundViolation]

    @property
    def holds(self) -> bool:
        return not self.violations


# Comparison slack for the irrational sqrt terms in the bounds; observed
# profile values are integers, so anything tighter than 0.5 is safe.
BOUND_SLACK = 1e-9


def bound_threshold(n_max: int, period: int, modulus: int, l_s: int) -> float:
    """max(bound_quadratic, bound_sqrt) at n_max, with both curves read from this module at call time."""
    return max(bound_quadratic(n_max, period, modulus), bound_sqrt(n_max, l_s))


def bound_violations(
    lengths: Sequence[int], period: int, modulus: int, l_s: int, n_max: int, threshold: float
) -> tuple[int, list[BoundViolation]]:
    """The early stop and the violations of a profile against both lower bounds for N <= n_max.

    lengths is [L(S, 1), L(S, 2), ...] given at least up to the early stop, and threshold is
    bound_threshold(n_max, period, modulus, l_s).  The curves are read from this module at call time.  They and
    the profile never decrease in N, which gives two shortcuts that leave the violations unchanged:
    - once the profile reaches the threshold the remaining N are implied and not examined; that N, or else n_max,
      is the early stop;
    - L(S,n) is first held against bound_threshold at the horizon min(2n, n_max).  If it meets it there, no N from
      n up to the horizon can violate a curve, and the check jumps past it; else N = n is checked alone.
    """
    stop = next((n for n, length in enumerate(lengths[:n_max], 1) if length >= threshold), n_max)
    violations, n = [], 1
    while n <= stop:  # every N below n was checked or lies under a horizon
        length, far = lengths[n - 1], min(2 * n, n_max)
        if length < bound_threshold(far, period, modulus, l_s) - BOUND_SLACK:
            far, quad, sqr = n, bound_quadratic(n, period, modulus), bound_sqrt(n, l_s)
            if length < quad - BOUND_SLACK:
                violations.append(BoundViolation(n=n, observed=length, bound=quad, kind="quadratic"))
            if length < sqr - BOUND_SLACK:
                violations.append(BoundViolation(n=n, observed=length, bound=sqr, kind="sqrt"))
        n = far + 1
    return stop, violations


def verify_profile_bounds(p: int, seed: int, n_max: int | None = None) -> BoundCheckReport:
    """Check L(S,N) against both lower bounds for all N <= n_max (default 2T) with bound_violations.

    Violations are reported, not raised, so a falsification would show instead of crashing a sweep.  The
    sequence is the seed's rotation of its cycle, walked once for consecutive calls on it (_locate_on_cycle;
    a call on another cycle or prime walks anew).  n_synthesized is the check's early stop.

    The perfect profile meets the threshold by N = 2J, J = max(1, min(ceil(threshold), ceil(n_max/2))), and a
    seed has it up to 2J exactly when its Hankel determinants H_1..H_J are all nonzero: its terms are certified.
    A seed with zero rows reads its profile off them (_wall_profile).  Only a seed whose reading ends before the
    early stop, or whose cycle has no wall yet, takes a prefix profile from _euclid_profile: 2 ceil(threshold) + 2
    terms (at least 2), doubled until it reaches the threshold or n_max.  One number wall per cycle (O(T J))
    gives the zero rows of all rotations.  It is built once the prefix work spent on the cycle's seeds,
    sum n_synthesized^2 / 4, reaches T J, so a single call never pays for one.
    """
    if n_max is not None and n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    # IV seeds sit on cycles, so the orbit is the pure cycle through the seed.
    rec = _locate_on_cycle(seed, p)
    seed %= p
    cycle, start, l_s, m = rec.states, rec.index[seed], rec.l_s, rec.m
    t = len(cycle)
    if n_max is None:
        n_max = 2 * t
    key = (n_max, bound_quadratic, bound_sqrt)  # the curves the module holds now
    verdict = rec.verdicts.get(key)
    if verdict is None:
        verdict = rec.verdicts[key] = (bound_threshold(n_max, t, m, l_s), None)
    threshold, perfect = verdict  # perfect: the perfect profile's (stop, violations), once a seed is certified
    depth = max(1, min(math.ceil(threshold), -(-n_max // 2)))
    # H_j = 0 for every j > L(S), so no rotation is certified past depth L(S).
    if rec.wall_depth < depth <= l_s and rec.prefix_work >= t * depth:
        rec.wall_depth, rec.zeros = depth, _zero_rows(cycle, depth, p)
    certified = rec.wall_depth >= depth and start not in rec.zeros
    if certified and perfect is None:
        perfect = bound_violations(_wall_profile((), rec.wall_depth), t, m, l_s, n_max, threshold)
        rec.verdicts[key] = (threshold, perfect)
    lengths = _wall_profile(rec.zeros[start], rec.wall_depth) if rec.wall_depth >= depth and not certified else []
    size, prefixed = max(2, 2 * math.ceil(threshold) + 2), False
    while not certified and (not lengths or lengths[-1] < threshold and len(lengths) < n_max):
        size, prefixed = min(size, n_max), True
        lengths = _euclid_profile((cycle * (size // t + 2))[start : start + size], p)  # size terms from the seed
        size *= 2
    stop, violations = perfect if certified else bound_violations(lengths, t, m, l_s, n_max, threshold)
    if prefixed:
        rec.prefix_work += stop * stop // 4
    return BoundCheckReport(p, seed, t, m, l_s, n_checked=n_max, n_synthesized=stop, violations=list(violations))
