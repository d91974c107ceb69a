"""Command-line surface: orbit inspection, table dumps, and sweep experiments.

Every command writes CSV (tables), plain text, or JSON, chosen with
--format; output is byte-deterministic for identical flags, including the
sampling seed of the sweep command.  Exit codes: 0 ok, 1 usage or domain
error, 2 theory-vs-brute mismatch, 3 bound violation, 141 (128 + SIGPIPE)
the reader closed stdout before the output ended.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from contextlib import nullcontext
from functools import cache
from itertools import chain, compress, count, islice, product
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from . import __version__
from .diagram import (
    CensusRow,
    _modulus_of,
    _prime_stats,
    analogous_two_safe_primes,
    brute_census,
    census,
    maximal_branch,
    two_safe_primes,
)
from .errors import BudgetExceededError, DomainError
from .generator import (
    KIND_DICKSON,
    KIND_LOGISTIC,
    KIND_LOGISTIC_GENERAL,
    GeneratorSpec,
    OrbitPrediction,
    in_iv_set,
    orbit,
    predict_orbit,
)
from .ivsets import KIND_NORM_ONE, KIND_SPLIT, build_iv_set, fiber_table, param_kind
from .lcp import bound_dickson, bound_quadratic, bound_sqrt, bound_threshold, bound_violations, profile_for_seed
from .numtheory import MR_PROVEN_LIMIT, factorize, fp2_context, is_prime, mult_order, prime_flags, table_factorizer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BOUND = 3
EXIT_PIPE = 141

EXHAUSTIVE_MAX_BITS = 24

# Largest --sample: about half of the smallest sampled cell (the 25-bit
# classes hold 492,882 primes = 1 mod 4 and 492,936 = 3 mod 4), so the
# rejection sampler always finds enough distinct primes and stops.
SAMPLE_MAX = 1 << 18

# Largest orbit (tail + period) that orbit walks.  No logistic or Dickson
# orbit at p <= 2^24 exceeds it; the longest takes about 9 s and 680 MB.
ORBIT_MAX_STATES = 1 << 22

# Largest orbit (tail + period) that lcp walks and largest number of profile
# terms it computes.  The gcd (O(T^2)) and the profile (O(N^2)) share one packed
# Euclid: at the limit, lcp --bounds --format json takes 2.2-2.3 s on 2 x86-64 cores.
LCP_MAX_TERMS = 12_000

# Widest sweep cell whose primes is_prime proves: every n-bit prime is below 2^n.
SWEEP_MAX_BITS = MR_PROVEN_LIMIT.bit_length() - 1

# Largest safeprimes --limit; at it the byte-per-integer sieve takes 10 s and 0.53 GB.
SAFEPRIMES_MAX_LIMIT = 1 << 28

# Lines per write of _emit: about 3.7 MB of the widest, the norm-one fiber JSON members (about 225 bytes each).
EMIT_CHUNK = 1 << 14

# The JSON member of one fiber, as json.dumps(indent=2) nests it under "fibers": four ints, or four [c0, c1] pairs.
FIBER_JSON = {
    KIND_SPLIT: '    "%s": [\n' + ",\n".join(["      %d"] * 4) + "\n    ]",
    KIND_NORM_ONE: '    "%s": [\n' + ",\n".join(["      [\n        %d,\n        %d\n      ]"] * 4) + "\n    ]",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; 2 is reserved for
    # theory-vs-brute mismatches here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write each line and a newline, EMIT_CHUNK lines per write; no lines at all is one empty line."""
    lines = iter(lines)
    chunk = list(islice(lines, EMIT_CHUNK)) or [""]
    with open(out, "w") if out else nullcontext(sys.stdout) as handle:
        while chunk:
            handle.write("\n".join(chunk))
            handle.write("\n")
            chunk = list(islice(lines, EMIT_CHUNK))


def _meta(command: str, pairs: list[tuple[str, object]]) -> list[str]:
    lines = [f"# quadorbit {__version__}", f"# command: {command}"]
    lines.extend(f"# {key}: {value}" for key, value in pairs)
    return lines


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, list):
        return " ".join(map(str, value))
    if value is None:
        return ""
    return str(value)


def _csv(row: dict) -> str:
    return ",".join(map(_fmt, row.values()))


def _json(head: dict, key: str | None, rows: Iterable, item=None) -> Iterator[str]:
    """The lines of json.dumps(head, indent=2, sort_keys=True) with item(row), the finished text of each row's member,
    in place of the empty head[key]; only the brackets and the commas between members are written here.  Without an
    item a list row is dumped whole.  For a dict ({}) every row starts with its str key, and rows go in key order."""
    text = json.dumps(head, indent=2, sort_keys=True)
    empty = head.get(key)
    if isinstance(empty, dict):
        rows = sorted(rows, key=itemgetter(0))
    items = map(item or (lambda row: "    " + json.dumps(row, indent=2, sort_keys=True).replace("\n", "\n    ")), rows)
    previous = next(items, None)
    if previous is None:
        yield text
        return
    member = f"\n  {json.dumps(key)}: "
    before, after = text.split(member + json.dumps(empty))
    opening, closing = json.dumps(empty)
    yield before + member + opening
    for following in items:
        yield previous + ","
        previous = following
    yield f"{previous}\n  {closing}{after}"


def _render(
    args, head: dict, key: str | None, pairs: list[tuple[str, object]], header: list[str], rows: Iterable,
    line=_csv, item=None, text: Iterable[str] = (),
) -> None:
    """Write the output in args.format: the text lines as given; csv as the pairs as metadata, the header and
    line(row) of every row; json as _json writes the rows into head[key], or the head alone without a key.  Rows
    are read once, as the output is written."""
    if args.format == "text":
        lines = text
    elif args.format == "csv":
        lines = chain(_meta(args.command, pairs), [",".join(header)], map(line, rows))
    else:
        lines = _json(head, key, rows if key else (), item)
    _emit(lines, args.out)


def _predict(spec: GeneratorSpec) -> OrbitPrediction:
    if spec.kind == KIND_LOGISTIC_GENERAL:
        raise DomainError("prediction is only available for control parameter 4")
    # A Dickson orbit takes the shadow seed of the logistic chain it conjugates.
    seed = (spec.seed - 2) * pow(4, -1, spec.p) % spec.p if spec.kind == KIND_DICKSON else spec.seed
    return predict_orbit(spec.p, seed, "any")


def cmd_orbit(args: argparse.Namespace) -> int:
    kind = {"logistic": KIND_LOGISTIC, "dickson2": KIND_DICKSON, "logistic-general": KIND_LOGISTIC_GENERAL}[args.kind]
    if args.mu is not None and kind != KIND_LOGISTIC_GENERAL:
        raise DomainError(f"--mu applies only to --kind logistic-general, not {args.kind}")
    spec = GeneratorSpec(kind=kind, p=args.p, seed=args.seed, mu=args.mu)
    if kind == KIND_LOGISTIC_GENERAL and args.p > ORBIT_MAX_STATES and args.max_steps is None:
        raise DomainError(f"logistic-general orbits have no prediction; above p = {ORBIT_MAX_STATES} pass --max-steps")
    # tail + period <= p, so only a p above the limit can need more states:
    # predict those orbits before walking them.
    pred = _predict(spec) if kind != KIND_LOGISTIC_GENERAL and args.p > ORBIT_MAX_STATES else None
    walk = pred is None or pred.tail_length + pred.period <= ORBIT_MAX_STATES
    if not walk and not args.predict:
        raise DomainError(
            f"the orbit has {pred.tail_length + pred.period} states, above the walk limit of {ORBIT_MAX_STATES}; "
            "use `orbit --predict` for the analytic tail length and period"
        )
    payload: dict[str, object] = {"p": args.p, "seed": spec.seed, "kind": args.kind}
    matched = True
    if walk:
        rep = orbit(spec, min(args.p if args.max_steps is None else args.max_steps, ORBIT_MAX_STATES))
        payload.update(tail=rep.tail, cycle=rep.cycle, tail_length=rep.tail_length, period=rep.period)
    if args.predict:
        if pred is None:
            pred = _predict(spec)
        payload.update(
            predicted_tail_length=pred.tail_length, predicted_period=pred.period, degenerate=pred.degenerate
        )
        if walk:
            matched = pred.tail_length == rep.tail_length and pred.period == rep.period
            payload["match"] = matched
    text = (f"{key}: {_fmt(value)}" for key, value in payload.items())
    _render(args, payload, None, [], list(payload), [payload], text=text)
    return EXIT_OK if matched else EXIT_MISMATCH


def cmd_ivset(args: argparse.Namespace) -> int:
    iv = build_iv_set(args.p)
    pairs: list[tuple[str, object]] = [("p", iv.p), ("kind", iv.kind), ("size", len(iv.elements))]
    if not iv.elements:
        pairs.append(("note", "initial-value set is empty"))
    head = {"p": iv.p, "kind": iv.kind, "elements": []}
    _render(args, head, "elements", pairs, ["element"], iv.elements, str, "    %d".__mod__)
    return EXIT_OK


def cmd_fibers(args: argparse.Namespace) -> int:
    kind = param_kind(args.p)
    pairs: list[tuple[str, object]] = [("p", args.p), ("kind", kind)]
    cells = [f"t{i}" for i in range(1, 5)]
    if kind != KIND_SPLIT:
        pairs.append(("extension", f"x^2 - {fp2_context(args.p).non_residue}"))
        cells = [f"{t}_c{j}" for t in cells for j in (0, 1)]
    rows = ((str(a), fiber) for a, fiber in fiber_table(args.p))
    head = {"p": args.p, "kind": kind, "fibers": {}}
    template, member = "%s" + ",%d" * len(cells), FIBER_JSON[kind]
    _render(
        args, head, "fibers", pairs, ["element", *cells], rows,
        lambda row: template % (row[0], *row[1]), lambda row: member % (row[0], *row[1]),
    )
    return EXIT_OK


def cmd_census(args: argparse.Namespace) -> int:
    result = census(args.p)
    brute = brute_census(args.p) if args.brute else None
    match = brute is None or result.period_counter() == brute
    pairs: list[tuple[str, object]] = [("p", result.p), ("modulus", result.modulus)]
    head: dict[str, object] = {"p": result.p, "modulus": result.modulus, "rows": []}
    if brute is not None:
        observed = " ".join(f"{period}x{count}" for period, count in sorted(brute.items()))
        pairs += [("brute", observed), ("brute_match", str(match).lower())]
        head.update(brute={str(k): v for k, v in sorted(brute.items())}, brute_match=match)
    _render(
        args, head, "rows", pairs, CensusRow._fields, map(CensusRow._asdict, result.rows),
        lambda row: _csv({**row, "minus_one_reachable": str(row["minus_one_reachable"]).lower()}),
    )
    return EXIT_OK if match else EXIT_MISMATCH


def cmd_safeprimes(args: argparse.Namespace) -> int:
    if not 0 <= args.limit <= SAFEPRIMES_MAX_LIMIT:
        raise DomainError(f"--limit must be in 0..{SAFEPRIMES_MAX_LIMIT}, got {args.limit}")
    values = analogous_two_safe_primes(args.limit) if args.analogous else two_safe_primes(args.limit)
    pairs = [("limit", args.limit), ("analogous", args.analogous)]
    head = {"limit": args.limit, "analogous": args.analogous, "primes": []}
    _render(args, head, "primes", pairs, ["p"], values, str, "    %d".__mod__, text=map(str, values))
    return EXIT_OK


def cmd_lcp(args: argparse.Namespace) -> int:
    p = args.p
    seed = args.seed
    if seed is None:
        # The smallest initial-value element by Legendre symbols, not from an O(p) table (every prime > 3 has one).
        seed = next(a for a in count(1) if in_iv_set(a, p))
    if args.bounds and not in_iv_set(seed, p):
        raise DomainError(f"--bounds needs a seed in the initial-value set, got {seed}")
    # Analytic, so a long orbit of a large p is refused before any walk; it checks p, so the seed is reduced after.
    pred = predict_orbit(p, seed, "any")
    seed %= p
    terms = args.n_max if args.n_max is not None else 2 * pred.period
    if max(pred.tail_length + pred.period, terms) > LCP_MAX_TERMS:
        raise DomainError(
            f"lcp would walk {pred.tail_length + pred.period} states and synthesize {terms} terms, above its "
            f"limit of {LCP_MAX_TERMS}; use `census` or `orbit --predict` for the analytic period"
        )
    prof = profile_for_seed(p, seed, args.n_max)
    t = prof.period
    m = _modulus_of(p)  # predict_orbit checked p
    l_s = prof.linear_complexity
    pairs: list[tuple[str, object]] = [
        ("p", p),
        ("seed", seed),
        ("period", t),
        ("modulus", m),
        ("linear_complexity", l_s),
    ]
    head: dict[str, object] = {"p": p, "seed": seed, "period": t, "linear_complexity": l_s, "rows": []}
    header = ["N", "L"]
    rows = [[n, length] for n, length in enumerate(prof.profile, start=1)]
    holds = True
    if args.bounds:
        holds = not bound_violations(prof.profile, t, m, l_s, prof.n_max, bound_threshold(prof.n_max, t, m, l_s))[1]
        header += ["bound_quadratic", "bound_sqrt", "bound_dickson"]
        for n, row in enumerate(rows, start=1):
            row +=[max(0.0, bound_quadratic(n, t, m)), max(0.0, bound_sqrt(n, l_s)), max(0.0, bound_dickson(n, t, p))]
        pairs.append(("clamping", "negative bound values are printed as 0"))
        pairs.append(("bounds_hold", str(holds).lower()))
        head["bounds_hold"] = holds
    _render(args, head, "rows", pairs, header, (dict(zip(header, row)) for row in rows))
    return EXIT_OK if holds else EXIT_BOUND


class SweepRow(NamedTuple):
    """Per-bit-size aggregate over one prime residue class."""

    bit_size: int
    prime_class: str
    primes_tested: int
    pct_maximal: float
    mean_cycles: float | None
    mean_period_per_cycle: float | None
    mean_period_per_seed: float | None


def _sampling_rng(seed: int, bit_size: int, residue: int) -> random.Random:
    # Mixed into one int so reruns are reproducible regardless of hash seeds.
    return random.Random((seed * 1000003 + bit_size) * 4 + residue)


def _sampled_primes(bit_size: int, residue: int, sample: int, seed: int, deadline: float | None) -> list[int] | None:
    lo, hi = 1 << (bit_size - 1), 1 << bit_size
    rng = _sampling_rng(seed, bit_size, residue)
    found: set[int] = set()
    while len(found) < sample:
        if deadline is not None and time.monotonic() > deadline:
            return None
        candidate = rng.randrange(lo // 4, hi // 4) * 4 + residue
        if lo <= candidate < hi and candidate not in found and is_prime(candidate):
            found.add(candidate)
    return sorted(found)


def _cell_stats(
    bit_size: int, residue: int, want_census: bool, sample: int, seed: int, deadline: float | None
) -> list[tuple] | None:
    """_prime_stats, or (maximal,), of each prime of a cell in order, or None once the deadline passes (checked
    while a sampled cell draws its primes, and before every prime: 0.1 against about 13 microseconds at 22 bits).

    An exhaustive cell lists p and tests m with one sieve up to 2^n and factors every m, m - 1 and q - 1 from one
    table up to 2^(n-1) + 1; a sampled cell uses is_prime and factorize.  Its p are proven, so m = (p +- 1)/2 is
    not re-checked through p (_modulus_of), and maximal_branch runs only for a prime m.  ord_q(2) is memoized.
    """
    if bit_size > EXHAUSTIVE_MAX_BITS:
        primes = _sampled_primes(bit_size, residue, sample, seed, deadline)
        if primes is None:
            return None
        prime, factor = is_prime, factorize
    else:
        flags = prime_flags((1 << bit_size) - 1)
        start = (1 << (bit_size - 1)) + residue  # 2^(n-1) = 0 mod 4 for n >= 3
        primes = list(compress(range(start, 1 << bit_size, 4), flags[start::4]))
        prime, factor = flags.__getitem__, table_factorizer((1 << (bit_size - 1)) + 1)
    order_of_2 = cache(lambda q: mult_order(2, q, factor(q - 1)))
    stats = []
    for p in primes:
        if deadline is not None and time.monotonic() > deadline:
            return None
        m = _modulus_of(p)
        maximal = bool(prime(m)) and maximal_branch(m, order_of_2) != "fails"
        stats.append((maximal,) + _prime_stats(m, factor, order_of_2) if want_census else (maximal,))
    return stats


def cmd_sweep(args: argparse.Namespace) -> int:
    if not 3 <= args.n_min <= args.n_max:
        raise DomainError(f"need 3 <= n_min <= n_max, got {args.n_min}..{args.n_max}")
    if args.n_max > SWEEP_MAX_BITS:
        raise DomainError(
            f"--n-max {args.n_max} is above {SWEEP_MAX_BITS} bits: primality is only proven below {MR_PROVEN_LIMIT}"
        )
    if not 1 <= args.sample <= SAMPLE_MAX:
        raise DomainError(f"--sample must be in 1..{SAMPLE_MAX}, got {args.sample}")
    if args.budget_seconds is not None and not 0 < args.budget_seconds < math.inf:
        raise DomainError(f"--budget-seconds must be positive and finite, got {args.budget_seconds}")
    residues = {"3mod4": [3], "1mod4": [1], "both": [3, 1]}[args.prime_class]
    want_census = args.kind == "periods"
    deadline = None if args.budget_seconds is None else time.monotonic() + args.budget_seconds
    rows: list[SweepRow] = []
    truncated = False
    for bit_size, residue in product(range(args.n_min, args.n_max + 1), residues):
        stats = _cell_stats(bit_size, residue, want_census, args.sample, args.seed, deadline)
        if stats is None:
            truncated = True
            break
        n = len(stats)
        pct = 100.0 * sum(1 for s in stats if s[0]) / n if n else 0.0
        means = [sum(s[i] for s in stats) / n for i in (1, 2, 3)] if want_census and n else [None] * 3
        rows.append(SweepRow(bit_size, f"{residue}mod4", n, pct, *means))
        del stats  # the next cell runs without this one's per-prime stats
    pairs: list[tuple[str, object]] = [
        ("kind", args.kind),
        ("bits", f"{args.n_min}..{args.n_max}"),
        ("classes", args.prime_class),
        ("enumeration", f"exhaustive for N <= {EXHAUSTIVE_MAX_BITS}, else {args.sample} sampled primes per cell"),
        ("sampling_seed", args.seed),
        ("mean_period_per_cycle", "mean over primes of (IV states / cycle count)"),
        ("mean_period_per_seed", "mean over primes of sum(n_d * c_d^2) / IV states"),
    ]
    if truncated:
        pairs.append(("truncated", "budget exceeded; output is partial"))
    head = {"kind": args.kind, "sampling_seed": args.seed, "truncated": truncated, "rows": []}
    _render(args, head, "rows", pairs, SweepRow._fields, map(SweepRow._asdict, rows))
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...], default: str) -> None:
    parser.add_argument("--format", choices=formats, default=default)
    parser.add_argument("--out", default=None, help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quadorbit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"quadorbit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbit = sub.add_parser("orbit", help="tail and cycle of one orbit, optionally with prediction")
    p_orbit.add_argument("--p", type=int, required=True)
    p_orbit.add_argument("--seed", type=int, required=True)
    p_orbit.add_argument("--kind", choices=("logistic", "dickson2", "logistic-general"), default="logistic")
    p_orbit.add_argument("--mu", type=int, default=None, help="control parameter for logistic-general")
    p_orbit.add_argument("--max-steps", type=int, default=None)
    p_orbit.add_argument("--predict", action="store_true", help="cross-check against the analytic prediction")
    _add_common(p_orbit, ("text", "csv", "json"), "text")
    p_orbit.set_defaults(func=cmd_orbit)

    p_ivset = sub.add_parser("ivset", help="the long-period initial-value set of F_p")
    p_ivset.add_argument("--p", type=int, required=True)
    _add_common(p_ivset, ("csv", "json"), "csv")
    p_ivset.set_defaults(func=cmd_ivset)

    p_fibers = sub.add_parser("fibers", help="four-to-one parameter fibers over the initial-value set")
    p_fibers.add_argument("--p", type=int, required=True)
    _add_common(p_fibers, ("csv", "json"), "csv")
    p_fibers.set_defaults(func=cmd_fibers)

    p_census = sub.add_parser("census", help="predicted cycle structure, optionally checked by brute force")
    p_census.add_argument("--p", type=int, required=True)
    p_census.add_argument("--brute", action="store_true", help="cross-check against exhaustive orbit walking")
    _add_common(p_census, ("csv", "json"), "csv")
    p_census.set_defaults(func=cmd_census)

    p_sweep = sub.add_parser("sweep", help="aggregate statistics per bit size and prime class")
    p_sweep.add_argument("--kind", choices=("maximal", "periods"), required=True)
    p_sweep.add_argument("--n-min", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--class", dest="prime_class", choices=("3mod4", "1mod4", "both"), default="both")
    p_sweep.add_argument("--sample", type=int, default=200, help="primes per cell above the exhaustive range")
    p_sweep.add_argument("--seed", type=int, default=0, help="sampling seed, recorded in the output")
    p_sweep.add_argument("--budget-seconds", type=float, default=None)
    _add_common(p_sweep, ("csv", "json"), "csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_lcp = sub.add_parser("lcp", help="linear complexity profile, optionally with the lower-bound curves")
    p_lcp.add_argument("--p", type=int, required=True)
    p_lcp.add_argument("--seed", type=int, default=None, help="defaults to the smallest initial-value element")
    p_lcp.add_argument("--n-max", type=int, default=None, help="defaults to twice the period")
    p_lcp.add_argument("--bounds", action="store_true")
    _add_common(p_lcp, ("csv", "json"), "csv")
    p_lcp.set_defaults(func=cmd_lcp)

    p_safe = sub.add_parser("safeprimes", help="2-safe primes (or the p = 2*p1 - 1 analogue)")
    p_safe.add_argument("--limit", type=int, required=True)
    p_safe.add_argument("--analogous", action="store_true")
    _add_common(p_safe, ("text", "csv", "json"), "text")
    p_safe.set_defaults(func=cmd_safeprimes)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "p", None) is not None and args.p >= MR_PROVEN_LIMIT:
            raise DomainError(f"--p {args.p} is not below {MR_PROVEN_LIMIT}: primality is only proven below it")
        return args.func(args)
    except BrokenPipeError:
        # The reader is gone; point stdout at devnull so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (DomainError, BudgetExceededError, OSError) as exc:  # OSError: an --out that cannot be opened or written
        print(f"quadorbit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
