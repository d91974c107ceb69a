"""Seeded inputs, command lists and output checks for the four workloads.

Each pass of a workload is a list of commands made from (workload, seed,
pass index) alone, so the same seed always yields the same inputs.  Primes
and initial-value seeds are chosen here with the benchmark's own sieve and
order test, never with the library under test, so a change to the library
cannot change what the benchmark runs.
"""

from __future__ import annotations

import io
import random

WORKLOADS = ("sweep-sampled", "sweep-exhaustive", "enumerate", "bounds")

PARAMS = {
    "sweep-sampled": {
        # Seed-sampled low band: 2 bit sizes x 2 classes x low_sample primes.
        "low_bits": [40, 41],
        "low_sample": 12,
        # One 56-bit prime costs 0.01-1.06 s (coefficient of variation 1.2), so a
        # seed-sampled high band would swamp wall_s with its own spread.  The
        # high band is one fixed cell (sampling seed 0) in every pass instead.
        "high_bits": 56,
        "high_sample": 1,
        "high_seed": 0,
    },
    "sweep-exhaustive": {"periods_bits": 18, "maximal_bits": 20},
    "enumerate": {
        # Sizes that keep a pass near 3 s, so a 30-second run gets about ten
        # passes: identical work varies by +-15% from pass to pass on a shared
        # 2-core machine, and norm-one fibers near 2*10^5 take 3-3.5 s alone.
        "window_lo": 500_000,
        "window_width": 1 << 14,
        "fibers_lo": 100_000,
        "fibers_width": 1 << 12,
    },
    # Verifying one prime costs about 7.7e-8 * p^2 s, so the window is kept
    # narrow enough that the choice of primes moves a pass by a few percent.
    "bounds": {"window_lo": 2800, "window_hi": 3200, "primes_per_pass": 2},
}

CLASSES = ((3, "3mod4"), (1, "1mod4"))


def sieve(limit: int) -> bytearray:
    """flags[n] == 1 exactly when n <= limit is prime."""
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for q in range(2, int(limit**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, limit + 1, q)))
    return flags


def cycle_modulus(p: int) -> int:
    return (p - 1) // 2 if p % 4 == 3 else (p + 1) // 2


def _prime_factors(n: int) -> list[int]:
    factors, q = [], 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return factors + [n] if n > 1 else factors


def is_maximal(p: int, flags: bytearray) -> bool:
    """The initial-value set of F_p is one logistic cycle: m prime and 2 of
    order m - 1, or of odd order (m - 1) / 2, modulo m."""
    m = cycle_modulus(p)
    if m < 3 or not flags[m]:
        return False
    k = m - 1
    for q in _prime_factors(m - 1):
        while k % q == 0 and pow(2, k // q, m) == 1:
            k //= q
    return k == m - 1 or (k == (m - 1) // 2 and k % 2 == 1)


def in_iv_set(a: int, p: int) -> bool:
    """Euler's criterion on a and a + 1, kept apart from the library's Jacobi loop."""
    want = 1 if p % 4 == 3 else p - 1
    return a % p != 0 and pow(a, (p - 1) // 2, p) == want and pow(a + 1, (p - 1) // 2, p) == 1


def iv_size(p: int) -> int:
    return (p - 3) // 4 if p % 4 == 3 else (p - 1) // 4


def _cli(label: str, argv: list[str], **expect) -> dict:
    return {"kind": "cli", "label": label, "argv": argv, "expect": expect}


def _sweep_sampled(rng: random.Random) -> list[dict]:
    par = PARAMS["sweep-sampled"]
    lo, hi = par["low_bits"]
    low = [
        "sweep", "--kind", "periods", "--class", "both", "--n-min", str(lo), "--n-max", str(hi),
        "--sample", str(par["low_sample"]), "--seed", str(rng.randrange(1 << 31)),
    ]
    high = [
        "sweep", "--kind", "periods", "--class", "both", "--n-min", str(par["high_bits"]),
        "--n-max", str(par["high_bits"]), "--sample", str(par["high_sample"]), "--seed", str(par["high_seed"]),
    ]
    low_rows = {f"{b},{name}": par["low_sample"] for b in range(lo, hi + 1) for _, name in CLASSES}
    high_rows = {f"{par['high_bits']},{name}": par["high_sample"] for _, name in CLASSES}
    return [_cli(f"sweep-periods-{lo}-{hi}", low, rows=low_rows), _cli(f"sweep-periods-{par['high_bits']}", high, rows=high_rows)]


def _sweep_exhaustive(rng: random.Random) -> list[dict]:
    # Every prime of an exhaustive cell is enumerated, so there is nothing for
    # the seed to choose: all seeds run the same commands.
    commands = []
    for kind in ("periods", "maximal"):
        bits = PARAMS["sweep-exhaustive"][f"{kind}_bits"]
        lo, hi = 1 << (bits - 1), 1 << bits
        flags = sieve(hi)
        rows = {f"{bits},{name}": flags[lo + r : hi : 4].count(1) for r, name in CLASSES}
        argv = ["sweep", "--kind", kind, "--n-min", str(bits), "--n-max", str(bits)]
        commands.append(_cli(f"sweep-{kind}-{bits}", argv, rows=rows))
    return commands


def _enumerate(rng: random.Random) -> list[dict]:
    par = PARAMS["enumerate"]
    lo, hi = par["window_lo"], par["window_lo"] + par["window_width"]
    f_lo, f_hi = par["fibers_lo"], par["fibers_lo"] + par["fibers_width"]
    flags = sieve(hi)
    commands = []
    for r, name in CLASSES:
        window = [p for p in range(lo + (r - lo) % 4, hi, 4) if flags[p]]
        p = rng.choice(window)
        q = rng.choice([x for x in window if is_maximal(x, flags)])
        seed = rng.randrange(1, q - 1)
        while not in_iv_set(seed, q):
            seed = rng.randrange(1, q - 1)
        f = rng.choice([x for x in range(f_lo + (r - f_lo) % 4, f_hi, 4) if flags[x]])
        commands += [
            _cli(f"ivset-{name}", ["ivset", "--p", str(p)], size=iv_size(p)),
            _cli(f"census-brute-{name}", ["census", "--p", str(p), "--brute"]),
            _cli(f"orbit-predict-{name}", ["orbit", "--p", str(q), "--seed", str(seed), "--predict"],
                 period=(cycle_modulus(q) - 1) // 2),
            _cli(f"fibers-{name}", ["fibers", "--p", str(f)], size=iv_size(f)),
        ]
    return commands


def _bounds(rng: random.Random) -> list[dict]:
    par = PARAMS["bounds"]
    flags = sieve(par["window_hi"])
    maximal = [p for p in range(par["window_lo"], par["window_hi"]) if flags[p] and is_maximal(p, flags)]
    primes = rng.sample(maximal, par["primes_per_pass"])
    seeds = {p: [a for a in range(1, p - 1) if in_iv_set(a, p)] for p in primes}
    first = primes[0]
    period = (cycle_modulus(first) - 1) // 2
    commands = [
        _cli("lcp-bounds", ["lcp", "--p", str(first), "--seed", str(rng.choice(seeds[first])), "--bounds"],
             period=period)
    ]
    for p in primes:
        commands.append(
            {"kind": "verify", "label": "verify-profile-bounds", "p": p, "seeds": seeds[p],
             "expect": {"period": (cycle_modulus(p) - 1) // 2}}
        )
    return commands


_BUILDERS = {
    "sweep-sampled": _sweep_sampled,
    "sweep-exhaustive": _sweep_exhaustive,
    "enumerate": _enumerate,
    "bounds": _bounds,
}


def commands(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The commands of one pass; the same arguments always give the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}/{pass_index}"))


def _meta(text: str) -> dict[str, str]:
    meta = {}
    for line in io.StringIO(text):
        if not line.startswith("# "):
            break
        key, _, value = line[2:].rstrip("\n").partition(": ")
        meta[key] = value
    return meta


def _data_rows(text: str) -> list[str]:
    """Rows after the '#' metadata block and the header line."""
    lines = io.StringIO(text)
    for line in lines:
        if not line.startswith("# "):
            break  # the header
    return [line.rstrip("\n") for line in lines]


def check_cli(command: dict, rc: int, text: str) -> str | None:
    """Why a command's exit code or output fails the gate, or None if it passes.

    These are the repository's own oracles (brute force against theory,
    counting formulas, the bound check) plus counts the benchmark derives
    independently; byte-for-byte goldens are compared by the caller.
    """
    if rc != 0:
        return f"exit code {rc}"
    expect = command["expect"]
    kind = command["argv"][0]
    if kind == "sweep":
        got = {}
        for row in _data_rows(text):
            bits, cls, tested = row.split(",")[:3]
            got[f"{bits},{cls}"] = int(tested)
        if got != expect["rows"]:
            return f"primes_tested per cell {got}, expected {expect['rows']}"
    elif kind == "ivset":
        meta = _meta(text)
        size = int(meta.get("size", -1))
        rows = text.count("\n") - len(meta) - 1
        if size != expect["size"] or rows != size:
            return f"size {size} with {rows} rows, counting formula gives {expect['size']}"
    elif kind == "fibers":
        meta = _meta(text)
        fields = 5 if meta.get("kind") == "split" else 9
        rows = text.count("\n") - len(meta) - 1
        commas = text.count(",") - (fields - 1)
        if rows != expect["size"] or commas != rows * (fields - 1):
            return f"{rows} fibers of {commas} separators, counting formula gives {expect['size']}"
    elif kind == "census":
        if _meta(text).get("brute_match") != "true":
            return "census disagrees with brute force"
    elif kind == "orbit":
        fields = {}
        for line in io.StringIO(text):
            key, _, value = line.rstrip("\n").partition(": ")
            fields[key] = value
        if fields.get("match") != "True":
            return "orbit disagrees with its prediction"
        if fields.get("tail_length") != "0" or fields.get("period") != str(expect["period"]):
            return f"tail {fields.get('tail_length')} period {fields.get('period')}, expected 0 and {expect['period']}"
    elif kind == "lcp":
        meta = _meta(text)
        if meta.get("bounds_hold") != "true":
            return "profile below a lower bound"
        if meta.get("period") != str(expect["period"]):
            return f"period {meta.get('period')}, expected {expect['period']}"
    return None


def check_report(command: dict, report) -> str | None:
    """Gate for one verify_profile_bounds report on a maximal prime."""
    if not report.holds:
        return f"bounds violated at p={report.p} seed={report.seed}: {report.violations[:1]}"
    if report.period != command["expect"]["period"]:
        return f"p={report.p} seed={report.seed} period {report.period}, expected {command['expect']['period']}"
    return None
