"""Per-layer spans and counts, installed from outside the library.

A span wrapper replaces each function one layer imported from another, at
the module attribute its callers resolve (``quadorbit.cli.census``,
``quadorbit.diagram.mult_order`` ...), plus the two roots the benchmark
calls (``cli.main`` and ``lcp.verify_profile_bounds``).  A layer's self
time is its spans' time minus the time of the spans they cause.  The lru
caches are wrapped, never replaced, so their behaviour and ``cache_info()``
stay intact and call counts come from ``cache_info()``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

LAYERS = ("numtheory", "diagram", "ivsets", "generator", "lcp", "cli")

# Called once per state or parameter inside a walk: a span would cost more
# than the call, so their time stays with the caller (brute walking is
# diagram work) and their counts are derived from results instead.
HOT = frozenset({"logistic_map", "logistic_preimages", "dickson2_map", "step"})

# Same-layer calls that the per-layer metrics count; primes_up_to is also
# timed, as the sieve.
COUNTED = {"numtheory": ("legendre", "sqrt_mod", "mult_order")}
TIMED = {"numtheory": ("primes_up_to",), "cli": ("main",), "lcp": ("verify_profile_bounds",)}

# Work counts read off a call's result rather than counted per step.
DERIVED = {
    "census": (("diagram.census_rows", lambda r: len(r.rows)),),
    "brute_census": (("diagram.brute_states_walked", lambda r: sum(k * v for k, v in r.items())),),
    "build_iv_set": (("ivsets.elements_scanned", lambda r: r.p - 2),),
    "param_fibers": (("ivsets.fiber_params", lambda r: sum(map(len, r.values()))),),
    "orbit": (("generator.orbit_steps", lambda r: r.tail_length + r.period),),
    "profile_for_seed": (("lcp.bm_steps_requested", lambda r: r.n_max),),
    "verify_profile_bounds": (
        ("lcp.bm_steps_requested", lambda r: r.n_checked),
        ("lcp.cycle_walk_steps", lambda r: r.period),
    ),
}

CACHES = {"is_prime": ("numtheory", "is_prime"), "factorize": ("numtheory", "_factorize"),
          "gcd": ("lcp", "_cycle_complexity_cached")}


class Tracer:
    """Spans and counts for one pass; everything stays in memory."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.stack = [[0.0]]  # child time of each open span; the base is the harness
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.derived = Counter()
        self.caches = Counter()

    def record_caches(self) -> None:
        """Add the caches' statistics since their last cache_clear(); the
        caller clears them before every command."""
        for name, (mod, attr) in CACHES.items():
            info = getattr(self.modules[mod], attr).cache_info()
            self.caches[f"cache.{name}.hits"] += info.hits
            self.caches[f"cache.{name}.calls"] += info.hits + info.misses
            key = f"cache.{name}.entries"
            self.caches[key] = max(self.caches[key], info.currsize)

    def span(self, fn, layer: str):
        name = fn.__name__
        stack, self_s, calls, seconds, derived = self.stack, self.self_s, self.calls, self.seconds, self.derived
        derive = DERIVED.get(name, ())
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_s[layer] += elapsed - frame[0]
                seconds[name] += elapsed
                calls[name] += 1
            for key, amount in derive:
                derived[key] += amount(result)
            return result

        return traced

    def counter(self, fn):
        name = fn.__name__
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def totals(self) -> dict[str, float]:
        """Raw sums for one pass; metrics() turns summed totals into metrics."""
        out = {f"self_s.{layer}": value for layer, value in self.self_s.items()}
        out.update({f"calls.{name}": value for name, value in self.calls.items()})
        out.update({f"seconds.{name}": value for name, value in self.seconds.items()})
        out.update(self.derived)
        out.update(self.caches)
        return out


def install(modules: dict) -> Tracer:
    """Wrap every cross-layer binding in ``modules`` (layer name -> module)."""
    tracer = Tracer(modules)
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            owner = getattr(obj, "__module__", "") or ""
            owner_layer = owner.rpartition(".")[2]
            if (
                isinstance(obj, type)
                or not callable(obj)
                or not owner.startswith("quadorbit.")
                or owner_layer not in LAYERS
                or owner_layer == layer
                or attr in HOT
            ):
                continue
            setattr(module, attr, tracer.span(obj, owner_layer))
        for attr in TIMED.get(layer, ()):
            setattr(module, attr, tracer.span(getattr(module, attr), layer))
        for attr in COUNTED.get(layer, ()):
            setattr(module, attr, tracer.counter(getattr(module, attr)))
    return tracer


def _ratio(hits: float, calls: float) -> float:
    return hits / calls if calls else 0.0


def metrics(t: dict[str, float], passes: int, wall: float, untraced_wall: float, bytes_out: float) -> dict:
    """Per-layer metrics, per pass, from totals summed over ``passes`` traced passes.

    Times and counts are means per pass, so the layer self times and
    trace.harness_s add up to trace.wall_s exactly.
    """
    n = max(passes, 1)

    def g(key: str) -> float:
        return t.get(key, 0) / n

    self_sum = sum(g(f"self_s.{layer}") for layer in LAYERS)
    m = {
        "numtheory.self_s": (g("self_s.numtheory"), "s"),
        "numtheory.is_prime_calls": (g("cache.is_prime.calls"), "count"),
        "numtheory.factorize_calls": (g("cache.factorize.calls"), "count"),
        "numtheory.mult_order_calls": (g("calls.mult_order"), "count"),
        "numtheory.is_prime_cache_hit_ratio": (_ratio(t.get("cache.is_prime.hits", 0), t.get("cache.is_prime.calls", 0)), "ratio"),
        "numtheory.factorize_cache_hit_ratio": (_ratio(t.get("cache.factorize.hits", 0), t.get("cache.factorize.calls", 0)), "ratio"),
        "numtheory.cache_entries": (g("cache.is_prime.entries") + g("cache.factorize.entries"), "count"),
        "numtheory.sieve_calls": (g("calls.primes_up_to"), "count"),
        "numtheory.sieve_s": (g("seconds.primes_up_to"), "s"),
        "numtheory.legendre_calls": (g("calls.legendre"), "count"),
        "numtheory.sqrt_mod_calls": (g("calls.sqrt_mod"), "count"),
        "diagram.self_s": (g("self_s.diagram"), "s"),
        "diagram.census_calls": (g("calls.census"), "count"),
        "diagram.census_rows": (g("diagram.census_rows"), "count"),
        "diagram.maximal_calls": (g("calls.is_maximal_prime"), "count"),
        "diagram.brute_states_walked": (g("diagram.brute_states_walked"), "count"),
        "ivsets.self_s": (g("self_s.ivsets"), "s"),
        "ivsets.elements_scanned": (g("ivsets.elements_scanned"), "count"),
        "ivsets.fiber_params": (g("ivsets.fiber_params"), "count"),
        "generator.self_s": (g("self_s.generator"), "s"),
        "generator.orbit_steps": (g("generator.orbit_steps"), "count"),
        "generator.predict_calls": (g("calls.predict_orbit"), "count"),
        "lcp.self_s": (g("self_s.lcp"), "s"),
        "lcp.seeds_checked": (g("calls.verify_profile_bounds") + g("calls.profile_for_seed"), "count"),
        "lcp.bm_steps_requested": (g("lcp.bm_steps_requested"), "count"),
        "lcp.cycle_walk_steps": (g("lcp.cycle_walk_steps"), "count"),
        "lcp.gcd_cache_hit_ratio": (_ratio(t.get("cache.gcd.hits", 0), t.get("cache.gcd.calls", 0)), "ratio"),
        "cli.self_s": (g("self_s.cli"), "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.harness_s": (wall - self_sum, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
