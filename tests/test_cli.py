import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadorbit.cli import (
    EMIT_CHUNK,
    EXIT_PIPE,
    FIBER_JSON,
    LCP_MAX_TERMS,
    ORBIT_MAX_STATES,
    SAFEPRIMES_MAX_LIMIT,
    SAMPLE_MAX,
    SWEEP_MAX_BITS,
    _cell_stats,
    _emit,
    _json,
    _sampled_primes,
    main,
)
from quadorbit.diagram import BRUTE_CENSUS_MAX_P, brute_census, census, is_maximal_prime
from quadorbit.generator import in_iv_set, predict_orbit
from quadorbit.ivsets import FIBERS_MAX_P, IV_SET_MAX_P, KIND_NORM_ONE, KIND_SPLIT
from quadorbit.numtheory import MR_PROVEN_LIMIT, primes_up_to


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_ivset_csv(capsys):
    code, out = run_cli(capsys, "ivset", "--p", "23")
    assert code == 0
    assert data_lines(out) == ["element", "1", "2", "3", "8", "12"]
    code, out = run_cli(capsys, "ivset", "--p", "17")
    assert data_lines(out) == ["element", "3", "7", "12", "14"]


def test_ivset_degenerate_small_prime(capsys):
    code, out = run_cli(capsys, "ivset", "--p", "5")
    assert code == 0
    assert data_lines(out) == ["element", "3"]


def test_ivset_rejects_composite(capsys):
    code, _ = run_cli(capsys, "ivset", "--p", "4")
    assert code == 1


def test_orbit_text_and_prediction(capsys):
    code, out = run_cli(capsys, "orbit", "--p", "23", "--seed", "1")
    assert code == 0
    assert "cycle: 1 8 12 3 2" in out
    code, out = run_cli(capsys, "orbit", "--p", "17", "--seed", "12", "--predict")
    assert code == 0
    assert "period: 1" in out and "match: True" in out


def test_orbit_json_and_csv(capsys):
    code, out = run_cli(capsys, "orbit", "--p", "23", "--seed", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["cycle"] == [1, 8, 12, 3, 2] and payload["tail"] == []
    code, out = run_cli(capsys, "orbit", "--p", "23", "--seed", "11", "--format", "csv")
    lines = data_lines(out)
    assert lines[0].startswith("p,seed,kind,tail,cycle")
    assert lines[1].startswith("23,11,logistic,11 22,0")


def test_orbit_dickson_predict(capsys):
    code, out = run_cli(capsys, "orbit", "--p", "23", "--seed", "0", "--kind", "dickson2", "--predict")
    assert code == 0
    assert "tail: 0 21" in out and "match: True" in out


def test_orbit_rejects_bad_p(capsys):
    code, _ = run_cli(capsys, "orbit", "--p", "4", "--seed", "1")
    assert code == 1


@pytest.mark.parametrize("kind", [[], ["--kind", "dickson2"]])
def test_orbit_refuses_mu_outside_logistic_general(capsys, kind):
    assert main(["orbit", "--p", "23", "--seed", "1", "--mu", "5", *kind]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--mu applies only to --kind logistic-general" in captured.err
    assert run_cli(capsys, "orbit", "--p", "23", "--seed", "1", "--mu", "5", "--kind", "logistic-general")[0] == 0


def test_fibers_tables(capsys):
    code, out = run_cli(capsys, "fibers", "--p", "23")
    assert code == 0
    assert data_lines(out) == [
        "element,t1,t2,t3,t4",
        "1,4,6,17,19",
        "2,2,11,12,21",
        "3,5,9,14,18",
        "8,7,10,13,16",
        "12,3,8,15,20",
    ]
    code, out = run_cli(capsys, "fibers", "--p", "17")
    assert "# extension: x^2 - 3" in out
    lines = data_lines(out)
    assert lines[0] == "element,t1_c0,t1_c1,t2_c0,t2_c1,t3_c0,t3_c1,t4_c0,t4_c1"
    rows = {line.split(",")[0]: line for line in lines[1:]}
    assert rows["12"] == "12,8,2,8,15,9,2,9,15"
    assert rows["7"] == "7,5,5,5,12,12,5,12,12"


def test_census_with_brute_check(capsys):
    code, out = run_cli(capsys, "census", "--p", "23", "--brute")
    assert code == 0
    assert "# brute_match: true" in out
    assert data_lines(out) == [
        "divisor,order_of_2,totient,cycles,period,minus_one_reachable",
        "11,10,10,1,5,true",
    ]
    code, out = run_cli(capsys, "census", "--p", "17")
    assert data_lines(out) == [
        "divisor,order_of_2,totient,cycles,period,minus_one_reachable",
        "3,2,2,1,1,true",
        "9,6,6,1,3,true",
    ]


def test_safeprimes(capsys):
    code, out = run_cli(capsys, "safeprimes", "--limit", "4100")
    assert code == 0
    assert out.split() == ["11", "23", "47", "167", "359", "719", "1439", "2039", "2879", "4079"]
    code, out = run_cli(capsys, "safeprimes", "--limit", "1000000", "--analogous")
    assert out.split() == ["13"]
    code, out = run_cli(capsys, "safeprimes", "--limit", "10", "--format", "json")
    assert json.loads(out)["primes"] == []


def test_lcp_with_bounds(capsys):
    code, out = run_cli(capsys, "lcp", "--p", "23", "--seed", "1", "--bounds")
    assert code == 0
    lines = data_lines(out)
    assert lines[0] == "N,L,bound_quadratic,bound_sqrt,bound_dickson"
    assert len(lines) == 11  # header + N = 1..10
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[1]) >= 0
        assert all(float(c) >= 0.0 for c in cells[2:])
    assert "# bounds_hold: true" in out


def test_lcp_json_reports_bounds(capsys):
    code, out = run_cli(capsys, "lcp", "--p", "23", "--seed", "1", "--bounds", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["bounds_hold"] is True
    assert payload["rows"][0]["N"] == 1


def test_lcp_default_seed(capsys):
    code, out = run_cli(capsys, "lcp", "--p", "17")
    assert code == 0
    assert "# seed: 3" in out


def test_lcp_bounds_need_iv_seed(capsys):
    code, _ = run_cli(capsys, "lcp", "--p", "23", "--seed", "5", "--bounds")
    assert code == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("seed", [-22, 1000])
def test_lcp_prints_the_seed_mod_p(capsys, seed, fmt):
    code, out = run_cli(capsys, "lcp", "--p", "23", "--seed", str(seed), "--format", fmt)
    assert (code, out) == run_cli(capsys, "lcp", "--p", "23", "--seed", str(seed % 23), "--format", fmt)
    assert f"# seed: {seed % 23}\n" in out if fmt == "csv" else json.loads(out)["seed"] == seed % 23
    assert main(["lcp", "--p", "0", "--seed", "3", "--format", fmt]) == 1
    assert capsys.readouterr().err == "quadorbit: error: 0 is not a prime > 3\n"


def test_sweep_small_and_deterministic(tmp_path, capsys):
    args = ["sweep", "--kind", "maximal", "--n-min", "3", "--n-max", "6"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    rows = data_lines(first.read_text())
    assert rows[0] == "bit_size,prime_class,primes_tested,pct_maximal,mean_cycles,mean_period_per_cycle,mean_period_per_seed"
    assert rows[1].startswith("3,3mod4,1,100.000000")
    assert len(rows) == 1 + 4 * 2


def test_sweep_census_kind(capsys):
    code, out = run_cli(capsys, "sweep", "--kind", "periods", "--n-min", "5", "--n-max", "6", "--class", "3mod4")
    assert code == 0
    rows = data_lines(out)
    for line in rows[1:]:
        cells = line.split(",")
        assert cells[1] == "3mod4"
        assert float(cells[4]) >= 1.0  # mean_cycles present


def test_sweep_samples_above_exhaustive_range(capsys):
    code, out = run_cli(
        capsys, "sweep", "--kind", "maximal", "--n-min", "25", "--n-max", "25", "--sample", "4", "--seed", "9"
    )
    assert code == 0
    rows = data_lines(out)
    assert len(rows) == 3
    for line in rows[1:]:
        cells = line.split(",")
        assert cells[2] == "4"
    code, out2 = run_cli(
        capsys, "sweep", "--kind", "maximal", "--n-min", "25", "--n-max", "25", "--sample", "4", "--seed", "9"
    )
    assert out2 == out


def test_sweep_budget_truncation(capsys):
    code, out = run_cli(
        capsys, "sweep", "--kind", "periods", "--n-min", "14", "--n-max", "18", "--budget-seconds", "0.0001"
    )
    assert code == 0
    assert "# truncated: budget exceeded" in out


def test_sweep_budget_cuts_a_cell_short(capsys):
    # A 22-bit periods cell takes seconds; the budget is checked inside it.
    argv = ["sweep", "--kind", "periods", "--n-min", "22", "--n-max", "22", "--budget-seconds", "0.5"]
    start = time.monotonic()
    code, out = run_cli(capsys, *argv)
    assert time.monotonic() - start < 3
    assert code == 0
    assert "# truncated: budget exceeded" in out
    assert data_lines(out)[1:] == []
    code, out = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["truncated"] is True and payload["rows"] == []


def test_sweep_budget_cuts_the_drawing_of_a_sampled_cell_short(capsys):
    # Drawing 20,000 81-bit primes takes 8-11 s; the budget is checked while the sampler draws them.
    argv = ["sweep", "--kind", "maximal", "--n-min", "81", "--n-max", "81", "--class", "3mod4", "--sample", "20000"]
    start = time.monotonic()
    code, out = run_cli(capsys, *argv, "--budget-seconds", "0.2")
    assert time.monotonic() - start < 3
    assert code == 0
    assert "# truncated: budget exceeded" in out
    assert data_lines(out)[1:] == []
    # A deadline that does not pass leaves the draws, and so the sampled bytes, as they are.
    assert _sampled_primes(40, 1, 16, 3, time.monotonic() + 60) == _sampled_primes(40, 1, 16, 3, None)


def _census_stats(p, want_census):
    """Per-prime sweep stats derived from census() and is_maximal_prime()."""
    maximal = is_maximal_prime(p).is_maximal
    if not want_census:
        return (maximal,)
    result = census(p)
    cycles, states = result.cycle_count(), result.state_count()
    return maximal, cycles, states / cycles, sum(r.cycles * r.period**2 for r in result.rows) / states


@pytest.mark.parametrize("want_census", [True, False], ids=["periods", "maximal"])
def test_cell_stats_match_census_and_maximality(want_census):
    primes = primes_up_to((1 << 18) - 1)
    for bits in range(3, 19):
        for residue in (3, 1):
            cell = [p for p in primes if p >> (bits - 1) == 1 and p % 4 == residue]
            assert _cell_stats(bits, residue, want_census, 1, 0, None) == [_census_stats(p, want_census) for p in cell]
    sampled = _sampled_primes(40, 1, 16, 3, None)
    assert _cell_stats(40, 1, want_census, 16, 3, None) == [_census_stats(p, want_census) for p in sampled]


def _brute_stats(p, want_census):
    """Per-prime sweep stats from the cycles brute_census walks: no census, no divisor table."""
    counts = brute_census(p)
    cycles = sum(counts.values())
    if not want_census:
        return (cycles == 1,)
    states = sum(count * period for period, count in counts.items())
    return cycles == 1, cycles, states / cycles, sum(count * period**2 for period, count in counts.items()) / states


@pytest.mark.parametrize("want_census", [True, False], ids=["periods", "maximal"])
def test_cell_stats_match_brute_census(want_census):
    primes = primes_up_to((1 << 12) - 1)
    for bits in range(3, 13):
        for residue in (3, 1):
            cell = [p for p in primes if p >> (bits - 1) == 1 and p % 4 == residue]
            assert _cell_stats(bits, residue, want_census, 1, 0, None) == [_brute_stats(p, want_census) for p in cell]


def test_sweep_json(capsys):
    code, out = run_cli(capsys, "sweep", "--kind", "maximal", "--n-min", "4", "--n-max", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["truncated"] is False
    assert [row["bit_size"] for row in payload["rows"]] == [4, 4]


def test_usage_error_exit_code():
    for kind in ("nonsense", "cycles"):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--kind", kind, "--n-min", "3", "--n-max", "4"])
        assert err.value.code == 1
    assert main(["sweep", "--kind", "maximal", "--n-min", "2", "--n-max", "4"]) == 1
    assert main(["sweep", "--kind", "maximal", "--n-min", "5", "--n-max", "4"]) == 1


def test_census_brute_mismatch_exits_2(capsys, monkeypatch):
    import quadorbit.cli as cli
    from collections import Counter

    monkeypatch.setattr(cli, "brute_census", lambda p: Counter({999: 1}))
    code, out = run_cli(capsys, "census", "--p", "23", "--brute")
    assert code == 2
    assert "# brute_match: false" in out


def test_orbit_predict_mismatch_exits_2(capsys, monkeypatch):
    import quadorbit.cli as cli
    from quadorbit.generator import OrbitPrediction

    monkeypatch.setattr(cli, "predict_orbit", lambda p, s, c: OrbitPrediction(7, 7))
    code, out = run_cli(capsys, "orbit", "--p", "23", "--seed", "1", "--predict")
    assert code == 2
    assert "match: False" in out


def test_lcp_bound_violation_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("quadorbit.lcp.bound_sqrt", lambda n, l_s: 10**6)
    code, out = run_cli(capsys, "lcp", "--p", "23", "--bounds")
    assert code == 3
    assert "# bounds_hold: false" in out


def test_lcp_rejects_nonpositive_n_max(capsys):
    for n_max in ("-3", "0"):
        assert main(["lcp", "--p", "23", "--seed", "1", "--n-max", n_max, "--bounds"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "n_max" in captured.err


def test_sweep_rejects_nonpositive_sample(capsys):
    args = ["sweep", "--kind", "maximal", "--n-min", "30", "--n-max", "30"]
    assert main(args + ["--sample", "-1"]) == 1
    assert main(args + ["--sample", "0"]) == 1
    assert "--sample" in capsys.readouterr().err


def test_sweep_refuses_sample_above_its_cap_before_sampling(capsys, monkeypatch):
    # The 25-bit classes, the smallest ones sampled, hold 492,882 primes
    # (1 mod 4) and 492,936 (3 mod 4), counted by sieve; asking for more
    # used to loop forever in the rejection sampler.
    assert SAMPLE_MAX < 492_882

    def never(*args):
        raise AssertionError("sampled before checking --sample")

    monkeypatch.setattr("quadorbit.cli._sampled_primes", never)
    args = ["sweep", "--kind", "maximal", "--n-min", "25", "--n-max", "25"]
    for sample in (SAMPLE_MAX + 1, 500_000):
        assert main(args + ["--sample", str(sample)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and str(SAMPLE_MAX) in captured.err


def _main_in_process(argv, traced=False):
    """Exit code of main(argv) run in this process with its output captured; an exception escaping main fails, and
    so does a run over 5 s or, traced, over a 4 MB tracemalloc peak.  Tracing triples the time of a small run."""
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with redirect_stdout(out), redirect_stderr(err):
        code, peak = _peak_bytes(argv) if traced else (main(argv), 0)
    assert time.monotonic() - start < 5 and peak < 1 << 22, argv
    assert code in (0, 1, 2, 3), argv
    # Output and success go together, and a refusal says why: no silent empty success, no half-written table.
    assert (code == 1) == (out.getvalue() == "") == err.getvalue().startswith("quadorbit: error: "), argv
    return code


@settings(max_examples=150, deadline=None)
@given(st.integers(-7, 60), st.booleans(), st.sampled_from(["csv", "json"]))
def test_census_argv_property(p, brute, fmt):
    # Composites and p <= 3 are refused; every prime from 5 on has a census that brute force confirms.
    accepted = p > 3 and p in primes_up_to(60)
    assert _main_in_process(["census", "--p", str(p), "--format", fmt] + ["--brute"] * brute) == (0 if accepted else 1)


SWEEP_BIT_EDGES = (2, 3, 4, 25, 26, SWEEP_MAX_BITS - 1, SWEEP_MAX_BITS, SWEEP_MAX_BITS + 1)
# Ranges a run may accept and finish at once: exhaustive cells of 3-4 bits, or sampled cells of 25-26 bits.
SMALL_SWEEP_RANGES = [(3, 3), (3, 4), (4, 4), (25, 25), (25, 26), (26, 26)]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["maximal", "periods"]),
    st.one_of(st.sampled_from(SMALL_SWEEP_RANGES), st.tuples(*[st.sampled_from(SWEEP_BIT_EDGES)] * 2)),
    st.sampled_from(["3mod4", "1mod4", "both"]),
    st.sampled_from([1, 4, 0, SAMPLE_MAX + 1]),
    st.one_of(st.sampled_from([None, "30"]), st.sampled_from(["0", "-1", "nan", "inf"])),
)
def test_sweep_argv_property(kind, bits, prime_class, sample, budget):
    n_min, n_max = bits
    accepted = 3 <= n_min <= n_max <= SWEEP_MAX_BITS and sample in (1, 4) and budget in (None, "30")
    assume(not accepted or bits in SMALL_SWEEP_RANGES)
    argv = ["sweep", "--kind", kind, "--n-min", str(n_min), "--n-max", str(n_max), "--class", prime_class]
    argv += ["--sample", str(sample)] + (["--budget-seconds", budget] if budget else [])
    assert _main_in_process(argv) == (0 if accepted else 1)


def _flag(name, values):
    """argv parts [name, value] for one of values; None leaves the flag out."""
    return st.sampled_from(values).map(lambda value: [] if value is None else [name, str(value)])


def _switch(name):
    return st.sampled_from([[], [name]])


def _command(name, *flags):
    return st.tuples(*flags).map(lambda parts: [name, *chain.from_iterable(parts)])


# The small grid: p at the edges of every refusal (negative, 0, 1, 2, 3, composites, squares) and small primes,
# seeds -1..4, zero and negative step counts and control parameters, the smallest profiles and safe-prime limits.
SMALL_P = _flag("--p", [-7, 0, 1, 2, 3, 4, 5, 7, 9, 13, 17, 23, 25])
SMALL_P_PRIMES = (5, 7, 13, 17, 23)
OTHER_COMMANDS_ARGV = st.one_of(
    _command(
        "orbit", SMALL_P, _flag("--seed", range(-1, 5)), _flag("--kind", ["logistic", "dickson2", "logistic-general"]),
        _switch("--predict"), _flag("--max-steps", [None, 0, -1]), _flag("--mu", [None, 0, 3]),
        _flag("--format", ["text", "csv", "json"]),
    ),
    _command("ivset", SMALL_P, _flag("--format", ["csv", "json"])),
    _command("fibers", SMALL_P, _flag("--format", ["csv", "json"])),
    _command(
        "lcp", SMALL_P, _flag("--seed", [None, *range(-1, 5)]), _flag("--n-max", [None, 0, 1, 100]),
        _switch("--bounds"), _flag("--format", ["csv", "json"]),
    ),
    _command(
        "safeprimes", _flag("--limit", [-5, 0, 10, 13]), _switch("--analogous"),
        _flag("--format", ["text", "csv", "json"]),
    ),
)


@settings(max_examples=400, deadline=None)
@given(OTHER_COMMANDS_ARGV)
def test_orbit_ivset_fibers_lcp_safeprimes_argv_property(argv):
    code = _main_in_process(argv, traced=True)
    if argv[0] in ("ivset", "fibers"):
        assert code == (0 if int(argv[2]) in SMALL_P_PRIMES else 1)
    elif argv[0] == "safeprimes":
        assert code == (0 if int(argv[2]) >= 0 else 1)


@pytest.mark.parametrize("budget", ["0", "-1", "nan", "inf"])
def test_sweep_rejects_budgets_that_are_not_positive_and_finite(capsys, monkeypatch, budget):
    # 0 used to run with no budget, nan never to stop, -1 to print an empty, truncated table.
    def never(*args, **kwargs):
        raise AssertionError("a cell ran before checking --budget-seconds")

    monkeypatch.setattr("quadorbit.cli._cell_stats", never)
    assert main(["sweep", "--kind", "maximal", "--n-min", "3", "--n-max", "4", "--budget-seconds", budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--budget-seconds must be positive and finite" in captured.err


def test_out_writes_file(tmp_path):
    target = tmp_path / "iv.csv"
    assert main(["ivset", "--p", "23", "--out", str(target)]) == 0
    assert "12" in target.read_text()


@pytest.mark.parametrize("argv", [["ivset", "--p", "23"], ["fibers", "--p", "17", "--format", "json"]])
def test_out_into_a_missing_directory_or_onto_a_directory_exits_1(tmp_path, argv):
    # Both used to end in a FileNotFoundError or IsADirectoryError traceback.
    for target in (tmp_path / "missing" / "x", tmp_path):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--out", str(target)])
        assert code == 1 and out.getvalue() == "", target
        assert err.getvalue().startswith("quadorbit: error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("count", [0, 1, EMIT_CHUNK - 1, EMIT_CHUNK, EMIT_CHUNK + 1, 2 * EMIT_CHUNK + 3])
def test_emit_writes_every_line_across_chunks(tmp_path, capsys, count):
    # Lines may come from a generator; no lines at all is one empty line.
    expected = "\n".join(map(str, range(count))) + "\n"
    _emit((str(i) for i in range(count)), None)
    assert capsys.readouterr().out == expected
    target = tmp_path / "lines.txt"
    _emit((str(i) for i in range(count)), str(target))
    assert target.read_text() == expected


# (count, key): the streamed key sorts first, in the middle or last among the head keys.  From 11 items on, fiber
# keys are out of string order, and 255-257 and 515 add three-digit keys.  The counts around EMIT_CHUNK cross
# _emit's write boundary with multi-line members; the key's place does not depend on the count, so they run once.
ITEM_CASES = [(count, key) for count in (0, 1, 2, 11, 255, 256, 257, 515) for key in ["a", "m", "z"]]
ITEM_CASES += [(count, "m") for count in (EMIT_CHUNK - 1, EMIT_CHUNK, EMIT_CHUNK + 1)]


def _head(key, empty):
    return {"b": 1, "k": "split", "y": 'quote " and \u00e9', "n": None, "t": True, key: empty}


def _emitted(capsys, lines):
    _emit(lines, None)
    return capsys.readouterr().out


@pytest.mark.parametrize("count, key", ITEM_CASES)
@pytest.mark.parametrize("rows_of", ["ints", "nested dicts"])
def test_json_writer_matches_json_dumps_for_lists(capsys, count, key, rows_of):
    if rows_of == "ints":
        rows = list(range(7, 7 + count))
    else:
        rows = [{"N": n, "L": [n, {"deep": [None, n / 3]}], "bound": -0.5, "ok": n % 2 == 0} for n in range(count)]
    expected = json.dumps({**_head(key, []), key: rows}, indent=2, sort_keys=True) + "\n"
    # The default item dumps each row whole, as census, lcp and sweep rows are.
    assert _emitted(capsys, _json(_head(key, []), key, iter(rows))) == expected
    if rows_of == "ints":
        # The template of ivset elements and safeprimes primes.
        assert _emitted(capsys, _json(_head(key, []), key, iter(rows), "    %d".__mod__)) == expected


@pytest.mark.parametrize("count, key", ITEM_CASES)
@pytest.mark.parametrize("norm_one", [False, True], ids=["split", "norm_one"])
def test_json_writer_matches_json_dumps_for_string_keyed_fibers(capsys, count, key, norm_one):
    # Keys 1..count in numeric order, as fiber_table yields them; from 10 on their string order differs.
    table = [(a, [a, 2 * a, 3 * a, 4 * a] * (2 if norm_one else 1)) for a in range(1, count + 1)]
    if count >= 10:
        assert sorted(str(a) for a, _ in table) != [str(a) for a, _ in table]
    fibers = {str(a): [f[i : i + 2] for i in range(0, 8, 2)] if norm_one else f for a, f in table}
    expected = json.dumps({**_head(key, {}), key: fibers}, indent=2, sort_keys=True) + "\n"
    member = FIBER_JSON[KIND_NORM_ONE if norm_one else KIND_SPLIT]
    rows = ((str(a), f) for a, f in table)
    assert _emitted(capsys, _json(_head(key, {}), key, rows, lambda row: member % (row[0], *row[1]))) == expected


JSON_REDUMP_PRIMES = [p for p in primes_up_to(2000) if p >= 5]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(JSON_REDUMP_PRIMES))
def test_json_output_is_its_own_canonical_dump(p):
    # Every table command's streamed JSON is byte for byte the json.dumps of what it parses to.
    commands = [["ivset"], ["fibers"], ["census"], ["census", "--brute"], ["lcp"], ["lcp", "--bounds"]]
    argvs = [[c[0], "--p", str(p), *c[1:]] for c in commands]
    argvs += [["safeprimes", "--limit", str(p)], ["safeprimes", "--limit", str(p), "--analogous"]]
    argvs.append(["sweep", "--kind", "maximal" if p % 4 == 3 else "periods", "--n-min", "3", "--n-max", str(3 + p % 8)])
    for argv in argvs:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main([*argv, "--format", "json"]) == 0, argv
        assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2, sort_keys=True) + "\n", argv


def test_fibers_json_keys_are_in_string_order(capsys):
    code, out = run_cli(capsys, "fibers", "--p", "17", "--format", "json")
    assert code == 0 and list(json.loads(out)["fibers"]) == ["12", "14", "3", "7"]


def test_fibers_json_peak_is_at_most_twice_the_csv_peak(tmp_path):
    # The whole-payload JSON took 3.75 times the CSV peak here (48.8 against 13.0 MB).
    peaks = {}
    for fmt in ("csv", "json"):
        code, peaks[fmt] = _peak_bytes(["fibers", "--p", "100829", "--format", fmt, "--out", str(tmp_path / fmt)])
        assert code == 0
    assert peaks["json"] <= 2 * peaks["csv"], peaks


def test_sweep_rejects_bit_sizes_beyond_proven_primality(capsys):
    from quadorbit.cli import SWEEP_MAX_BITS
    from quadorbit.numtheory import MR_PROVEN_LIMIT

    # Every SWEEP_MAX_BITS-bit prime is below the proven limit; the next size is not.
    assert SWEEP_MAX_BITS == 81
    assert 2**SWEEP_MAX_BITS <= MR_PROVEN_LIMIT < 2 ** (SWEEP_MAX_BITS + 1)
    for n_min, n_max in ((82, 82), (90, 90), (40, 82)):
        args = ["sweep", "--kind", "maximal", "--n-min", str(n_min), "--n-max", str(n_max), "--sample", "1"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "81 bits" in captured.err and str(MR_PROVEN_LIMIT) in captured.err


def _peak_bytes(argv):
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "argv,limit",
    [
        (["ivset", "--p", "16777259"], IV_SET_MAX_P),
        (["census", "--p", "16777259", "--brute"], BRUTE_CENSUS_MAX_P),
        (["fibers", "--p", "4194319"], FIBERS_MAX_P),
        (["fibers", "--p", "4194329"], FIBERS_MAX_P),
        (["ivset", "--p", "2305843009213693951"], IV_SET_MAX_P),
        (["fibers", "--p", "2305843009213693951"], FIBERS_MAX_P),
        (["census", "--p", "2305843009213693951", "--brute"], BRUTE_CENSUS_MAX_P),
    ],
)
def test_enumerators_refuse_p_above_their_limit(capsys, argv, limit):
    # The first primes above 2^24 and 2^22 (p = 3 and 1 mod 4 for fibers), and 2^61 - 1.
    assert limit in (1 << 24, 1 << 22)
    code, peak = _peak_bytes(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert str(limit) in captured.err and "`census`" in captured.err and "`orbit --predict`" in captured.err
    # The smallest table refused here (2^22 fiber roots) would take 16 MB; the
    # analytic census that `census --brute` runs first takes about 1 MB.
    assert peak < 4 << 20, "a table was allocated before the limit check"


@pytest.mark.parametrize("limit", [SAFEPRIMES_MAX_LIMIT + 1, 10**8 * 3, 10**12])
@pytest.mark.parametrize("flags", [[], ["--analogous"], ["--format", "json"]])
def test_safeprimes_refuses_limit_above_its_cap(capsys, limit, flags):
    # At 10^12 the sieve would need a terabyte; the check comes before it.
    code, peak = _peak_bytes(["safeprimes", "--limit", str(limit), *flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert str(SAFEPRIMES_MAX_LIMIT) in captured.err and str(limit) in captured.err
    assert peak < 4 << 20, "the sieve was allocated before the limit check"


@pytest.mark.parametrize("limit", [-1, -5, -(10**12)])
def test_safeprimes_rejects_negative_limits(capsys, limit):
    assert main(["safeprimes", "--limit", str(limit)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"quadorbit: error: --limit must be in 0..{SAFEPRIMES_MAX_LIMIT}, got {limit}\n"


@pytest.mark.parametrize("limit", range(11))
@pytest.mark.parametrize("flags", [[], ["--analogous"], ["--format", "json"]])
def test_safeprimes_small_limits_are_empty_successes(capsys, limit, flags):
    # Below 11 (13 with --analogous) there is no such prime: an empty list, not an error.
    code, out = run_cli(capsys, "safeprimes", "--limit", str(limit), *flags)
    assert code == 0
    assert json.loads(out)["primes"] == [] if "json" in flags else out == "\n"


@pytest.mark.parametrize(
    "argv",
    [
        # 61-bit periods near 10^15 and 10^16: the walk alone would exhaust memory.
        ["lcp", "--p", "2305843009213693921", "--seed", "7"],
        ["lcp", "--p", "2305843009213693907", "--seed", "3", "--n-max", "10", "--bounds"],
        # The IV cycle of the maximal prime 64007 has 16001 states.
        ["lcp", "--p", "64007", "--seed", "1", "--n-max", "10"],
        # A 5-state cycle, but more profile terms than the limit.
        ["lcp", "--p", "23", "--seed", "1", "--n-max", str(LCP_MAX_TERMS + 1)],
        # No --seed: the smallest initial-value element comes from Legendre symbols, not from the whole set
        # (about 4 s and 192 MB at 16777199, and refused with the enumeration limit above 2^24).
        ["lcp", "--p", "16777199"],
        ["lcp", "--p", "2305843009213693921"],
    ],
)
def test_lcp_refuses_orbits_and_profiles_above_its_limit(capsys, argv):
    start = time.perf_counter()
    code, peak = _peak_bytes(argv)
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert str(LCP_MAX_TERMS) in captured.err and "`census`" in captured.err and "`orbit --predict`" in captured.err
    assert peak < 4 << 20, "the orbit was walked before the limit check"


def test_lcp_default_seed_is_the_smallest_iv_element(capsys):
    for p in ("23", "17", "2305843009213693951"):
        seed = next(a for a in range(1, 100) if in_iv_set(a, int(p)))
        code, out = run_cli(capsys, "lcp", "--p", p)
        assert code == 0 and f"# seed: {seed}\n" in out
        assert run_cli(capsys, "lcp", "--p", p, "--seed", str(seed)) == (0, out)


def test_lcp_limit_follows_the_predicted_orbit_not_p(capsys):
    # Every orbit mod 2^61 - 1 has a period dividing 60, so lcp answers there.
    code, peak = _peak_bytes(["lcp", "--p", "2305843009213693951", "--seed", "1", "--bounds"])
    out = capsys.readouterr().out
    assert code == 0 and "# period: 60" in out and len(data_lines(out)) == 1 + 120
    assert peak < 4 << 20
    code, out = run_cli(capsys, "lcp", "--p", "23", "--seed", "1", "--n-max", str(LCP_MAX_TERMS))
    assert code == 0 and len(data_lines(out)) == 1 + LCP_MAX_TERMS


# Logistic seed 7 mod this 61-bit prime has period 758,404,304,617,860.
BIG_P = 2305843009213693921


def test_orbit_refuses_walks_above_its_limit(capsys):
    code, peak = _peak_bytes(["orbit", "--p", str(BIG_P), "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert str(ORBIT_MAX_STATES) in captured.err and "`orbit --predict`" in captured.err
    assert peak < 4 << 20, "the orbit was walked before the limit check"


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "7", "--format", "json"],
        ["--seed", "7", "--format", "text"],
        # Dickson seed 30 = 4 * 7 + 2 shadows logistic seed 7.
        ["--seed", "30", "--kind", "dickson2", "--format", "json"],
    ],
)
def test_orbit_predict_answers_analytically_above_the_limit(capsys, argv):
    start = time.perf_counter()
    code, peak = _peak_bytes(["orbit", "--p", str(BIG_P), "--predict", *argv])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0 and elapsed < 1.0 and peak < 4 << 20
    pred = predict_orbit(BIG_P, 7, "any")
    assert pred.period > ORBIT_MAX_STATES
    expected = {
        "p": BIG_P,
        "seed": int(argv[1]),
        "kind": "dickson2" if "dickson2" in argv else "logistic",
        "predicted_tail_length": pred.tail_length,
        "predicted_period": pred.period,
        "degenerate": pred.degenerate,
    }
    if "json" in argv:
        assert json.loads(out) == expected
    else:
        assert out.splitlines() == [f"{key}: {value}" for key, value in expected.items()]


def test_orbit_walks_short_orbits_of_large_primes(capsys):
    # Every orbit mod 2^61 - 1 has a period dividing 60.
    code, out = run_cli(capsys, "orbit", "--p", "2305843009213693951", "--seed", "1", "--predict")
    assert code == 0
    assert "period: 60" in out and "match: True" in out


def test_orbit_logistic_general_refuses_large_p_without_max_steps(capsys):
    argv = ["orbit", "--p", "2305843009213693921", "--seed", "7", "--kind", "logistic-general", "--mu", "3"]
    start = time.monotonic()
    assert main(argv) == 1
    assert time.monotonic() - start < 1
    assert "--max-steps" in capsys.readouterr().err


def test_orbit_walk_budget_is_capped_at_the_limit(capsys, monkeypatch):
    import quadorbit.cli as cli

    monkeypatch.setattr(cli, "ORBIT_MAX_STATES", 100)
    argv = ["orbit", "--p", "10007", "--seed", "5", "--kind", "logistic-general", "--mu", "3"]
    code, _ = run_cli(capsys, *argv)
    assert code == 1
    assert run_cli(capsys, *argv, "--max-steps", "10000")[0] == 1
    # --max-steps 0 is a budget of zero steps, not a missing budget.
    assert run_cli(capsys, "orbit", "--p", "23", "--seed", "1", "--max-steps", "0")[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--seed", "1"],
        ["ivset"],
        ["fibers"],
        ["census"],
        ["census", "--brute"],
        ["lcp"],
    ],
)
def test_p_commands_reject_unproven_primality(capsys, argv):
    mersenne_89 = str(2**89 - 1)
    argv = [argv[0], "--p", mersenne_89, *argv[1:]]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(MR_PROVEN_LIMIT) in captured.err


def test_census_of_a_61_bit_prime_still_runs(capsys):
    code, out = run_cli(capsys, "census", "--p", "2305843009213693951")
    assert code == 0
    assert "# p: 2305843009213693951" in out


def _run_python(*args, **kwargs):
    """A fresh interpreter on this checkout's src/, writing no bytecode."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


def test_cli_import_loads_no_pool_or_dataclass_machinery():
    # Nothing in the package imports concurrent.futures (with multiprocessing), and the records are NamedTuples,
    # so start-up pays for neither.
    heavy = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")
    code = f"import sys, quadorbit.cli; print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    out, err = _run_python("-S", "-c", code).communicate(timeout=60)
    assert (out, err) == (b"\n", b"")


def test_sweep_ignores_an_inherited_jobs_env(tmp_path, monkeypatch):
    # The benchmark harness still sets QUADORBIT_JOBS.  A sweep has one serial path: whatever the variable holds,
    # it writes the golden bytes and loads no pool machinery.
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--kind", "maximal", "--n-min", "3", "--n-max", "16", "--out", str(out)]
    code = f"import sys; from quadorbit.cli import main; print(main({argv!r}), 'concurrent.futures' in sys.modules)"
    for jobs in ("2", "abc"):
        out.unlink(missing_ok=True)
        monkeypatch.setenv("QUADORBIT_JOBS", jobs)
        assert _run_python("-S", "-c", code).communicate(timeout=60) == (b"0 False\n", b""), jobs
        golden = "5a9194eaaf54dd5d9c6e11343ad80ee7394fc1407ea5bef65bca045159d4303b"  # test_cli_goldens.GOLDENS
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden, jobs


def test_closed_pipe_exits_quietly_with_its_own_code():
    # ivset at p = 1000003 writes about 1.7 MB, far more than a pipe holds, so
    # a write after the reader closes the pipe always fails with EPIPE.
    proc = _run_python("-m", "quadorbit.cli", "ivset", "--p", "1000003")
    assert proc.stdout.readline().startswith(b"# quadorbit ")
    proc.stdout.close()
    assert proc.wait(timeout=60) == EXIT_PIPE == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
