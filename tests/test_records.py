"""The result records: NamedTuples, immutable, with the reprs they had as dataclasses.

Fp2Element is the exception: an immutable slots class, so that it keeps only
the arithmetic of an extension-field element and none of a tuple's.
"""

import pickle

import pytest

from quadorbit.cli import SweepRow
from quadorbit.diagram import census, is_maximal_prime
from quadorbit.errors import DomainError, InvalidFieldError
from quadorbit.generator import KIND_LOGISTIC, GeneratorSpec, orbit, predict_orbit
from quadorbit.ivsets import build_iv_set
from quadorbit.lcp import BoundViolation, profile_for_seed, verify_profile_bounds
from quadorbit.numtheory import fp2_context


def _records():
    spec = GeneratorSpec(KIND_LOGISTIC, 23, 30)
    return {
        "CensusRow": census(23).rows[0],
        "CycleCensus": census(23),
        "MaximalityReport": is_maximal_prime(23),
        "GeneratorSpec": spec,
        "OrbitReport": orbit(spec),
        "OrbitPrediction": predict_orbit(23, 2),
        "IvSet": build_iv_set(23),
        "LcpProfile": profile_for_seed(23, 1),
        "BoundViolation": BoundViolation(n=1, observed=0, bound=0.5, kind="sqrt"),
        "BoundCheckReport": verify_profile_bounds(23, 1),
        "Fp2Element": fp2_context(7).elem(2, 3),
        "Fp2Context": fp2_context(7),
        "SweepRow": SweepRow(3, "3mod4", 1, 100.0, None, None, None),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_records_are_immutable(name):
    record = _records()[name]
    assert type(record).__name__ == name
    field = "c0" if name == "Fp2Element" else record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_reprs_match_the_dataclass_reprs():
    # Captured from the dataclass records, before they became NamedTuples.
    assert repr(predict_orbit(23, 2)) == "OrbitPrediction(tail_length=0, period=5, degenerate=False)"
    assert repr(census(23).rows[0]) == (
        "CensusRow(divisor=11, order_of_2=10, totient=10, cycles=1, period=5, minus_one_reachable=True)"
    )
    assert repr(GeneratorSpec("logistic", 23, 30)) == "GeneratorSpec(kind='logistic', p=23, seed=7, mu=None)"
    assert repr(fp2_context(7).elem(2, 3)) == "(2+3a mod 7)"
    assert repr(fp2_context(7)) == "Fp2Context(p=7, non_residue=3)"


def test_generator_spec_validates_and_reduces_the_seed_on_every_route():
    spec = GeneratorSpec(KIND_LOGISTIC, 23, 30)
    assert spec.seed == 7
    assert spec._replace(seed=-1).seed == 22
    assert GeneratorSpec._make(["dickson2", 3, 5]).seed == 2
    assert pickle.loads(pickle.dumps(spec)) == spec
    with pytest.raises(InvalidFieldError):
        spec._replace(p=25)
    with pytest.raises(DomainError):
        spec._replace(kind="florp")
    with pytest.raises(DomainError):
        GeneratorSpec("logistic_general", 23, 1, mu=46)


def test_fp2_element_has_field_arithmetic_only():
    ctx = fp2_context(7)
    e = ctx.elem(2, 3)
    assert e == ctx.elem(9, -4) and hash(e) == hash(ctx.elem(9, -4))
    assert e != ctx.elem(2, 4) and e != (2, 3, ctx)
    assert e * e.inverse() == ctx.elem(1)
    for operation in (lambda: e + e, lambda: 3 * e, lambda: e < e, lambda: len(e), lambda: e[0], lambda: list(e)):
        with pytest.raises(TypeError):
            operation()
