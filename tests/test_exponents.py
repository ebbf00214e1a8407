import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from parext.exponents import Exponents, validate_exponents
from parext.extension import ExtensionOperator, ParaboloidShift
from parext.grids import FrequencyGrid, SpacetimeGrid, gaussian_profile
from parext.norms import quotient_pair, quotient_single
from parext.search import maximize_quotient_pair
from parext.sequences import convergence_study, shifted_limit_test, weak_limit_diagnostics
from parext.symmetry import Symmetry, verify_intertwining


def test_d1_p2():
    e = validate_exponents(1, 2.0)
    assert e.p_conj == 2.0
    assert e.q == 6.0


def test_d2_p2():
    e = validate_exponents(2, 2.0)
    assert e.q == 4.0


def test_p3_d1():
    e = validate_exponents(1, 3.0)
    assert math.isclose(e.p_conj, 1.5)
    assert math.isclose(e.q, 4.5)


@pytest.mark.parametrize(
    "d,p",
    [
        (0, 2.0), (-1, 2.0), (1, 1.0), (1, 0.5), (2, -3.0), (1, 4.0), (1, math.nan), (1, math.inf), (math.inf, 2.0),
        (True, 2.0), (1.5, 2.0), ("1", 2.0),
    ],
)
def test_invalid_inputs(d, p):
    # (1, 4.0) sits at the endpoint q = p, outside the q > p regime; a p of
    # nan or inf made q nan; a bool d was read as 1
    with pytest.raises(ValueError):
        validate_exponents(d, p)


def test_q_le_p_rejected_in_type():
    with pytest.raises(ValueError):
        Exponents(d=1, p=6.0)


def test_exponents_derive_p_conj_and_q_from_d_and_p():
    assert [f.name for f in dataclasses.fields(Exponents) if f.init] == ["d", "p"]
    assert Exponents(2, 2.0) == validate_exponents(2, 2.0)
    with pytest.raises(TypeError):
        Exponents(1, 2.0, 2.0, 6.0)


@given(st.integers(1, 6), st.floats(1.01, 50.0))
def test_scaling_relation(d, p):
    if p >= (2.0 * d + 2.0) / d:  # at or past the endpoint q <= p
        with pytest.raises(ValueError):
            validate_exponents(d, p)
        return
    e = validate_exponents(d, p)
    assert math.isclose(1.0 / e.p + 1.0 / e.p_conj, 1.0, rel_tol=1e-12)
    assert math.isclose(e.q, (d + 2) * e.p_conj / d, rel_tol=1e-12)
    assert e.q > e.p


# -- exponents of another dimension than the grid -------------------------------

FG1 = FrequencyGrid(1, 10.0, 256)
STG1 = SpacetimeGrid(1, 5.0, 15.0, 81, 129)
SHIFT1 = ParaboloidShift(0.5, (1.0,))


@pytest.mark.parametrize(
    "p, call",
    [
        pytest.param(1.5, lambda f, e: quotient_single(f, e, STG1), id="quotient_single"),
        pytest.param(1.5, lambda f, e: quotient_pair(f, f, SHIFT1, e, STG1), id="quotient_pair"),
        pytest.param(1.5, lambda f, e: weak_limit_diagnostics(f, f, SHIFT1, e, STG1, 2.0), id="weak_limit_diagnostics"),
        pytest.param(1.5, lambda f, e: convergence_study(f, SHIFT1, [1.0, 0.5], e, STG1), id="convergence_study"),
        pytest.param(1.5, lambda f, e: shifted_limit_test(f, SHIFT1, [SHIFT1], e, STG1), id="shifted_limit_test"),
        pytest.param(2.0, lambda f, e: maximize_quotient_pair(f, f, SHIFT1, e, STG1), id="maximize_quotient_pair"),
        pytest.param(
            1.5, lambda f, e: verify_intertwining(Symmetry(1.0, (0.0,), 0.1, (0.2,)), f, SHIFT1, e, STG1),
            id="verify_intertwining",
        ),
    ],
)
def test_exponents_of_another_dimension_refuse_before_extending(p, call, monkeypatch):
    # the d = 2 exponents on a d = 1 grid read a q that belongs to neither
    def build_nothing(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(ExtensionOperator, "__init__", build_nothing)
    with pytest.raises(ValueError, match="exponents of dimension 2 on a 1-d grid"):
        call(gaussian_profile(FG1), validate_exponents(2, p))
