import math

import pytest
from hypothesis import given, strategies as st

from parext.exponents import Exponents, validate_exponents


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
    "d,p", [(0, 2.0), (-1, 2.0), (1, 1.0), (1, 0.5), (2, -3.0), (1, 4.0)]
)
def test_invalid_inputs(d, p):
    # (1, 4.0) sits at the endpoint q = p, outside the q > p regime
    with pytest.raises(ValueError):
        validate_exponents(d, p)


def test_q_le_p_rejected_in_type():
    with pytest.raises(ValueError):
        Exponents(d=1, p=6.0, p_conj=1.2, q=3.6)


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
