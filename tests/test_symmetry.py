import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parext import symmetry
from parext.extension import ParaboloidShift
from parext.grids import (
    FrequencyGrid,
    SpacetimeGrid,
    gaussian_profile,
    lp_norm_frequency,
)
from parext.symmetry import (
    Symmetry,
    apply_symmetry_frequency,
    compose_symmetry,
    pushthrough_shift,
    verify_intertwining,
)

FG = FrequencyGrid(1, 6.0, 128)
ZERO = ParaboloidShift.zero(1)
STG_SMALL = SpacetimeGrid(1, 1.5, 2.0, 7, 9)


def random_symmetry(rng, d=1, lam_range=(0.125, 8.0), box=4.0):
    lam = float(np.exp(rng.uniform(np.log(lam_range[0]), np.log(lam_range[1]))))
    return Symmetry(
        lam,
        tuple(rng.uniform(-box, box, d)),
        float(rng.uniform(-box, box)),
        tuple(rng.uniform(-box, box, d)),
    )


def test_identity_action():
    f = gaussian_profile(FG, center=0.3)
    out = apply_symmetry_frequency(Symmetry(1.0, (0.0,), 0.0, (0.0,)), f, 2.0, ZERO)
    assert np.array_equal(out.samples, f.samples)
    assert out.grid == f.grid


def test_frequency_action_exact_isometry(rng):
    f = gaussian_profile(FG, center=0.4, width=1.2, chirp=0.3)
    for p in (2.0, 4.0):
        for _ in range(5):
            S = random_symmetry(rng)
            out = apply_symmetry_frequency(S, f, p, ZERO)
            assert lp_norm_frequency(out, p) == pytest.approx(
                lp_norm_frequency(f, p), rel=1e-12
            )


@given(
    lam=st.floats(0.1, 10.0),
    p=st.floats(1.0, 6.0),
)
@settings(max_examples=30, deadline=None)
def test_scaling_action_preserves_lp(lam, p):
    g = FrequencyGrid(1, 8.0, 128)
    f = gaussian_profile(g, width=1.3)
    fd = apply_symmetry_frequency(Symmetry(lam, (0.0,), 0.0, (0.0,)), f, p, ZERO)
    assert lp_norm_frequency(fd, p) == pytest.approx(lp_norm_frequency(f, p), rel=1e-12)
    assert fd.grid.half_width == pytest.approx(8.0 / lam)


def test_pushthrough_literal_values():
    # lambda = 2 acting on (tau0, xi0) = (1, 0): new shift (1/4, 0)
    S = Symmetry(2.0, (0.0,), 0.0, (0.0,))
    new = pushthrough_shift(S, ParaboloidShift(1.0, (0.0,)))
    assert new.tau0 == pytest.approx(0.25) and new.xi0 == (0.0,)
    # xi_tilde = 3 acting on (1, 2): (1 + 2*2*3, 2) = (13, 2)
    S = Symmetry(1.0, (3.0,), 0.0, (0.0,))
    new = pushthrough_shift(S, ParaboloidShift(1.0, (2.0,)))
    assert new.tau0 == pytest.approx(13.0) and new.xi0 == (2.0,)


def test_pushthrough_formula_property(rng):
    for _ in range(20):
        S = random_symmetry(rng)
        shift = ParaboloidShift(float(rng.uniform(-3, 3)), tuple(rng.uniform(-3, 3, 1)))
        new = pushthrough_shift(S, shift)
        xt = S.xi_tilde_vec()
        xi0 = shift.xi0_vec()
        assert new.tau0 == pytest.approx(
            (shift.tau0 + 2.0 * float(xi0 @ xt)) / S.lam**2, rel=1e-12, abs=1e-12
        )
        assert np.allclose(new.xi0_vec(), xi0 / S.lam, rtol=1e-12)


def test_compose_closure_with_phase(rng):
    f = gaussian_profile(FG, width=1.1, center=0.2)
    for _ in range(10):
        S1 = random_symmetry(rng, lam_range=(0.5, 2.0), box=2.0)
        S2 = random_symmetry(rng, lam_range=(0.5, 2.0), box=2.0)
        lhs = apply_symmetry_frequency(S1, apply_symmetry_frequency(S2, f, 2.0, ZERO), 2.0, ZERO)
        S12, phi = compose_symmetry(S1, S2)
        rhs = apply_symmetry_frequency(S12, f, 2.0, ZERO)
        assert lhs.grid.half_width == pytest.approx(rhs.grid.half_width, rel=1e-12)
        assert np.allclose(lhs.grid.center, rhs.grid.center, atol=1e-12)
        scale = np.max(np.abs(rhs.samples))
        assert np.max(np.abs(lhs.samples - np.exp(1j * phi) * rhs.samples)) < 1e-12 * scale


def test_compose_parameter_law():
    S1 = Symmetry(2.0, (1.0,), 0.5, (0.3,))
    S2 = Symmetry(0.5, (-2.0,), 1.0, (0.7,))
    S12, phi = compose_symmetry(S1, S2)
    assert S12.lam == pytest.approx(1.0)
    assert S12.xi_tilde[0] == pytest.approx(0.5 * 1.0 - 2.0)
    assert S12.t0 == pytest.approx(1.0 + 0.5 / 0.25)
    assert S12.x0[0] == pytest.approx(0.7 + 0.3 / 0.5 + 2.0 * 0.5 * (-2.0) / 0.25)
    assert phi == pytest.approx(0.5 * 4.0 / 0.25 + 0.3 * (-2.0) / 0.5)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Symmetry(0.0, (0.0,), 0.0, (0.0,)), "scaling parameter must be positive", id="lam"),
        pytest.param(lambda: Symmetry(1.0, (0.0, 1.0), 0.0, (0.0,)), "same dimension", id="x0-dimension"),
        # pushthrough_shift carried an infinite xi_tilde into an infinite tau0
        pytest.param(lambda: Symmetry(math.inf, (0.0,), 0.0, (0.0,)), "must be finite", id="lam-inf"),
        pytest.param(lambda: Symmetry(math.nan, (0.0,), 0.0, (0.0,)), "must be finite", id="lam-nan"),
        pytest.param(lambda: Symmetry(1.0, (math.inf,), 0.0, (0.0,)), "must be finite", id="xi_tilde-inf"),
        pytest.param(lambda: Symmetry(1.0, (0.0,), math.nan, (0.0,)), "must be finite", id="t0-nan"),
        pytest.param(lambda: Symmetry(1.0, (0.0, 0.0), 0.0, (0.0, -math.inf)), "must be finite", id="x0-inf"),
        pytest.param(
            lambda: apply_symmetry_frequency(Symmetry(1.0, (0.0, 0.0), 0.0, (0.0, 0.0)), gaussian_profile(FG), 2.0, ZERO),
            "symmetry dimension does not match", id="action-dimension",
        ),
        pytest.param(
            lambda: compose_symmetry(Symmetry(1.0, (0.0,), 0.0, (0.0,)), Symmetry(1.0, (0.0, 0.0), 0.0, (0.0, 0.0))),
            "dimension mismatch", id="compose-dimension",
        ),
    ],
)
def test_symmetry_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_intertwining_identity_symmetry(exponents_d1):
    f = gaussian_profile(FG)
    disc = verify_intertwining(
        Symmetry(1.0, (0.0,), 0.0, (0.0,)), f, ParaboloidShift(1.0, (1.0,)), exponents_d1, STG_SMALL
    )
    assert disc < 1e-13


def test_intertwining_example(exponents_d1):
    f = gaussian_profile(FG, width=0.9, center=0.3)
    S = Symmetry(2.0, (1.0,), 0.5, (0.3,))
    disc = verify_intertwining(S, f, ParaboloidShift(1.0, (1.0,)), exponents_d1, STG_SMALL)
    assert disc < 1e-4  # observed ~1e-13


def test_intertwining_random_box(exponents_d1, rng):
    f = gaussian_profile(FG)
    worst = 0.0
    for shift in (ParaboloidShift(0.0, (0.0,)), ParaboloidShift(1.0, (1.0,))):
        for _ in range(10):
            S = random_symmetry(rng)
            worst = max(worst, verify_intertwining(S, f, shift, exponents_d1, STG_SMALL))
    assert worst < 1e-4



@pytest.mark.parametrize("field", ["tau0", "xi0"])
def test_intertwining_catches_a_wrong_pushthrough(exponents_d1, monkeypatch, field):
    # the left side uses neither pushthrough_shift nor apply_symmetry_frequency,
    # so an error in the new shift shows as a discrepancy (unperturbed: ~3e-16)
    exact = pushthrough_shift

    def perturbed(S, shift):
        new = exact(S, shift)
        if field == "tau0":
            return ParaboloidShift(new.tau0 + 0.05, new.xi0)
        return ParaboloidShift(new.tau0, tuple(new.xi0_vec() + 0.05))

    monkeypatch.setattr(symmetry, "pushthrough_shift", perturbed)
    f = gaussian_profile(FG)
    S = Symmetry(2.0, (1.0,), 0.5, (0.3,))
    assert verify_intertwining(S, f, ParaboloidShift(1.0, (1.0,)), exponents_d1, STG_SMALL) > 1e-2
