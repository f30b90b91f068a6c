"""Square-root branch conventions used along the deformed contours."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poroseis.branch_math import branch_sqrt, kappa, kappa_below_cut

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(re=finite, im=finite)
def test_branch_sqrt_squares_back(re, im):
    w = complex(re, im)
    r = branch_sqrt(w)
    assert np.isclose(r * r, w, rtol=1e-12, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(re=finite, im=st.floats(1e-6, 1e6))
def test_branch_sqrt_upper_half_for_upper_argument(re, im):
    """Principal branch: arguments above the cut map to Im > 0."""
    r = branch_sqrt(complex(re, im))
    assert r.imag > 0.0
    assert r.real >= 0.0 or np.isclose(r.real, 0.0)


def test_branch_sqrt_on_negative_axis():
    """Values on the cut are taken from above: +i sqrt(|w|)."""
    assert branch_sqrt(-4.0 + 0.0j) == pytest.approx(2.0j)
    assert branch_sqrt(np.array([-9.0 + 0.0j]))[0] == pytest.approx(3.0j)


def test_branch_sqrt_positive_axis_real():
    assert branch_sqrt(16.0 + 0.0j) == pytest.approx(4.0)


def test_kappa_real_slowness(poro):
    v = poro.v_s
    q = 3e-4
    k = kappa(v, q, 0.0)
    assert k.imag == 0.0
    assert k.real == pytest.approx(np.sqrt(1.0 / v ** 2 + q ** 2))


def test_kappa_below_cut_signs():
    v = 1500.0
    qy = 1e-4
    tip = np.sqrt(1.0 / v ** 2 + qy ** 2)
    above = kappa_below_cut(v, 0.5 * tip, qy)
    assert above.imag == 0.0 and above.real > 0.0
    below = kappa_below_cut(v, 2.0 * tip, qy)
    assert below.real == 0.0 and below.imag < 0.0


def test_kappa_below_cut_matches_contour_limit():
    """The head-segment branch must continue the volume-contour values.

    Approaching the negative imaginary axis from Re(gamma) > 0 must give the
    same kappa as the dedicated below-cut evaluation.
    """
    v = 1500.0
    qy = 2e-4
    tip = np.sqrt(1.0 / v ** 2 + qy ** 2)
    for zeta in (1.3 * tip, 2.7 * tip, 9.0 * tip):
        gamma = 1e-10 - 1j * zeta
        from_contour = kappa(v, gamma, qy)
        direct = kappa_below_cut(v, zeta, qy)
        assert from_contour == pytest.approx(direct, rel=1e-5)
