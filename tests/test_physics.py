import itertools

import numpy as np
import pytest

from nlch_control import (GridSpec, KernelSpec, ModelParams, build_kernel,
                          ellipticity_margin, require_ellipticity)
from nlch_control.errors import HypothesisViolationError
from nlch_control.physics import (DistributionSpec, PotentialSpec,
                                  ProliferationSpec, rates_with_slopes)


@pytest.fixture
def potential():
    return PotentialSpec()


@pytest.fixture
def prolif():
    return ProliferationSpec()


def central_diff(fn, s, h=1e-5):
    return (fn(s + h) - fn(s - h)) / (2.0 * h)


def slopes(s, proliferation="smoothed_ramp", distribution="same_as_p"):
    """(P', h') at s, formed where the scheme forms them."""
    params = ModelParams(A=1.0, B=1.0, proliferation=ProliferationSpec(proliferation),
                         distribution=DistributionSpec(distribution))
    _, prolif_d, _, distrib_d = rates_with_slopes(params, np.asarray(s, dtype=float))
    return prolif_d, distrib_d


def test_potential_values(potential):
    assert potential.evaluate(0.0, 0) == pytest.approx(0.25)
    assert potential.evaluate(1.0, 1) == 0.0
    assert potential.evaluate(-1.0, 1) == 0.0
    assert potential.evaluate(2.0, 2) == pytest.approx(11.0)


def test_potential_derivative_consistency(potential):
    for order in (0, 1):
        for s in np.linspace(-2.0, 2.0, 17):
            fd = central_diff(lambda t: potential.evaluate(t, order), s)
            exact = potential.evaluate(s, order + 1)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)


def test_potential_rejects_order(potential):
    with pytest.raises(ValueError):
        potential.evaluate(0.0, 3)


def test_proliferation_values(prolif):
    assert prolif.evaluate(0.0) == pytest.approx(0.5)
    assert prolif.evaluate(-2.0) == 0.0
    assert prolif.evaluate(3.0) == 1.0
    assert slopes(0.0)[0] == pytest.approx(15.0 / 16.0)


def test_proliferation_range_and_monotone(prolif):
    s = np.linspace(-3.0, 3.0, 601)
    p = prolif.evaluate(s)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)
    assert np.all(np.diff(p) >= -1e-14)
    assert np.all(slopes(s)[0] >= -1e-14)


def test_proliferation_c2_seams(prolif):
    # the derivative vanishes at the band edges
    for s in (-1.0, 1.0):
        assert slopes(s)[0] == 0.0
    # one-sided second differences (second-order stencil) agree across each seam
    h = 1e-4

    def one_sided_second(at, direction):
        f = [prolif.evaluate(at + direction * k * h) for k in range(4)]
        return (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h ** 2

    for seam in (-1.0, 1.0):
        left = one_sided_second(seam, -1.0)
        right = one_sided_second(seam, +1.0)
        assert abs(left - right) < 1e-6


def test_proliferation_derivative_consistency(prolif):
    for s in np.linspace(-1.5, 1.5, 25):
        fd = central_diff(prolif.evaluate, s, h=1e-6)
        assert fd == pytest.approx(slopes(s)[0], rel=2e-5, abs=2e-5)


def test_constant_zero_proliferation():
    p = ProliferationSpec("constant_zero")
    s = np.linspace(-2, 2, 9)
    assert np.all(p.evaluate(s) == 0.0)
    assert np.all(slopes(s, proliferation="constant_zero")[0] == 0.0)


def test_distribution_families():
    same = DistributionSpec("same_as_p")
    ramp = ProliferationSpec("smoothed_ramp")
    s = np.linspace(-2, 2, 9)
    assert np.allclose(same.evaluate(s), ramp.evaluate(s))
    one = DistributionSpec("constant_one")
    assert np.all(one.evaluate(s) == 1.0)
    assert np.all(slopes(s, distribution="constant_one")[1] == 0.0)


def test_model_params_invariants():
    with pytest.raises(HypothesisViolationError):
        ModelParams(A=0.0, B=1.0)
    with pytest.raises(HypothesisViolationError):
        ModelParams(A=1.0, B=-1.0)
    with pytest.raises(HypothesisViolationError):
        ModelParams(A=1.0, B=1.0, chi=-0.1)
    with pytest.raises(HypothesisViolationError):
        ModelParams(A=1.0, B=1.0, lambda_s=-1.0)


@pytest.mark.parametrize("name,value", [
    ("A", np.inf), ("B", np.inf), ("chi", np.nan), ("lambda_s", np.nan), ("lambda_s", np.inf),
])
def test_model_params_rejects_nonfinite(name, value):
    # NaN passes the sign checks, and an infinite coefficient would surface
    # only later, as a non-finite margin or implicit diagonal
    with pytest.raises(HypothesisViolationError, match=f"{name} must be finite, got {value}"):
        ModelParams(**{"A": 1.0, "B": 1.0, name: value})


def test_ellipticity_margin_formula():
    grid = GridSpec((32,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    min_a = float(np.min(kernel.a))
    # choose B so B*min(a) = 1.5 exactly to float precision
    b = 1.5 / min_a
    params = ModelParams(A=1.0, B=b, chi=0.0)
    assert ellipticity_margin(params, kernel) == pytest.approx(0.5, rel=1e-12)
    require_ellipticity(params, kernel)  # accepted

    # chi = 0.8: margin 0.5 < 0.64, rejected
    params_chi = ModelParams(A=1.0, B=b, chi=0.8)
    assert ellipticity_margin(params_chi, kernel) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(HypothesisViolationError, match="c0 = 0.5 <= chi"):
        require_ellipticity(params_chi, kernel)


def test_ellipticity_margin_degenerate_nonlocal_weight():
    # vanishing B contribution leaves the raw double-well minimum -A
    grid = GridSpec((32,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    params = ModelParams(A=1.0, B=1e-300, chi=0.0)
    assert ellipticity_margin(params, kernel) == pytest.approx(-1.0)
    with pytest.raises(HypothesisViolationError):
        require_ellipticity(params, kernel)


def test_margin_linear_in_nonlocal_weight():
    grid = GridSpec((32,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    min_a = float(np.min(kernel.a))
    m1 = ellipticity_margin(ModelParams(A=1.0, B=1.0), kernel)
    m2 = ellipticity_margin(ModelParams(A=1.0, B=2.0), kernel)
    assert m2 - m1 == pytest.approx(min_a, rel=1e-12)


@pytest.mark.parametrize("proliferation, distribution", itertools.product(
    ("smoothed_ramp", "constant_zero"), ("same_as_p", "constant_one")))
def test_rates_with_slopes_are_the_evaluations(proliferation, distribution):
    # one clip per ramp gives the bits of evaluate(s) and of the ramp's slope
    # at t = np.clip((s + 1) / 2, 0, 1), at the seams and in the clamped
    # regions too
    from nlch_control.physics import _ramp_slope

    params = ModelParams(A=1.0, B=1.0, proliferation=ProliferationSpec(proliferation),
                         distribution=DistributionSpec(distribution))
    s = np.concatenate([np.linspace(-1.5, 1.5, 61), [-1.0, 0.0, 1.0, -0.0, 1e-17]]).reshape(3, -1)
    ramp_slope = _ramp_slope(s, np.clip((s + 1.0) * 0.5, 0.0, 1.0))
    flat = np.zeros_like(s)
    expected = [params.proliferation.evaluate(s),
                flat if proliferation == "constant_zero" else ramp_slope,
                params.distribution.evaluate(s),
                flat if distribution == "constant_one" else ramp_slope]
    for got, want in zip(rates_with_slopes(params, s), expected, strict=True):
        assert got.shape == s.shape and got.tobytes() == want.tobytes()
