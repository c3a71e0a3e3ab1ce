import numpy as np
import pytest

from mfgstop.costs import CostOperator
from mfgstop.grid import ScalarField, build_grid, coarsen


@pytest.fixture
def grid():
    return build_grid(1, (0.0, 1.0), 9)


def test_monotonicity_tags(grid):
    f0 = ScalarField.zeros(grid)
    w = ScalarField.constant(grid, 1.0)
    assert CostOperator.local_power(grid, 1.0, 1.0, f0).monotonicity == "strict_monotone"
    assert CostOperator.local_power(grid, -1.0, 1.0, f0).monotonicity == "anti_monotone"
    assert CostOperator.local_power(grid, 0.0, 1.0, f0).monotonicity == "neither"
    assert CostOperator.nonlocal_affine(grid, 1.0, -2.0, w).monotonicity == "anti_monotone"
    assert CostOperator.nonlocal_affine(grid, 1.0, 2.0, w).monotonicity == "strict_monotone"
    signed = ScalarField(grid, np.linspace(-1, 1, 9))
    assert CostOperator.nonlocal_affine(grid, 1.0, -2.0, signed).monotonicity == "neither"
    assert CostOperator.local_affine_shifted(grid, f0, f0).monotonicity == "strict_monotone"


def test_local_power_evaluation(grid):
    f0 = ScalarField.constant(grid, -0.5)
    cost = CostOperator.local_power(grid, 2.0, 2.0, f0)
    m = ScalarField.constant(grid, 0.5)
    assert np.allclose(cost(m).values, 2.0 * 0.25 - 0.5)


def test_nonlocal_affine_evaluation(grid):
    w = ScalarField.constant(grid, 1.0)
    cost = CostOperator.nonlocal_affine(grid, 1.0, -2.0, w)
    m = ScalarField.constant(grid, 1.0)
    pairing = 9 * grid.cell_volume
    assert np.allclose(cost(m).values, 1.0 - 2.0 * pairing)
    assert cost.zero_crossing() is None


def test_zero_crossing_and_shifted_level(grid):
    f0 = ScalarField(grid, np.linspace(-1.0, 1.0, 9))
    cost = CostOperator.local_power(grid, 2.0, 1.0, f0)
    m0 = cost.zero_crossing()
    f_at = cost.evaluate(m0)
    crossing = f0.values < 0
    assert np.allclose(f_at[crossing], 0.0, atol=1e-14)
    assert np.all(m0[~crossing] == 0.0)
    # the level 0.3 of f is the zero crossing of f - 0.3
    shifted = CostOperator.local_power(grid, 2.0, 1.0, ScalarField(grid, f0.values - 0.3))
    tau = shifted.zero_crossing()
    reach = 0.3 > f0.values
    assert np.allclose(cost.evaluate(tau)[reach], 0.3, atol=1e-14)
    assert np.all(tau[~reach] == 0.0)


def test_zero_crossing_power_two(grid):
    cost = CostOperator.local_power(grid, 1.0, 2.0, ScalarField.constant(grid, -0.25))
    m0 = cost.zero_crossing()
    assert np.allclose(m0, 0.5)


def test_affine_shifted_zero_crossing(grid):
    base = ScalarField(grid, np.linspace(0.0, 0.2, 9))
    m_ref = ScalarField.constant(grid, 0.1)
    cost = CostOperator.local_affine_shifted(grid, base, m_ref)
    m0 = cost.zero_crossing()
    assert np.allclose(m0, np.maximum(0.1 - base.values, 0.0))


def test_derivative(grid):
    cost = CostOperator.local_power(grid, 2.0, 3.0, ScalarField.zeros(grid))
    m = np.linspace(0.1, 1.0, 9)
    fd = (cost.evaluate(m + 1e-7) - cost.evaluate(m - 1e-7)) / 2e-7
    assert np.allclose(cost.derivative(m), fd, rtol=1e-6)
    w = ScalarField.constant(grid, 1.0)
    assert CostOperator.nonlocal_affine(grid, 0.0, 1.0, w).derivative(m) is None


def test_potential_finite_difference_consistency(grid):
    cost = CostOperator.local_power(grid, 1.5, 2.0, ScalarField.constant(grid, -0.3))
    pot = cost.potential()
    m = np.linspace(0.05, 0.8, 9)
    for delta in (1e-5, 1e-7):
        fd = (pot.evaluate(m + delta) - pot.evaluate(m)) / delta
        assert np.max(np.abs(fd - cost.evaluate(m))) <= 5 * delta + 1e-9
    assert cost.derivative(m) == pytest.approx(1.5 * 2.0 * m, rel=1e-12)


def test_nonlocal_has_no_potential(grid):
    w = ScalarField.constant(grid, 1.0)
    assert CostOperator.nonlocal_affine(grid, 0.0, 1.0, w).potential() is None


def test_exponent_below_one_rejected(grid):
    with pytest.raises(ValueError):
        CostOperator.local_power(grid, 1.0, 0.5, ScalarField.zeros(grid))


def test_nan_exponent_rejected(grid):
    # a NaN passes no comparison, so only p >= 1 is accepted
    with pytest.raises(ValueError, match="exponent p must be >= 1"):
        CostOperator.local_power(grid, 1.0, float("nan"), ScalarField.zeros(grid))


@pytest.mark.parametrize("a, p, name", [
    (float("nan"), 1.0, "coefficient a"), (float("inf"), 1.0, "coefficient a"),
    (-float("inf"), 2.0, "coefficient a"), (1.0, float("inf"), "exponent p")])
def test_local_power_rejects_non_finite_parameters(grid, a, p, name):
    # a NaN coefficient used to be accepted, tagged "neither", and made
    # every evaluation NaN
    with pytest.raises(ValueError, match=name):
        CostOperator.local_power(grid, a, p, ScalarField.zeros(grid))


@pytest.mark.parametrize("c0, c1, name", [
    (float("nan"), 1.0, "c0"), (float("inf"), 1.0, "c0"),
    (1.0, float("nan"), "c1"), (1.0, -float("inf"), "c1")])
def test_nonlocal_affine_rejects_non_finite_coefficients(grid, c0, c1, name):
    with pytest.raises(ValueError, match=f"coefficient {name} "):
        CostOperator.nonlocal_affine(grid, c0, c1, ScalarField.constant(grid, 1.0))


def test_restricted_cost_injects_every_field(grid):
    # each field parameter is taken to the coarse nodes; the scalars and
    # the kind stay, and so does the value at every coarse node
    coarse, restrict, _ = coarsen(grid)
    x = ScalarField(grid, np.linspace(0.1, 0.9, 9))
    costs = [CostOperator.local_power(grid, 2.0, 2.0, x),
             CostOperator.nonlocal_affine(grid, -0.5, 3.0, x),
             CostOperator.local_affine_shifted(grid, x, ScalarField(grid, x.values ** 2))]
    m = np.arange(9.0)
    for cost in costs:
        small = cost.restricted(coarse, restrict)
        assert small.grid == coarse and small.kind == cost.kind
        assert small.monotonicity == cost.monotonicity
        if cost.is_local:
            assert np.array_equal(small.evaluate(m[1::2]), cost.evaluate(m)[1::2])
        else:
            assert small.weight.values.tolist() == x.values[1::2].tolist()
            assert (small.c0, small.c1) == (cost.c0, cost.c1)
