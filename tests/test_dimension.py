import math

import pytest

import bowendim.dimension as dimension_mod
from bowendim import MapParams, bowen_dimension, pressure, zeta_pressure
from bowendim.errors import AccuracyNotReached, NoBracket, NumericsError
from bowendim.sweep import expansion_constants
from bowendim.transfer import PressureEstimate


def press(params, t, attempts=2):
    try:
        return pressure(params, t, 5e-3, max_attempts=attempts)
    except AccuracyNotReached as exc:
        return exc.estimate


@pytest.fixture(scope="module")
def p_table(params22):
    return {t: press(params22, t) for t in (1.3, 1.5, 1.7, 2.0)}


@pytest.fixture(scope="module")
def dim22(params22):
    return bowen_dimension(params22, accuracy=5e-3)


def test_pressure_values_strictly_decreasing(p_table):
    vals = [p_table[t].value for t in (1.3, 1.5, 1.7, 2.0)]
    assert vals[0] > vals[1] > vals[2] > vals[3]


def test_pressure_decreasing_beyond_uncertainty_where_certifiable(p_table):
    # the right flank certifies; near t -> 1 the tail bounds blow up and the
    # comparison is only at value level (see the acceptance suite)
    a, b = p_table[1.5], p_table[2.0]
    assert a.value - b.value > a.uncertainty + b.uncertainty


def test_pressure_convexity_sampled(p_table):
    lhs = p_table[1.3].value + p_table[1.7].value - 2 * p_table[1.5].value
    slack = 2 * sum(p_table[t].uncertainty for t in (1.3, 1.5, 1.7))
    assert lhs >= -slack


def test_pressure_slope_bounded_by_log_beta(params22, p_table):
    est = expansion_constants(params22, 0.05, 30, 8)
    slope = (p_table[1.7].value - p_table[1.5].value) / 0.2
    assert est.beta < 1
    assert slope <= math.log(est.beta) < 0


@pytest.mark.parametrize("accuracy", [math.nan, math.inf])
def test_accuracy_must_be_finite(params22, accuracy):
    with pytest.raises(ValueError, match="accuracy"):
        bowen_dimension(params22, accuracy)
    with pytest.raises(ValueError, match="accuracy"):
        pressure(params22, 1.5, accuracy, max_attempts=1)


def test_pressure_validates_inputs(params22):
    with pytest.raises(ValueError):
        pressure(params22, 0.9, 1e-2)
    with pytest.raises(ValueError):
        pressure(params22, 1.5, -1.0)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget"):
            pressure(params22, 1.5, 0.1, budget=budget)
    # no attempt leaves no estimate, a negative count would slice the
    # schedule from its end, and a count that is no integer cannot slice it
    for attempts in (0, -4, 1.5, 2.0):
        with pytest.raises(ValueError, match="max_attempts"):
            pressure(params22, 1.5, 0.1, max_attempts=attempts)


@pytest.mark.parametrize("attempts", [0, -4, 1.5, 2.0])
def test_bowen_dimension_needs_an_attempt(params22, attempts):
    with pytest.raises(ValueError, match="max_attempts"):
        bowen_dimension(params22, 0.1, max_attempts=attempts)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_pressure_is_a_numerical_failure(monkeypatch, bad):
    # a pressure that changes sign between 1.4 and 1.7 on the scan grid and
    # is not finite at the first bisection point: that must not move the
    # bracket as a sign would
    def fake(params, t, z, n, K, prune, budget, *, store=None):
        value = 1.46 - t if t in (1.05, 1.2, 1.4, 1.7) else bad
        return PressureEstimate(t, value, 1.0, n, K, prune)

    monkeypatch.setattr(dimension_mod, "best_ratio_estimate", fake)
    with pytest.raises(NumericsError, match=r"t=1\.55") as e:
        bowen_dimension(MapParams(2, 2.0), accuracy=1e-3)
    assert not isinstance(e.value, NoBracket)
    assert [t for t, _, _ in e.value.trace] == [1.05, 1.2, 1.4, 1.7,
                                                0.5 * (1.4 + 1.7)]


def test_accuracy_not_reached_carries_estimate(params22):
    with pytest.raises(AccuracyNotReached) as e:
        pressure(params22, 1.5, 1e-9, max_attempts=1)
    assert math.isfinite(e.value.estimate.value)


def test_bowen_zero_in_expected_range(dim22):
    assert 1.0 < dim22.t_star < 2.0
    lo, hi = dim22.bracket
    assert 1.0 < lo < dim22.t_star < hi
    assert hi - lo < 5e-3
    assert dim22.diagnostics["in_expected_range"] == 1.0


def test_bowen_residual_contract(params22, dim22):
    est = press(params22, dim22.t_star)
    slope = dim22.diagnostics["slope"]
    assert abs(est.value) <= est.uncertainty + slope * 5e-3


def test_bowen_bracket_sign_consistency(params22, dim22):
    lo, hi = dim22.bracket
    assert press(params22, lo).value > 0
    assert press(params22, hi).value < 0


def test_bowen_determinism(params22):
    a = bowen_dimension(params22, accuracy=0.05, max_attempts=1)
    b = bowen_dimension(params22, accuracy=0.05, max_attempts=1)
    assert a.t_star == b.t_star
    assert a.bracket == b.bracket
    assert a.uncertainty == b.uncertainty
    assert a.evaluations == b.evaluations


def test_bowen_evaluation_budget(params22):
    rec = bowen_dimension(params22, accuracy=0.05, max_attempts=1)
    width0 = 2.5 - 1.05
    bound = len((1.05, 1.2, 1.4, 1.7, 2.0, 2.5)) + 1 \
        + math.ceil(math.log2(width0 / 0.05)) + 4
    assert rec.evaluations <= bound


def test_cross_method_no_certified_sign_flip(params22, dim22):
    lo, hi = dim22.bracket
    for t in (lo, hi):
        r = press(params22, t)
        z = zeta_pressure(params22, t, 3, 15)
        r_sign = 1 if r.certified_positive else (-1 if r.certified_negative else 0)
        z_sign = 1 if z.certified_positive else (-1 if z.certified_negative else 0)
        if r_sign and z_sign:
            assert r_sign == z_sign
