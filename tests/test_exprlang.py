"""Expression mini-language: parsing, evaluation, error positions."""

import math

import numpy as np
import pytest

from massopt.errors import ExprError
from massopt.exprlang import Expression


def test_precedence_and_power():
    e = Expression("1 + 2*t^2")
    assert e(t=3.0) == pytest.approx(19.0)
    # right-associative power
    assert Expression("2^3^2")(t=0.0) == pytest.approx(512.0)


def test_unary_minus_and_parens():
    assert Expression("-(t - 1)*2")(t=3.0) == pytest.approx(-4.0)


def test_guard_expression():
    e = Expression("t^2/2 if t >= 1 else 2*t - 3/2")
    assert e(t=2.0) == pytest.approx(2.0)
    assert e(t=0.0) == pytest.approx(-1.5)
    vals = e(t=np.array([0.0, 1.0, 2.0]))
    assert vals == pytest.approx([-1.5, 0.5, 2.0])


def test_inf_token():
    assert Expression("inf")(t=0.0) == math.inf


def test_reciprocal_at_zero_is_inf():
    assert Expression("t + 1/t")(t=0.0) == math.inf


def test_division_by_zero_off_edge_raises():
    with pytest.raises(ExprError):
        Expression("1/(t-1)")(t=1.0)


def test_parse_error_reports_position():
    with pytest.raises(ExprError, match="position 4"):
        Expression("t + * 2")


def test_unknown_variable_rejected():
    with pytest.raises(ExprError, match="unknown variable"):
        Expression("t + y")


def test_multiple_variables():
    e = Expression("x^2 + y", variables=("x", "y"))
    assert e(x=2.0, y=1.0) == pytest.approx(5.0)
    out = e(x=np.array([0.0, 1.0]), y=np.array([1.0, 1.0]))
    assert out == pytest.approx([1.0, 2.0])


def test_missing_variable_value():
    e = Expression("x + 1", variables=("x",))
    with pytest.raises(ExprError, match="missing value"):
        e()


def test_vectorized_evaluation():
    e = Expression("t^2/2")
    t = np.linspace(0, 4, 9)
    assert np.allclose(e(t=t), t * t / 2)


def test_forward_derivative():
    # the >= branch at a guard's cut gives the right derivative there
    e = Expression("t^2/2 if t >= 1 else 2*t - 3/2")
    value, slope = e.derivative("t", t=np.array([0.5, 1.0, 2.0]))
    assert value == pytest.approx([-0.5, 0.5, 2.0])
    assert slope == pytest.approx([2.0, 1.0, 2.0])
    value, slope = Expression("2^t + t/(1 + t) - (3*t)^0.5").derivative("t", t=3.0)
    assert value == pytest.approx(8.0 + 0.75 - 3.0)
    assert slope == pytest.approx(8.0 * math.log(2.0) + 1.0 / 16.0 - 0.5)
    assert Expression("t + 1/t").derivative("t", t=0.0) == (math.inf, -math.inf)
