"""Expression mini-language: parsing, evaluation, error positions."""

import math
import warnings

import numpy as np
import pytest

from massopt.errors import ExprError
from massopt.exprlang import Expression

T = ("var", "t")


def num(value):
    return ("num", float(value))


def test_precedence_and_power():
    e = Expression("1 + 2*t^2")
    assert e(t=3.0) == pytest.approx(19.0)
    assert e.ast == ("+", num(1), ("*", num(2), ("^", T, num(2))))
    # right-associative power
    assert Expression("2^3^2")(t=0.0) == pytest.approx(512.0)
    assert Expression("2^3^2").ast == ("^", num(2), ("^", num(3), num(2)))
    # power binds tighter than unary minus, on both of its sides
    assert Expression("-t^2").ast == ("neg", ("^", T, num(2)))
    assert Expression("t^-2").ast == ("^", T, ("neg", num(2)))
    # the other operators associate to the left
    assert Expression("t - 1 - 2").ast == ("-", ("-", T, num(1)), num(2))
    assert Expression("t/2*3").ast == ("*", ("/", T, num(2)), num(3))
    assert Expression("1e2 + .5 - 2.").ast == ("-", ("+", num(100), num(0.5)), num(2))


def test_unary_minus_and_parens():
    assert Expression("-(t - 1)*2")(t=3.0) == pytest.approx(-4.0)


def test_guard_expression():
    e = Expression("t^2/2 if t >= 1 else 2*t - 3/2")
    assert e(t=2.0) == pytest.approx(2.0)
    assert e(t=0.0) == pytest.approx(-1.5)
    vals = e(t=np.array([0.0, 1.0, 2.0]))
    assert vals == pytest.approx([-1.5, 0.5, 2.0])
    # guards nest in the else branch, and in parentheses anywhere
    assert Expression("t if t >= 2 else 1 if t >= 1 else 0").ast == (
        "guard", "t", 2.0, T, ("guard", "t", 1.0, num(1), num(0)))
    assert Expression("(t if t >= 1 else 0) * 2 if t >= 3 else 1").ast == (
        "guard", "t", 3.0, ("*", ("guard", "t", 1.0, T, num(0)), num(2)), num(1))


@pytest.mark.parametrize("text", [" t + 1", "\tt + 1", "\n t\n+\t1 \n", "t+1"],
                         ids=["space", "tab", "newlines", "none"])
def test_whitespace_is_skipped(text):
    assert Expression(text).ast == ("+", T, num(1))


def test_accepted_expression_prints_nothing(capsys):
    # Python warns about a literal run into a keyword ('2if'); the grammar does not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert Expression("2if t >= 1 else 0").ast == ("guard", "t", 1.0, num(2), num(0))
    assert caught == []
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text", [
    "t**2", "sin(t)", "t % 2", "t >= 1", "t if t > 1 else 0", "t if t >= -1 else 0",
    "t if y >= 1 else 0", "t if t >= (1) else 0", "t if (t >= 1) else 0", "0x10", "1_0", "2j",
    "True", "[t]", "t, t", "t # comment", "t if t >= 1else 0",
    # Python refuses an integer literal with a leading zero; the grammar did not
    "007",
])
def test_outside_the_grammar_is_refused(text):
    with pytest.raises(ExprError, match="position"):
        Expression(text)


def test_nesting_is_bounded():
    assert Expression("+".join(["t"] * 200))(t=1.0) == 200.0
    # one level too deep for the tree, and too deep for Python's parser
    for text in ["+".join(["t"] * 201), "^".join(["t"] * 3000)]:
        with pytest.raises(ExprError, match="nest"):
            Expression(text)


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
    with pytest.raises(ExprError, match="unknown variable 'y' at position 4"):
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
