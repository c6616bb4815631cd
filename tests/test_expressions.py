import numpy as np
import pytest

from lorentzlab.expressions import (MAX_DEPTH, ExpressionError,
                                    compile_expression, evaluate,
                                    parse_expression, variables_used)
from lorentzlab.lattice import Lattice, ScalarField


def ev(text, **env):
    _, fn = compile_expression(text)
    return fn(**{k: np.asarray(v, dtype=float) for k, v in env.items()})


def test_precedence():
    assert ev("1 + 2*3^2") == 19.0
    assert ev("2*3 + 4") == 10.0
    assert ev("8/2/2") == 2.0          # left associative
    assert ev("2 - 3 - 4") == -5.0


def test_power_right_associative():
    assert ev("2^3^2") == 512.0
    assert ev("(2^3)^2") == 64.0


def test_unary_minus_binds_below_power():
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("t^-2", t=2.0) == 0.25


def test_functions_and_variables():
    assert ev("sin(0)") == 0.0
    assert abs(ev("exp(1)") - np.e) < 1e-15
    assert abs(ev("sqrt(2)") - np.sqrt(2.0)) < 1e-15
    assert ev("tanh(0) + abs(-3)") == 3.0
    got = ev("t*x - y/z", t=2.0, x=3.0, y=8.0, z=4.0)
    assert got == 4.0


def test_vectorized_evaluation():
    t = np.linspace(-1, 1, 11)
    got = ev("t^2 + 1", t=t)
    assert np.allclose(got, t ** 2 + 1, atol=0)


def test_scientific_notation():
    assert ev("1e-3 + 2.5E2") == 0.001 + 250.0


@pytest.mark.parametrize("text, message, position", [
    ("1e", "trailing input 'e'", 1),
    ("1e+", "malformed number '1e+'", 0),
    ("1e+x", "malformed number '1e+'", 0),
    ("1.2.3", "malformed number '1.2.3'", 0),
    (".", "malformed number '.'", 0),
    ("1e5e3", "trailing input 'e3'", 3),
    ("3 $ 4", "unexpected character '$'", 2),
    ("t\u00b2", "unknown identifier 't\u00b2'", 0),
])
def test_scanner_errors_name_the_token_and_its_position(text, message,
                                                        position):
    # an exponent marker joins a number only before a sign or a digit
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert err.value.position == position
    assert str(err.value) == "%s (at position %d)" % (message, position)


@pytest.mark.parametrize("text, t, value", [
    ("1.e5", 0.0, 1e5),
    (".5e-1", 0.0, 0.05),
    ("2E+7*t", 1.0, 2e7),
    ("\u0663*t", 2.0, 6.0),      # ARABIC-INDIC DIGIT THREE is a decimal digit
])
def test_scanner_reads_numbers(text, t, value):
    assert ev(text, t=t) == value


def test_variables_used():
    ast = parse_expression("sin(t)*x + 3")
    assert variables_used(ast) == {"t", "x"}


def test_parse_error_positions():
    with pytest.raises(ExpressionError) as err:
        parse_expression("t + * 2")
    assert err.value.position == 4
    with pytest.raises(ExpressionError) as err:
        parse_expression("sin(t")
    assert "position" in str(err.value)


def test_unknown_identifier_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("foo(t)")
    with pytest.raises(ExpressionError):
        parse_expression("t + qq")


def test_function_arity_enforced():
    with pytest.raises(ExpressionError):
        parse_expression("sin(t, x)")


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("1 + 2 )")


def test_sqrt_of_negative_names_site():
    _, fn = compile_expression("sqrt(t)")
    with pytest.raises(ExpressionError) as err:
        fn(t=np.array([1.0, -4.0, 9.0]))
    assert "site 1" in str(err.value)


@pytest.mark.parametrize("text, site", [
    ("1/(t-8)", "division by zero at site 128 (8, 0)"),
    ("sqrt(7-t-x)", "sqrt of negative value at site 8 (0, 8)"),
    ("(10-t)^1.5", "non-integer power of negative value at site 176 (11, 0)"),
], ids=["division", "sqrt", "power"])
def test_errors_name_the_site_in_plain_integers(text, site):
    lat = Lattice(((0.0, 16.0), (0.0, 16.0)), (16, 16))
    with pytest.raises(ExpressionError) as err:
        ScalarField.from_expression(lat, text)
    assert str(err.value).endswith(site), str(err.value)


def test_a_scalar_argument_names_site_zero():
    _, fn = compile_expression("sqrt(t)")
    with pytest.raises(ExpressionError, match=r"at site 0 \(\)$"):
        fn(t=np.float64(-1.0))


def test_division_floor_guard():
    _, fn = compile_expression("1/t")
    with pytest.raises(ExpressionError):
        fn(t=np.array([1.0, 0.0]))


def test_negative_base_fractional_power_rejected():
    _, fn = compile_expression("t^0.5")
    with pytest.raises(ExpressionError):
        fn(t=np.asarray(-2.0))
    # integer powers of negative bases are fine
    assert ev("t^3", t=-2.0) == -8.0


@pytest.mark.parametrize("text", [
    "(" * 250 + "t" + ")" * 250,
    "+".join(["t"] * 1500),
    "^".join(["t"] * 600),
    "-" * 600 + "t",
    "sin(" * 250 + "t" + ")" * 250,
    "(" * (MAX_DEPTH + 1) + "t" + ")" * (MAX_DEPTH + 1),
    "+".join(["t"] * (MAX_DEPTH + 1)),
], ids=["parentheses-250", "sum-1500", "power-600", "minus-600", "calls-250",
        "parentheses-limit", "sum-limit"])
def test_deep_nesting_is_a_parse_error(text):
    # nesting past MAX_DEPTH; the first five would exhaust the stack of a
    # recursive parser or evaluator
    with pytest.raises(ExpressionError, match="deeper than %d" % MAX_DEPTH):
        parse_expression(text)


def test_nesting_up_to_the_limit_evaluates():
    assert ev("(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH, t=2.0) == 2.0
    assert ev("+".join(["t"] * MAX_DEPTH), t=1.0) == MAX_DEPTH
