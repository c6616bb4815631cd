import numpy as np
import pytest

from lorentzlab.expressions import (MAX_DEPTH, ExpressionError,
                                    compile_expression, evaluate,
                                    parse_expression, variables_used)


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
