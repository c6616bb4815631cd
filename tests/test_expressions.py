import numpy as np
import pytest

from lorentzlab import expressions
from lorentzlab.expressions import (FUNCTIONS, MAX_DEPTH, ExpressionError,
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
    ("(t-8)^-1", "division by zero at site 128 (8, 0)"),
], ids=["division", "sqrt", "power", "power-zero-base"])
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


@pytest.mark.parametrize("text, exponent", [
    ("t^-1", -1.0), ("t^(-2)", -2.0), ("t^(1+1)", 2.0),
])
def test_whole_exponent_values_power_negative_bases(text, exponent):
    # the rule reads the exponent's value, not whether it is a bare literal
    t = -np.linspace(0.25, 7.5, 30)
    assert ev(text, t=t).tobytes() == np.power(t, exponent).tobytes()


def test_constant_subexpressions_follow_the_rules_on_values():
    # constants are numpy floats: no Python ZeroDivisionError or OverflowError
    with pytest.raises(ExpressionError, match=r"^division by zero at site 0 \(\)$"):
        ev("2+0^-1")
    with np.errstate(over="ignore"):
        assert ev("1+10^400") == np.inf
    with pytest.raises(ExpressionError, match="non-integer power"):
        ev("(0-2)^(1/2)")


def test_variable_exponents_are_held_site_by_site():
    # a negative base is refused only where its exponent is not whole
    t = np.array([-2.0, -3.0, 4.0])
    assert ev("t^x", t=t, x=np.array([2.0, 3.0, 0.5])).tolist() == [4.0, -27.0, 2.0]
    with pytest.raises(ExpressionError, match=r"value at site 1 \(1\)$"):
        ev("t^x", t=t, x=np.array([2.0, 0.5, 0.5]))
    # an infinite exponent is not a whole number
    with pytest.raises(ExpressionError, match="non-integer power"):
        ev("t^1e400", t=-2.0)


# every operation name the parser can emit, read off parsed trees
def _operation_names(node):
    name, children = expressions._split(node)
    return {name} - {None} | set().union(*map(_operation_names, children))


def test_float_table_covers_every_parsed_operation_once():
    texts = ["-t + t - t * t / t ^ t"] + ["%s(t)" % f for f in FUNCTIONS]
    emitted = set().union(*(_operation_names(parse_expression(s)) for s in texts))
    assert emitted == {"+", "-", "*", "/", "^", "neg"} | set(FUNCTIONS)
    table = list(expressions._FLOAT_OPERATIONS)
    assert sorted(table) == sorted(emitted)
    assert set(expressions._FLOAT_GUARDS) <= set(table)


# ------------------------------------------ an independent route: numpy closures

OPERATIONS = ("+", "-", "*", "/", "^", "neg") + tuple(FUNCTIONS)


def random_tree(rng, names, depth, root=None):
    """(text, closure env -> value, variables, operations) of a random tree.

    Partial operations get arguments inside their domains, and magnitudes
    stay below 1e40 for depth <= 4 with leaves of magnitude <= 3.
    """
    if root is None and (depth == 0 or rng.random() < 0.2):
        if rng.random() < 0.4:
            c = round(float(rng.uniform(0.1, 3.0)), 2)
            return repr(c), lambda env: np.float64(c), set(), set()
        name = str(rng.choice(names))
        return name, lambda env: env[name], {name}, set()
    op = root or str(rng.choice(OPERATIONS))
    a, fa, va, oa = random_tree(rng, names, depth - 1)
    b, fb, vb, ob = random_tree(rng, names, depth - 1)
    half = np.float64(0.5)
    if op in "+-*":
        ufunc = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
        text, fn, used = "(%s%s%s)" % (a, op, b), lambda e: ufunc(fa(e), fb(e)), va | vb
        return text, fn, used, oa | ob | {op}
    if op == "/":
        text = "(%s/(0.5+abs(%s)))" % (a, b)
        fn = lambda e: np.divide(fa(e), np.add(half, np.abs(fb(e))))
        return text, fn, va | vb, oa | ob | {"/", "+", "abs"}
    if op == "^":
        form = rng.integers(3)
        if form == 0:      # positive base, variable exponent
            text = "((0.5+abs(%s))^tanh(%s))" % (a, b)
            fn = lambda e: np.power(np.add(half, np.abs(fa(e))), np.tanh(fb(e)))
            return text, fn, va | vb, oa | ob | {"^", "+", "abs", "tanh"}
        k = float(rng.choice([2, 3]))
        if form == 1:      # any base, whole exponent
            text, fn = "(%s^%d)" % (a, k), lambda e: np.power(fa(e), np.float64(k))
            return text, fn, va, oa | {"^"}
        # negative base, negative whole exponent
        text = "((-(0.5+abs(%s)))^(-%d))" % (a, k)
        fn = lambda e: np.power(np.negative(np.add(half, np.abs(fa(e)))),
                                np.negative(np.float64(k)))
        return text, fn, va, oa | {"^", "neg", "+", "abs"}
    if op == "neg":
        return "(-%s)" % a, lambda e: np.negative(fa(e)), va, oa | {"neg"}
    if op == "sqrt":
        return ("sqrt(abs(%s))" % a, lambda e: np.sqrt(np.abs(fa(e))), va,
                oa | {"sqrt", "abs"})
    if op == "exp":
        return ("exp(-abs(%s))" % a, lambda e: np.exp(np.negative(np.abs(fa(e)))),
                va, oa | {"exp", "neg", "abs"})
    f = FUNCTIONS[op]
    return "%s(%s)" % (op, a), lambda e: f(fa(e)), va, oa | {op}


@pytest.mark.parametrize("points", [(8, 8), (4, 4, 4, 4)], ids=["2d", "4d"])
def test_random_trees_match_numpy_closures_bit_for_bit(points):
    lat = Lattice(((-1.5, 1.5),) * len(points), points)
    env = lat.environment()
    rng = np.random.default_rng(len(points))
    covered = set()
    for i in range(4 * len(OPERATIONS)):
        root = OPERATIONS[i % len(OPERATIONS)]
        text, fn, used, ops = random_tree(rng, lat.axis_names, 4, root)
        covered |= ops
        ast, compiled = compile_expression(text)
        assert variables_used(ast) == used, text
        got = np.broadcast_to(compiled(**env), lat.shape)
        want = np.broadcast_to(fn(env), lat.shape)
        assert got.dtype == want.dtype == np.float64, text
        assert np.all(np.isfinite(want)), text
        assert got.tobytes() == want.tobytes(), text
    assert covered == set(OPERATIONS)


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
