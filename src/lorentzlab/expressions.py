"""Small real-valued expression language for field definitions.

Grammar (standard precedence, caret binds tightest and is right associative):

    expr    := term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?
    atom    := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

A NUMBER is digits and points with at most one exponent marker e or E, taken
only where a sign or a digit follows it.  Identifiers are the coordinate
variables t, x, y, z and the unary functions sin, cos, exp, sqrt, tanh, abs.
Anything else is a parse error carrying the character position.  So is
nesting deeper than MAX_DEPTH levels (parentheses, calls, unary minus,
exponents, and the operators of the expression tree), which would otherwise
exhaust the interpreter's stack in the recursive parser or evaluator.
Evaluation is one recursive walk of the tree under an arithmetic: floats for
`evaluate`, vectorized over numpy arrays, and variable names for
`variables_used`.  Three rules on argument values refuse a partial operation
with an error naming the first offending site: sqrt of a negative; a divisor
below DIV_FLOOR in magnitude; and a power whose base is negative while its
exponent is not a whole number, or whose base is below DIV_FLOOR in magnitude
while its exponent is negative (a division by zero).
"""

import operator
import re
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

AXIS_NAMES = ("t", "x", "y", "z")      # also the lattice axes, in order
FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
             "tanh": np.tanh, "abs": np.abs}

DIV_FLOOR = 1e-300
MAX_DEPTH = 100     # parser nesting and expression-tree depth


class ExpressionError(ValueError):
    """Parse or evaluation failure; `position` is a 0-based column or None."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)


# ---------------------------------------------------------------- AST nodes


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str       # "-"
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str       # + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


# ---------------------------------------------------------------- tokenizer

# a number is digits and points, then at most one exponent marker, taken only
# where a sign or a digit follows it
_TOKEN = re.compile(r"""
    (?P<space>\s+)
  | (?P<num>[\d.]+(?:[eE](?:[+-]|(?=\d))[\d.]*)?)
  | (?P<ident>[^\W\d]\w*)
  | (?P<op>[-+*/^(),])
""", re.VERBOSE)


def _tokenize(text):
    tokens = []  # (kind, value, position)
    i = 0
    while i < len(text):
        match = _TOKEN.match(text, i)
        if match is None:
            raise ExpressionError("unexpected character %r" % text[i], i)
        kind, value = match.lastgroup, match.group()
        if kind == "num":
            try:
                value = float(value)
            except ValueError:
                raise ExpressionError("malformed number %r" % value, i)
        if kind != "space":
            tokens.append((kind, value, i))
        i = match.end()
    tokens.append(("end", "end of input", len(text)))
    return tokens


# ------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect_op(self, op):
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError("expected %r, found %r" % (op, value), position)
        return self.advance()

    def nested(self, parse):
        """parse() one level deeper; nesting past MAX_DEPTH is an error."""
        if self.depth == MAX_DEPTH:
            raise ExpressionError("nested deeper than %d levels" % MAX_DEPTH,
                                  self.peek()[2])
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        kind, value, position = self.peek()
        if kind != "end":
            raise ExpressionError("trailing input %r" % value, position)
        return node

    def left_associative(self, ops, operand):
        """operand (op operand)* for op in ops, grouped to the left."""
        node = operand()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in ops:
                return node
            self.advance()
            node = Binary(value, node, operand())

    def expr(self):
        return self.left_associative("+-", self.term)

    def term(self):
        return self.left_associative("*/", self.factor)

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary("-", self.nested(self.factor))
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            # right associative; exponent may carry a unary minus
            return Binary("^", base, self.nested(self.factor))
        return base

    def atom(self):
        kind, value, position = self.advance()
        if kind == "num":
            return Constant(value)
        if kind == "ident":
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.nested(self.expr)
                nkind, nval, npos = self.peek()
                if nkind == "op" and nval == ",":
                    raise ExpressionError("function %r takes one argument" % value, npos)
                self.expect_op(")")
                return Call(value, arg)
            if value in AXIS_NAMES:
                return Variable(value)
            raise ExpressionError("unknown identifier %r" % value, position)
        if kind == "op" and value == "(":
            node = self.nested(self.expr)
            self.expect_op(")")
            return node
        raise ExpressionError("expected a value, found %r" % value, position)


def _split(node):
    """(operation name, children); "neg" is unary minus, (None, ()) a leaf."""
    if isinstance(node, Unary):
        return "neg", (node.operand,)
    if isinstance(node, Call):
        return node.func, (node.arg,)
    if isinstance(node, Binary):
        return node.op, (node.left, node.right)
    return None, ()


def _tree_depth(node):
    """Levels of the expression tree, counted without recursion."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in _split(node)[1])
    return deepest


def parse_expression(text):
    """Parse `text` into an AST.  Raises ExpressionError with a position.

    The tree is at most MAX_DEPTH levels deep, so the recursive walk of
    `variables_used` and `evaluate` stays well inside the stack.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    node = _Parser(text).parse()
    if _tree_depth(node) > MAX_DEPTH:
        raise ExpressionError("expression tree deeper than %d levels"
                              % MAX_DEPTH)
    return node


# --------------------------------------------------------------- evaluation

# an arithmetic reads a constant from its value, a variable from its name and
# the environment, and an operation from its name and its arguments' readings
_Arithmetic = namedtuple("_Arithmetic", "constant variable operation")


def _fold(node, arithmetic, env=None):
    """Read `node` bottom-up under `arithmetic`: the one walk of the tree."""
    if isinstance(node, Constant):
        return arithmetic.constant(node.value)
    if isinstance(node, Variable):
        return arithmetic.variable(node.name, env)
    name, children = _split(node)
    if name is None:
        raise TypeError("not an AST node: %r" % (node,))
    return arithmetic.operation(name, [_fold(c, arithmetic, env) for c in children])


_NAMES = _Arithmetic(lambda value: set(), lambda name, env: {name},
                     lambda name, args: set().union(*args))


def variables_used(node):
    return _fold(node, _NAMES)


def _refuse(mask, what):
    """Raise 'what at site 128 (8, 0)' at mask's first True, flat and as an
    index ('site 0 ()' for a 0-d mask), if it has one."""
    if np.any(mask):
        flat = int(np.argmax(mask))
        index = ", ".join(str(int(i)) for i in np.unravel_index(flat, np.shape(mask)))
        raise ExpressionError("%s at site %d (%s)" % (what, flat, index))


def _power_rule(base, exponent):
    base, exponent = np.asarray(base, dtype=float), np.asarray(exponent, dtype=float)
    whole = np.isfinite(exponent) & (np.floor(exponent) == exponent)
    _refuse((base < 0) & ~whole, "non-integer power of negative value")
    _refuse((np.abs(base) < DIV_FLOOR) & (exponent < 0), "division by zero")


_FLOAT_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                     "/": operator.truediv, "^": operator.pow,
                     "neg": operator.neg, **FUNCTIONS}
# the partial operations, each guarded by a rule on its argument values
_FLOAT_GUARDS = {
    "sqrt": lambda arg: _refuse(np.asarray(arg) < 0, "sqrt of negative value"),
    "/": lambda left, right: _refuse(
        np.abs(np.asarray(right, dtype=float)) < DIV_FLOOR, "division by zero"),
    "^": _power_rule,
}


def _float_variable(name, env):
    if name not in env:
        raise ExpressionError("variable %r is not available in this domain" % name)
    return env[name]


def _float_operation(name, args):
    if name in _FLOAT_GUARDS:
        _FLOAT_GUARDS[name](*args)
    return _FLOAT_OPERATIONS[name](*args)


_FLOATS = _Arithmetic(np.float64, _float_variable, _float_operation)


def evaluate(node, env):
    """Evaluate AST over an environment {var: ndarray-or-scalar} whose
    arrays broadcast; the result is a float ndarray (or scalar)."""
    return _fold(node, _FLOATS, env)


def compile_expression(text_or_ast):
    """Return (ast, callable(**coords) -> ndarray)."""
    ast = text_or_ast if not isinstance(text_or_ast, str) else parse_expression(text_or_ast)
    return ast, lambda **coords: evaluate(ast, coords)
