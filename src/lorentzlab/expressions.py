"""Small real-valued expression language for field definitions.

Grammar (standard precedence, caret binds tightest and is right associative):

    expr    := term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?
    atom    := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Identifiers are the coordinate variables t, x, y, z and the unary functions
sin, cos, exp, sqrt, tanh, abs.  Anything else is a parse error carrying the
character position.  So is nesting deeper than MAX_DEPTH levels (parentheses,
calls, unary minus, exponents, and the operators of the expression tree), which
would otherwise exhaust the interpreter's stack in the recursive parser or
evaluator.  Evaluation is vectorized over numpy arrays and guards the partial
functions (sqrt of a negative, division by ~0) with errors that name the first
offending site.
"""

from dataclasses import dataclass

import numpy as np

VARIABLES = ("t", "x", "y", "z")
FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "abs": np.abs,
}

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

_OPERATORS = set("+-*/^(),")


def _tokenize(text):
    tokens = []  # (kind, value, position)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < n:
                d = text[j]
                if d.isdigit() or d == ".":
                    j += 1
                elif d in "eE" and not seen_e and j + 1 < n and (
                    text[j + 1].isdigit() or text[j + 1] in "+-"
                ):
                    seen_e = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError("malformed number %r" % text[i:j], i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExpressionError("unexpected character %r" % c, i)
    tokens.append(("end", None, n))
    return tokens


# ------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(
                "expected %r, found %r" % (op, value if value is not None else "end of input"),
                position,
            )
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

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = Binary(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = Binary(value, node, self.factor())
            else:
                return node

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
            if value in VARIABLES:
                return Variable(value)
            raise ExpressionError("unknown identifier %r" % value, position)
        if kind == "op" and value == "(":
            node = self.nested(self.expr)
            self.expect_op(")")
            return node
        raise ExpressionError(
            "expected a value, found %r" % (value if value is not None else "end of input"),
            position,
        )


def _children(node):
    if isinstance(node, Unary):
        return (node.operand,)
    if isinstance(node, Call):
        return (node.arg,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    return ()


def _tree_depth(node):
    """Levels of the expression tree, counted without recursion."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in _children(node))
    return deepest


def parse_expression(text):
    """Parse `text` into an AST.  Raises ExpressionError with a position.

    The tree is at most MAX_DEPTH levels deep, so the recursive
    `variables_used` and `evaluate` stay well inside the stack.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    node = _Parser(text).parse()
    if _tree_depth(node) > MAX_DEPTH:
        raise ExpressionError("expression tree deeper than %d levels"
                              % MAX_DEPTH)
    return node


# --------------------------------------------------------------- evaluation


def variables_used(node):
    if isinstance(node, Variable):
        return {node.name}
    return set().union(*map(variables_used, _children(node)))


def _first_bad_site(mask, shape):
    flat = int(np.argmax(mask))
    return flat, np.unravel_index(flat, shape) if shape else ()


def evaluate(node, env):
    """Evaluate AST over an environment {var: ndarray-or-scalar}.

    All arrays must broadcast; the result is a float ndarray (or scalar).
    """
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Variable):
        if node.name not in env:
            raise ExpressionError(
                "variable %r is not available in this domain" % node.name)
        return env[node.name]
    if isinstance(node, Unary):
        return -evaluate(node.operand, env)
    if isinstance(node, Call):
        arg = evaluate(node.arg, env)
        if node.func == "sqrt":
            bad = np.asarray(arg) < 0
            if np.any(bad):
                flat, idx = _first_bad_site(bad, np.asarray(arg).shape)
                raise ExpressionError(
                    "sqrt of negative value at site %d %s" % (flat, (idx,)))
        return FUNCTIONS[node.func](arg)
    if isinstance(node, Binary):
        left = evaluate(node.left, env)
        right = evaluate(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            bad = np.abs(np.asarray(right, dtype=float)) < DIV_FLOOR
            if np.any(bad):
                flat, idx = _first_bad_site(bad, np.asarray(right).shape)
                raise ExpressionError(
                    "division by zero at site %d %s" % (flat, (idx,)))
            return left / right
        if node.op == "^":
            base = np.asarray(left, dtype=float)
            if np.any(base < 0):
                # only integer exponents are defined for negative bases
                if not (isinstance(node.right, Constant)
                        and float(node.right.value).is_integer()):
                    flat, idx = _first_bad_site(base < 0, base.shape)
                    raise ExpressionError(
                        "non-integer power of negative value at site %d %s"
                        % (flat, (idx,)))
            return left ** right
    raise TypeError("not an AST node: %r" % (node,))


def compile_expression(text_or_ast):
    """Return (ast, callable(**coords) -> ndarray)."""
    ast = text_or_ast if not isinstance(text_or_ast, str) else parse_expression(text_or_ast)

    def fn(**coords):
        return evaluate(ast, coords)

    return ast, fn
