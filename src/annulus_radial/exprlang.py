"""Tiny scalar expression language for weight factors and nonlinearities.

Grammar (standard precedence, tightest first):

    power   :  unary ^ power            (right associative)
    unary   :  - unary | atom
    term    :  power (('*'|'/') power)*
    sum     :  term (('+'|'-') term)*
    atom    :  number | variable | func '(' sum ')' | '(' sum ')'
            |  piecewise '(' branch (',' branch)* ')'
    branch  :  '(' condition ',' sum ')'
    cond    :  sum cmp sum | 'else'     (cmp in <, <=, >, >=, ==)

Exactly one free variable is allowed per expression (``t`` for weights,
``u`` for nonlinearities); any other identifier is rejected at parse time.
Every ``piecewise`` must end with an ``else`` branch.

Evaluation.  A Python float (``Expr.eval``) goes through a closure per
node, which ``_closure`` builds on a node's first scalar call and keeps in
a slot; a float64 array (``Expr.eval_array``, run under one
``np.errstate(all="ignore")``) goes through the nodes' ``_ev`` methods.
The same rules hold for both:

- ``+ - *`` and unary minus are plain IEEE arithmetic.
- Division by zero, ``sqrt`` of a negative value, ``log`` of a nonpositive
  value, a negative base with a fractional exponent and zero raised to a
  negative power raise ``ExprDomainError``.
- A non-finite result of ``/``, ``^`` or a function from finite operands
  (an overflow) raises ``ExprDomainError``; non-finite operands propagate.
- ``piecewise`` takes the first branch whose condition holds, and tests
  each condition only at points that no earlier branch took.
- Every message reads ``<rule> in '<subexpression>' at x=<point>``, where
  the point is the first one of the input that breaks the rule, printed as
  a float.

Only the backend follows the input kind: ``math`` functions and
``math.pow`` for a float, numpy ufuncs and ``np.power`` for an array, so
the two paths may differ in the last bit wherever a function or ``^`` is
involved (``math.pow`` and ``np.power`` differ on ~5% of random inputs).
``np.power`` always gets its exponent as an array of the input's shape: a
scalar exponent of 2, 0.5 or -1 takes numpy's square/sqrt/reciprocal
shortcut, whose results differ from ``pow``'s in the last bit at some
points.  What is one value for every point of an array is decided once: a
constant exponent's ``is_integer()`` and sign pick the ``^`` rules that can
fire, and a rule's verdict on constant operands (``b == 0.0`` for a
constant divisor) is read as it is, not broadcast to the input's shape.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "ExprDomainError",
    "parse",
    "to_source",
]

FUNCTIONS = ("sin", "cos", "sinh", "cosh", "sqrt", "abs", "exp", "log")
_COMPARATORS = ("<=", ">=", "==", "<", ">")
# each grammar level spends ~5 interpreter frames; stay well under Python's
# default 1000-frame recursion limit
_MAX_DEPTH = 100


class ExprError(ValueError):
    """Base class for all structured expression errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnknownIdentifierError(ExprSyntaxError):
    pass


class ExprDomainError(ExprError):
    """Evaluation fell outside a function's domain."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Immutable expression node; subclasses implement _ev(x) for a float64
    array, and _closure builds their float evaluator."""

    __slots__ = ("_fn",)  # the float closure, built on the first eval

    def eval(self, x: float) -> float:
        """Evaluate at a scalar point."""
        try:
            fn = self._fn
        except AttributeError:
            fn = _closure(self)
            object.__setattr__(self, "_fn", fn)  # the nodes are frozen
        return fn(float(x))

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at every point of x; a new array of x's shape."""
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            return np.empty(x.shape)
        with np.errstate(all="ignore"):
            out = self._ev(x)
        if out is x:
            return x.copy()
        if not isinstance(out, np.ndarray):  # a constant, or x was 0-d
            return np.full(x.shape, out)
        return out

    def __call__(self, x):
        # a float (np.float64 included) skips np.ndim's dispatch
        if isinstance(x, float) or np.ndim(x) == 0:
            return self.eval(x)
        return self.eval_array(x)

    def __str__(self) -> str:
        return to_source(self)

    def _ev(self, x):  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float

    def _ev(self, x):
        return self.value


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str

    def _ev(self, x):
        return x


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    operand: Expr

    def _ev(self, x):
        return -self.operand._ev(x)


@dataclass(frozen=True, slots=True)
class Bin(Expr):
    op: str  # one of + - * / ^
    lhs: Expr
    rhs: Expr

    def _ev(self, x):
        a = self.lhs._ev(x)
        b = self.rhs._ev(x)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            _check(b == 0.0, "division by zero", self, x)
            return _finite(a / b, self, x, a, b)
        return _finite(_power(a, b, self, x), self, x, a, b)


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr

    def _ev(self, x):
        v = self.arg._ev(x)
        if self.func in _DOMAIN:
            test, rule = _DOMAIN[self.func]
            _check(test(v, 0.0), rule, self, x)
        out = _NUMPY[self.func](v)
        if self.func in _GROWING:
            out = _finite(out, self, x, v)
        return out


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True, slots=True)
class Cond(Expr):
    op: str  # comparator
    lhs: Expr
    rhs: Expr

    def _ev(self, x):
        """Whether the comparison holds at each point: a bool array."""
        return _COMPARE[self.op](self.lhs._ev(x), self.rhs._ev(x))


@dataclass(frozen=True, slots=True)
class Piecewise(Expr):
    # branches: ((cond, expr), ..., (None, expr)); trailing None is the else
    branches: tuple

    def _ev(self, x):
        out = np.empty(x.shape)
        rest = np.ones(x.shape, dtype=bool)  # points no branch has taken
        for cond, expr in self.branches:
            take = rest.copy()
            if cond is not None:
                take[rest] = cond._ev(x[rest])
            if take.any():
                out[take] = expr._ev(x[take])
            rest &= ~take
            if not rest.any():
                break
        return out


# the only functions that can overflow at a finite argument
_GROWING = ("exp", "sinh", "cosh")
# func: (test of the argument against 0.0, rule broken where it holds)
_DOMAIN = {"sqrt": (operator.lt, "sqrt of negative value"),
           "log": (operator.le, "log of nonpositive value")}
_MATH = {name: abs if name == "abs" else getattr(math, name) for name in FUNCTIONS}
_NUMPY = {name: getattr(np, name) for name in FUNCTIONS}


def _closure(e: Expr):
    """e's float evaluator: a closure per node over its children's, with
    math's functions (an OverflowError reads inf, a ValueError nan) and
    math.pow."""
    if isinstance(e, Num):
        value = e.value
        return lambda x: value
    if isinstance(e, Var):
        return lambda x: x
    if isinstance(e, Neg):
        f = _closure(e.operand)
        return lambda x: -f(x)
    if isinstance(e, Piecewise):
        branches = [(None if c is None else _closure(c), _closure(v))
                    for c, v in e.branches]

        def piecewise(x):
            for cond, value in branches:
                if cond is None or cond(x):
                    return value(x)
        return piecewise
    if isinstance(e, Call):
        f, fn, growing = _closure(e.arg), _MATH[e.func], e.func in _GROWING
        test, rule = _DOMAIN.get(e.func, (None, None))

        def call(x):
            v = f(x)
            if test is not None and test(v, 0.0):
                _fail(rule, e, x)
            try:
                out = fn(v)
            except OverflowError:  # exp, sinh or cosh of a finite value
                out = math.inf
            except ValueError:  # sin or cos of an infinity
                out = math.nan
            if growing and not math.isfinite(out) and math.isfinite(v):
                _fail("overflow", e, x)
            return out
        return call
    f, g = _closure(e.lhs), _closure(e.rhs)
    if isinstance(e, Cond):
        compare = _COMPARE[e.op]
        return lambda x: compare(f(x), g(x))
    if e.op == "+":
        return lambda x: f(x) + g(x)
    if e.op == "-":
        return lambda x: f(x) - g(x)
    if e.op == "*":
        return lambda x: f(x) * g(x)

    if e.op == "/":
        def divide(x):
            a = f(x)
            b = g(x)
            if b == 0.0:
                _fail("division by zero", e, x)
            out = a / b
            if not math.isfinite(out) and math.isfinite(a) and math.isfinite(b):
                _fail("overflow", e, x)
            return out
        return divide

    def power(x):
        a = f(x)
        b = g(x)
        if a < 0.0 and not b.is_integer():
            _fail("negative base with fractional exponent", e, x)
        if a == 0.0 and b < 0.0:
            _fail("zero raised to negative power", e, x)
        try:
            out = math.pow(a, b)
        except OverflowError:
            out = math.inf
        if not math.isfinite(out) and math.isfinite(a) and math.isfinite(b):
            _fail("overflow", e, x)
        return out
    return power


# The array route's rules: every argument named x below is the float64
# array that eval_array was given, or a part of it that a piecewise took.


def _power(a, b, node: Expr, x):
    """a^b by np.power, whose exponent is always an array of x's shape (see
    the module docstring); one exponent for every point decides which
    rules can fire once."""
    if isinstance(b, np.ndarray):
        _check((a < 0.0) & (np.mod(b, 1.0) != 0.0),
               "negative base with fractional exponent", node, x)
        _check((a == 0.0) & (b < 0.0), "zero raised to negative power", node, x)
        return np.power(a, b)
    if not b.is_integer():
        _check(a < 0.0, "negative base with fractional exponent", node, x)
    if b < 0.0:
        _check(a == 0.0, "zero raised to negative power", node, x)
    return np.power(a, np.full(x.shape, b))


def _finite(out, node: Expr, x, *operands):
    """out, unless it is non-finite at a point where every operand is
    finite."""
    finite = np.isfinite(out)
    if finite.all():
        return out
    bad = ~finite
    for v in operands:
        bad &= np.isfinite(v)
    _check(bad, "overflow", node, x)
    return out


def _check(bad, rule: str, node: Expr, x) -> None:
    """Raise ExprDomainError at the first point of x where bad holds: a
    bool array of x's shape, or one verdict for every point."""
    if getattr(bad, "ndim", 0):
        if not bad.any():
            return
        x = x[bad][0]
    elif bad:
        x = x.flat[0]
    else:
        return
    _fail(rule, node, float(x))


def _fail(rule: str, node: Expr, x: float):
    raise ExprDomainError(f"{rule} in '{node}' at x={x!r}")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_NUM_START = set("0123456789.")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


class _Parser:
    def __init__(self, src: str, variable: str):
        if not isinstance(src, str):
            raise ExprSyntaxError("expression source must be text", 0)
        self.src = src
        self.n = len(src)
        self.i = 0
        self.variable = variable
        self.depth = 0

    # -- lexing helpers ----------------------------------------------------
    def _skip_ws(self):
        while self.i < self.n and self.src[self.i] in " \t\r\n":
            self.i += 1

    def _peek(self) -> str:
        return self.src[self.i] if self.i < self.n else ""

    def _match(self, lit: str) -> bool:
        self._skip_ws()
        if self.src.startswith(lit, self.i):
            self.i += len(lit)
            return True
        return False

    def _expect(self, lit: str):
        if not self._match(lit):
            raise ExprSyntaxError(f"expected '{lit}'", self.i)

    def _ident(self) -> str | None:
        self._skip_ws()
        if self._peek() not in _IDENT_START:
            return None
        start = self.i
        while self.i < self.n and self.src[self.i] in _IDENT_CONT:
            self.i += 1
        return self.src[start:self.i]

    def _number(self) -> float:
        start = self.i
        while self.i < self.n and self.src[self.i] in _NUM_START:
            self.i += 1
        if self.i < self.n and self.src[self.i] in "eE":
            j = self.i + 1
            if j < self.n and self.src[j] in "+-":
                j += 1
            if j < self.n and self.src[j].isdigit():
                self.i = j
                while self.i < self.n and self.src[self.i].isdigit():
                    self.i += 1
        text = self.src[start:self.i]
        try:
            value = float(text)
        except ValueError:
            raise ExprSyntaxError(f"bad number literal '{text}'", start) from None
        if math.isinf(value):
            raise ExprSyntaxError(f"number literal '{text}' overflows", start)
        return value

    # -- grammar -----------------------------------------------------------
    def parse(self) -> Expr:
        expr = self._sum()
        self._skip_ws()
        if self.i < self.n:
            raise ExprSyntaxError(
                f"unexpected character {self.src[self.i]!r}", self.i
            )
        return expr

    def _enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression too deeply nested", self.i)

    def _sum(self) -> Expr:
        self._enter()
        try:
            node = self._term()
            while True:
                self._skip_ws()
                c = self._peek()
                if c == "+":
                    self.i += 1
                    node = Bin("+", node, self._term())
                elif c == "-":
                    self.i += 1
                    node = Bin("-", node, self._term())
                else:
                    return node
        finally:
            self.depth -= 1

    def _term(self) -> Expr:
        node = self._unary()
        while True:
            self._skip_ws()
            c = self._peek()
            if c == "*":
                self.i += 1
                node = Bin("*", node, self._unary())
            elif c == "/":
                self.i += 1
                node = Bin("/", node, self._unary())
            else:
                return node

    def _unary(self) -> Expr:
        self._skip_ws()
        if self._peek() == "-":
            self.i += 1
            self._enter()
            try:
                return Neg(self._unary())
            finally:
                self.depth -= 1
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        self._skip_ws()
        if self._peek() == "^":
            self.i += 1
            self._enter()
            try:
                # right associative; the exponent binds a unary minus: 2^-3
                return Bin("^", base, self._unary())
            finally:
                self.depth -= 1
        return base

    def _atom(self) -> Expr:
        self._skip_ws()
        c = self._peek()
        if c == "":
            raise ExprSyntaxError("unexpected end of input", self.i)
        if c == "(":
            self.i += 1
            node = self._sum()
            self._expect(")")
            return node
        if c in _NUM_START:
            return Num(self._number())
        name = self._ident()
        if name is None:
            raise ExprSyntaxError(f"unexpected character {c!r}", self.i)
        if name == "piecewise":
            return self._piecewise()
        if name in FUNCTIONS:
            self._expect("(")
            arg = self._sum()
            self._expect(")")
            return Call(name, arg)
        if name == self.variable:
            return Var(name)
        raise UnknownIdentifierError(
            f"unknown identifier '{name}' (free variable is '{self.variable}')",
            self.i - len(name),
        )

    def _piecewise(self) -> Expr:
        self._expect("(")
        branches = []
        saw_else = False
        while True:
            self._expect("(")
            self._skip_ws()
            mark = self.i
            name = self._ident()
            if name == "else":
                cond = None
                saw_else = True
            else:
                self.i = mark  # not 'else': re-parse as a comparison
                cond = self._condition()
            self._expect(",")
            value = self._sum()
            self._expect(")")
            branches.append((cond, value))
            if self._match(","):
                if saw_else:
                    raise ExprSyntaxError("branch after else", self.i)
                continue
            break
        self._expect(")")
        if not saw_else:
            raise ExprSyntaxError("piecewise requires a final else branch", self.i)
        return Piecewise(tuple(branches))

    def _condition(self) -> Cond:
        lhs = self._sum()
        self._skip_ws()
        for op in _COMPARATORS:
            if self.src.startswith(op, self.i):
                self.i += len(op)
                return Cond(op, lhs, self._sum())
        raise ExprSyntaxError("expected a comparison operator", self.i)


def parse(src: str, variable: str = "u") -> Expr:
    """Parse ``src`` into an Expr whose single free variable is ``variable``."""
    return _Parser(src, variable).parse()


# ---------------------------------------------------------------------------
# Pretty printing (canonical form: to_source . parse is a fixed point)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_source(e: Expr) -> str:
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({_render(e.arg, 0)})"
    if isinstance(e, Neg):
        text = f"-{_render(e.operand, _PREC['neg'])}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(e, Bin):
        prec = _PREC[e.op]
        # left-assoc ops parenthesize an equal-precedence right child
        lhs = _render(e.lhs, prec if e.op != "^" else prec + 1)
        rhs = _render(e.rhs, prec + 1 if e.op != "^" else prec)
        text = f"{lhs} {e.op} {rhs}" if e.op in "+-*/" else f"{lhs}{e.op}{rhs}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(e, Cond):
        return f"{_render(e.lhs, 0)} {e.op} {_render(e.rhs, 0)}"
    if isinstance(e, Piecewise):
        parts = []
        for cond, val in e.branches:
            label = "else" if cond is None else _render(cond, 0)
            parts.append(f"({label}, {_render(val, 0)})")
        return "piecewise(" + ", ".join(parts) + ")"
    raise TypeError(f"not an Expr: {e!r}")
