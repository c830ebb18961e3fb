"""Abstract syntax, parser and pretty-printer for propositional and
first-order formulas.

The connective set is strong conjunction ``&``, min-conjunction ``/\\``,
implication ``->`` and ``bot``, with derived ``~`` (negation), ``\\/``
(disjunction) and ``<->`` (biconditional) kept as AST nodes, plus the
unary ``!`` (delta) and the quantifiers ``forall v.`` / ``exists v.``.

Precedence, tightest first: {~, !} > & > /\\ > \\/ > -> > <->, with
quantifiers binding weakest (their body extends as far right as
possible).  ``->`` associates to the right.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from .errors import ParseError, SignatureError


# ---------------------------------------------------------------------------
# AST


class Value:
    """Base class of formula nodes and chains.  They are immutable
    values with the contract of a frozen dataclass: keyword
    construction, equality between values of one type with equal
    fields, the hash of the field tuple, a repr that names each field,
    and pickling and copying by fields.  All of these read the fields
    from ``__match_args__``; each class writes only its own
    ``__init__``, because every checker builds nodes and none compares
    or hashes them."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class Formula(Value):
    """Base class of all formula nodes."""

    __slots__ = ()


_set = object.__setattr__


class Var(Formula):
    """Propositional variable."""

    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Bottom(Formula):
    __slots__ = ()


class Atom(Formula):
    """First-order atom; arguments are individual variables."""

    __slots__ = ("pred", "args")
    __match_args__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple[str, ...] = ()):
        _set(self, "pred", pred)
        _set(self, "args", args)


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)


class _Unary(Formula):
    __slots__ = ("sub",)
    __match_args__ = ("sub",)

    def __init__(self, sub: Formula):
        _set(self, "sub", sub)


class _Quantifier(Formula):
    __slots__ = ("var", "body")
    __match_args__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        _set(self, "var", var)
        _set(self, "body", body)


class And(_Binary):
    """Min-conjunction (lattice meet)."""

    __slots__ = ()


class StrongAnd(_Binary):
    """Monoidal (strong) conjunction."""

    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class Not(_Unary):
    __slots__ = ()


class Delta(_Unary):
    __slots__ = ()


class Forall(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


# The shapes, read as `type(x) in BINARY`: set lookups on the checkers' path.
BINARY = frozenset({And, StrongAnd, Implies, Or, Iff})
UNARY = frozenset({Not, Delta})
QUANT = frozenset({Forall, Exists})

BOT = Bottom()


def subformulas(phi: Formula) -> Iterator[Formula]:
    """All subformula occurrences of phi, phi included, preorder."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        t = type(node)
        if t in BINARY:
            stack.append(node.right)
            stack.append(node.left)
        elif t in UNARY:
            stack.append(node.sub)
        elif t in QUANT:
            stack.append(node.body)


def prop_variables(phi: Formula) -> list[str]:
    """Propositional variables in first-occurrence order."""
    return list(dict.fromkeys(n.name for n in subformulas(phi) if type(n) is Var))


def free_variables(phi: Formula) -> list[str]:
    """Free individual variables in first-occurrence order."""
    out: list[str] = []
    _walk_free(phi, frozenset(), out)
    return out


def _walk_free(phi: Formula, bound: frozenset[str], acc: list[str]) -> None:
    t = type(phi)
    if t is Atom:
        for a in phi.args:
            if a not in bound and a not in acc:
                acc.append(a)
    elif t in BINARY:
        _walk_free(phi.left, bound, acc)
        _walk_free(phi.right, bound, acc)
    elif t in UNARY:
        _walk_free(phi.sub, bound, acc)
    elif t in QUANT:
        _walk_free(phi.body, bound | {phi.var}, acc)


def signature_of(phi: Formula) -> dict[str, int]:
    """Predicate -> arity map, in first-occurrence order.

    Raises SignatureError if a predicate occurs with two different arities.
    """
    sig: dict[str, int] = {}
    for node in subformulas(phi):
        if isinstance(node, Atom):
            arity = len(node.args)
            if node.pred in sig and sig[node.pred] != arity:
                raise SignatureError(
                    f"predicate {node.pred} used with arities "
                    f"{sig[node.pred]} and {arity}"
                )
            sig.setdefault(node.pred, arity)
    return sig


def is_closed(phi: Formula) -> bool:
    """Whether phi has no free individual variable."""
    return not free_variables(phi)


def has_delta(phi: Formula) -> bool:
    return any(isinstance(n, Delta) for n in subformulas(phi))


def is_classical(phi: Formula) -> bool:
    """True iff phi uses only atoms, min-conjunction, disjunction,
    negation and the universal quantifier."""
    for node in subformulas(phi):
        if isinstance(node, (Atom, And, Or, Not, Forall)):
            continue
        return False
    return True


# ---------------------------------------------------------------------------
# Structural transformations


def desugar(phi: Formula) -> Formula:
    """Expand ~, \\/ and <-> into the primitive connectives.

    ~a becomes a -> bot; a \\/ b becomes ((a->b)->b) /\\ ((b->a)->a);
    a <-> b becomes (a->b) /\\ (b->a).  Idempotent.
    """
    t = type(phi)
    if t is Not:
        return Implies(desugar(phi.sub), BOT)
    if t is Or:
        a, b = desugar(phi.left), desugar(phi.right)
        return And(Implies(Implies(a, b), b), Implies(Implies(b, a), a))
    if t is Iff:
        a, b = desugar(phi.left), desugar(phi.right)
        return And(Implies(a, b), Implies(b, a))
    return rebuild(phi, desugar)


def universal_closure(phi: Formula) -> Formula:
    """Prefix universal quantifiers over the free variables, in
    first-occurrence order.  Closed formulas are returned unchanged."""
    closed = phi
    for v in reversed(free_variables(phi)):
        closed = Forall(v, closed)
    return closed


def map_leaves(phi: Formula, leaf: type, fn) -> Formula:
    """phi with every node of type `leaf` (Var or Atom) replaced by
    fn(node).  Quantifiers are copied unchanged, so variables in fn's
    output are not renamed apart from them."""
    if type(phi) is leaf:
        return fn(phi)
    return rebuild(phi, lambda sub: map_leaves(sub, leaf, fn))


def rebuild(phi: Formula, fn) -> Formula:
    """phi with fn applied to each immediate subformula; a leaf is
    returned unchanged."""
    t = type(phi)
    if t in BINARY:
        return t(fn(phi.left), fn(phi.right))
    if t in UNARY:
        return t(fn(phi.sub))
    if t in QUANT:
        return t(phi.var, fn(phi.body))
    return phi


# ---------------------------------------------------------------------------
# Spelling: the parser's token tables, which pretty reads backwards

# Binary connectives by token: (precedence, node), tightest highest.
_BINARY_OPS = {
    "<->": (1, Iff),
    "->": (2, Implies),
    "\\/": (3, Or),
    "/\\": (4, And),
    "&": (5, StrongAnd),
}
_PREFIX_OPS = {"~": Not, "!": Delta}
_QUANTIFIERS = {"forall": Forall, "exists": Exists}

_SPELLING = {
    **{node: token for token, (_, node) in _BINARY_OPS.items()},
    **{node: token for token, node in (*_PREFIX_OPS.items(), *_QUANTIFIERS.items())},
}


def pretty(phi: Formula) -> str:
    """Fully parenthesized canonical form; parse(pretty(phi)) == phi."""
    t = type(phi)
    if t is Var:
        return phi.name
    if t is Bottom:
        return "bot"
    if t is Atom:
        if phi.args:
            return f"{phi.pred}({','.join(phi.args)})"
        return phi.pred
    if t in UNARY:
        return f"{_SPELLING[t]}{pretty(phi.sub)}"
    if t in BINARY:
        return f"({pretty(phi.left)} {_SPELLING[t]} {pretty(phi.right)})"
    if t in QUANT:
        return f"({_SPELLING[t]} {phi.var}. {pretty(phi.body)})"
    raise TypeError(f"not a formula node: {phi!r}")


# ---------------------------------------------------------------------------
# Parser

# Nesting levels the parser may open: one for each parenthesis,
# quantifier body, operand of ~ or !, and right operand of a binary
# connective, inside the level it appears in.  The formula it builds may
# be no higher either, counting a leaf as one level, so that a long flat
# chain of one connective, which the parser reads in a loop, cannot
# overflow the recursive walks.  Deeper input is a ParseError.
MAX_DEPTH = 250

_OPERAND = 6  # min_prec of the operand of ~ and !: no connective binds in it

_KEYWORDS = {*_QUANTIFIERS, "bot"}

# One match per newline, symbol, word or stray character; whitespace
# other than "\n" matches nothing and is skipped.  A word is a run of
# str.isalnum, "_" and "'" that does not start with "'"; it is a name
# only if its first character is a letter or "_" (a digit, "²" or "Ⅷ"
# is alphanumeric but cannot start one).
_TOKEN_RE = re.compile(r"(\n)|(<->|->|/\\|\\/|[&~!(),.])|(\w[\w']*)|(\S)")


class _Token(NamedTuple):
    kind: str  # symbol text, "name" or "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    # Every character but "\n" is one column, so a token's column is
    # its offset from the start of its line.
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        group, word, column = m.lastindex, m.group(), m.start() - line_start + 1
        if group == 1:
            line, line_start = line + 1, m.end()
        elif group == 2:
            tokens.append(_Token(word, word, line, column))
        elif group == 3 and (word[0].isalpha() or word[0] == "_"):
            tokens.append(_Token(word if word in _KEYWORDS else "name", word, line, column))
        else:
            raise ParseError(f"unexpected character {word[0]!r}", line, column)
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], kind: str):
        self.tokens = tokens
        self.pos = 0
        self.kind = kind  # "prop" or "fo"
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def expect(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def formula(self, min_prec: int = 1) -> tuple[Formula, int]:
        """Precedence climbing: a unary formula, then every binary
        connective that binds at least as tightly as min_prec.
        Quantifiers bind weakest: wherever an operand may start, a
        quantifier swallows the whole remaining formula.  Returns the
        formula and its height.

        Every recursion of the parser comes back here within 3 frames,
        so MAX_DEPTH keeps it well inside Python's default recursion
        limit of 1000."""
        if self.depth == MAX_DEPTH:
            raise self.fail(f"formula nests deeper than {MAX_DEPTH} levels")
        self.depth += 1
        left, height = self.unary()
        tokens = self.tokens
        op = _BINARY_OPS.get(tokens[self.pos].kind)
        while op is not None and op[0] >= min_prec:
            prec, node = op
            self.pos += 1
            # -> is right-associative, the others left-associative.
            right, right_height = self.formula(prec if node is Implies else prec + 1)
            left, height = node(left, right), max(height, right_height) + 1
            op = _BINARY_OPS.get(tokens[self.pos].kind)
        if height > MAX_DEPTH:
            raise self.fail(f"formula nests deeper than {MAX_DEPTH} levels")
        self.depth -= 1
        return left, height

    def _quantifier(self, tok: _Token) -> tuple[Formula, int]:
        if self.kind == "prop":
            raise ParseError(
                "quantifier in a propositional formula", tok.line, tok.column
            )
        var = self.expect("name").text
        self.expect(".")
        body, height = self.formula()
        return _QUANTIFIERS[tok.kind](var, body), height + 1

    def unary(self) -> tuple[Formula, int]:
        """A unary formula: ~ or ! and its operand, a quantifier, a
        parenthesized formula, bot or an atom."""
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "name":
            self.pos += 1
            if self.tokens[self.pos].kind != "(":
                return (Atom(tok.text, ()) if self.kind == "fo" else Var(tok.text)), 1
            if self.kind == "prop":
                raise ParseError(
                    "predicate atom in a propositional formula",
                    tok.line,
                    tok.column,
                )
            self.pos += 1
            args = [self.expect("name").text]
            while self.tokens[self.pos].kind == ",":
                self.pos += 1
                args.append(self.expect("name").text)
            self.expect(")")
            return Atom(tok.text, tuple(args)), 1
        if kind == "(":
            self.pos += 1
            inner = self.formula()
            self.expect(")")
            return inner
        if kind in _PREFIX_OPS:
            self.pos += 1
            sub, height = self.formula(_OPERAND)
            return _PREFIX_OPS[kind](sub), height + 1
        if kind in _QUANTIFIERS:
            self.pos += 1
            return self._quantifier(tok)
        if kind == "bot":
            self.pos += 1
            return BOT, 1
        raise self.fail(f"expected a formula, found {tok.text or 'end of input'!r}")


def parse(text: str, kind: str = "fo") -> Formula:
    """Parse a formula; kind is "prop" or "fo".

    In "fo" mode a bare name is a nullary atom; in "prop" mode it is a
    propositional variable and quantifiers/atoms are rejected.
    Arity consistency is checked on the result.
    """
    if kind not in ("prop", "fo"):
        raise ValueError(f"kind must be 'prop' or 'fo', got {kind!r}")
    parser = _Parser(_tokenize(text), kind)
    phi, _ = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    if kind == "fo":
        signature_of(phi)  # raises on inconsistent arities
    return phi
