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

from dataclasses import dataclass
from typing import Iterator

from .errors import ParseError, SignatureError


# ---------------------------------------------------------------------------
# AST


class Formula:
    """Base class of all formula nodes.  Nodes are immutable values."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    """Propositional variable."""

    name: str


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    """First-order atom; arguments are individual variables."""

    pred: str
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class And(Formula):
    """Min-conjunction (lattice meet)."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class StrongAnd(Formula):
    """Monoidal (strong) conjunction."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Delta(Formula):
    sub: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


BINARY = (And, StrongAnd, Implies, Or, Iff)
UNARY = (Not, Delta)
QUANT = (Forall, Exists)

BOT = Bottom()


_BINARY_TYPES, _UNARY_TYPES, _QUANT_TYPES = map(frozenset, (BINARY, UNARY, QUANT))


def subformulas(phi: Formula) -> Iterator[Formula]:
    """All subformula occurrences of phi, phi included, preorder."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        t = type(node)  # set lookups: this walk is on the tautology check's path
        if t in _BINARY_TYPES:
            stack.append(node.right)
            stack.append(node.left)
        elif t in _UNARY_TYPES:
            stack.append(node.sub)
        elif t in _QUANT_TYPES:
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
    if isinstance(phi, Atom):
        for a in phi.args:
            if a not in bound and a not in acc:
                acc.append(a)
    elif isinstance(phi, BINARY):
        _walk_free(phi.left, bound, acc)
        _walk_free(phi.right, bound, acc)
    elif isinstance(phi, UNARY):
        _walk_free(phi.sub, bound, acc)
    elif isinstance(phi, QUANT):
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
    if isinstance(phi, Not):
        return Implies(desugar(phi.sub), BOT)
    if isinstance(phi, Or):
        a, b = desugar(phi.left), desugar(phi.right)
        return And(Implies(Implies(a, b), b), Implies(Implies(b, a), a))
    if isinstance(phi, Iff):
        a, b = desugar(phi.left), desugar(phi.right)
        return And(Implies(a, b), Implies(b, a))
    if isinstance(phi, And):
        return And(desugar(phi.left), desugar(phi.right))
    if isinstance(phi, StrongAnd):
        return StrongAnd(desugar(phi.left), desugar(phi.right))
    if isinstance(phi, Implies):
        return Implies(desugar(phi.left), desugar(phi.right))
    if isinstance(phi, Delta):
        return Delta(desugar(phi.sub))
    if isinstance(phi, Forall):
        return Forall(phi.var, desugar(phi.body))
    if isinstance(phi, Exists):
        return Exists(phi.var, desugar(phi.body))
    return phi


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
    t = type(phi)
    if t is leaf:
        return fn(phi)
    if isinstance(phi, BINARY):
        return t(map_leaves(phi.left, leaf, fn), map_leaves(phi.right, leaf, fn))
    if isinstance(phi, UNARY):
        return t(map_leaves(phi.sub, leaf, fn))
    if isinstance(phi, QUANT):
        return t(phi.var, map_leaves(phi.body, leaf, fn))
    return phi


# ---------------------------------------------------------------------------
# Pretty-printer

_BIN_SYMBOL = {And: "/\\", StrongAnd: "&", Implies: "->", Or: "\\/", Iff: "<->"}


def pretty(phi: Formula) -> str:
    """Fully parenthesized canonical form; parse(pretty(phi)) == phi."""
    if isinstance(phi, Var):
        return phi.name
    if isinstance(phi, Bottom):
        return "bot"
    if isinstance(phi, Atom):
        if phi.args:
            return f"{phi.pred}({','.join(phi.args)})"
        return phi.pred
    if isinstance(phi, Not):
        return f"~{pretty(phi.sub)}"
    if isinstance(phi, Delta):
        return f"!{pretty(phi.sub)}"
    if isinstance(phi, BINARY):
        return f"({pretty(phi.left)} {_BIN_SYMBOL[type(phi)]} {pretty(phi.right)})"
    if isinstance(phi, Forall):
        return f"(forall {phi.var}. {pretty(phi.body)})"
    if isinstance(phi, Exists):
        return f"(exists {phi.var}. {pretty(phi.body)})"
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

# Binary connectives by token: (precedence, node), tightest highest.
_BINARY_OPS = {
    "<->": (1, Iff),
    "->": (2, Implies),
    "\\/": (3, Or),
    "/\\": (4, And),
    "&": (5, StrongAnd),
}
_OPERAND = 6  # min_prec of the operand of ~ and !: no connective binds in it

_SYMBOLS = ["<->", "->", "/\\", "\\/", "&", "~", "!", "(", ")", ",", "."]
_KEYWORDS = {"forall", "exists", "bot"}


@dataclass(frozen=True)
class _Token:
    kind: str  # symbol text, "name" or "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        matched = None
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched:
            tokens.append(_Token(matched, matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "name"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], kind: str):
        self.tokens = tokens
        self.pos = 0
        self.kind = kind  # "prop" or "fo"
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.next()

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
        while self.peek().kind in _BINARY_OPS:
            prec, node = _BINARY_OPS[self.peek().kind]
            if prec < min_prec:
                break
            self.next()
            # -> is right-associative, the others left-associative.
            right, right_height = self.formula(prec if node is Implies else prec + 1)
            left, height = node(left, right), max(height, right_height) + 1
        if height > MAX_DEPTH:
            raise self.fail(f"formula nests deeper than {MAX_DEPTH} levels")
        self.depth -= 1
        return left, height

    def _quantifier(self) -> tuple[Formula, int]:
        tok = self.next()
        if self.kind == "prop":
            raise ParseError(
                "quantifier in a propositional formula", tok.line, tok.column
            )
        var = self.expect("name").text
        self.expect(".")
        body, height = self.formula()
        node = Forall if tok.kind == "forall" else Exists
        return node(var, body), height + 1

    def unary(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok.kind in ("~", "!"):
            self.next()
            sub, height = self.formula(_OPERAND)
            return (Not if tok.kind == "~" else Delta)(sub), height + 1
        if tok.kind in ("forall", "exists"):
            return self._quantifier()
        return self.primary()

    def primary(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            inner = self.formula()
            self.expect(")")
            return inner
        if tok.kind == "bot":
            self.next()
            return BOT, 1
        if tok.kind == "name":
            self.next()
            if self.peek().kind == "(":
                if self.kind == "prop":
                    raise ParseError(
                        "predicate atom in a propositional formula",
                        tok.line,
                        tok.column,
                    )
                self.next()
                args = [self.expect("name").text]
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.expect("name").text)
                self.expect(")")
                return Atom(tok.text, tuple(args)), 1
            return (Atom(tok.text, ()) if self.kind == "fo" else Var(tok.text)), 1
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
