"""Reference semantics for checking mvlogic from outside.

Nothing here imports mvlogic.  Formulas are nested tuples produced by
this module's own parser; chains compute star and residuum from the
closed-form family definitions on exact rationals; quantifiers are
min/max over the domain {1..n}.  The module also owns the canonical
enumeration orders that the work counts and the rank test rely on:

* models: predicates by name, cells in lexicographic order of their
  argument tuples, the last cell varying fastest through the value set;
* assignments: variables by name, values in carrier order, the last
  variable varying fastest.

Formula tuples::

    ("bot",)  ("var", name)  ("atom", pred, args)
    ("not", f)  ("delta", f)
    (op, left, right)            op in and, sand, or, imp, iff
    (q, var, body)               q in forall, exists
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

BINARY_OPS = ("and", "sand", "or", "imp", "iff")
QUANTIFIERS = ("forall", "exists")


# ---------------------------------------------------------------------------
# Parser and printer (the grammar documented in the mvlogic README)

_SYMBOLS = ("<->", "->", "/\\", "\\/", "&", "~", "!", "(", ")", ",", ".")
_KEYWORDS = ("forall", "exists", "bot")


def _tokens(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        sym = next((s for s in _SYMBOLS if text.startswith(s, i)), None)
        if sym is not None:
            out.append(sym)
            i += len(sym)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            out.append(text[i:j])
            i = j
            continue
        raise ValueError(f"unexpected character {ch!r} in {text!r}")
    out.append("")
    return out


def parse(text: str, kind: str = "fo"):
    """Parse formula text; in "fo" mode a bare name is a nullary atom,
    in "prop" mode it is a propositional variable."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos]

    def take(expected=None):
        nonlocal pos
        tok = toks[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in {text!r}")
        pos += 1
        return tok

    def name():
        tok = take()
        if not tok or tok in _SYMBOLS or tok in _KEYWORDS:
            raise ValueError(f"expected a name, found {tok!r} in {text!r}")
        return tok

    def binary_left(sub, sym, op):
        left = sub()
        while peek() == sym:
            take()
            left = (op, left, sub())
        return left

    def iff():
        return binary_left(impl, "<->", "iff")

    def impl():
        left = disj()
        if peek() == "->":
            take()
            return ("imp", left, impl())
        return left

    def disj():
        return binary_left(conj, "\\/", "or")

    def conj():
        return binary_left(strong, "/\\", "and")

    def strong():
        return binary_left(unary, "&", "sand")

    def unary():
        tok = peek()
        if tok == "~":
            take()
            return ("not", unary())
        if tok == "!":
            take()
            return ("delta", unary())
        if tok in QUANTIFIERS:
            take()
            var = name()
            take(".")
            return (tok, var, iff())
        return primary()

    def primary():
        tok = peek()
        if tok == "(":
            take()
            inner = iff()
            take(")")
            return inner
        if tok == "bot":
            take()
            return ("bot",)
        ident = name()
        if peek() == "(":
            take()
            args = [name()]
            while peek() == ",":
                take()
                args.append(name())
            take(")")
            return ("atom", ident, tuple(args))
        return ("atom", ident, ()) if kind == "fo" else ("var", ident)

    phi = iff()
    if peek() != "":
        raise ValueError(f"trailing input {peek()!r} in {text!r}")
    return phi


_TEXT = {"and": "/\\", "sand": "&", "or": "\\/", "imp": "->", "iff": "<->"}


def to_text(phi) -> str:
    """Fully parenthesized text that mvlogic's parser reads back."""
    op = phi[0]
    if op == "bot":
        return "bot"
    if op == "var":
        return phi[1]
    if op == "atom":
        return f"{phi[1]}({','.join(phi[2])})" if phi[2] else phi[1]
    if op == "not":
        return "~" + to_text(phi[1])
    if op == "delta":
        return "!" + to_text(phi[1])
    if op in QUANTIFIERS:
        return f"({op} {phi[1]}. {to_text(phi[2])})"
    return f"({to_text(phi[1])} {_TEXT[op]} {to_text(phi[2])})"


# ---------------------------------------------------------------------------
# Syntax helpers


def free_variables(phi) -> list[str]:
    """Free individual variables in first-occurrence order."""
    out: list[str] = []

    def walk(f, bnd):
        op = f[0]
        if op == "atom":
            for a in f[2]:
                if a not in bnd and a not in out:
                    out.append(a)
        elif op in QUANTIFIERS:
            walk(f[2], bnd | {f[1]})
        elif op in BINARY_OPS:
            walk(f[1], bnd)
            walk(f[2], bnd)
        elif op in ("not", "delta"):
            walk(f[1], bnd)

    walk(phi, frozenset())
    return out


def closure(phi):
    for v in reversed(free_variables(phi)):
        phi = ("forall", v, phi)
    return phi


def signature(phi) -> dict[str, int]:
    sig: dict[str, int] = {}

    def walk(f):
        op = f[0]
        if op == "atom":
            sig.setdefault(f[1], len(f[2]))
        elif op in QUANTIFIERS:
            walk(f[2])
        elif op in BINARY_OPS:
            walk(f[1])
            walk(f[2])
        elif op in ("not", "delta"):
            walk(f[1])

    walk(phi)
    return sig


def occurring_cells(phi, n: int) -> set:
    """Cells (pred, args) that the grounding of closed phi at domain
    size n mentions: atoms under every instantiation of the bound
    variables."""
    cells = set()

    def walk(f, env):
        op = f[0]
        if op == "atom":
            cells.add((f[1], tuple(env[a] for a in f[2])))
        elif op in QUANTIFIERS:
            for el in range(1, n + 1):
                walk(f[2], {**env, f[1]: el})
        elif op in BINARY_OPS:
            walk(f[1], env)
            walk(f[2], env)
        elif op in ("not", "delta"):
            walk(f[1], env)

    walk(phi, {})
    return cells


def model_cells(sig: dict[str, int], n: int) -> list:
    """All cells of a signature at size n, in canonical model order."""
    return [
        (pred, args)
        for pred in sorted(sig)
        for args in itertools.product(range(1, n + 1), repeat=sig[pred])
    ]


# ---------------------------------------------------------------------------
# Chains from closed-form definitions


def _equally_spaced(k: int) -> tuple[Fraction, ...]:
    return (ONE,) if k == 1 else tuple(Fraction(i, k - 1) for i in range(k))


class RefChain:
    """A chain given by its carrier (None for all rationals in [0,1])
    and its star and residuum as closed-form functions of values."""

    def __init__(self, name, carrier, star, res, delta=False):
        self.name = name
        self.carrier = carrier
        self.star = star
        self.res = res
        self.delta = delta

    @property
    def size(self) -> int:
        return len(self.carrier)

    def contains(self, x: Fraction) -> bool:
        if self.carrier is None:
            return ZERO <= x <= ONE
        return x in self.carrier


def _godel_res(x, y):
    return ONE if x <= y else y


def lukasiewicz(n: int) -> RefChain:
    """The (n+1)-element chain {0, 1/n, ..., 1}."""
    return RefChain(
        f"lukasiewicz({n})",
        tuple(Fraction(i, n) for i in range(n + 1)),
        lambda x, y: max(ZERO, x + y - 1),
        lambda x, y: min(ONE, 1 - x + y),
    )


def godel(k: int) -> RefChain:
    return RefChain(f"godel({k})", _equally_spaced(k), min, _godel_res)


def boolean() -> RefChain:
    return RefChain("boolean", (ZERO, ONE), min, _godel_res)


def nm(k: int) -> RefChain:
    return RefChain(
        f"nm({k})",
        _equally_spaced(k),
        lambda x, y: ZERO if x + y <= 1 else min(x, y),
        lambda x, y: ONE if x <= y else max(1 - x, y),
    )


def dp(k: int) -> RefChain:
    """Drastic product; on a finite chain the residuum of y < x < 1 is
    the coatom, the largest element z with z * x = 0 <= y."""
    carrier = _equally_spaced(k)
    coatom = carrier[-2] if k > 1 else ONE

    def res(x, y):
        if x <= y:
            return ONE
        return y if x == ONE else coatom

    return RefChain(
        f"dp({k})", carrier, lambda x, y: min(x, y) if ONE in (x, y) else ZERO, res
    )


def wnm(neg: tuple[int, ...], name: str = "") -> RefChain:
    """Weak nilpotent minimum on the equally spaced carrier, for the
    weak negation given as carrier indices: x * y = 0 if x <= n(y) else
    min(x, y), and x => y = 1 if x <= y else max(n(x), y)."""
    carrier = _equally_spaced(len(neg))
    negation = {carrier[i]: carrier[j] for i, j in enumerate(neg)}
    return RefChain(
        name or f"wnm{list(neg)}",
        carrier,
        lambda x, y: ZERO if x <= negation[y] else min(x, y),
        lambda x, y: ONE if x <= y else max(negation[x], y),
    )


def rational(family: str) -> RefChain:
    """The family's chain over all rationals in [0,1]."""
    ops = {
        "lukasiewicz": (lambda x, y: max(ZERO, x + y - 1), lambda x, y: min(ONE, 1 - x + y)),
        "godel": (min, _godel_res),
        "product": (lambda x, y: x * y, lambda x, y: ONE if x <= y else y / x),
        "nm": (
            lambda x, y: ZERO if x + y <= 1 else min(x, y),
            lambda x, y: ONE if x <= y else max(1 - x, y),
        ),
    }
    star, res = ops[family]
    return RefChain(f"{family}[0,1]", None, star, res)


def with_delta(chain: RefChain) -> RefChain:
    return RefChain(chain.name + "+delta", chain.carrier, chain.star, chain.res, True)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(chain: RefChain, phi, n: int = 1, cells=None, props=None, env=None):
    """Truth value of phi: atoms read `cells` {(pred, args): value},
    propositional variables read `props` {name: value}, free individual
    variables read `env`."""
    cells = cells or {}
    props = props or {}

    def ev(f, env):
        op = f[0]
        if op == "atom":
            return cells[(f[1], tuple(env[a] for a in f[2]))]
        if op == "var":
            return props[f[1]]
        if op == "bot":
            return ZERO
        if op == "not":
            return chain.res(ev(f[1], env), ZERO)
        if op == "delta":
            if not chain.delta:
                raise ValueError(f"{chain.name} has no delta")
            return ONE if ev(f[1], env) == ONE else ZERO
        if op in QUANTIFIERS:
            values = [ev(f[2], {**env, f[1]: el}) for el in range(1, n + 1)]
            return min(values) if op == "forall" else max(values)
        a, b = ev(f[1], env), ev(f[2], env)
        if op == "and":
            return min(a, b)
        if op == "or":
            return max(a, b)
        if op == "sand":
            return chain.star(a, b)
        if op == "imp":
            return chain.res(a, b)
        return min(chain.res(a, b), chain.res(b, a))

    return ev(phi, dict(env or {}))


# ---------------------------------------------------------------------------
# Canonical orders, ranks and exhaustive scans


def rank(values_in_order, value_set) -> int:
    """Position of a tuple of values in the product order over
    value_set, the last position varying fastest."""
    index = {v: i for i, v in enumerate(value_set)}
    r = 0
    for v in values_in_order:
        r = r * len(value_set) + index[v]
    return r


def model_space(sig: dict[str, int], n: int, m: int) -> int:
    """Number of models of size n with values from an m-element set."""
    return m ** len(model_cells(sig, n))


def model_points(sig, n: int, table: dict, value_set) -> int:
    """Points of the canonical model search space up to and including
    the model `table` {(pred, args): value} of size n."""
    before = sum(model_space(sig, j, len(value_set)) for j in range(1, n))
    row = [table[cell] for cell in model_cells(sig, n)]
    return before + rank(row, value_set) + 1


def assignment_points(sizes_before: list[int], witness: dict, carrier) -> int:
    """Points of the canonical assignment search space up to and
    including `witness` {variable name: value}; sizes_before holds the
    variable counts of the domain sizes checked before it."""
    k = len(carrier)
    before = sum(k**v for v in sizes_before)
    row = [witness[name] for name in sorted(witness)]
    return before + rank(row, carrier) + 1


def first_countermodel(chain: RefChain, phi, max_size: int, value_set):
    """Exhaustive scan of closed phi in canonical order: the first
    (n, cells) whose value is below 1, or None."""
    sig = signature(phi)
    for n in range(1, max_size + 1):
        cells = model_cells(sig, n)
        for row in itertools.product(value_set, repeat=len(cells)):
            table = dict(zip(cells, row))
            if evaluate(chain, phi, n, table) != ONE:
                return n, table
    return None


def first_refuting_assignment(chain: RefChain, phi, n: int, names: dict):
    """Exhaustive scan of the grounding of closed phi at size n over
    the variables `names` {name: cell}, sorted by name: the first
    failing assignment {name: value}, or None."""
    order = sorted(names)
    for row in itertools.product(chain.carrier, repeat=len(order)):
        table = {names[v]: x for v, x in zip(order, row)}
        if evaluate(chain, phi, n, table) != ONE:
            return dict(zip(order, row))
    return None
