"""Finite residuated chains and the named chain families.

All chain values are exact rationals (``fractions.Fraction``); floats are
never used, so equality tests are exact.  A finite chain stores its star
operation as a table of carrier indices; the residuum is always derived
from the star, never stored.  Rational-family chains expose computable
operations on rationals in [0,1] and support evaluation only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, NoReturn, Sequence

from . import formulas
from .errors import (
    ChainLawError,
    FormatError,
    InvalidNegationError,
    InvalidParameterError,
    NotAnMVChainError,
    UnsupportedChainError,
)

ZERO = Fraction(0)
ONE = Fraction(1)

FAMILIES = ("boolean", "lukasiewicz", "godel", "nm", "dp")


class BaseChain:
    """Operations shared by finite-table and rational-family chains.

    All operations act on chain values (rationals), not indices.
    """

    name: str
    has_delta: bool

    @property
    def top(self) -> Fraction:
        return ONE

    @property
    def bottom(self) -> Fraction:
        return ZERO

    def star(self, x: Fraction, y: Fraction) -> Fraction:
        raise NotImplementedError

    def implies(self, x: Fraction, y: Fraction) -> Fraction:
        raise NotImplementedError

    def meet(self, x: Fraction, y: Fraction) -> Fraction:
        return x if x <= y else y

    def join(self, x: Fraction, y: Fraction) -> Fraction:
        return x if x >= y else y

    def neg(self, x: Fraction) -> Fraction:
        return self.implies(x, self.bottom)

    def delta(self, x: Fraction) -> Fraction:
        if not self.has_delta:
            raise UnsupportedChainError(f"chain {self.name} has no delta operation")
        return self.top if x == self.top else self.bottom

    def contains(self, x: Fraction) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Chain(BaseChain):
    """Finite-table chain: ordered rational labels plus a star table of
    carrier indices."""

    name: str
    carrier: tuple[Fraction, ...]
    star_table: tuple[tuple[int, ...], ...]
    has_delta: bool = False

    @property
    def size(self) -> int:
        return len(self.carrier)

    @property
    def top(self) -> Fraction:
        return self.carrier[-1]

    @property
    def bottom(self) -> Fraction:
        return self.carrier[0]

    @cached_property
    def _index(self) -> dict[Fraction, int]:
        return {v: i for i, v in enumerate(self.carrier)}

    @cached_property
    def residuum_table(self) -> tuple[tuple[int, ...], ...]:
        # residuum(x,y) = max{z : star(z,x) <= y}, by a tolerant scan
        # that answers on any table, so that check_chain can still
        # report law violations on a mutated one.
        k = self.size
        table = []
        for x in range(k):
            column = [row[x] for row in self.star_table]
            row = []
            for y in range(k):
                z = k - 1
                while z and column[z] > y:
                    z -= 1
                row.append(z)
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def operation_tables(self) -> dict[str, tuple]:
        """Carrier-index tables of neg, delta, star, res and iff."""
        k, res = self.size, self.residuum_table
        neg, delta = tuple(row[0] for row in res), (0,) * (k - 1) + (k - 1,)
        iff = tuple(tuple(min(res[a][b], res[b][a]) for b in range(k)) for a in range(k))
        return {"neg": neg, "delta": delta, "star": self.star_table, "res": res, "iff": iff}

    @cached_property
    def _negation_profile(self) -> NegationProfile:
        neg = [row[0] for row in self.residuum_table]
        return NegationProfile(
            frozenset(i for i in range(self.size) if i > neg[i]),
            next((i for i in range(self.size) if i == neg[i]), None),
        )

    @cached_property
    def _is_mv(self) -> bool:
        return satisfies_identity(self, "inv")

    def index(self, x: Fraction) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise InvalidParameterError(f"{x} is not in the carrier of {self.name}")

    def contains(self, x: Fraction) -> bool:
        return x in self._index

    def star(self, x: Fraction, y: Fraction) -> Fraction:
        return self.carrier[self.star_table[self.index(x)][self.index(y)]]

    def implies(self, x: Fraction, y: Fraction) -> Fraction:
        return self.carrier[self.residuum_table[self.index(x)][self.index(y)]]

    @cached_property
    def _text(self) -> str:
        lines = [
            "mtlchain 1",
            f"size {self.size}",
            "labels " + " ".join(str(v) for v in self.carrier),
            f"delta {1 if self.has_delta else 0}",
        ]
        lines.extend(" ".join(str(i) for i in row) for row in self.star_table)
        return "\n".join(lines) + "\n"

    @cached_property
    def _hash(self) -> str:
        return _sha256()(self._text.encode()).hexdigest()

    def table_hash(self) -> str:
        """Hash of the canonical serialization, used in certificates."""
        return self._hash


@dataclass(frozen=True)
class RationalFamilyChain(BaseChain):
    """Chain over the rationals in [0,1] with computable operations.

    Supports evaluation only; exhaustive operations reject it.
    """

    name: str
    family: str
    star_fn: Callable[[Fraction, Fraction], Fraction]
    residuum_fn: Callable[[Fraction, Fraction], Fraction]
    has_delta: bool = False

    def contains(self, x: Fraction) -> bool:
        return ZERO <= x <= ONE

    def star(self, x: Fraction, y: Fraction) -> Fraction:
        return self.star_fn(x, y)

    def implies(self, x: Fraction, y: Fraction) -> Fraction:
        return self.residuum_fn(x, y)


@cache
def _sha256():
    """The builtin sha256 constructor (_sha2 from 3.12, _sha256 before),
    not hashlib's, which maps OpenSSL: some MB of memory.  The digests
    are the same.  Resolved once: a failed import is not cached, and
    retrying it searches sys.path again."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def require_finite(chain: BaseChain) -> Chain:
    if not isinstance(chain, Chain):
        raise UnsupportedChainError(
            f"chain {chain.name} has an infinite carrier; "
            "this operation needs a finite table"
        )
    return chain


# ---------------------------------------------------------------------------
# Constructors


def _equally_spaced(k: int) -> tuple[Fraction, ...]:
    if k == 1:
        return (ONE,)
    return tuple(Fraction(i, k - 1) for i in range(k))


def _table_from_fn(
    carrier: Sequence[Fraction], fn: Callable[[Fraction, Fraction], Fraction]
) -> tuple[tuple[int, ...], ...]:
    index = {v: i for i, v in enumerate(carrier)}
    return tuple(
        tuple(index[fn(x, y)] for y in carrier) for x in carrier
    )


def _luk_star(x: Fraction, y: Fraction) -> Fraction:
    return max(ZERO, x + y - 1)


def _luk_res(x: Fraction, y: Fraction) -> Fraction:
    return min(ONE, 1 - x + y)


def _godel_star(x: Fraction, y: Fraction) -> Fraction:
    return min(x, y)


def _godel_res(x: Fraction, y: Fraction) -> Fraction:
    return ONE if x <= y else y


def _product_star(x: Fraction, y: Fraction) -> Fraction:
    return x * y


def _product_res(x: Fraction, y: Fraction) -> Fraction:
    return ONE if x <= y else y / x


def _nm_star(x: Fraction, y: Fraction) -> Fraction:
    return ZERO if x + y <= 1 else min(x, y)


def _nm_res(x: Fraction, y: Fraction) -> Fraction:
    return ONE if x <= y else max(1 - x, y)


def _dp_star(x: Fraction, y: Fraction) -> Fraction:
    return min(x, y) if x == ONE or y == ONE else ZERO


def _dp_res_rational(x: Fraction, y: Fraction) -> Fraction:
    # Sup-based convention: over the dense rationals the drastic product
    # has no residuum for 0 < y < x < 1 (no coatom), so we take the sup.
    if x <= y:
        return ONE
    return y if x == ONE else ONE


def make_chain(family: str, n: int = 2) -> Chain:
    """Build a finite chain of a named family.

    boolean ignores n.  lukasiewicz n is the (n+1)-element chain with
    support {0, 1/n, ..., 1}; godel/nm/dp n is the n-element equally
    spaced chain.
    """
    if family == "boolean":
        carrier = (ZERO, ONE)
        return Chain("boolean", carrier, _table_from_fn(carrier, _godel_star))
    if family not in FAMILIES:
        raise InvalidParameterError(f"unknown chain family {family!r}")
    if n < 1:
        raise InvalidParameterError(f"{family} needs n >= 1, got {n}")
    if family == "lukasiewicz":
        carrier = tuple(Fraction(i, n) for i in range(n + 1))
        return Chain(f"lukasiewicz({n})", carrier, _table_from_fn(carrier, _luk_star))
    carrier = _equally_spaced(n)
    fn = {"godel": _godel_star, "nm": _nm_star, "dp": _dp_star}[family]
    return Chain(f"{family}({n})", carrier, _table_from_fn(carrier, fn))


def make_rational_chain(family: str) -> RationalFamilyChain:
    """Chain over all rationals in [0,1]; evaluation only."""
    ops = {
        "lukasiewicz": (_luk_star, _luk_res),
        "godel": (_godel_star, _godel_res),
        "product": (_product_star, _product_res),
        "nm": (_nm_star, _nm_res),
        "dp": (_dp_star, _dp_res_rational),
    }
    if family not in ops:
        raise InvalidParameterError(f"unknown rational family {family!r}")
    star, res = ops[family]
    return RationalFamilyChain(f"{family}[0,1]", family, star, res)


def trivial_chain() -> Chain:
    """The one-element chain (0 = 1)."""
    return Chain("trivial", (ONE,), ((0,),))


def make_wnm_chain(neg: Sequence[int], name: str = "") -> Chain:
    """Chain determined by a weak negation, given as carrier indices on
    the equally spaced k-point carrier.

    Requires neg order-reversing with neg(0)=top, neg(top)=0 and
    x <= neg(neg(x)); the resulting operations are the weak nilpotent
    minimum ones and the chain's own negation coincides with neg.
    """
    k = len(neg)
    if k < 2:
        raise InvalidNegationError("need at least two elements")
    top = k - 1
    if neg[0] != top or neg[top] != 0:
        raise InvalidNegationError("neg must map bottom to top and top to bottom")
    for i in range(k - 1):
        if neg[i] < neg[i + 1]:
            raise InvalidNegationError(f"neg is not order-reversing at {i}")
    for i in range(k):
        if not 0 <= neg[i] <= top:
            raise InvalidNegationError(f"neg({i}) out of range")
        if i > neg[neg[i]]:
            raise InvalidNegationError(f"x <= neg(neg(x)) fails at index {i}")
    table = tuple(
        tuple(0 if i <= neg[j] else min(i, j) for j in range(k)) for i in range(k)
    )
    carrier = _equally_spaced(k)
    chain = Chain(name or f"wnm{list(neg)}", carrier, table)
    # The chain's derived negation must coincide with the given one.
    for i in range(k):
        if chain.residuum_table[i][0] != neg[i]:
            raise InvalidNegationError(
                f"derived negation differs from neg at index {i}"
            )
    return chain


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class LawViolation:
    law: str
    witness: tuple
    detail: str


@dataclass(frozen=True)
class ValidityReport:
    chain_name: str
    violations: tuple[LawViolation, ...]

    @property
    def all_pass(self) -> bool:
        return not self.violations


def check_chain(chain: BaseChain) -> ValidityReport:
    """Exhaustively check the chain laws on a finite-table chain:
    carrier bounds/order, associativity, commutativity, unit,
    monotonicity and the residuation biconditional."""
    c = require_finite(chain)
    k = c.size
    bad: list[LawViolation] = []
    star = c.star_table
    res = c.residuum_table

    if k > 1 and c.carrier[0] != ZERO:
        bad.append(LawViolation("bounds", (0,), "carrier[0] must be 0"))
    if c.carrier[-1:] != (ONE,):
        bad.append(LawViolation("bounds", (k - 1,), "carrier top must be 1"))
    for i in range(k - 1):
        if not c.carrier[i] < c.carrier[i + 1]:
            bad.append(
                LawViolation("order", (i,), "carrier not strictly increasing")
            )
    for i in range(k):
        if star[i][k - 1] != i:
            bad.append(LawViolation("unit", (i,), f"star({i},top) = {star[i][k-1]}"))
    for i in range(k):
        for j in range(i, k):
            if star[i][j] != star[j][i]:
                bad.append(
                    LawViolation("commutativity", (i, j), "star(x,y) != star(y,x)")
                )
    for i in range(k):
        for j in range(k - 1):
            if star[i][j] > star[i][j + 1]:
                bad.append(
                    LawViolation(
                        "monotonicity", (i, j), "star decreasing in second argument"
                    )
                )
    # The k^3 laws, with the rows of the outer indices looked up once.
    ks = range(k)
    for i in ks:
        si = star[i]
        for j in ks:
            left, sj = star[si[j]], star[j]
            for l in ks:
                if left[l] != si[sj[l]]:
                    bad.append(
                        LawViolation("associativity", (i, j, l), "star((x,y),z) != star(x,(y,z))")
                    )
    for x in ks:
        column, rx = [row[x] for row in star], res[x]
        for y in ks:
            r = rx[y]
            for z in ks:
                if (column[z] <= y) != (z <= r):
                    bad.append(
                        LawViolation(
                            "residuation",
                            (x, y, z),
                            "star(z,x) <= y iff z <= res(x,y) fails",
                        )
                    )
    return ValidityReport(c.name, tuple(bad))


# ---------------------------------------------------------------------------
# Identity schemata library and satisfaction


def _prop(text: str) -> formulas.Formula:
    return formulas.parse(text, kind="prop")


IDENTITIES: dict[str, formulas.Formula] = {
    "wnm": _prop(r"~(p & q) \/ ((p /\ q) -> (p & q))"),
    "id": _prop(r"p -> (p & p)"),
    "dp": _prop(r"p \/ ~(p & p)"),
    "s": _prop(r"~(~p /\ p)"),
    "rdp": _prop(r"(p -> ~p) \/ ~~p"),
    "nmg": _prop(r"(~~p -> p) \/ ~~p"),
    "inv": _prop(r"~~p -> p"),
    "div": _prop(r"(p /\ q) -> (p & (p -> q))"),
    "c": _prop(r"~p \/ ((p -> (p & q)) -> q)"),
    "prelinearity": _prop(r"(p -> q) \/ (q -> p)"),
    "delta1": _prop(r"!p \/ ~!p"),
    "delta2": _prop(r"!(p \/ q) -> (!p \/ !q)"),
    "delta3": _prop(r"!p -> p"),
    "delta4": _prop(r"!p -> !!p"),
    "delta5": _prop(r"!(p -> q) -> (!p -> !q)"),
    "f": _prop(r"!(p <-> ~p) -> p"),
}


def _power(phi: formulas.Formula, n: int) -> formulas.Formula:
    """phi & ... & phi, n times (n >= 1)."""
    if n < 1:
        raise InvalidParameterError(f"a power needs n >= 1, got {n}")
    out = phi
    for _ in range(n - 1):
        out = formulas.StrongAnd(out, phi)
    return out


def gn_schema(n: int) -> formulas.Formula:
    """Disjunction over i < n of (x_i -> x_{i+1})."""
    if n < 1:
        raise InvalidParameterError("gn needs n >= 1")
    out = _prop(f"x0 -> x1")
    for i in range(1, n):
        out = formulas.Or(out, _prop(f"x{i} -> x{i+1}"))
    return out


def cn_schema(n: int) -> formulas.Formula:
    p = formulas.Var("p")
    return formulas.Implies(_power(p, n), _power(p, n + 1))


def dnm_schema(n: int, m: int) -> formulas.Formula:
    if m < 2:
        raise InvalidParameterError("dnm needs m >= 2")
    p = formulas.Var("p")
    inner = formulas.Iff(_power(p, m - 1), formulas.Implies(p, _power(p, n)))
    return formulas.Implies(_power(inner, n), _power(p, n))


def satisfies_identity(chain: BaseChain, identity) -> bool:
    """True iff every assignment of carrier values makes the identity
    evaluate to 1.  Accepts a schema name or a propositional formula."""
    from .semantics import is_taut_prop  # local import to keep layering acyclic

    c = require_finite(chain)
    phi = identity
    if isinstance(identity, str):
        if identity not in IDENTITIES:
            raise InvalidParameterError(f"unknown identity schema {identity!r}")
        phi = IDENTITIES[identity]
    ok, _ = is_taut_prop(c, phi)
    return ok


# ---------------------------------------------------------------------------
# Structure


@dataclass(frozen=True)
class NegationProfile:
    a_plus: frozenset[int]  # carrier indices with x > ~x
    fixpoint: int | None  # carrier index with x = ~x, if any


def negation_profile(chain: BaseChain) -> NegationProfile:
    """A+ and the negation fixpoint, derived once per chain object."""
    return require_finite(chain)._negation_profile


def require_mv(chain: BaseChain) -> Chain:
    """The chain, if it is a finite MV-chain; the check runs once per
    chain object."""
    c = require_finite(chain)
    if not c._is_mv:
        raise NotAnMVChainError(f"{c.name} does not satisfy ~~x -> x")
    return c


def subchains(chain: BaseChain) -> list[tuple[int, ...]]:
    """All subuniverses: index sets containing bottom and top, closed
    under star and residuum, sorted by size then lexicographically."""
    c = require_finite(chain)
    k = c.size
    if k == 1:
        return [(0,)]
    found = []
    # combinations yields by size, then lexicographically.
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(1, k - 1), r) for r in range(k - 1)
    ):
        members = (0,) + subset + (k - 1,)
        mset = set(members)
        if all(
            c.star_table[i][j] in mset and c.residuum_table[i][j] in mset
            for i in members
            for j in members
        ):
            found.append(members)
    return found


def delta_expand(chain: BaseChain) -> BaseChain:
    """Same chain with the delta operation enabled."""
    if isinstance(chain, Chain):
        return Chain(chain.name + "+delta", chain.carrier, chain.star_table, True)
    return RationalFamilyChain(
        chain.name + "+delta", chain.family, chain.star_fn, chain.residuum_fn, True
    )


def ordinal_sum(first: BaseChain, second: BaseChain) -> Chain:
    """Two-summand ordinal sum: first's carrier minus its top, then
    second's carrier on top; star acts blockwise, the lower element wins
    across blocks.  The first summand must be an MV-chain.

    Labels are rescaled to the equally spaced rationals.
    """
    a = require_finite(first)
    b = require_finite(second)
    require_mv(a)
    ka, kb = a.size, b.size
    k = (ka - 1) + kb

    def block(i: int) -> int:
        return 0 if i < ka - 1 else 1

    def star_i(i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        if block(i) != block(j):
            return i
        if block(i) == 0:
            return a.star_table[i][j]
        return ka - 1 + b.star_table[i - ka + 1][j - ka + 1]

    table = tuple(tuple(star_i(i, j) for j in range(k)) for i in range(k))
    carrier = _equally_spaced(k)
    return Chain(f"sum({a.name},{b.name})", carrier, table)


# ---------------------------------------------------------------------------
# Line-oriented file formats.  Lines reads the chain, model and
# certificate files.  The chain file format:
#
#   mtlchain 1
#   size k
#   labels r0 r1 ... r(k-1)
#   delta 0|1
#   <k rows of k star-table indices>
#   [embed A -> B ...]     (optional trailer: label A of this chain is
#                           label B of the chain it was cut from, as the
#                           fragment command writes it)


class Lines:
    """A file's lines, read in order past blank ones.  Each error names
    the line it rejects, counted from 1 over the whole file."""

    def __init__(self, lines: list[str], start: int = 0):
        self.lines = lines
        self.i = start  # the next line; after a read, the number of the line read

    def more(self) -> bool:
        """Whether a non-blank line is left."""
        while self.i < len(self.lines) and not self.lines[self.i].strip():
            self.i += 1
        return self.i < len(self.lines)

    def line(self, what: str = "a line") -> str:
        """The next non-blank line, stripped."""
        while self.i < len(self.lines):
            self.i += 1
            line = self.lines[self.i - 1].strip()
            if line:
                return line
        self.error(f"expected {what}, got the end")

    def take(self, key: str, count: int, what: str) -> list[str]:
        """The next line's fields, led by the words of `key`; `count` of them unless 0."""
        fields = self.line(what).split()
        head = key.split()
        if fields[: len(head)] != head or count and len(fields) != count:
            self.error(f"expected {what}, got {' '.join(fields)!r}")
        return fields

    def numbers(self, kind: type, tokens: list[str], span: range | None = None,
                what: str = "entry") -> tuple:
        """The tokens as ints or Fractions (`kind`), each in `span` if given."""
        try:
            values = tuple(map(kind, tokens))
        except (ValueError, ZeroDivisionError):
            self.error(f"expected {kind.__name__} values, got {' '.join(tokens)!r}")
        if span is not None:
            for v in values:
                if v not in span:
                    self.error(f"{what} {v} outside {span.start}..{span.stop - 1}")
        return values

    def section(self, end: str) -> Lines:
        """The lines up to the exact line `end`, numbered as in the file."""
        try:
            stop = self.lines.index(end, self.i)
        except ValueError:
            self.error(f"no line {end!r} ends this section")
        part = Lines(self.lines[:stop], self.i)
        self.i = stop + 1
        return part

    def error(self, msg: str) -> NoReturn:
        raise FormatError(f"line {max(self.i, 1)}: {msg}")


def chain_to_text(chain: BaseChain) -> str:
    """The chain file text, serialized once per chain object."""
    return require_finite(chain)._text


def chain_from_text(text: str, name: str = "loaded") -> Chain:
    """Parse and validate a chain file; any law violation is a hard
    error naming the law and a witness triple."""
    r = Lines(text.splitlines())
    r.take("mtlchain 1", 2, "header 'mtlchain 1'")
    (k,) = r.numbers(int, r.take("size", 2, "'size k'")[1:])
    if k < 1:
        r.error("a chain needs size >= 1")
    labels = r.numbers(Fraction, r.take("labels", 0, "'labels ...'")[1:])
    if len(labels) != k:
        r.error(f"{len(labels)} labels for size {k}")
    delta = r.take("delta", 2, "'delta 0|1'")[1]
    if delta not in ("0", "1"):
        r.error("expected 'delta 0|1'")
    rows = [r.numbers(int, r.take("", k, f"{k} table entries"), range(k)) for _ in range(k)]
    while r.more():
        embed = r.take("embed", 4, "'embed A -> B' after the table")
        a, _ = r.numbers(Fraction, embed[1::2])  # B: a value of the chain this one was cut from
        if embed[2] != "->" or a not in labels:
            r.error(f"expected 'embed A -> B' with A a label, got {' '.join(embed)!r}")
    chain = Chain(name, labels, tuple(rows), delta == "1")
    report = check_chain(chain)
    if not report.all_pass:
        v = report.violations[0]
        raise ChainLawError(f"law {v.law} fails at {v.witness}: {v.detail}")
    return chain
