"""Finite models, formula evaluation, model enumeration and the
propositional tautology check over finite chains.

Quantifiers are evaluated with min/max over the (always finite) domain
{1..n}.  The canonical order of models and of assignments is owned by
masks.Space, which ranks them; enumerate_models and is_taut_prop's
witness decode those ranks.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .chains import BaseChain, Chain, Lines, require_finite
from .errors import CapExceededError, EvaluationError, InvalidParameterError, SignatureError
from .formulas import (
    And,
    Atom,
    Bottom,
    Delta,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    StrongAnd,
    Var,
    has_delta,
    pretty,
    prop_variables,
)

ENUM_CAP_ENV = "MVLOGIC_ENUM_CAP"
DEFAULT_ENUM_CAP = 20_000_000


class Model(NamedTuple):
    """Finite model: domain {1..n} plus one value table per predicate.

    Tables map argument tuples to chain values; a nullary predicate has
    the single key ().  Predicates are stored by name and cells in
    lexicographic order, the order of the model file format.
    """

    domain_size: int
    tables: dict[str, dict[tuple[int, ...], Fraction]]

    @staticmethod
    def from_dict(
        domain_size: int, tables: dict[str, dict[tuple[int, ...], Fraction]]
    ) -> "Model":
        return Model(
            domain_size,
            {name: dict(sorted(cells.items())) for name, cells in sorted(tables.items())},
        )

    def _cells(self, pred: str) -> dict[tuple[int, ...], Fraction]:
        try:
            return self.tables[pred]
        except KeyError:
            raise SignatureError(f"model has no table for predicate {pred}")

    def table(self, pred: str) -> dict[tuple[int, ...], Fraction]:
        return dict(self._cells(pred))

    def as_dict(self) -> dict[str, dict[tuple[int, ...], Fraction]]:
        return {name: dict(cells) for name, cells in self.tables.items()}

    def value(self, pred: str, args: tuple[int, ...]) -> Fraction:
        try:
            return self._cells(pred)[args]
        except KeyError:
            raise SignatureError(f"model table {pred} has no cell {args}")

    def validate(self, chain: BaseChain, sig: dict[str, int] | None = None) -> None:
        """Check totality over the tuple space and carrier membership."""
        if sig is not None:
            for pred, arity in sig.items():
                if pred not in self.tables:
                    raise SignatureError(f"missing table for predicate {pred}")
                expected = set(
                    itertools.product(range(1, self.domain_size + 1), repeat=arity)
                )
                if set(self.tables[pred]) != expected:
                    raise SignatureError(
                        f"table for {pred} does not cover all {arity}-tuples"
                    )
        for pred, cells in self.tables.items():
            for args, val in cells.items():
                if not chain.contains(val):
                    raise SignatureError(
                        f"value {val} of {pred}{args} is not in the carrier "
                        f"of {chain.name}"
                    )


# ---------------------------------------------------------------------------
# Evaluation


def eval_prop(chain: BaseChain, assignment: dict[str, Fraction], phi: Formula):
    """Homomorphic evaluation of a propositional formula.

    \\/ and /\\ are evaluated as lattice join/meet, which on chains
    coincides with their derived definitions; ~a is a => 0.
    """
    return _eval(chain, assignment, None, {}, phi)


def eval_fo(
    chain: BaseChain,
    model: Model,
    valuation: dict[str, int],
    phi: Formula,
):
    """Truth value of a first-order formula: atoms through the model
    tables, connectives homomorphically, quantifiers as min/max over
    domain variants."""
    return _eval(chain, {}, model, dict(valuation), phi)


# The chain operation of each lattice, monoid and unary connective,
# by node type.  Kept apart from the mask engine's tables: this
# evaluator is the independent check on that engine.
_OPERATIONS = {
    Implies: "implies", StrongAnd: "star", And: "meet", Or: "join", Not: "neg", Delta: "delta",
}


def _eval(chain, assignment, model, v, phi):
    """The one Fraction evaluator: Var reads the assignment, Atom reads
    the model tables under the valuation v (mutated and restored by the
    quantifiers).  model is None for propositional evaluation."""
    t = type(phi)
    if t is Atom and model is not None:
        try:
            table = model.tables[phi.pred]
        except KeyError:
            raise SignatureError(f"model has no table for predicate {phi.pred}")
        try:
            args = tuple(v[x] for x in phi.args)
        except KeyError as exc:
            raise EvaluationError(f"unbound free variable {exc.args[0]}")
        try:
            return table[args]
        except KeyError:
            raise SignatureError(f"table {phi.pred} has no cell {args}")
    if t is Var:
        try:
            return assignment[phi.name]
        except KeyError:
            raise EvaluationError(f"no value assigned to variable {phi.name}")
    if t is Bottom:
        return chain.bottom
    op = _OPERATIONS.get(t)
    if op is not None:
        if t is Not or t is Delta:
            return getattr(chain, op)(_eval(chain, assignment, model, v, phi.sub))
        return getattr(chain, op)(
            _eval(chain, assignment, model, v, phi.left),
            _eval(chain, assignment, model, v, phi.right),
        )
    if t is Iff:
        a = _eval(chain, assignment, model, v, phi.left)
        b = _eval(chain, assignment, model, v, phi.right)
        return chain.meet(chain.implies(a, b), chain.implies(b, a))
    if (t is Forall or t is Exists) and model is not None:
        saved = v.get(phi.var)
        best = None
        for el in range(1, model.domain_size + 1):
            v[phi.var] = el
            val = _eval(chain, assignment, model, v, phi.body)
            if best is None:
                best = val
            elif t is Forall:
                best = val if val < best else best
            else:
                best = val if val > best else best
        if saved is None:
            del v[phi.var]
        else:
            v[phi.var] = saved
        return best
    raise EvaluationError(f"cannot evaluate node {phi!r}")


# ---------------------------------------------------------------------------
# Propositional tautology check


def is_taut_prop(
    chain: BaseChain, phi: Formula
) -> tuple[bool, dict[str, Fraction] | None]:
    """Exhaustive tautology check over a finite chain, on the mask
    engine.

    Returns (True, None) or (False, witness) where the witness is the
    lexicographically first failing assignment (variables sorted by
    name, values in carrier order), re-checked with eval_prop.  Raises
    CapExceededError upfront, before compiling, if the assignment count
    exceeds the enumeration cap (a missing delta is reported first).
    """
    from . import masks  # masks builds on this module's Model

    c = require_finite(chain)
    return _taut_prop(c, masks.Compiled(phi), sorted(prop_variables(phi)))


def _taut_prop(c: Chain, compiled, names: list[str]) -> tuple[bool, dict[str, Fraction] | None]:
    """is_taut_prop on compiled.phi, whose variables are `names` in
    order, binding the Code that `compiled` holds for them, or compiles
    on first use."""
    from . import masks

    phi = compiled.phi
    try:
        check_cap(c.size, len(names), "assignments")
    except CapExceededError:
        if has_delta(phi):
            c.delta(c.top)  # raises on a chain without delta: that error comes first
        raise
    space = masks.Space.of_variables(names, c.size)
    program = masks.Program(compiled.code(space), c, tuple(range(c.size)))
    found = masks.first_rank(space, program)
    if found is None:
        return True, None
    rank, index = found
    witness = {name: c.carrier[d] for name, d in zip(space.cells, space.digits(rank))}
    val = eval_prop(c, witness, phi)
    if val != c.carrier[index]:
        raise AssertionError(
            f"mask value {c.carrier[index]} differs from eval_prop value {val} "
            f"on {pretty(phi)}"
        )
    return False, witness


# ---------------------------------------------------------------------------
# Model enumeration


def check_cap(radix: int, cells: int, what: str) -> None:
    """The one cap check of the exhaustive scans of assignments and
    models: raises CapExceededError upfront if a scan of radix**cells
    points exceeds the cap (MVLOGIC_ENUM_CAP, default 20e6), without
    building a count far past the cap; one past 64 bits reads radix^cells."""
    raw = os.environ.get(ENUM_CAP_ENV)
    try:
        cap = DEFAULT_ENUM_CAP if raw is None else int(raw)
    except ValueError:
        raise InvalidParameterError(f"{ENUM_CAP_ENV} must be an integer, not {raw!r}") from None
    if radix > 1 and cells >= cap.bit_length() or radix**cells > cap:  # 2**cells > cap
        total = radix**cells if cells * radix.bit_length() <= 64 else f"{radix}^{cells}"
        raise CapExceededError(f"{total} {what} exceed the enumeration cap {cap}")


def count_models(sig: dict[str, int], n: int, values) -> int:
    """The number of models of sig over {1..n} with cells from values."""
    return len(values) ** sum(n**arity for arity in sig.values())


def enumerate_models(
    sig: dict[str, int],
    n: int,
    values: Iterable[Fraction],
) -> Iterator[Model]:
    """All models over domain {1..n} with table values drawn from
    `values`, in the canonical order of masks.Space.

    Raises at the first next(), before any model, on an empty value
    set, a domain below 1 or a model count above the cap
    (MVLOGIC_ENUM_CAP, default 20e6).
    """
    from . import masks

    values = tuple(values)
    space = masks.Space(sig, n, len(values))
    for rank in range(space.size):
        yield space.model(rank, values)


# ---------------------------------------------------------------------------
# Model file format
#
#   mtlmodel 1
#   domain n
#   pred NAME ARITY
#   j1 ... js p/q     (n^arity lines per predicate)


def model_to_text(model: Model) -> str:
    lines = ["mtlmodel 1", f"domain {model.domain_size}"]
    for name, cells in model.tables.items():
        arity = len(next(iter(cells), ()))
        lines.append(f"pred {name} {arity}")
        for args, val in sorted(cells.items()):
            lines.append(" ".join(str(a) for a in args) + (" " if args else "") + str(val))
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> Model:
    """Parse a model file: per predicate, one row per tuple over 1..n, in any order."""
    return model_from_lines(Lines(text.splitlines()))


def model_from_lines(r: Lines) -> Model:
    """model_from_text on a file's lines, or on a certificate's section."""
    r.take("mtlmodel 1", 2, "header 'mtlmodel 1'")
    (n,) = r.numbers(int, r.take("domain", 2, "'domain n'")[1:])
    if n < 1:
        r.error("domain size must be >= 1")
    tables: dict[str, dict[tuple[int, ...], Fraction]] = {}
    while r.more():
        _, name, arity = r.take("pred", 3, "'pred NAME ARITY'")
        (arity,) = r.numbers(int, [arity])
        if arity < 0:
            r.error(f"predicate {name} has negative arity {arity}")
        if name in tables:
            r.error(f"predicate {name} has two tables")
        tables[name] = cells = {}
        for _ in range(n**arity):
            row = r.take("", arity + 1, f"{arity} arguments and a value")
            args = r.numbers(int, row[:arity], range(1, n + 1), "argument")
            if args in cells:
                r.error(f"repeated row {' '.join(map(str, args))}")
            cells[args] = r.numbers(Fraction, row[arity:])[0]
    return Model.from_dict(n, tables)
