"""Coding of first-order formulas over a size-n domain into
propositional formulas, the assignment induced by a model, and the
bounded tautology checker built from them.

An atom P(j1..js) with its arguments instantiated to domain elements
becomes the propositional variable ``p_P_j1_.._js``, with each ``_`` in
the predicate name doubled; quantifiers become
n-fold conjunctions/disjunctions, associated to the right with the
domain index running 1..n.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .chains import BaseChain, require_finite
from .errors import GroundingError
from .formulas import (
    And,
    Atom,
    BINARY,
    Bottom,
    Forall,
    Formula,
    Or,
    QUANT,
    UNARY,
    Var,
    free_variables,
    universal_closure,
)
from .semantics import Model, _taut_prop


def cell_variable(pred: str, args: tuple[int, ...]) -> str:
    # Doubling "_" in the name keeps the coding injective: P(1,1) is
    # p_P_1_1 and P_1(1) is p_P__1_1.
    return "_".join(["p", pred.replace("_", "__")] + [str(a) for a in args])


class GroundedFormula(NamedTuple):
    """The propositional coding of a closed formula at domain size n,
    with the legend mapping each variable back to its model cell."""

    formula: Formula
    legend: dict[str, tuple[str, tuple[int, ...]]]
    domain_size: int


def ground(phi: Formula, n: int) -> GroundedFormula:
    """Translate a closed first-order formula to a propositional one
    over domain {1..n}."""
    if n < 1:
        raise GroundingError(f"domain size must be >= 1, got {n}")
    free = free_variables(phi)
    if free:
        raise GroundingError(
            f"formula has free variables {free}; close it first"
        )
    legend: dict[str, tuple[str, tuple[int, ...]]] = {}
    body = _ground(phi, n, {}, legend)
    return GroundedFormula(body, legend, n)


def _ground(phi: Formula, n: int, env: dict[str, int], legend) -> Formula:
    t = type(phi)
    if t is Atom:
        args = tuple(env[x] for x in phi.args)
        name = cell_variable(phi.pred, args)
        legend[name] = (phi.pred, args)
        return Var(name)
    if t is Bottom:
        return phi
    if t in BINARY:
        return t(_ground(phi.left, n, env, legend), _ground(phi.right, n, env, legend))
    if t in UNARY:
        return t(_ground(phi.sub, n, env, legend))
    if t in QUANT:
        combine = And if t is Forall else Or
        parts = []
        for i in range(1, n + 1):
            parts.append(_ground(phi.body, n, {**env, phi.var: i}, legend))
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = combine(part, out)
        return out
    raise GroundingError(f"cannot ground node {phi!r}")


def induced_assignment(model: Model) -> dict[str, Fraction]:
    """The evaluation sending each cell variable to the value the model
    stores in that cell; total on any grounding at the model's size."""
    out: dict[str, Fraction] = {}
    for pred, cells in model.tables.items():
        for args, val in cells.items():
            out[cell_variable(pred, args)] = val
    return out


class Verdict(NamedTuple):
    """Result of a bounded tautology check.

    is_taut means no refutation up to the bound; otherwise
    refuted_at / witness carry the first failure.  closed_input records
    whether a universal closure was applied to an open input.
    """

    is_taut: bool
    bound: int
    refuted_at: int | None = None
    witness: dict | None = None
    grounded: GroundedFormula | None = None
    closed_input: bool = False

    def describe(self) -> str:
        if self.is_taut:
            return f"taut-up-to-{self.bound}"
        return f"refuted at n={self.refuted_at}"


def taut_upto_grounded(chain: BaseChain, phi: Formula, bound: int) -> Verdict:
    """Check phi over all domain sizes 1..bound through the grounding:
    the verdict is taut-up-to-bound or the first (n, assignment)
    refutation."""
    return _taut_upto_grounded(chain, phi, bound, {})


def _taut_upto_grounded(chain: BaseChain, phi: Formula, bound: int, groundings: dict) -> Verdict:
    """taut_upto_grounded, with the grounding at each domain size n, its
    variables (the legend's names) and its Codes kept in groundings[n]
    on first use: a caller that checks phi on several chains passes one
    dict for all of them."""
    from . import masks

    if bound < 1:
        raise GroundingError(f"bound must be >= 1, got {bound}")
    closed = universal_closure(phi)
    was_open = closed is not phi
    for n in range(1, bound + 1):
        if n not in groundings:
            g = ground(closed, n)
            groundings[n] = g, sorted(g.legend), masks.Compiled(g.formula)
        g, names, compiled = groundings[n]
        ok, witness = _taut_prop(require_finite(chain), compiled, names)
        if not ok:
            return Verdict(False, bound, n, witness, g, was_open)
    return Verdict(True, bound, closed_input=was_open)


def witness_model(grounded: GroundedFormula, witness: dict[str, Fraction]) -> Model:
    """Reconstruct a model from a refuting assignment via the legend.

    Cells of the formula's signature that do not occur in the grounding
    default to 0 (they cannot affect the truth value).
    """
    sig = {pred: len(args) for pred, args in grounded.legend.values()}
    n = grounded.domain_size
    return Model.from_dict(n, {
        pred: {
            args: witness.get(cell_variable(pred, args), Fraction(0))
            for args in itertools.product(range(1, n + 1), repeat=arity)
        }
        for pred, arity in sig.items()
    })
