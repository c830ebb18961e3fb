"""Coding of first-order formulas over a size-n domain into
propositional formulas, the assignment induced by a model, and the
bounded tautology checker built from them.

An atom P(j1..js) with its arguments instantiated to domain elements
becomes the propositional variable ``p_P_j1_.._js``, with each ``_`` in
the predicate name doubled; quantifiers become
n-fold conjunctions/disjunctions, associated to the right with the
domain index running 1..n.

The bounded checker decides the enumeration cap at each domain size
past 1 before it grounds that size.  Every cell of the signature is
within the cap, or the cells that the grounding would read are counted
from the argument patterns of the formula's atoms, so a size over the
cap is refused without building its grounding.  The grounding at size
1, the size of the formula, comes first and gives the signature.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .chains import BaseChain, require_finite
from .errors import CapExceededError, GroundingError
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
    subformulas,
    universal_closure,
)
from .semantics import Model, _check_assignments, _taut_prop, check_cap, enum_cap


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
    names: dict[tuple[str, tuple[int, ...]], str] = {}  # cell -> its variable
    try:
        body = _ground(phi, n, {}, names)
    except (KeyError, GroundingError):
        # The walk reads every atom, so an unbound variable is a KeyError
        # there; it is reported before a node that cannot be grounded.
        free = free_variables(phi)
        if free:
            raise GroundingError(f"formula has free variables {free}; close it first") from None
        raise
    return GroundedFormula(body, {name: cell for cell, name in names.items()}, n)


def _ground(phi: Formula, n: int, env: dict[str, int], names) -> Formula:
    t = type(phi)
    if t is Atom:
        cell = (phi.pred, tuple(map(env.__getitem__, phi.args)))
        name = names.get(cell)
        if name is None:
            name = names[cell] = cell_variable(*cell)
        return Var(name)
    if t is Bottom:
        return phi
    if t in BINARY:
        return t(_ground(phi.left, n, env, names), _ground(phi.right, n, env, names))
    if t in UNARY:
        return t(_ground(phi.sub, n, env, names))
    if t in QUANT:
        combine = And if t is Forall else Or
        parts = []
        for i in range(1, n + 1):
            parts.append(_ground(phi.body, n, {**env, phi.var: i}, names))
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
    from . import masks  # masks grounds through this module

    return _taut_upto_grounded(chain, phi, bound, masks.Compiled(universal_closure(phi)))


def _taut_upto_grounded(chain: BaseChain, phi: Formula, bound: int, compiled) -> Verdict:
    """taut_upto_grounded with the groundings of phi's closure that
    `compiled` holds, or grounds on first use: a caller that checks phi
    on several chains passes one Compiled for all of them.  The cap of
    each size past 1 is decided before that size is grounded."""
    if bound < 1:
        raise GroundingError(f"bound must be >= 1, got {bound}")
    was_open = compiled.phi is not phi
    # Grounded at n = 1 before its cap is decided: that grounding is the
    # size of phi, and its legend holds one cell of each predicate.
    g, names, grounded = compiled.grounding(1)
    c = require_finite(chain)
    cap = enum_cap()
    arities = [len(args) for _, args in g.legend.values()]
    for n in range(1, bound + 1):
        try:  # within the cap with every cell of the signature, or on a count
            check_cap(c.size, sum(n**arity for arity in arities), "assignments", cap)
        except CapExceededError:
            _check_assignments(c, _cell_count(compiled.phi, n), compiled.phi, cap)
        g, names, grounded = compiled.grounding(n)
        ok, witness = _taut_prop(c, grounded, names)
        if not ok:
            return Verdict(False, bound, n, witness, g, was_open)
    return Verdict(True, bound, closed_input=was_open)


def _cell_count(phi: Formula, n: int) -> int:
    """The cells that the closed formula's grounding at domain size n
    reads.  Each variable of an atom ranges over 1..n, so an atom whose
    arguments hold b distinct variables reads the n**b cells that fit
    its pattern: P(x, y, x) has (0, 1, 0), each variable numbered at its
    first place.  The cells of one predicate are the union over its
    patterns, counted by inclusion-exclusion: the cells that fit two
    patterns are those that fit their join."""
    patterns: dict[tuple[str, int], set[tuple[int, ...]]] = {}
    for atom in subformulas(phi):
        if type(atom) is Atom:
            first: dict[str, int] = {}
            pattern = tuple(first.setdefault(x, len(first)) for x in atom.args)
            patterns.setdefault((atom.pred, len(pattern)), set()).add(pattern)
    total = 0
    for found in patterns.values():
        terms: dict[tuple[int, ...], int] = {}  # pattern -> signed multiplicity
        for p in found:
            step = {p: 1}
            for q, k in terms.items():
                j = _join(p, q)
                step[j] = step.get(j, 0) - k
            for q, k in step.items():
                terms[q] = terms.get(q, 0) + k
        total += sum(k * n ** len(set(q)) for q, k in terms.items())
    return total


def _join(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The pattern whose places are equal where they are in p or in q."""
    parent = list(range(len(p)))  # union-find over p's numbers

    def root(b: int) -> int:
        while parent[b] != b:
            b = parent[b]
        return b

    first: dict[int, int] = {}
    for b, c in zip(p, q):
        parent[root(b)] = root(first.setdefault(c, b))
    number: dict[int, int] = {}
    return tuple(number.setdefault(root(b), len(number)) for b in p)


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
