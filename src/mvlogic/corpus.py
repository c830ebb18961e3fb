"""Fixed formula corpora and the seeded random formula generator used
by the verification suites.

The fixed corpus mixes formulas valid on every chain, formulas valid
classically but refutable on fuzzy chains, and plain non-tautologies.
Most use the unary predicates P, Q; a handful use the binary R, kept
rare because exhaustive model scans grow as k^(n^2) in the arity.
"""

from __future__ import annotations

import functools
import random
from types import MappingProxyType
from typing import Mapping

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
    parse,
)

DEFAULT_SIGNATURE = {"P": 1, "Q": 1, "R": 2}

# 50 first-order formulas, delta-free.
FIXED_CORPUS_TEXT = [
    # -- valid on every chain (MTL theorems and FO axioms) --
    r"forall x. P(x) -> P(x)",
    r"forall x. (P(x) & Q(x)) -> P(x)",
    r"forall x. (P(x) & Q(x)) -> (Q(x) & P(x))",
    r"forall x. (P(x) /\ Q(x)) -> P(x)",
    r"forall x. (P(x) /\ Q(x)) -> (Q(x) /\ P(x))",
    r"forall x. (P(x) & (P(x) -> Q(x))) -> (Q(x) /\ P(x))",
    r"forall x. (P(x) -> (Q(x) -> P(x)))",
    r"forall x. ((P(x) -> Q(x)) \/ (Q(x) -> P(x)))",
    r"forall x. bot -> P(x)",
    r"forall x. ~(P(x) & ~P(x))",
    r"forall x. P(x) -> ~~P(x)",
    r"forall x. (P(x) -> Q(x)) -> (~Q(x) -> ~P(x))",
    r"forall x. ((P(x) -> Q(x)) -> ((Q(x) -> P(x)) -> (P(x) <-> Q(x))))",
    r"(forall x. P(x)) -> (exists x. P(x))",
    r"(forall x. P(x)) -> P(y)",
    r"P(y) -> (exists x. P(x))",
    r"(forall x. (Q(y) -> P(x))) -> (Q(y) -> (forall x. P(x)))",
    r"(forall x. (P(x) -> Q(y))) -> ((exists x. P(x)) -> Q(y))",
    r"(forall x. (P(x) \/ Q(y))) -> ((forall x. P(x)) \/ Q(y))",
    r"(exists x. P(x)) <-> (exists y. P(y))",
    r"(forall x. (P(x) /\ Q(x))) <-> ((forall x. P(x)) /\ (forall x. Q(x)))",
    r"(exists x. (P(x) \/ Q(x))) <-> ((exists x. P(x)) \/ (exists x. Q(x)))",
    r"(forall x. P(x)) \/ (exists x. ~P(x)) \/ ~(forall x. P(x) \/ ~P(x))",
    r"forall x. forall y. (R(x,y) -> R(x,y))",
    r"forall x. ((forall y. R(x,y)) -> (exists y. R(x,y)))",
    r"(forall x. forall y. R(x,y)) -> (forall y. forall x. R(x,y))",
    r"(exists x. forall y. R(x,y)) -> (forall y. exists x. R(x,y))",
    # -- classically valid, refutable on some fuzzy chains --
    r"forall x. (P(x) \/ ~P(x))",
    r"forall x. (~~P(x) -> P(x))",
    r"forall x. (P(x) -> (P(x) & P(x)))",
    r"forall x. ((P(x) -> Q(x)) -> (~P(x) \/ Q(x)))",
    r"forall x. (~(P(x) /\ Q(x)) -> (~P(x) \/ ~Q(x)))",
    r"forall x. ((P(x) -> Q(x)) \/ (Q(x) -> bot) \/ ~P(x))",
    r"forall x. ~(P(x) <-> ~P(x))",
    r"forall x. ((P(x) & P(x)) <-> (P(x) & P(x) & P(x)))",
    r"forall x. (P(x) \/ (P(x) -> Q(x)) \/ ~Q(x))",
    r"(forall x. (P(x) \/ Q(x))) -> ((forall x. P(x)) \/ (exists x. Q(x) & Q(x)))",
    # -- non-tautologies everywhere --
    r"forall x. P(x)",
    r"exists x. (P(x) & Q(x))",
    r"forall x. (P(x) -> Q(x))",
    r"(exists x. P(x)) -> (forall x. P(x))",
    r"forall x. (P(x) <-> Q(x))",
    r"forall x. ~P(x)",
    r"forall x. (P(x) & P(x))",
    r"(forall y. exists x. R(x,y)) -> (exists x. forall y. R(x,y))",
    r"forall x. exists y. R(x,y)",
    r"exists x. R(x,x)",
    r"forall x. (Q(x) \/ ~P(x))",
    r"(exists x. P(x)) -> (exists x. (P(x) & P(x)))",
    r"forall x. ((P(x) -> Q(x)) -> Q(x))",
]

# 30 classical formulas: only /\, \/, ~, forall, atoms.
CLASSICAL_CORPUS_TEXT = [
    # -- classical tautologies --
    r"forall x. (P(x) \/ ~P(x))",
    r"forall x. ~(P(x) /\ ~P(x))",
    r"forall x. (~(P(x) /\ Q(x)) \/ (P(x) /\ Q(x)))",
    r"forall x. ((P(x) /\ Q(x)) \/ ~P(x) \/ ~Q(x))",
    r"forall x. (~~P(x) \/ ~P(x))",
    r"forall x. (P(x) \/ Q(x) \/ ~P(x))",
    r"forall x. ((P(x) \/ ~Q(x)) \/ (Q(x) /\ ~P(x)))",
    r"(forall x. P(x)) \/ ~(forall x. P(x))",
    r"forall x. (~(P(x) \/ Q(x)) \/ P(x) \/ Q(x))",
    r"forall x. ((P(x) /\ ~P(x)) \/ (Q(x) \/ ~Q(x)))",
    r"forall y. (R(y,y) \/ ~R(y,y))",
    r"forall x. (~P(x) \/ ~~P(x))",
    r"forall x. ((P(x) \/ ~P(x)) /\ (Q(x) \/ ~Q(x)))",
    r"forall x. (P(x) \/ ~(P(x) /\ Q(x)))",
    r"forall x. (~P(x) \/ (P(x) \/ Q(x)))",
    # -- classically refutable --
    r"forall x. P(x)",
    r"forall x. ~P(x)",
    r"forall x. (P(x) /\ Q(x))",
    r"forall x. (P(x) \/ Q(x))",
    r"forall x. (~P(x) \/ Q(x))",
    r"forall x. (P(x) /\ ~Q(x))",
    r"forall x. ~(P(x) \/ Q(x))",
    r"forall x. ~(P(x) /\ Q(x))",
    r"forall x. forall y. R(x,y)",
    r"forall x. ~R(x,x)",
    r"(forall x. P(x)) \/ (forall x. ~P(x))",
    r"forall x. (P(x) \/ (Q(x) /\ ~Q(x)))",
    r"forall x. ((P(x) /\ Q(x)) \/ ~P(x))",
    r"forall x. (~~P(x) /\ ~P(x))",
    r"forall x. ((P(x) \/ Q(x)) /\ ~Q(x))",
]

# Instances of the five quantifier axiom schemata.
FO_AXIOM_INSTANCES_TEXT = {
    "forall1": [
        r"(forall x. P(x)) -> P(y)",
        r"(forall x. R(x,y)) -> R(z,y)",
    ],
    "exists1": [
        r"P(y) -> (exists x. P(x))",
        r"R(y,z) -> (exists x. R(x,z))",
    ],
    "forall2": [
        r"(forall x. (Q(y) -> P(x))) -> (Q(y) -> (forall x. P(x)))",
        r"(forall x. (R(y,y) -> R(x,y))) -> (R(y,y) -> (forall x. R(x,y)))",
    ],
    "exists2": [
        r"(forall x. (P(x) -> Q(y))) -> ((exists x. P(x)) -> Q(y))",
        r"(forall x. (R(x,y) -> Q(y))) -> ((exists x. R(x,y)) -> Q(y))",
    ],
    "forall3": [
        r"(forall x. (P(x) \/ Q(y))) -> ((forall x. P(x)) \/ Q(y))",
        r"(forall x. (R(x,y) \/ P(y))) -> ((forall x. R(x,y)) \/ P(y))",
    ],
}


# Each corpus is parsed once per process; formulas are frozen values.


@functools.cache
def fixed_corpus() -> tuple[Formula, ...]:
    return tuple(parse(t, kind="fo") for t in FIXED_CORPUS_TEXT)


@functools.cache
def classical_corpus() -> tuple[Formula, ...]:
    return tuple(parse(t, kind="fo") for t in CLASSICAL_CORPUS_TEXT)


@functools.cache
def fo_axiom_instances() -> Mapping[str, tuple[Formula, ...]]:
    """Schema name -> its instances, read-only."""
    return MappingProxyType({
        name: tuple(parse(t, kind="fo") for t in texts)
        for name, texts in FO_AXIOM_INSTANCES_TEXT.items()
    })


# ---------------------------------------------------------------------------
# Random formulas


_PREDICATES = sorted(DEFAULT_SIGNATURE)
_VARIABLES = ("x", "y", "z")
# Node classes to draw from, the leaf's class first; Delta is appended
# last when allowed.
_FO_KINDS = (Atom, And, StrongAnd, Or, Implies, Not, Iff, Forall, Exists)
_PROP_KINDS = (Var, And, StrongAnd, Or, Implies, Not, Iff)


def random_formula(
    rng: random.Random, depth: int = 4, allow_delta: bool = False
) -> Formula:
    """Seeded random first-order formula over the unary P, Q and the
    binary R, with variables x, y, z.

    Connective choice is uniform at every step; leaves are atoms with
    uniformly chosen argument variables (or bot).  May produce free
    variables; close with universal_closure where needed.
    """

    def atom():
        pred = rng.choice(_PREDICATES)
        args = tuple(rng.choice(_VARIABLES) for _ in range(DEFAULT_SIGNATURE[pred]))
        return Atom(pred, args)

    return _random(rng, depth, atom, _FO_KINDS + ((Delta,) if allow_delta else ()))


def random_propositional(
    rng: random.Random, depth: int = 4, allow_delta: bool = False
) -> Formula:
    """Seeded random propositional formula over p, q, r."""
    var = lambda: Var(rng.choice(("p", "q", "r")))
    return _random(rng, depth, var, _PROP_KINDS + ((Delta,) if allow_delta else ()))


def _random(rng, depth, leaf, kinds):
    """The one generator body: each node's class is drawn uniformly
    from kinds while depth lasts; a leaf is bot with probability 0.1
    and leaf() otherwise."""
    kind = rng.choice(kinds) if depth > 0 else kinds[0]
    sub = lambda: _random(rng, depth - 1, leaf, kinds)
    if kind is kinds[0]:
        return Bottom() if rng.random() < 0.1 else leaf()
    if kind is Not or kind is Delta:
        return kind(sub())
    if kind is Forall or kind is Exists:
        return kind(rng.choice(_VARIABLES), sub())
    return kind(sub(), sub())
