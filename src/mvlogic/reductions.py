"""Formula and model translations between logics.

Covers: the squaring translation that pushes weak-nilpotent-minimum
evaluation into the idempotent part of the chain, the induced model
restriction and Goedel-fragment extraction; the predicate-definedness
guard and the collapse of MV-valued models to Boolean ones; the
double-negation translation; and the delta guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .chains import (
    ONE,
    ZERO,
    BaseChain,
    Chain,
    _equally_spaced,
    make_chain,
    negation_profile,
    require_finite,
    require_mv,
    satisfies_identity,
)
from .errors import TranslationError
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
    desugar,
    has_delta,
    is_classical,
    map_leaves,
    rebuild,
    signature_of,
    universal_closure,
)
from .semantics import Model


def _square(phi: Formula) -> Formula:
    return StrongAnd(phi, phi)


def wnm_star(phi: Formula) -> Formula:
    """Squaring translation: atoms and implications are squared, the
    other primitive connectives and quantifiers pass through.  Derived
    connectives are desugared first; delta is rejected."""
    if has_delta(phi):
        raise TranslationError("the squaring translation is delta-free")
    return _wnm_star(desugar(phi))


def _wnm_star(phi: Formula) -> Formula:
    t = type(phi)
    if t is Atom:
        return _square(phi)
    if t is Implies:
        return _square(rebuild(phi, _wnm_star))
    if t in (Bottom, And, StrongAnd, Forall, Exists):
        return rebuild(phi, _wnm_star)
    raise TranslationError(f"unexpected node after desugaring: {phi!r}")


def _relabel(model: Model, fn) -> Model:
    """The model with every cell value x replaced by fn(x)."""
    return Model(
        model.domain_size,
        {
            pred: {args: fn(val) for args, val in cells.items()}
            for pred, cells in model.tables.items()
        },
    )


def _leaf(source: Chain, target: Chain, fn) -> tuple[int, ...]:
    """The value map fn as a leaf map of the mask engine: source
    carrier index i -> target carrier index of fn(carrier[i])."""
    return tuple(target.index(fn(x)) for x in source.carrier)


@dataclass(frozen=True)
class GodelFragment:
    """The Goedel chain carried by A+ together with 0, plus the order
    embedding from its indices into the source chain's indices."""

    chain: Chain
    embedding: tuple[int, ...]  # fragment index -> source index
    source: Chain
    to_fragment: dict[Fraction, Fraction]  # source value in A+ or 0 -> fragment value

    def _plus(self, val: Fraction) -> Fraction:
        return val if val in self.to_fragment else ZERO

    def _restricted(self, val: Fraction) -> Fraction:
        return self.to_fragment.get(val, ZERO)

    def model_plus(self, model: Model) -> Model:
        """The model with every value outside A+ zeroed."""
        return _relabel(model, self._plus)

    def restrict_value(self, x: Fraction) -> Fraction:
        """Source value in A+ or 0 -> fragment value."""
        try:
            return self.to_fragment[x]
        except KeyError:
            self.source.index(x)  # a value off the carrier is a bad parameter
            raise TranslationError(f"{x} is not in the fragment support")

    def translate_model(self, model: Model) -> Model:
        """The restricted model read through the embedding inverse."""
        return _relabel(model, self._restricted)

    @cached_property
    def plus_leaf(self) -> tuple[int, ...]:
        """model_plus as a leaf map of the mask engine."""
        return _leaf(self.source, self.source, self._plus)

    @cached_property
    def fragment_leaf(self) -> tuple[int, ...]:
        """translate_model as a leaf map of the mask engine."""
        return _leaf(self.source, self.chain, self._restricted)


def model_plus(chain: BaseChain, model: Model) -> Model:
    """Restrict a model's values to the idempotent part: cells whose
    value is outside A+ are zeroed."""
    return godel_fragment(chain).model_plus(model)


def godel_fragment(chain: BaseChain) -> GodelFragment:
    """Extract the Goedel chain with support A+ together with bottom,
    relabeled to equally spaced rationals."""
    c = require_finite(chain)
    if not satisfies_identity(c, "wnm"):
        raise TranslationError(f"{c.name} is not a WNM chain")
    support = sorted({0} | set(negation_profile(c).a_plus))
    k = len(support)
    carrier = _equally_spaced(k)
    table = tuple(tuple(min(i, j) for j in range(k)) for i in range(k))
    godel = Chain(f"godel_fragment({c.name})", carrier, table)
    to_fragment = {c.carrier[i]: x for i, x in zip(support, carrier)}
    return GodelFragment(godel, tuple(support), c, to_fragment)


# ---------------------------------------------------------------------------
# Predicate definedness and the MV -> Boolean collapse


def predef_atom(pred: str, arity: int) -> Formula:
    atom = Atom(pred, tuple(f"x{i+1}" for i in range(arity)))
    return universal_closure(Not(Iff(atom, Not(atom))))


def predef(phi: Formula) -> Formula:
    """Conjunction of the definedness guard over the formula's
    predicates, in first-occurrence order; classical input only."""
    if not is_classical(phi):
        raise TranslationError("predef is defined for classical formulas only")
    sig = signature_of(phi)
    if not sig:
        raise TranslationError("formula has no atoms")
    parts = [predef_atom(pred, arity) for pred, arity in sig.items()]
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = And(part, out)
    return out


def luk_star(phi: Formula) -> Formula:
    """The guarded translation ~PREDEF \\/ (~phi -> phi)."""
    if not is_classical(phi):
        raise TranslationError("luk_star is defined for classical formulas only")
    return Or(Not(predef(phi)), Implies(Not(phi), phi))


def _collapse(chain: BaseChain):
    """The collapse of one value: 1 in A+, 0 elsewhere; the chain must
    be an MV-chain."""
    c = require_mv(chain)
    plus_values = {c.carrier[i] for i in negation_profile(c).a_plus}
    return lambda val: ONE if val in plus_values else ZERO


def boolean_collapse(chain: BaseChain, model: Model) -> Model:
    """Boolean model with 1 exactly in the cells whose value lies in
    A+; the chain must be an MV-chain."""
    return _relabel(model, _collapse(chain))


def collapse_leaf(chain: BaseChain) -> tuple[int, ...]:
    """boolean_collapse as a leaf map of the mask engine onto the
    Boolean chain."""
    return _leaf(chain, make_chain("boolean"), _collapse(chain))


# ---------------------------------------------------------------------------
# Atom-level guards


def double_neg(phi: Formula) -> Formula:
    """Replace every atom with its double negation; delta-free input."""
    if has_delta(phi):
        raise TranslationError("the double-negation translation is delta-free")
    return map_leaves(phi, Atom, lambda a: Not(Not(a)))


def delta_guard(phi: Formula) -> Formula:
    """Replace every atom a with !a; the target chain must provide
    delta (checked at evaluation time)."""
    return map_leaves(phi, Atom, Delta)
