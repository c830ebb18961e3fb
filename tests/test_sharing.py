"""Codes compiled once and bound to many chains.

A masks.Code holds no chain, so the suites and the checkers compile a
formula once per domain size and cell layout and bind that Code to each
chain of a call.  Here every such shared Code gives, on every chunk, the
masks of a Code compiled afresh for that chain: on the model space, on
the grounded checker's variable space, and on lemma-tr's grounding laid
out on the model space's cells.  The domain-permutation properties check
the cell positions that a shared Code carries: renaming the domain
elements of a model leaves a closed formula's value where it was.
"""

import itertools

import pytest

from mvlogic import (
    delta_expand,
    ground,
    make_chain,
    make_wnm_chain,
    parse,
    signature_of,
    taut_upto_grounded,
    universal_closure,
)
from mvlogic import masks
from mvlogic.corpus import fixed_corpus
from mvlogic.errors import MvlogicError
from mvlogic.formulas import pretty, prop_variables
from mvlogic.grounding import _taut_upto_grounded, cell_variable
from mvlogic.suites import _Coded, shipped_chains

CHAINS = shipped_chains(5)
# A predicate that sorts before P, Q and R, so that it moves every cell.
EXTRA = "A0"


def _bind(code, chain):
    """The Program, or the error that binding raises."""
    try:
        return masks.Program(code, chain, tuple(range(chain.size)))
    except MvlogicError as exc:
        return type(exc), str(exc)


def _assert_same_masks(space, shared, fresh):
    """shared and fresh bind the same way, and agree on every chunk."""
    if isinstance(fresh, tuple):
        assert shared == fresh
        return
    assert shared.live_bits == fresh.live_bits
    for chunk, (a, b) in space.scan(shared, fresh):
        assert a == b, chunk.start


@pytest.mark.parametrize("phi", fixed_corpus(), ids=pretty)
def test_a_shared_code_is_a_fresh_compile_on_the_model_space(phi):
    """One Compiled per formula serves every chain and both domain sizes,
    and a second layout: the signature with one more predicate, whose
    cells shift every position of the formula's own."""
    closed = universal_closure(phi)
    sig = signature_of(closed)
    compiled = masks.Compiled(closed)
    for chain in CHAINS:
        for n in (1, 2):
            for layout in (sig, {**sig, EXTRA: 1}):
                space = masks.Space(layout, n, chain.size)
                shared = _bind(compiled.code(space), chain)
                fresh = _bind(masks.Code(closed, space), chain)
                _assert_same_masks(space, shared, fresh)


@pytest.mark.parametrize("phi", fixed_corpus(), ids=pretty)
def test_shared_groundings_are_fresh_compiles_on_the_variable_space(phi):
    """The grounded checker's groundings, kept across the chains of one
    call, give each chain the verdict and the masks of a fresh check."""
    closed = universal_closure(phi)
    groundings = {}
    for chain in CHAINS:
        assert _taut_upto_grounded(chain, phi, 2, groundings) == taut_upto_grounded(chain, phi, 2)
        for n, (g, names, compiled) in groundings.items():
            fresh_formula = ground(closed, n).formula
            assert g.formula == fresh_formula
            assert names == sorted(prop_variables(fresh_formula))
            space = masks.Space.of_variables(names, chain.size)
            shared = _bind(compiled.code(space), chain)
            fresh = _bind(masks.Code(fresh_formula, space), chain)
            _assert_same_masks(space, shared, fresh)


@pytest.mark.parametrize("phi", fixed_corpus(), ids=pretty)
def test_a_shared_grounding_is_a_fresh_compile_on_model_cells(phi):
    """lemma-tr's grounding, compiled on the model space's cell order and
    run on the model space's chunks, shared across the chains."""
    closed = universal_closure(phi)
    sig = signature_of(closed)
    coded = _Coded(closed)
    for chain in CHAINS:
        for n in (1, 2):
            space = masks.Space(sig, n, chain.size)
            names = [cell_variable(pred, args) for pred, args in space.cells]
            cells = masks.Space.of_variables(names, chain.size)
            shared = _bind(coded.code(space), chain)
            fresh = _bind(masks.Code(ground(closed, n).formula, cells), chain)
            _assert_same_masks(space, shared, fresh)


# ---------------------------------------------------------------------------
# Domain-permutation invariance

PERMUTATION_CHAINS = [
    make_chain("boolean"),
    make_chain("lukasiewicz", 2),
    make_chain("nm", 4),
    make_wnm_chain([4, 3, 1, 1, 0], "wnmA"),
    delta_expand(make_chain("godel", 3)),
]
MAX_RANKS = 20_000  # a Python loop visits every rank of each space
EXTRA_FORMULAS = [
    parse(text) for text in (
        "forall x. exists y. R(x,y)",
        "exists x. forall y. (R(x,y) -> P(y))",
        "forall x. forall y. (R(x,y) -> R(y,x))",
        "forall x. (P(x) & ~Q(x)) <-> exists y. (Q(y) -> !P(y))",
        "forall x. exists y. (R(x,y) & R(y,x)) \\/ exists x. ~R(x,x)",
    )
]


def _values(space, program):
    """The carrier index at every rank."""
    out = [None] * space.size
    for chunk, (values,) in space.scan(program):
        for v, mask in enumerate(values):
            for r in masks.ranks(mask):
                out[chunk.start + r] = v
    return out


def _renamed_ranks(space, perm):
    """For each rank, the rank of the model renamed by perm: its cell
    (p, args) holds what cell (p, perm(args)) holds in the first."""
    source = [space.position[(pred, tuple(perm[a] for a in args))] for pred, args in space.cells]
    width = len(space.cells)
    places = [space.radix ** (width - 1 - i) for i in range(width)]
    return [
        sum(digits[s] * place for s, place in zip(source, places))
        for digits in itertools.product(range(space.radix), repeat=width)
    ]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("phi", [*fixed_corpus(), *EXTRA_FORMULAS], ids=pretty)
def test_renaming_the_domain_keeps_the_value(phi, n):
    """With one Compiled per formula bound to each chain: rank r and its
    image under a transposition and, at n = 3, a 3-cycle of the domain
    read the same value.  Together they generate every permutation."""
    closed = universal_closure(phi)
    sig = signature_of(closed)
    compiled = masks.Compiled(closed)
    perms = [{1: 2, 2: 1, 3: 3}] + ([{1: 2, 2: 3, 3: 1}] if n == 3 else [])
    checked = 0
    for chain in PERMUTATION_CHAINS:
        if chain.size ** sum(n**a for a in sig.values()) > MAX_RANKS:
            continue
        space = masks.Space(sig, n, chain.size)
        program = _bind(compiled.code(space), chain)
        if isinstance(program, tuple):  # delta on a chain without it
            continue
        values = _values(space, program)
        assert None not in values
        for perm in perms:
            renamed = _renamed_ranks(space, perm)
            assert sorted(renamed) == list(range(space.size))
            assert [values[r] for r in renamed] == values, (chain.name, perm)
        checked += 1
    assert checked >= 1


def test_renaming_moves_most_ranks():
    """The renamed ranks are not the identity on the spaces checked."""
    space = masks.Space({"P": 1, "R": 2}, 3, 2)
    renamed = _renamed_ranks(space, {1: 2, 2: 3, 3: 1})
    assert sum(r != i for i, r in enumerate(renamed)) > space.size // 2
