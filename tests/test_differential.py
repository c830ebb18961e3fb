"""Checks of mvlogic's checkers that do not rest on its own evaluator.

eval_fo is the certificate checker and the oracle that every mask scan
re-checks its failures with, so it is checked on its own against the
benchmark's reference semantics, perfbench/ref.py, which shares no code
with mvlogic (its own parser, closed-form family operations and
evaluator): on every model, in ref's canonical order, of each lemma-tr
chain and corpus formula at domain sizes 1 and 2.

The language has no equality, so a model whose element n + 1 copies
element 1 gives every closed formula the value that the size-n model
gives.  Hence a refutation at size 1 stays a refutation at size 2, for
the grounded and for the direct checker, and the masks at the copy's
rank read the size-1 value.
"""

import importlib.util
import itertools
from pathlib import Path

from mvlogic import (
    Model,
    eval_fo,
    ground,
    is_taut_prop,
    masks,
    pretty,
    signature_of,
    universal_closure,
)
from mvlogic.corpus import fixed_corpus
from mvlogic.suites import _lemma_tr_chains

_spec = importlib.util.spec_from_file_location(
    "perfbench_ref", Path(__file__).resolve().parents[1] / "perfbench" / "ref.py"
)
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)

REF_CHAINS = {
    c.name: c
    for c in [
        ref.boolean(),
        ref.lukasiewicz(2),
        ref.lukasiewicz(3),
        ref.godel(3),
        ref.godel(4),
        ref.nm(4),
        ref.nm(5),
        ref.dp(4),
    ]
}


def test_eval_fo_is_ref_on_every_small_model():
    models = 0
    differences = []
    for chain in _lemma_tr_chains():
        ref_chain = REF_CHAINS[chain.name]
        assert ref_chain.carrier == chain.carrier
        for phi in fixed_corpus():
            closed = universal_closure(phi)
            ref_phi = ref.parse(pretty(closed))
            sig = signature_of(closed)
            assert ref.signature(ref_phi) == sig
            for n in (1, 2):
                cells = ref.model_cells(sig, n)
                for row in itertools.product(chain.carrier, repeat=len(cells)):
                    table = dict(zip(cells, row))
                    tables = {pred: {} for pred in sorted(sig)}
                    for (pred, args), value in table.items():
                        tables[pred][args] = value
                    mine = eval_fo(chain, Model(n, tables), {}, closed)
                    theirs = ref.evaluate(ref_chain, ref_phi, n, table)
                    models += 1
                    if mine != theirs:
                        differences.append((chain.name, pretty(phi), table, mine, theirs))
    assert differences[:5] == []
    assert models == 62_164


def _copy_element_1(model, sig):
    """The model of size n + 1 whose element n + 1 copies element 1."""
    n = model.domain_size
    return Model(n + 1, {
        pred: {
            args: model.value(pred, tuple(1 if a == n + 1 else a for a in args))
            for args in itertools.product(range(1, n + 2), repeat=sig[pred])
        }
        for pred in sorted(sig)
    })


def _value_at(space, program, rank):
    """The carrier index that the program's masks give the rank."""
    for chunk, (values,) in space.scan(program):
        if rank < chunk.start + chunk.size:
            return next(v for v, mask in enumerate(values) if mask >> (rank - chunk.start) & 1)


def test_a_refutation_at_size_1_stays_at_size_2():
    refuted = 0
    for chain in _lemma_tr_chains():
        identity = tuple(range(chain.size))
        for phi in fixed_corpus():
            closed = universal_closure(phi)
            sig = signature_of(closed)
            one, two = (masks.Space(sig, n, chain.size) for n in (1, 2))
            for rank in range(one.size):
                model = one.model(rank, chain.carrier)
                value = eval_fo(chain, model, {}, closed)
                assert eval_fo(chain, _copy_element_1(model, sig), {}, closed) == value
            program = masks.Program(chain, closed, two, identity)
            found = masks.first_rank(one, masks.Program(chain, closed, one, identity))
            grounded_1, _ = is_taut_prop(chain, ground(closed, 1).formula)
            assert grounded_1 == (found is None)
            if found is None:
                continue
            refuted += 1
            copy = _copy_element_1(one.model(found[0], chain.carrier), sig)
            rank = 0
            for pred, args in two.cells:
                rank = rank * chain.size + chain.index(copy.value(pred, args))
            assert _value_at(two, program, rank) == found[1]
            assert masks.first_rank(two, program) is not None
            assert not is_taut_prop(chain, ground(closed, 2).formula)[0]
    assert refuted == 137  # of the 400 (chain, formula) pairs
