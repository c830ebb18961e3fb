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

A certificate is checked by eval_fo, so ref decides which edits of a
model cell leave it a real countermodel: those must still verify, and
every other single edit must be rejected.
"""

import importlib.util
import itertools
from pathlib import Path

from mvlogic import (
    Model,
    MvlogicError,
    certificate_from_text,
    certificate_to_text,
    eval_fo,
    find_countermodel,
    ground,
    is_taut_prop,
    make_chain,
    masks,
    pretty,
    signature_of,
    universal_closure,
    verify_certificate,
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


def _rejected(text):
    """Whether the certificate text is refused: it does not read back,
    its check raises, or its check answers False."""
    try:
        return not verify_certificate(certificate_from_text(text))
    except MvlogicError:
        return True


def _cell_lines(lines):
    """(line index, predicate, arguments, value text) of each model cell."""
    start, end = lines.index("begin model"), lines.index("end model")
    pred = None
    for i in range(start + 3, end):
        words = lines[i].split()
        if words[0] == "pred":
            pred = words[1]
        else:
            yield i, pred, tuple(map(int, words[:-1])), words[-1]


def _edited(lines, i, line):
    return "\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n"


def test_corpus_certificates_read_back_and_reject_single_edits():
    certificates = cell_edits = kept = 0
    for chain in (make_chain("lukasiewicz", 2), make_chain("godel", 3), make_chain("nm", 4)):
        ref_chain = REF_CHAINS[chain.name]
        for phi in fixed_corpus():
            cert = find_countermodel(chain, phi, 2)
            if cert is None:
                continue
            certificates += 1
            text = certificate_to_text(cert)
            assert certificate_from_text(text) == cert
            assert verify_certificate(certificate_from_text(text))
            lines = text.splitlines()
            at = {line.split()[0]: i for i, line in reversed(list(enumerate(lines)))}
            other = next(v for v in chain.carrier if v != cert.value)
            digit = "0" if cert.chain_hash[-1] != "0" else "1"
            row = at["begin"] + 6  # star-table row 1 of the inline chain
            entries = lines[row].split()
            entries[1] = str((int(entries[1]) + 1) % chain.size)
            cells = list(_cell_lines(lines))
            i, pred, args, _ = cells[0]
            edits = {
                "value": _edited(lines, at["value"], f"value {other}"),
                "hash": _edited(lines, at["chain"], f"chain {cert.chain_name} {cert.chain_hash[:-1]}{digit}"),
                "inline table": _edited(lines, row, " ".join(entries)),
                "valuation": _edited(lines, at["valuation"], "valuation x=1"),
                "cell off the carrier": _edited(lines, i, " ".join(map(str, args)) + " 1/7"),
            }
            # The first on-carrier cell edit that ref says moves the value;
            # the edits before it leave a real countermodel.
            ref_phi = ref.parse(cert.formula_text)
            table = {(p, a): v for p, t in cert.model.tables.items() for a, v in t.items()}
            n = cert.model.domain_size
            for i, pred, args, value in cells:
                for v in chain.carrier:
                    if str(v) == value:
                        continue
                    edited = _edited(lines, i, " ".join(map(str, args + (v,))))
                    if ref.evaluate(ref_chain, ref_phi, n, {**table, (pred, args): v}) == cert.value:
                        assert not _rejected(edited), (chain.name, cert.formula_text, pred, args, v)
                        kept += 1
                        continue
                    edits["cell"] = edited
                    break
                if "cell" in edits:
                    cell_edits += 1
                    break
            for name, edited in edits.items():
                assert _rejected(edited), (name, chain.name, cert.formula_text)
    assert (certificates, cell_edits, kept) == (58, 55, 16)
