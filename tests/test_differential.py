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

The two bounded checkers are compared with ref's exhaustive scans on
seeded chains and formulas: their verdicts agree, and each witness is
the first one ref's canonical order finds.
"""

import importlib.util
import itertools
import random
from pathlib import Path

from mvlogic import (
    Model,
    MvlogicError,
    certificate_from_text,
    certificate_to_text,
    count_models,
    delta_expand,
    eval_fo,
    find_countermodel,
    ground,
    is_taut_prop,
    make_chain,
    make_wnm_chain,
    masks,
    pretty,
    signature_of,
    universal_closure,
    verify_certificate,
)
from mvlogic.corpus import fixed_corpus
from mvlogic.errors import InvalidNegationError, UnsupportedChainError
from mvlogic.formulas import (
    And,
    Atom,
    Bottom,
    Delta,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    StrongAnd,
)
from mvlogic.grounding import _taut_upto_grounded, cell_variable
from mvlogic.search import _taut_upto_direct
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
            program = masks.Program(masks.Code(closed, two), chain, identity)
            found = masks.first_rank(one, masks.Program(masks.Code(closed, one), chain, identity))
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


# ---------------------------------------------------------------------------
# The two bounded checkers against ref


def _random_wnm(rng, k):
    """A seeded weak negation on k points, as make_wnm_chain checks them,
    with its chain and ref's."""
    while True:
        neg = (k - 1, *sorted(rng.choices(range(k), k=k - 2), reverse=True), 0)
        try:
            return make_wnm_chain(neg, "wnm"), ref.wnm(neg)
        except InvalidNegationError:
            continue


def _checker_chains(rng):
    """(mvlogic chain, ref chain) pairs: three random WNM negations,
    the named families, and delta expansions of three of them."""
    pairs = [_random_wnm(rng, k) for k in (4, 5, 6)]
    pairs += [
        (make_chain("boolean"), ref.boolean()),
        (make_chain("lukasiewicz", 2), ref.lukasiewicz(2)),
        (make_chain("godel", 3), ref.godel(3)),
        (make_chain("nm", 4), ref.nm(4)),
        (make_chain("dp", 3), ref.dp(3)),
    ]
    pairs += [(delta_expand(c), ref.with_delta(r)) for c, r in pairs[3:6]]
    for chain, ref_chain in pairs:
        assert chain.carrier == ref_chain.carrier and chain.has_delta == ref_chain.delta
    return pairs


# Predicate names with "_", digits and "'", of arities 0, 1 and 2;
# p(1,1) and p_1(1) would share a variable if "_" were not doubled.
CHECKER_PREDICATES = {"B0": 0, "p_1": 1, "Q'": 1, "p": 2}


def _random_formula(rng, depth):
    """A seeded first-order formula with delta among its connectives,
    over the variables x and y, which the closure binds."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.1:
            return Bottom()
        pred = rng.choice(sorted(CHECKER_PREDICATES))
        return Atom(pred, tuple(rng.choice("xy") for _ in range(CHECKER_PREDICATES[pred])))
    kind = rng.choice([Not, Delta, And, StrongAnd, Implies, Or, Iff, Forall, Exists])
    if kind in (Not, Delta):
        return kind(_random_formula(rng, depth - 1))
    if kind in (Forall, Exists):
        return kind(rng.choice("xy"), _random_formula(rng, depth - 1))
    return kind(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def _outcome(check, *args):
    try:
        return check(*args)
    except MvlogicError as exc:
        return type(exc)


def test_both_checkers_find_refs_first_witness():
    """On seeded chains and formulas at bound 2: the grounded and the
    direct checker agree on (is_taut, refuted_at), the direct witness is
    ref's first countermodel, and the grounded witness is ref's first
    refuting assignment at the refuting size.  A formula with delta on
    a chain without it raises in both checkers, as it does in ref."""
    rng = random.Random(24)
    bound, max_points = 2, 800
    chains = _checker_chains(rng)
    seen = {"taut": 0, "refuted": 0, "no delta": 0}
    for _ in range(120):
        a, b = (_random_formula(rng, rng.randint(0, 2)) for _ in "ab")
        # Most random formulas are refuted: every third one is an MTL
        # tautology schema over random parts.
        phi = rng.choice([
            _random_formula(rng, rng.randint(1, 3)),
            _random_formula(rng, rng.randint(1, 3)),
            rng.choice([Implies(a, Or(a, b)), Implies(StrongAnd(a, b), a), Implies(Delta(a), a)]),
        ])
        closed = universal_closure(phi)
        sig = signature_of(closed)
        ref_phi = ref.parse(pretty(closed))
        for chain, ref_chain in chains:
            if sum(count_models(sig, n, chain.carrier) for n in (1, 2)) > max_points:
                continue
            store = masks.Compiled(closed)
            grounded = _outcome(_taut_upto_grounded, chain, phi, bound, store)
            direct = _outcome(_taut_upto_direct, chain, phi, bound, store)
            try:
                expected = ref.first_countermodel(ref_chain, ref_phi, bound, ref_chain.carrier)
            except ValueError:  # ref's delta on a chain without one
                assert grounded is direct is UnsupportedChainError, pretty(phi)
                seen["no delta"] += 1
                continue
            assert (grounded.is_taut, grounded.refuted_at) == (direct.is_taut, direct.refuted_at)
            if expected is None:
                assert direct.is_taut, (chain.name, pretty(phi))
                seen["taut"] += 1
                continue
            n, table = expected
            model = direct.witness["model"]
            assert (direct.refuted_at, model.domain_size) == (n, n), (chain.name, pretty(phi))
            assert {(p, a): v for p in model.tables for a, v in model.tables[p].items()} == table
            names = {cell_variable(p, a): (p, a) for p, a in ref.occurring_cells(ref_phi, n)}
            assert grounded.grounded.legend == names
            assert grounded.witness == ref.first_refuting_assignment(ref_chain, ref_phi, n, names)
            seen["refuted"] += 1
    assert min(seen.values()) >= 150, seen
