"""Golden outputs of the checkers, the suites and the model maps.

`golden_corpus.json` holds, for each corpus formula at bound 2 on five
chains, the grounded verdict and witness, the direct verdict and the
sha256 of the `find_countermodel` certificate text, plus the
`ground --size 2` output for five corpus formulas.  It also holds each
suite's case count and verdict at small parameters, and, for a WNM and
a nilpotent-minimum chain, the `modelmap` and `fragment` texts and the
library model maps on a model that holds a value outside the carrier.
Under `streams` it holds the pretty text of seeded random formulas
from both corpus generators, the subchains of three chains and the
one-element chain files of the named families.  Under `translations`
it holds, for each formula translation, the sha256 of the pretty texts
of its outputs over the corpora and seeded random formulas.
Any refactor must reproduce it byte for byte.  Re-record (only for a
documented behaviour change) with:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from mvlogic import (
    SUITES,
    Model,
    MvlogicError,
    boolean_collapse,
    certificate_to_text,
    chain_to_text,
    delta_guard,
    desugar,
    double_neg,
    find_countermodel,
    godel_fragment,
    lift_prop,
    luk_star,
    make_chain,
    make_rational_chain,
    make_wnm_chain,
    model_plus,
    model_to_text,
    predef,
    pretty,
    subchains,
    taut_upto_direct,
    taut_upto_grounded,
    wnm_star,
)
from mvlogic.cli import run
from mvlogic.corpus import (
    FIXED_CORPUS_TEXT,
    classical_corpus,
    fixed_corpus,
    random_formula,
    random_propositional,
)

GOLDEN = Path(__file__).with_name("golden_corpus.json")
BOUND = 2
CHAINS = (
    lambda: make_chain("boolean"),
    lambda: make_chain("lukasiewicz", 2),
    lambda: make_chain("godel", 3),
    lambda: make_chain("nm", 4),
    lambda: make_wnm_chain([4, 3, 1, 1, 0], "wnmA"),
)
# Indices into FIXED_CORPUS_TEXT: a unary, an open, a binary, an
# existential and a negated formula.
GROUND_CASES = (1, 14, 25, 38, 42)
# Every suite but oracle-agreement, whose defaults take about 14 s and
# which the acceptance tests run, at parameters that keep all of them
# to a few seconds.
SUITE_PARAMS = {
    "residuation": {"max_size": 6},
    "lemma-tr": {"trials": 20, "exhaustive_n": 1},
    "lemma-clos": {"trials": 20},
    "lemma-gc": {"max_n": 1},
    "lemma-gc1": {"max_n": 1},
    "lemma-pred": {"max_n": 1},
    "lemma-luk1": {"max_n": 1},
    "lemma-luk": {"bound": 2},
    "thm41-smtl": {"bound": 2},
    "thm41-bl": {"bound": 2},
    "thm415-delta": {"bound": 2},
    "formula-f": {},
    "fo-axioms": {"max_n": 1, "max_chain_size": 4},
    "divisibility": {},
    "thm413-demo": {"bound": 2},
}
STREAM_SEEDS = (0, 1, 2, 3)
SUBCHAIN_CHAINS = (("lukasiewicz", 6), ("godel", 5), ("nm", 6))
MAP_CHAINS = (
    lambda: make_wnm_chain([4, 3, 1, 1, 0], "wnmA"),
    lambda: make_chain("nm", 5),
)


def _outcome(fn, *args) -> str:
    """What a call gives: its text, or its error class and message."""
    try:
        out = fn(*args)
    except MvlogicError as exc:
        return f"{type(exc).__name__}: {exc}"
    return model_to_text(out) if isinstance(out, Model) else str(out)


def _cli(argv) -> str:
    """What a CLI command gives: its exit code and output, or its error."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run(argv)
    except MvlogicError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"exit {code}\n{out.getvalue()}"


def _map_model(chain) -> Model:
    """Cells cycling through the carrier, over a unary and a binary
    predicate of a 3-element domain."""
    vals = chain.carrier
    return Model.from_dict(3, {
        "P": {(i,): vals[i % len(vals)] for i in (1, 2, 3)},
        "R": {(i, j): vals[(3 * i + j) % len(vals)]
              for i in (1, 2, 3) for j in (1, 2, 3)},
    })


def compute_suites() -> dict:
    out = {}
    for name, kwargs in SUITE_PARAMS.items():
        report = SUITES[name](**kwargs)
        out[name] = {"cases": report.cases, "ok": report.ok}
    return out


def compute_maps() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for mk in MAP_CHAINS:
            chain = mk()
            model = _map_model(chain)
            chain_file = Path(tmp, "c.chain")
            model_file = Path(tmp, "m.model")
            chain_file.write_text(chain_to_text(chain))
            model_file.write_text(model_to_text(model))
            cli = {"fragment": _cli(["fragment", "--chain", str(chain_file)])}
            for pass_name in ("plus", "boolean-collapse"):
                cli[f"modelmap {pass_name}"] = _cli([
                    "modelmap", "--pass", pass_name, "--chain", str(chain_file),
                    "--model", str(model_file)])
            # Off the carrier: the library maps such a value, the CLI
            # rejects the model.
            odd = Model.from_dict(3, {
                **model.tables, "Q": {(1,): Fraction(1, 7), (2,): chain.top, (3,): chain.bottom},
            })
            frag = godel_fragment(chain)
            lib = {
                "model_plus": _outcome(model_plus, chain, odd),
                "boolean_collapse": _outcome(boolean_collapse, chain, odd),
                "translate_model": _outcome(frag.translate_model, odd),
                "restrict_value": [
                    _outcome(frag.restrict_value, x)
                    for x in chain.carrier + (Fraction(1, 7),)
                ],
            }
            out[chain.name] = {"cli": cli, "library": lib}
    model = _map_model(make_chain("lukasiewicz", 2))
    for chain in (make_chain("lukasiewicz", 3), make_rational_chain("nm")):
        out[chain.name] = {"library": {
            "model_plus": _outcome(model_plus, chain, model),
            "godel_fragment": _outcome(godel_fragment, chain),
            "boolean_collapse": _outcome(boolean_collapse, chain, model),
        }}
    return out


def compute_streams() -> dict:
    """Seeded generator output (one stream per seed, depths 0-5 twice,
    so that a change in how much randomness a formula draws shows up in
    the formulas after it), subchains and one-element chains."""
    out = {}
    for name, gen in (("random_formula", random_formula),
                      ("random_propositional", random_propositional)):
        for seed in STREAM_SEEDS:
            for allow_delta in (False, True):
                rng = random.Random(seed)
                out[f"{name} seed={seed} delta={allow_delta}"] = [
                    pretty(gen(rng, depth=depth, allow_delta=allow_delta))
                    for depth in (*range(6), *range(6))
                ]
    for family, n in SUBCHAIN_CHAINS:
        chain = make_chain(family, n)
        out[f"subchains {chain.name}"] = [list(s) for s in subchains(chain)]
    for family in ("godel", "nm", "dp"):
        out[f"chain_to_text {family}(1)"] = chain_to_text(make_chain(family, 1))
    return out


def _seeded(gen, allow_delta: bool) -> list:
    """The seeded formulas of compute_streams, as formulas."""
    out = []
    for seed in STREAM_SEEDS:
        rng = random.Random(seed)
        out.extend(gen(rng, depth=depth, allow_delta=allow_delta)
                   for depth in (*range(6), *range(6)))
    return out


def compute_translations() -> dict:
    """For each formula translation, the sha256 of the pretty texts of
    its outputs, one per line: the fixed corpus and seeded random
    formulas (delta-free for the delta-free translations), the
    classical corpus for the guards, seeded propositional formulas for
    lift_prop."""
    def fo(allow_delta):
        return [*fixed_corpus(), *_seeded(random_formula, allow_delta)]

    inputs = {
        "desugar": (desugar, fo(True)),
        "wnm_star": (wnm_star, fo(False)),
        "double_neg": (double_neg, fo(False)),
        "delta_guard": (delta_guard, fo(True)),
        "predef": (predef, classical_corpus()),
        "luk_star": (luk_star, classical_corpus()),
        "lift_prop": (lift_prop, _seeded(random_propositional, True)),
    }
    return {
        name: hashlib.sha256(
            "\n".join(pretty(translate(phi)) for phi in phis).encode()
        ).hexdigest()
        for name, (translate, phis) in inputs.items()
    }


def compute_golden() -> dict:
    return {
        **compute_corpus(), "suites": compute_suites(), "maps": compute_maps(),
        "streams": compute_streams(), "translations": compute_translations(),
    }


def compute_corpus() -> dict:
    cases = []
    for mk in CHAINS:
        chain = mk()
        for phi in fixed_corpus():
            grounded = taut_upto_grounded(chain, phi, BOUND)
            direct = taut_upto_direct(chain, phi, BOUND)
            cert = find_countermodel(chain, phi, BOUND)
            cases.append({
                "chain": chain.name,
                "formula": pretty(phi),
                "grounded": grounded.describe(),
                "witness": None if grounded.is_taut else {
                    var: str(val) for var, val in sorted(grounded.witness.items())
                },
                "direct": direct.describe(),
                "certificate_sha256": None if cert is None else hashlib.sha256(
                    certificate_to_text(cert).encode()
                ).hexdigest(),
            })
    ground = {}
    for i in GROUND_CASES:
        text = FIXED_CORPUS_TEXT[i]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["ground", "--size", "2", "--formula", text]) == 0
        ground[text] = out.getvalue()
    return {"bound": BOUND, "cases": cases, "ground": ground}


def test_golden_outputs_unchanged():
    expected = json.loads(GOLDEN.read_text())
    got = compute_corpus()
    assert got["ground"] == expected["ground"]
    assert len(got["cases"]) == len(expected["cases"])
    for g, e in zip(got["cases"], expected["cases"]):
        assert g == e


def test_golden_suites_unchanged():
    expected = json.loads(GOLDEN.read_text())["suites"]
    assert compute_suites() == expected


def test_golden_model_maps_unchanged():
    expected = json.loads(GOLDEN.read_text())["maps"]
    assert compute_maps() == expected


def test_golden_streams_unchanged():
    expected = json.loads(GOLDEN.read_text())["streams"]
    assert compute_streams() == expected


def test_golden_translations_unchanged():
    expected = json.loads(GOLDEN.read_text())["translations"]
    assert compute_translations() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    golden = compute_golden()
    rows = ",\n  ".join(json.dumps(case, sort_keys=True) for case in golden.pop("cases"))
    head = json.dumps(golden, indent=1, sort_keys=True)[:-2]
    GOLDEN.write_text(f'{head},\n "cases": [\n  {rows}\n ]\n}}\n')
