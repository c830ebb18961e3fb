"""Golden outputs of the three checkers and of `ground` on the fixed corpus.

`golden_corpus.json` holds, for each corpus formula at bound 2 on five
chains, the grounded verdict and witness, the direct verdict and the
sha256 of the `find_countermodel` certificate text, plus the
`ground --size 2` output for five corpus formulas.  Any refactor of the
engines must reproduce it byte for byte.  Re-record (only for a
documented behaviour change) with:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from mvlogic import (
    certificate_to_text,
    find_countermodel,
    make_chain,
    make_wnm_chain,
    pretty,
    taut_upto_direct,
    taut_upto_grounded,
)
from mvlogic.cli import run
from mvlogic.corpus import FIXED_CORPUS_TEXT, fixed_corpus

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


def compute_golden() -> dict:
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
    got = compute_golden()
    assert got["ground"] == expected["ground"]
    assert len(got["cases"]) == len(expected["cases"])
    for g, e in zip(got["cases"], expected["cases"]):
        assert g == e


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    golden = compute_golden()
    rows = ",\n  ".join(json.dumps(case, sort_keys=True) for case in golden.pop("cases"))
    head = json.dumps(golden, indent=1, sort_keys=True)[:-2]
    GOLDEN.write_text(f'{head},\n "cases": [\n  {rows}\n ]\n}}\n')
