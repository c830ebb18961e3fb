"""The accepted and rejected sets of the three file readers:
chain_from_text, model_from_text and certificate_from_text.

The tables pin non-canonical inputs that parse, with the values they
parse to, and inputs that stay rejected.  The mutation test feeds the
readers about 2,000 seeded mutations of one file of each format and
pins how many parse and a digest of what they parse to, so a rewrite of
a reader cannot move the accepted set or a parsed value unnoticed.
"""

import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from mvlogic import (
    Chain,
    ChainLawError,
    FormatError,
    Model,
    MvlogicError,
    chain_from_text,
    chain_to_text,
    make_chain,
    make_wnm_chain,
    model_from_text,
    model_to_text,
    parse,
)
from mvlogic.search import (
    certificate_from_text,
    certificate_to_text,
    find_countermodel,
    verify_certificate,
)
from mvlogic.suites import shipped_chains

L2 = make_chain("lukasiewicz", 2)
CHAIN = chain_to_text(L2)
LOADED = Chain("loaded", L2.carrier, L2.star_table)
MODEL_VALUE = Model.from_dict(2, {"P": {(1,): F(0), (2,): F(1, 2)},
                                  "R": {(1, 1): F(0), (1, 2): F(1), (2, 1): F(1, 2), (2, 2): F(0)}})
MODEL = model_to_text(MODEL_VALUE)
CERT_VALUE = find_countermodel(L2, parse(r"forall x. forall y. (R(x,y) -> R(y,x)) \/ P(x)"), 2)
CERT = certificate_to_text(CERT_VALUE)
WNM = make_wnm_chain([4, 3, 1, 1, 0])
WNM_CERT = find_countermodel(WNM, parse("forall x. P(x)"), 1)


def _lines(text, fn):
    return "".join(fn(line) + "\n" for line in text.splitlines())


ACCEPTED = [
    ("chain-padded", chain_from_text, _lines(CHAIN, lambda s: "  " + s + "  "), LOADED),
    ("chain-tabbed", chain_from_text, _lines(CHAIN, lambda s: "\t" + s.replace(" ", "\t") + "\t"), LOADED),
    ("chain-blank-lines", chain_from_text, "\n \n" + _lines(CHAIN, lambda s: s + "\n\t"), LOADED),
    ("chain-crlf", chain_from_text, CHAIN.replace("\n", "\r\n"), LOADED),
    ("chain-embed-trailer", chain_from_text, CHAIN + "embed 1/2 -> 1/4\n\n  embed  1  ->  1\n", LOADED),
    ("chain-decimal-label", chain_from_text, CHAIN.replace("1/2", "0.5"), LOADED),
    ("model-padded", model_from_text, _lines(MODEL, lambda s: "  " + s + " "), MODEL_VALUE),
    ("model-tabbed", model_from_text, _lines(MODEL, lambda s: s.replace(" ", "\t")), MODEL_VALUE),
    ("model-blank-lines", model_from_text, "\n" + _lines(MODEL, lambda s: s + "\n  "), MODEL_VALUE),
    ("model-crlf", model_from_text, MODEL.replace("\n", "\r\n"), MODEL_VALUE),
    ("model-rows-in-any-order", model_from_text,
     "mtlmodel 1\ndomain 2\npred R 2\n2 2 0\n2 1 1/2\n1 2 1\n1 1 0\npred P 1\n2 1/2\n1 0\n",
     MODEL_VALUE),
    ("model-nullary", model_from_text, "mtlmodel 1\ndomain 3\npred Q 0\n1/3\n",
     Model.from_dict(3, {"Q": {(): F(1, 3)}})),
    ("model-no-tables", model_from_text, "mtlmodel 1\ndomain 1\n", Model.from_dict(1, {})),
    ("cert-padded", certificate_from_text,
     _lines(CERT, lambda s: s if s.startswith(("end ", "mtlcert")) else "  " + s + "  "),
     dataclasses.replace(CERT_VALUE, chain_text=_lines(CERT_VALUE.chain_text, lambda s: "  " + s + "  "))),
    ("cert-blank-lines", certificate_from_text,
     CERT.replace("\nformula", "\n\n \nformula").replace("\nvalue", "\n\t\nvalue"), CERT_VALUE),
    ("cert-crlf", certificate_from_text, CERT.replace("\n", "\r\n"), CERT_VALUE),
    ("cert-chain-name-with-spaces", certificate_from_text, certificate_to_text(WNM_CERT), WNM_CERT),
    ("cert-formula-inner-spacing", certificate_from_text,
     CERT.replace("forall y. ((R", "forall y.\t (  (R"),
     dataclasses.replace(CERT_VALUE, formula_text=CERT_VALUE.formula_text.replace(
         "forall y. ((R", "forall y.\t (  (R"))),
    ("cert-valuation-and-value-spacing", certificate_from_text,
     CERT.replace("valuation \n", "valuation   b=2\t a=1 \n").replace("value 1/2", "value \t1/2"),
     dataclasses.replace(CERT_VALUE, valuation={"b": 2, "a": 1})),
    ("cert-no-inline-chain", certificate_from_text,
     CERT[:CERT.index("begin chain")] + CERT[CERT.index("end chain\n") + 10:],
     dataclasses.replace(CERT_VALUE, chain_text=None)),
]


@pytest.mark.parametrize("reader, text, value", [a[1:] for a in ACCEPTED],
                         ids=[a[0] for a in ACCEPTED])
def test_accepted(reader, text, value):
    assert reader(text) == value
    assert repr(reader(text)) == repr(value)


REJECTED = [
    ("cert-padded-end-model", CERT.replace("end model", "  end model")),
    ("cert-end-model-trailing-space", CERT.replace("end model", "end model ")),
    ("cert-blank-line-before-header", "\n" + CERT),
    ("cert-tab-after-a-key", CERT.replace("formula ", "formula\t")),
    ("cert-begin-with-two-spaces", CERT.replace("begin model", "begin  model")),
]


@pytest.mark.parametrize("text", [r[1] for r in REJECTED], ids=[r[0] for r in REJECTED])
def test_rejected(text):
    with pytest.raises(FormatError) as exc:
        certificate_from_text(text)
    _names_a_line(exc.value, text)


def _names_a_line(exc, text, prefix=""):
    """A FormatError names the line of `text` it rejects."""
    found = re.match(prefix + r"line (\d+): ", str(exc))
    assert found, str(exc)
    assert 1 <= int(found[1]) <= max(1, len(text.splitlines())), str(exc)


def test_broken_tables_stay_rejected():
    """The 20 broken star tables of chain_mutations.json, as chain files."""
    recorded = json.loads((Path(__file__).parent / "chain_mutations.json").read_text())
    carriers = {c.name: c.carrier for c in shipped_chains(6)}
    assert len(recorded) == 20
    for rec in recorded:
        broken = Chain(rec["chain"], carriers[rec["chain"]], tuple(map(tuple, rec["star"])))
        with pytest.raises(ChainLawError):
            chain_from_text(chain_to_text(broken))


SNIPPETS = [" ", "\t", "\n", "\r\n", "\n\n", "0", "1", "2", "9", "-", "/", "=", "x", "1/0",
            "end model", "end chain", "begin model", "embed 1 -> 1", "pred Q 0", "pred P 1"]


def _mutate(text, rng):
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(6)
        at = rng.randrange(len(text) + 1)
        if op == 0:
            text = text[:at] + rng.choice(SNIPPETS) + text[at:]
        elif op == 1:
            text = text[:at] + text[at + rng.randint(1, 3):]
        elif op == 2:
            text = text[:at] + rng.choice("0123/ -\tx") + text[at + 1:]
        else:
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            j = min(i + 1, len(lines) - 1)
            if op == 3:
                lines.insert(i, lines[i])
            elif op == 4:
                del lines[i]
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


def _read_cert(text):
    cert = certificate_from_text(text)
    try:
        verified = verify_certificate(cert)
    except MvlogicError as exc:
        if isinstance(exc, FormatError):
            _names_a_line(exc, cert.chain_text, "inline chain, ")
        verified = type(exc).__name__
    return cert, verified


READERS = [
    (chain_from_text, CHAIN + "embed 0 -> 0\nembed 1/2 -> 1/3\nembed 1 -> 1\n"),
    (model_from_text, MODEL),
    (_read_cert, CERT),
]


def test_mutations_parse_as_pinned():
    """Seeded mutations: only MvlogicError escapes a reader (or the
    certificate check), every FormatError names a line of the file, and
    the inputs that parse, with what they parse to, are the pinned ones."""
    rng = random.Random(21)
    digest = hashlib.sha256()
    accepted = []
    for reader, base in READERS:
        count = 0
        for _ in range(700):
            text = _mutate(base, rng)
            try:
                value = reader(text)
            except MvlogicError as exc:
                if isinstance(exc, FormatError):
                    _names_a_line(exc, text)
                digest.update(type(exc).__name__.encode())
                continue
            count += 1
            digest.update(repr(value).encode())
        accepted.append(count)
    assert accepted == PINNED_ACCEPTED
    assert digest.hexdigest()[:16] == PINNED_DIGEST


# Recorded with the readers as they were before they shared a line reader.
PINNED_ACCEPTED = [89, 93, 240]
PINNED_DIGEST = "32c6be7648c05995"
