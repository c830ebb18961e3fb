"""Bounded countermodel search with verifiable certificates, the
model-enumeration tautology check, and the propositional-to-first-order
lifting.

The direct scan runs on the mask engine (masks.py) for a finite chain
and for a grid of a rational family alike; eval_fo, the Fraction
evaluator, re-checks each witness and is the certificate checker.

A certificate embeds everything needed for offline re-checking: the
chain (by name, table hash and inline copy), the closed formula text,
the witness model and the computed truth value, which must be strictly
below 1.  A rational-family chain has no table, so its certificates
carry the hash "-" and no inline copy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .chains import BaseChain, Chain, Lines, chain_from_text, chain_to_text, require_finite
from .errors import CertificateError, FormatError, InvalidParameterError
from .formulas import (
    Atom,
    Formula,
    Var,
    free_variables,
    map_leaves,
    parse,
    pretty,
    prop_variables,
    signature_of,
    universal_closure,
)
from .grounding import Verdict
from .semantics import Model, enumerate_models, eval_fo, model_from_lines, model_to_text


class Certificate(NamedTuple):
    """Countermodel witness: re-evaluating the formula over the
    embedded model on the identified chain must reproduce the stored
    value, which is strictly below 1."""

    chain_name: str
    chain_hash: str
    formula_text: str
    model: Model
    valuation: dict[str, int]
    value: Fraction
    chain_text: str | None = None  # optional inline copy


def _first_countermodel(
    chain: BaseChain, compiled, max_size: int, values: tuple[Fraction, ...]
) -> tuple[Model, Fraction] | None:
    """The direct scan: the canonically first model over domains
    1..max_size with values from `values` on which the closed formula
    compiled.phi is not 1, with its value.

    The mask engine scans every domain size with the Codes that
    `compiled` holds, or compiles on first use, and eval_fo re-checks
    the witness it finds.  On a rational family the engine runs on the
    values the formula can reach from the grid, tabulated once per call
    on the size-1 Code (masks.grid_tables); past GRID_VALUE_CAP of them,
    the models are evaluated one by one with eval_fo instead."""
    from . import masks

    if max_size < 1:
        raise InvalidParameterError(f"max_size must be >= 1, got {max_size}")
    closed = compiled.phi
    sig = signature_of(closed)
    tables = chain
    if not isinstance(chain, Chain):
        tables = masks.grid_tables(chain, compiled.code(masks.Space(sig, 1, len(values))), values)
    if tables is None:
        for n in range(1, max_size + 1):
            for model in enumerate_models(sig, n, values):
                val = eval_fo(chain, model, {}, closed)
                if val != chain.top:
                    return model, val
        return None
    # Digit d of a cell is the value values[d], at carrier index leaf[d].
    full = values is tables.carrier
    leaf = tuple(range(len(values))) if full else tuple(map(tables.index, values))
    for n in range(1, max_size + 1):
        space = masks.Space(sig, n, len(values))
        found = masks.first_rank(space, masks.Program(compiled.code(space), tables, leaf))
        if found is not None:
            rank, index = found
            model = space.model(rank, values)
            val = eval_fo(chain, model, {}, closed)
            if val != tables.carrier[index]:
                raise AssertionError(
                    f"mask value {tables.carrier[index]} differs from eval_fo "
                    f"value {val} on {pretty(closed)}"
                )
            return model, val
    return None


def find_countermodel(
    chain: BaseChain,
    phi: Formula,
    max_size: int,
    values: Iterable[Fraction] | None = None,
) -> Certificate | None:
    """Canonically first countermodel of the universal closure of phi,
    over domains 1..max_size, or None.

    With the full carrier of a finite chain, None means the formula is
    a finite-model tautology up to max_size; over a partial grid a None
    is inconclusive (the caller knows which case it is from the value
    set it passed).
    """
    if values is None:
        values = require_finite(chain).carrier
    else:
        values = tuple(values)
        for v in values:
            if not chain.contains(v):
                raise InvalidParameterError(f"grid value {v} is not in the carrier")
    # Imported by the first scan, not with the package, so that commands
    # that scan no models do not load (or, without cached bytecode,
    # compile) the engine.
    from . import masks

    closed = universal_closure(phi)
    found = _first_countermodel(chain, masks.Compiled(closed), max_size, values)
    if found is None:
        return None
    model, value = found
    finite = isinstance(chain, Chain)
    return Certificate(
        chain_name=chain.name,
        chain_hash=chain.table_hash() if finite else "-",
        formula_text=pretty(closed),
        model=model,
        valuation={},
        value=value,
        chain_text=chain_to_text(chain) if finite else None,
    )


def taut_upto_direct(chain: BaseChain, phi: Formula, bound: int) -> Verdict:
    """Bounded tautology check by direct model enumeration over the
    full carrier; mirrors the grounded checker's verdicts."""
    from . import masks

    return _taut_upto_direct(chain, phi, bound, masks.Compiled(universal_closure(phi)))


def _taut_upto_direct(chain: BaseChain, phi: Formula, bound: int, compiled) -> Verdict:
    """taut_upto_direct with the Codes of phi's closure that `compiled`
    holds, or compiles on first use: a caller that checks phi on several
    chains passes one Compiled for all of them."""
    c = require_finite(chain)
    found = _first_countermodel(c, compiled, bound, c.carrier)
    was_open = compiled.phi is not phi
    if found is None:
        return Verdict(True, bound, closed_input=was_open)
    model, val = found
    return Verdict(
        False, bound, model.domain_size, {"model": model, "value": val},
        closed_input=was_open,
    )


def verify_certificate(cert: Certificate, chain: BaseChain | None = None) -> bool:
    """Re-evaluate the certificate; True iff the value matches exactly
    and is strictly below 1.  A chain other than the one the
    certificate names is a hard error: a finite chain must match the
    recorded hash (a real hash, not "-"), and a rational-family chain
    must carry the recorded name and the hash "-".  So is a model that
    is not a total model over the chain's carrier, or a valuation that
    does not send exactly the formula's free variables into the domain."""
    if chain is None:
        if cert.chain_text is None:
            raise CertificateError("no chain given and no inline copy present")
        try:
            chain = chain_from_text(cert.chain_text, cert.chain_name)
        except FormatError as exc:
            raise FormatError(f"inline chain, {exc}") from None
    if isinstance(chain, Chain):
        same = cert.chain_hash == chain.table_hash()
    else:
        same = cert.chain_hash == "-" and cert.chain_name == chain.name
    if not same:
        raise CertificateError(
            f"chain hash mismatch: certificate was issued for {cert.chain_name}"
        )
    phi = parse(cert.formula_text, kind="fo")
    cert.model.validate(chain, signature_of(phi))
    free = free_variables(phi)
    if set(cert.valuation) != set(free):
        raise CertificateError(
            f"valuation names {sorted(cert.valuation)}, not the formula's "
            f"free variables {sorted(free)}"
        )
    for name, element in cert.valuation.items():
        if not 1 <= element <= cert.model.domain_size:
            raise CertificateError(f"valuation {name}={element} is outside the domain")
    val = eval_fo(chain, cert.model, cert.valuation, phi)
    return val == cert.value and val < chain.top


def lift_prop(phi: Formula) -> Formula:
    """Replace each propositional variable with a fresh unary predicate
    applied to its own individual variable, then close universally."""
    names = prop_variables(phi)
    mapping = {
        name: Atom(f"P{i+1}", (f"x{i+1}",)) for i, name in enumerate(names)
    }
    return universal_closure(map_leaves(phi, Var, lambda var: mapping[var.name]))


# ---------------------------------------------------------------------------
# Certificate file format: chain/model sections plus a value trailer.
#
#   mtlcert 1
#   chain NAME HASH
#   formula TEXT
#   begin chain            (optional inline copy)
#   ... chain file lines ...
#   end chain
#   begin model
#   ... model file lines ...
#   end model
#   valuation [x=j ...]
#   value p/q


def certificate_to_text(cert: Certificate) -> str:
    lines = [
        "mtlcert 1",
        f"chain {cert.chain_name} {cert.chain_hash}",
        f"formula {cert.formula_text}",
    ]
    if cert.chain_text is not None:
        lines.append("begin chain")
        lines.extend(cert.chain_text.rstrip("\n").splitlines())
        lines.append("end chain")
    lines.append("begin model")
    lines.extend(model_to_text(cert.model).rstrip("\n").splitlines())
    lines.append("end model")
    lines.append(
        "valuation " + " ".join(f"{k}={v}" for k, v in sorted(cert.valuation.items()))
    )
    lines.append(f"value {cert.value}")
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> Certificate:
    r = Lines(text.splitlines(), 1)  # the header must be line 1
    if not r.lines or r.lines[0].split() != ["mtlcert", "1"]:
        r.error("expected header 'mtlcert 1'")
    chain_name = chain_hash = formula_text = chain_text = model = value = None
    valuation: dict[str, int] = {}
    seen: set[str] = set()
    while r.more():
        line = r.line()
        key, _, rest = line.partition(" ")
        if key == "begin":
            key = line
        if key in seen:
            r.error(f"certificate repeats {key!r}")
        seen.add(key)
        if key == "chain" and len(words := rest.rsplit(None, 1)) == 2:
            # The name may hold spaces; the hash never does.
            chain_name, chain_hash = words
        elif key == "formula" and rest:
            formula_text = rest
        elif key == "begin chain":
            part = r.section("end chain")
            chain_text = "\n".join(part.lines[part.i :]) + "\n"
        elif key == "begin model":
            model = model_from_lines(r.section("end model"))
        elif key == "valuation":
            for pair in rest.split():
                k, _, v = pair.partition("=")
                if k in valuation:
                    r.error(f"valuation repeats {k!r}")
                valuation[k] = r.numbers(int, [v])[0]
        elif key == "value" and len(rest.split()) == 1:
            value = r.numbers(Fraction, rest.split())[0]
        else:
            r.error(f"unexpected line {line!r}")
    if None in (chain_name, formula_text, model, value):
        r.error("certificate is missing a required section")
    return Certificate(chain_name, chain_hash, formula_text, model, valuation, value, chain_text)
