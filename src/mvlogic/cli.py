"""Command-line front door.

Exit codes: 0 success (or tautology verdict), 1 refutation / failed
verification / failed suite, 2 usage or input errors.  The enumeration
cap can be overridden through the MVLOGIC_ENUM_CAP environment
variable.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .chains import (
    chain_from_text,
    chain_to_text,
    delta_expand,
    make_chain,
    ordinal_sum,
    subchains,
)
from .errors import InvalidParameterError, MvlogicError
from .formulas import parse, pretty, signature_of, universal_closure

# Each command imports the modules it runs inside its branch below, so
# that a short command does not pay for the whole package.  These two
# tables name what `--help` lists without importing it: SUITE_NAMES is
# sorted(suites.SUITES), and TRANSLATIONS maps a pass to its function
# in reductions.
SUITE_NAMES = (
    "divisibility", "fo-axioms", "formula-f", "lemma-clos", "lemma-gc", "lemma-gc1",
    "lemma-luk", "lemma-luk1", "lemma-pred", "lemma-tr", "oracle-agreement",
    "residuation", "thm41-bl", "thm41-smtl", "thm413-demo", "thm415-delta",
)

TRANSLATIONS = {
    "wnm-star": "wnm_star",
    "predef": "predef",
    "luk-star": "luk_star",
    "double-neg": "double_neg",
    "delta-guard": "delta_guard",
}


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"cannot read {path}: not {exc.encoding} text") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc.strerror}") from None


def _load_chain(path: str):
    return chain_from_text(_read(path))


def _formula_from_args(args, kind: str = "fo"):
    if args.formula is not None:
        return parse(args.formula, kind=kind)
    return parse(_read(args.formula_file), kind=kind)


def _add_formula_args(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text")
    group.add_argument("--formula-file", help="file with the formula (or -)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvlogic",
        description=(
            "Finite-model workbench for many-valued logics: finite "
            "residuated chains, formula evaluation, grounding, "
            "translations and bounded countermodel search."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    chain = sub.add_parser("chain", help="build and inspect chains")
    chain_sub = chain.add_subparsers(dest="chain_command", required=True)

    mk = chain_sub.add_parser(
        "make",
        help="build a named-family chain",
        description=(
            "Families: boolean, lukasiewicz, godel, nm, dp. "
            "lukasiewicz N has N+1 carrier elements {0, 1/N, ..., 1}; "
            "godel/nm/dp N count carrier elements."
        ),
    )
    mk.add_argument("family")
    mk.add_argument("n", type=int, nargs="?", default=2)
    mk.add_argument("--delta", action="store_true", help="enable the delta operation")
    mk.add_argument("-o", "--output")

    ck = chain_sub.add_parser("check", help="validate a chain file")
    ck.add_argument("file", nargs="?", default="-")

    show = chain_sub.add_parser("show", help="print carrier and tables")
    show.add_argument("file", nargs="?", default="-")

    sc = chain_sub.add_parser("subchains", help="list all subuniverses")
    sc.add_argument("file", nargs="?", default="-")

    sm = chain_sub.add_parser("sum", help="ordinal sum of two chain files")
    sm.add_argument("first")
    sm.add_argument("second")
    sm.add_argument("-o", "--output")

    dl = chain_sub.add_parser("delta", help="enable delta on a chain file")
    dl.add_argument("file", nargs="?", default="-")
    dl.add_argument("-o", "--output")

    pr = sub.add_parser("parse", help="parse a formula and report its signature")
    pr.add_argument("--kind", choices=["prop", "fo"], default="fo")
    _add_formula_args(pr)

    ev = sub.add_parser("eval", help="evaluate a formula over a chain and model")
    ev.add_argument("--chain", required=True)
    ev.add_argument("--model", required=True)
    _add_formula_args(ev)

    gr = sub.add_parser("ground", help="propositional coding at a domain size")
    gr.add_argument("--size", type=int, required=True)
    _add_formula_args(gr)

    ta = sub.add_parser("taut", help="bounded tautology check via grounding")
    ta.add_argument("--chain", required=True)
    ta.add_argument("--bound", type=int, required=True)
    _add_formula_args(ta)

    tr = sub.add_parser("translate", help="apply a formula translation")
    tr.add_argument("--pass", dest="pass_name", choices=sorted(TRANSLATIONS), required=True)
    _add_formula_args(tr)

    mm = sub.add_parser("modelmap", help="transform a model file")
    mm.add_argument(
        "--pass", dest="pass_name", choices=["plus", "boolean-collapse"], required=True
    )
    mm.add_argument("--chain", required=True)
    mm.add_argument("--model", required=True)
    mm.add_argument("-o", "--output")

    fr = sub.add_parser("fragment", help="extract the Goedel fragment of a WNM chain")
    fr.add_argument("--chain", required=True)
    fr.add_argument("-o", "--output")

    se = sub.add_parser("search", help="bounded countermodel search")
    se.add_argument("--chain", required=True)
    se.add_argument("--max-size", type=int, required=True)
    se.add_argument(
        "--grid",
        type=int,
        help="search values restricted to denominators <= D (sound but inconclusive)",
    )
    _add_formula_args(se)

    ve = sub.add_parser("verify", help="verify a certificate file")
    ve.add_argument("--certificate", required=True)
    ve.add_argument("--chain", help="chain file overriding the inline copy")

    li = sub.add_parser("lift", help="lift a propositional formula to first order")
    _add_formula_args(li)

    su = sub.add_parser("suite", help="run a named verification suite")
    su.add_argument("name", choices=[*SUITE_NAMES, "all"])
    su.add_argument("--trials", type=int)
    su.add_argument("--seed", type=int)

    return parser


def _run_chain(args) -> int:
    cmd = args.chain_command
    if cmd == "make":
        chain = make_chain(args.family, args.n)
        if args.delta:
            chain = delta_expand(chain)
        _write(args.output, chain_to_text(chain))
        return 0
    chain = _load_chain(args.file if cmd != "sum" else args.first)
    if cmd == "check":
        # chain_from_text already validates; reaching here means all-pass.
        print(f"all-pass: {chain.size} elements")
        return 0
    if cmd == "show":
        print(f"size {chain.size}, delta {'yes' if chain.has_delta else 'no'}")
        print("carrier:", " ".join(str(v) for v in chain.carrier))
        print("star:")
        for row in chain.star_table:
            print(" ", " ".join(str(i) for i in row))
        print("residuum (derived):")
        for row in chain.residuum_table:
            print(" ", " ".join(str(i) for i in row))
        return 0
    if cmd == "subchains":
        for s in subchains(chain):
            print(" ".join(str(chain.carrier[i]) for i in s))
        return 0
    if cmd == "sum":
        second = _load_chain(args.second)
        _write(args.output, chain_to_text(ordinal_sum(chain, second)))
        return 0
    if cmd == "delta":
        _write(args.output, chain_to_text(delta_expand(chain)))
        return 0
    raise AssertionError(cmd)


def _run_suite(args) -> int:
    from .suites import PARAMS, SUITES

    names = sorted(SUITES) if args.name == "all" else [args.name]
    options = {"trials": args.trials, "seed": args.seed}
    worst = 0
    for name in names:
        params = PARAMS[name]
        report = SUITES[name](**{k: v for k, v in options.items() if v is not None and k in params})
        print(report.summary())
        for failure in report.failures:
            print("  " + failure)
        worst = max(worst, 0 if report.ok else 1)
    return worst


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "chain":
        return _run_chain(args)
    if args.command == "parse":
        phi = _formula_from_args(args, args.kind)
        print(pretty(phi))
        if args.kind == "fo":
            sig = signature_of(phi)
            for pred, arity in sig.items():
                print(f"pred {pred} {arity}")
        return 0
    if args.command == "eval":
        from .semantics import eval_fo, model_from_text

        chain = _load_chain(args.chain)
        model = model_from_text(_read(args.model))
        phi = universal_closure(_formula_from_args(args))
        model.validate(chain, signature_of(phi))
        print(eval_fo(chain, model, {}, phi))
        return 0
    if args.command == "ground":
        from .grounding import ground

        phi = universal_closure(_formula_from_args(args))
        g = ground(phi, args.size)
        print(pretty(g.formula))
        for var, (pred, cell) in sorted(g.legend.items()):
            print(f"legend {var} = {pred}({','.join(str(c) for c in cell)})")
        return 0
    if args.command == "taut":
        from .grounding import taut_upto_grounded, witness_model
        from .semantics import model_to_text

        chain = _load_chain(args.chain)
        phi = _formula_from_args(args)
        verdict = taut_upto_grounded(chain, phi, args.bound)
        if verdict.closed_input:
            print("note: open formula closed universally")
        print(verdict.describe())
        if not verdict.is_taut:
            for var, val in sorted(verdict.witness.items()):
                print(f"witness {var} = {val}")
            model = witness_model(verdict.grounded, verdict.witness)
            sys.stdout.write(model_to_text(model))
            return 1
        return 0
    if args.command == "translate":
        from . import reductions

        phi = _formula_from_args(args)
        print(pretty(getattr(reductions, TRANSLATIONS[args.pass_name])(phi)))
        return 0
    if args.command == "modelmap":
        from .reductions import boolean_collapse, model_plus
        from .semantics import model_from_text, model_to_text

        chain = _load_chain(args.chain)
        model = model_from_text(_read(args.model))
        model.validate(chain)
        fn = model_plus if args.pass_name == "plus" else boolean_collapse
        _write(args.output, model_to_text(fn(chain, model)))
        return 0
    if args.command == "fragment":
        from .reductions import godel_fragment

        chain = _load_chain(args.chain)
        frag = godel_fragment(chain)
        out = chain_to_text(frag.chain)
        for i, src in enumerate(frag.embedding):
            out += f"embed {frag.chain.carrier[i]} -> {chain.carrier[src]}\n"
        _write(args.output, out)
        return 0
    if args.command == "search":
        from .search import certificate_to_text, find_countermodel

        chain = _load_chain(args.chain)
        phi = _formula_from_args(args)
        values = None
        if args.grid is not None:
            values = [v for v in chain.carrier if v.denominator <= args.grid]
        cert = find_countermodel(chain, phi, args.max_size, values)
        if cert is None:
            if args.grid is not None:
                print(f"inconclusive-up-to-{args.max_size} (grid search)")
            else:
                print(f"taut-up-to-{args.max_size}")
            return 0
        sys.stdout.write(certificate_to_text(cert))
        return 1
    if args.command == "verify":
        from .search import certificate_from_text, verify_certificate

        cert = certificate_from_text(_read(args.certificate))
        chain = _load_chain(args.chain) if args.chain else None
        ok = verify_certificate(cert, chain)
        print("verified" if ok else "verification failed")
        return 0 if ok else 1
    if args.command == "lift":
        from .search import lift_prop

        phi = _formula_from_args(args, kind="prop")
        print(pretty(lift_prop(phi)))
        return 0
    if args.command == "suite":
        return _run_suite(args)
    raise AssertionError(args.command)


def main() -> None:
    try:
        sys.exit(run())
    except MvlogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except RecursionError:
        print("error: the input builds too deep a formula", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
