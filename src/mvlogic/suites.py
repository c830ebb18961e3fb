"""Named verification suites: each one checks a family of exact
identities or bounded equivalences at desk scale and reports failures.

The suites double as the acceptance surface; the CLI exposes them as
``suite <name>`` and the test suite calls them directly.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from operator import or_
from typing import Callable, Iterator, NamedTuple

from . import corpus, masks
from .chains import (
    Chain,
    check_chain,
    delta_expand,
    make_chain,
    make_wnm_chain,
    negation_profile,
    ordinal_sum,
    satisfies_identity,
    subchains,
)
from .formulas import (
    Exists,
    Formula,
    Iff,
    Not,
    Or,
    free_variables,
    parse,
    pretty,
    signature_of,
    subformulas,
    universal_closure,
)
from .grounding import (
    Verdict,
    _ground,
    _taut_upto_grounded,
    cell_variable,
    ground,
    induced_assignment,
    taut_upto_grounded,
)
from .reductions import (
    boolean_collapse,
    collapse_leaf,
    delta_guard,
    double_neg,
    godel_fragment,
    luk_star,
    predef,
    wnm_star,
)
from .search import (
    _taut_upto_direct,
    find_countermodel,
    lift_prop,
    taut_upto_direct,
    verify_certificate,
)
from .semantics import Model, eval_fo, eval_prop, is_taut_prop


class Batch(NamedTuple):
    """Many cases at once: their count and the failure messages."""

    cases: int
    failures: list[str]


# What a suite yields: (passed, failure message) cases and batches.
Cases = Iterator[tuple[bool, str] | Batch]


class SuiteReport(NamedTuple):
    name: str
    cases: int
    failures: list[str]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)} failures)"
        return f"suite {self.name}: {status}, {self.cases} cases, {self.seconds:.2f}s"


PARAMS: dict[str, tuple[str, ...]] = {}


def _suite(name: str, cases: Callable[..., Cases]) -> Callable[..., SuiteReport]:
    """A SUITES entry: runs the generator of (ok, message) cases and
    batches that a suite_* function returns and reports on it.  It
    records the suite's parameter names in PARAMS, by which the CLI
    routes its options."""
    code = cases.__code__
    PARAMS[name] = code.co_varnames[: code.co_argcount]

    @functools.wraps(cases)
    def run(*args, **kwargs) -> SuiteReport:
        count, failures = 0, []
        t0 = time.perf_counter()
        for item in cases(*args, **kwargs):
            if isinstance(item, Batch):
                count += item.cases
                failures.extend(item.failures)
            else:
                ok, message = item
                count += 1
                if not ok:
                    failures.append(message)
        return SuiteReport(name, count, failures, time.perf_counter() - t0)

    return run


# ---------------------------------------------------------------------------
# Standard chain zoo


def shipped_chains(max_size: int = 12) -> list[Chain]:
    """One chain per family and size up to max_size carrier elements."""
    out = [make_chain("boolean")]
    out.extend(make_chain("lukasiewicz", n) for n in range(1, max_size))
    for family in ("godel", "nm", "dp"):
        out.extend(make_chain(family, n) for n in range(2, max_size + 1))
    return out


def custom_wnm_chains() -> list[Chain]:
    """Two non-involutive weak negations used by the WNM suites."""
    return [
        make_wnm_chain([4, 3, 1, 1, 0], "wnmA"),
        make_wnm_chain([5, 3, 3, 2, 0, 0], "wnmB"),
    ]


def _lemma_tr_chains() -> list[Chain]:
    sizes = {"lukasiewicz": (2, 3), "godel": (3, 4), "nm": (4, 5), "dp": (4,)}
    return [make_chain("boolean")] + [
        make_chain(family, n) for family, ns in sizes.items() for n in ns
    ]


def _agree(chain: Chain, phi: Formula, left, right) -> tuple[bool, str]:
    """The case that two bounded verdicts agree on tautology and on
    the size that refutes."""
    return (
        (left.is_taut, left.refuted_at) == (right.is_taut, right.refuted_at),
        f"{chain.name} {pretty(phi)}: {left.describe()} vs {right.describe()}",
    )


def _union(masks) -> int:
    return functools.reduce(or_, masks, 0)


def _same(a: list[int], b: list[int]) -> int:
    """Ranks where masks a and b take the same index."""
    return _union(x & y for x, y in zip(a, b))


def _model_scan(chain: Chain, closed: Formula, max_n: int, terms, judge, case) -> Cases:
    """Batches of cases, one per model of the closed formula's signature
    over {1..n}, n <= max_n, with values from chain's carrier.

    Each term (term chain, compiled formula, leaf map or None for the
    identity) is evaluated by the mask engine: the Code that the
    compiled formula (a masks.Compiled, or a _Coded) gives for the
    model space, bound to the term chain.  A suite that scans one
    formula on several chains passes the same compiled formula for each.
    judge(full, *term masks) gives the ranks that are cases and the
    ranks that pass.  Only a failing rank is decoded to a Model, and
    case(model) gives its (ok, message) with eval_fo, which must agree
    that it fails."""
    sig = signature_of(closed)
    identity = tuple(range(chain.size))
    for n in range(1, max_n + 1):
        space = masks.Space(sig, n, chain.size)
        programs = [
            masks.Program(compiled.code(space), c, identity if leaf is None else leaf)
            for c, compiled, leaf in terms
        ]
        for chunk, term_masks in space.scan(*programs):
            active, good = judge(chunk.full, *term_masks)
            failures = []
            for rank in masks.ranks(active & ~good):
                ok, message = case(space.model(chunk.start + rank, chain.carrier))
                if ok:
                    raise AssertionError(f"masks and eval_fo disagree: {message}")
                failures.append(message)
            yield Batch(active.bit_count(), failures)


class _Coded:
    """The grounding of a closed formula at a model space's domain size,
    compiled on the model space's cell positions, so that each cell
    variable reads the cell it names: lemma-tr's second term.  The
    grounding and its Codes are made on first use, once per size."""

    def __init__(self, closed: Formula):
        self.closed = closed
        self._grounded: dict = {}  # n -> masks.Compiled of the grounding

    def code(self, space: masks.Space) -> masks.Code:
        if space.n not in self._grounded:
            self._grounded[space.n] = masks.Compiled(ground(self.closed, space.n).formula)
        names = [cell_variable(pred, args) for pred, args in space.cells]
        return self._grounded[space.n].code(masks.Space.of_variables(names, space.radix))


def _random_model(rng: random.Random, sig, n: int, carrier) -> Model:
    tables = {}
    for pred, arity in sig.items():
        tables[pred] = {
            args: rng.choice(carrier)
            for args in itertools.product(range(1, n + 1), repeat=arity)
        }
    return Model.from_dict(n, tables)


# ---------------------------------------------------------------------------
# Suites


def suite_residuation(max_size: int = 12) -> Cases:
    """Every shipped chain up to max_size passes the exhaustive law
    check, residuation biconditional included."""
    for chain in shipped_chains(max_size):
        result = check_chain(chain)
        yield (
            result.all_pass,
            f"{chain.name}: " + "; ".join(v.law for v in result.violations),
        )


def suite_lemma_tr(trials: int = 200, seed: int = 7, exhaustive_n: int = 2) -> Cases:
    """First-order truth value equals the grounded propositional value
    under the induced assignment: exhaustive on the fixed corpus at
    n <= exhaustive_n, on the mask engine, plus seeded random formulas
    with sampled models at n <= 3."""

    def judge(full, direct, coded):
        return full, _same(direct, coded)

    checks = []
    for phi in corpus.fixed_corpus():
        closed = universal_closure(phi)
        checks.append((phi, closed, masks.Compiled(closed), _Coded(closed)))
    chains = _lemma_tr_chains()
    for chain in chains:
        for phi, closed, direct, coded in checks:

            def case(model):
                return next(_coding_cases(chain, phi, model.domain_size, [model]))

            terms = [(chain, direct, None), (chain, coded, None)]
            yield from _model_scan(chain, closed, exhaustive_n, terms, judge, case)
    rng = random.Random(seed)
    for _ in range(trials):
        chain = rng.choice(chains)
        phi = universal_closure(
            corpus.random_formula(rng, depth=rng.randint(2, 4))
        )
        sig = signature_of(phi)
        n = rng.randint(1, 3)
        models = [_random_model(rng, sig, n, chain.carrier) for _ in range(3)]
        yield from _coding_cases(chain, phi, n, models)


def _coding_cases(chain: Chain, phi: Formula, n: int, models) -> Cases:
    """Cases: on each model of size n, the universal closure of phi
    gets the value its grounding gets under the induced assignment."""
    closed = universal_closure(phi)
    g = ground(closed, n)
    head = f"{chain.name} {pretty(phi)} n={n}"
    for model in models:
        direct = eval_fo(chain, model, {}, closed)
        coded = eval_prop(chain, induced_assignment(model), g.formula)
        yield direct == coded, f"{head}: {direct} != {coded}"


def suite_lemma_clos(trials: int = 50, seed: int = 11, bound: int = 2) -> Cases:
    """An open formula is a bounded tautology, grounded valuation by
    valuation, exactly when its universal closure is one."""
    rng = random.Random(seed)
    chains = [make_chain("boolean"), make_chain("lukasiewicz", 2), make_chain("godel", 3)]
    produced = 0
    while produced < trials:
        phi = corpus.random_formula(rng, depth=rng.randint(1, 3))
        free = free_variables(phi)
        if not free:
            continue
        produced += 1
        chain = rng.choice(chains)
        open_v = _open_verdict(chain, phi, free, bound)
        closed_v = taut_upto_grounded(chain, universal_closure(phi), bound)
        yield _agree(chain, phi, open_v, closed_v)


def _open_verdict(chain: Chain, phi: Formula, free: list[str], bound: int) -> Verdict:
    """The bounded verdict of an open formula, with no closure: refuted
    at the first n where some valuation of its free variables into
    {1..n} grounds it to a non-tautology."""
    for n in range(1, bound + 1):
        for values in itertools.product(range(1, n + 1), repeat=len(free)):
            grounded = _ground(phi, n, dict(zip(free, values)), {})
            if not is_taut_prop(chain, grounded)[0]:
                return Verdict(False, bound, n)
    return Verdict(True, bound)


def _wnm_suite_chains() -> list[Chain]:
    return [make_chain("nm", 4), make_chain("nm", 5)] + custom_wnm_chains()


def suite_lemma_gc(max_n: int = 2) -> Cases:
    """Squared formulas cannot tell a model from its restriction to the
    idempotent part, and their value lands in A+ u {0}."""
    checks = []
    for phi in corpus.fixed_corpus():
        closed = universal_closure(phi)
        starred = wnm_star(closed)
        checks.append((phi, closed, starred, masks.Compiled(starred)))
    for chain in _wnm_suite_chains():
        frag = godel_fragment(chain)
        allowed = frag.to_fragment  # A+ u {0}
        inside = frag.embedding  # their carrier indices
        plus_leaf = frag.plus_leaf

        def judge(full, a, b):
            return full, _same(a, b) & _union(a[i] for i in inside)

        for phi, closed, starred, compiled in checks:

            def case(model):
                a = eval_fo(chain, model, {}, starred)
                b = eval_fo(chain, frag.model_plus(model), {}, starred)
                return (
                    a == b and a in allowed,
                    f"{chain.name} {pretty(phi)}: {a} vs {b} (allowed: {a in allowed})",
                )

            terms = [(chain, compiled, None), (chain, compiled, plus_leaf)]
            yield from _model_scan(chain, closed, max_n, terms, judge, case)


def suite_lemma_gc1(max_n: int = 2) -> Cases:
    """The restricted value agrees with both the squared and the plain
    formula over the extracted Goedel fragment."""
    checks = []
    for phi in corpus.fixed_corpus():
        closed = universal_closure(phi)
        starred = wnm_star(closed)
        checks.append((phi, closed, starred, masks.Compiled(starred), masks.Compiled(closed)))
    for chain in _wnm_suite_chains():
        frag = godel_fragment(chain)
        plus_leaf, fragment_leaf = frag.plus_leaf, frag.fragment_leaf

        def judge(full, restricted, over_frag_star, over_frag):
            # restrict_value maps source index frag.embedding[j] to j.
            restricts = _union(
                restricted[i] & over_frag_star[j] for j, i in enumerate(frag.embedding)
            )
            return full, restricts & _same(over_frag_star, over_frag)

        for phi, closed, starred, compiled_star, compiled in checks:

            def case(model):
                restricted = eval_fo(chain, frag.model_plus(model), {}, starred)
                m_prime = frag.translate_model(model)
                over_frag_star = eval_fo(frag.chain, m_prime, {}, starred)
                over_frag = eval_fo(frag.chain, m_prime, {}, closed)
                inside = restricted in frag.to_fragment
                return (
                    inside and frag.to_fragment[restricted] == over_frag_star == over_frag,
                    f"{chain.name} {pretty(phi)}: {restricted} vs "
                    f"{over_frag_star} vs {over_frag}"
                    + ("" if inside else " (outside the fragment support)"),
                )

            terms = [
                (chain, compiled_star, plus_leaf),
                (frag.chain, compiled_star, fragment_leaf),
                (frag.chain, compiled, fragment_leaf),
            ]
            yield from _model_scan(chain, closed, max_n, terms, judge, case)


def _fixpoint_formula(phi: Formula) -> Formula:
    """Closed, and 1 on a model iff some subformula of phi takes the
    negation fixpoint at some valuation: on a chain, s <-> ~s is 1
    exactly when s = ~s."""
    parts = []
    for s in dict.fromkeys(subformulas(phi)):
        part = Iff(s, Not(s))
        for x in reversed(free_variables(s)):
            part = Exists(x, part)
        parts.append(part)
    return functools.reduce(Or, parts)


def suite_lemma_pred(max_n: int = 2) -> Cases:
    """Definedness guard: the guard is closed, and on lukasiewicz(2),
    the chain with a negation fixpoint, a positive guard rules out the
    fixpoint among all subformula values.  One case per model with a
    positive guard."""
    chain = make_chain("lukasiewicz", 2)
    fixpoint = negation_profile(chain).fixpoint

    def judge(full, guard, fixed):
        # A model whose guard is 0 (carrier index 0) is not a case;
        # it passes unless the fixpoint formula is 1 (the top index).
        return full ^ guard[0], full ^ fixed[-1]

    for phi in corpus.classical_corpus():
        guard = predef(phi)
        if free_variables(guard):
            raise AssertionError(f"{pretty(phi)}: guard not valuation-uniform")
        fixed = _fixpoint_formula(phi)

        def case(model):
            return (
                eval_fo(chain, model, {}, fixed) != chain.top,
                f"{chain.name} {pretty(phi)}: fixpoint {chain.carrier[fixpoint]} "
                "appears as a subformula value despite a positive guard",
            )

        terms = [(chain, masks.Compiled(guard), None), (chain, masks.Compiled(fixed), None)]
        yield from _model_scan(chain, fixed, max_n, terms, judge, case)


def suite_lemma_luk1(max_n: int = 2) -> Cases:
    """With a positive definedness guard, a classical formula lands in
    A+ exactly when it is true in the collapsed Boolean model."""
    two = make_chain("boolean")
    checks = []
    for phi in corpus.classical_corpus():
        closed = universal_closure(phi)
        checks.append((phi, closed, masks.Compiled(predef(phi)), masks.Compiled(closed)))
    for chain in [make_chain("lukasiewicz", 2), make_chain("lukasiewicz", 3)]:
        profile = negation_profile(chain)
        plus = {chain.carrier[i] for i in profile.a_plus}
        collapse = collapse_leaf(chain)

        def judge(full, guard, val, bool_val):
            # A model whose guard is 0 (carrier index 0) is not a case.
            in_plus = _union(val[i] for i in profile.a_plus)
            return full ^ guard[0], full ^ in_plus ^ bool_val[1]

        for phi, closed, guard, compiled in checks:

            def case(model):
                val = eval_fo(chain, model, {}, closed)
                bool_val = eval_fo(two, boolean_collapse(chain, model), {}, closed)
                return (
                    (val in plus) == (bool_val == 1),
                    f"{chain.name} {pretty(phi)}: {val} in A+ is "
                    f"{val in plus} but collapse gives {bool_val}",
                )

            terms = [(chain, guard, None), (chain, compiled, None), (two, compiled, collapse)]
            yield from _model_scan(chain, closed, max_n, terms, judge, case)


def suite_lemma_luk(bound: int = 3) -> Cases:
    """Guarded translation: classical tautology over the Boolean chain
    iff the translation is a tautology over the MV-chain, at each
    bound, with matching refutation sizes."""
    chains = [make_chain("lukasiewicz", 2), make_chain("lukasiewicz", 3)]
    yield from _reduction_suite(
        luk_star, chains, make_chain("boolean"), bound, corpus.classical_corpus()
    )


def _reduction_suite(translate, chains, reference, bound, formulas) -> Cases:
    """Cases: on each chain in turn, each formula's translation gets the
    verdict the formula gets over reference.  The reference verdict is
    checked once per formula, and the translation grounded and compiled
    once for every chain."""
    checks = [
        (phi, translate(phi), {}, taut_upto_grounded(reference, phi, bound))
        for phi in formulas
    ]
    for chain in chains:
        for phi, translated, groundings, expected in checks:
            verdict = _taut_upto_grounded(chain, translated, bound, groundings)
            yield _agree(chain, phi, verdict, expected)


def suite_thm41_smtl(bound: int = 3) -> Cases:
    """Double negation over a chain with strict negation reduces to the
    Boolean verdicts."""
    yield from _reduction_suite(
        double_neg, [make_chain("godel", 4)], make_chain("boolean"), bound, corpus.fixed_corpus()
    )


def suite_thm41_bl(bound: int = 3) -> Cases:
    """Double negation over an ordinal sum reduces to its first
    (MV-chain) component."""
    luk2 = make_chain("lukasiewicz", 2)
    sum_chain = ordinal_sum(luk2, make_chain("godel", 2))
    yield from _reduction_suite(double_neg, [sum_chain], luk2, bound, corpus.fixed_corpus())


def suite_thm415_delta(bound: int = 3) -> Cases:
    """Guarding every atom with delta reduces any chain's verdicts to
    the Boolean-with-delta ones."""
    chains = [
        delta_expand(make_chain("lukasiewicz", 2)),
        delta_expand(make_chain("lukasiewicz", 3)),
        delta_expand(make_chain("godel", 4)),
    ]
    two_delta = delta_expand(make_chain("boolean"))
    yield from _reduction_suite(delta_guard, chains, two_delta, bound, corpus.fixed_corpus())


def suite_formula_f() -> Cases:
    """The delta fixpoint criterion: !(p <-> ~p) -> p holds on a
    delta-expanded chain exactly when the chain has no negation
    fixpoint."""
    for chain in shipped_chains(8):
        expanded = delta_expand(chain)
        holds = satisfies_identity(expanded, "f")
        fixpoint_free = negation_profile(chain).fixpoint is None
        yield (
            holds == fixpoint_free,
            f"{chain.name}: formula (f) holds={holds}, "
            f"fixpoint-free={fixpoint_free}",
        )


def suite_fo_axioms(max_n: int = 2, max_chain_size: int = 5) -> Cases:
    """The five quantifier axiom schemata evaluate to 1 over every
    enumerated model of every shipped small chain."""
    checks = []
    for name, instances in corpus.fo_axiom_instances().items():
        for phi in instances:
            closed = universal_closure(phi)
            checks.append((name, phi, closed, masks.Compiled(closed)))
    chains = [c for c in shipped_chains(max_chain_size) if c.size <= max_chain_size]
    for chain in chains:
        top = chain.size - 1

        def judge(full, val):
            return full, val[top]

        for name, phi, closed, compiled in checks:

            def case(model):
                val = eval_fo(chain, model, {}, closed)
                return (
                    val == chain.top,
                    f"{chain.name} {name} {pretty(phi)}: value {val}",
                )

            terms = [(chain, compiled, None)]
            yield from _model_scan(chain, closed, max_n, terms, judge, case)


def suite_divisibility() -> Cases:
    """Subchains of the 7-element Lukasiewicz chain have exactly the
    sizes k+1 for k dividing 6."""
    luk6 = make_chain("lukasiewicz", 6)
    sizes = sorted({len(s) for s in subchains(luk6)})
    yield sizes == [2, 3, 4, 7], f"subchain sizes {sizes} != [2, 3, 4, 7]"
    for n in (2, 3, 4):
        sizes = sorted({len(s) for s in subchains(make_chain("lukasiewicz", n))})
        expected = sorted({k + 1 for k in range(1, n + 1) if n % k == 0})
        yield (
            sizes == expected,
            f"lukasiewicz({n}) subchain sizes {sizes} != {expected}",
        )


def suite_oracle_agreement() -> Cases:
    """The grounded and the direct bounded tautology checkers agree on
    verdict and refutation bound."""
    plan = [
        (make_chain("boolean"), 3),
        (make_chain("lukasiewicz", 2), 3),
        (make_chain("godel", 3), 3),
        (make_chain("lukasiewicz", 3), 2),
        (make_chain("nm", 4), 2),
    ]
    checks = [(phi, {}, masks.Compiled(universal_closure(phi))) for phi in corpus.fixed_corpus()]
    for chain, bound in plan:
        for phi, groundings, compiled in checks:
            grounded = _taut_upto_grounded(chain, phi, bound, groundings)
            yield _agree(chain, phi, grounded, _taut_upto_direct(chain, phi, bound, compiled))


def suite_thm413_demo(bound: int = 3) -> Cases:
    """A propositional separation lifts to a first-order one: the
    lifted formula stays a bounded tautology over the separating chain
    while the other chain yields a verifying singleton countermodel."""
    phi = parse(r"(x & x) <-> (x & x & x)", kind="prop")
    luk2 = make_chain("lukasiewicz", 2)
    luk3 = make_chain("lukasiewicz", 3)
    ok2, _ = is_taut_prop(luk2, phi)
    ok3, witness = is_taut_prop(luk3, phi)
    yield ok2, "x^2 <-> x^3 should be a tautology over lukasiewicz(2)"
    yield not ok3, "x^2 <-> x^3 should fail over lukasiewicz(3)"
    psi = lift_prop(phi)
    verdict = taut_upto_direct(luk2, psi, bound)
    yield (
        verdict.is_taut,
        f"lifted formula not taut up to {bound} over lukasiewicz(2)",
    )
    cert = find_countermodel(luk3, psi, 1)
    yield cert is not None, "no countermodel found over lukasiewicz(3)"
    if cert is not None:
        yield cert.model.domain_size == 1, "countermodel is not a singleton"
        yield verify_certificate(cert, luk3), "certificate failed to verify"


SUITES = {
    name: _suite(name, cases)
    for name, cases in {
        "residuation": suite_residuation,
        "lemma-tr": suite_lemma_tr,
        "lemma-clos": suite_lemma_clos,
        "lemma-gc": suite_lemma_gc,
        "lemma-gc1": suite_lemma_gc1,
        "lemma-pred": suite_lemma_pred,
        "lemma-luk1": suite_lemma_luk1,
        "lemma-luk": suite_lemma_luk,
        "thm41-smtl": suite_thm41_smtl,
        "thm41-bl": suite_thm41_bl,
        "thm415-delta": suite_thm415_delta,
        "formula-f": suite_formula_f,
        "fo-axioms": suite_fo_axioms,
        "divisibility": suite_divisibility,
        "oracle-agreement": suite_oracle_agreement,
        "thm413-demo": suite_thm413_demo,
    }.items()
}
