"""Acceptance criteria, one test and one printed pass/fail line each.

Each criterion delegates to the corresponding named verification
suite(s); a criterion passes only with zero failing cases (exact
rational arithmetic, tolerance 0) and, where stated, within the
runtime budget.
"""

import pytest

from mvlogic.suites import SUITES


def _report(number, title, reports, budget=None):
    ok = all(r.ok for r in reports)
    seconds = sum(r.seconds for r in reports)
    cases = sum(r.cases for r in reports)
    if budget is not None and seconds > budget:
        ok = False
    verdict = "PASS" if ok else "FAIL"
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"criterion {number} ({title}): {verdict} "
          f"[{cases} cases, {seconds:.1f}s{budget_note}]")
    for r in reports:
        for failure in r.failures[:5]:
            print(f"  {r.name}: {failure}")
    assert ok, f"criterion {number} failed"


def test_criterion_1_residuation_and_laws():
    _report(1, "residuation & laws, sizes <= 12",
            [SUITES["residuation"](max_size=12)], budget=10)


def test_criterion_2_coding_identity():
    _report(2, "FO value equals grounded value, fixed corpus + 200 random",
            [SUITES["lemma-tr"](trials=200, seed=7)], budget=120)


def test_criterion_3_oracle_agreement():
    _report(3, "grounded and direct bounded checkers agree",
            [SUITES["oracle-agreement"]()])


def test_criterion_4_wnm_squaring_equalities():
    reports = [SUITES["lemma-gc"](), SUITES["lemma-gc1"]()]
    _report(4, "WNM squaring: M = M+ = Goedel fragment, value in A+ u {0}",
            reports, budget=60)
    # One case per model: 4 chains, 50 formulas, n <= 2.
    assert [r.cases for r in reports] == [91_768, 91_768]


def test_criterion_5_predef_collapse_lukstar():
    reports = [SUITES["lemma-pred"](), SUITES["lemma-luk1"](), SUITES["lemma-luk"]()]
    _report(5, "PREDEF keeps the fixpoint out, boolean collapse, luk-star equivalence",
            reports)
    # lemma-pred: one case per lukasiewicz(2) model with a positive guard.
    assert [r.cases for r in reports] == [468, 6_324, 60]


def test_criterion_6_double_negation_reductions():
    _report(6, "double-negation reductions (SMTL and ordinal-sum cases)",
            [SUITES["thm41-smtl"](), SUITES["thm41-bl"]()])


def test_criterion_7_delta_guard_and_formula_f():
    reports = [SUITES["thm415-delta"](), SUITES["formula-f"]()]
    _report(7, "delta-guard equivalence and fixpoint formula split", reports)
    # formula-f: one case per chain of shipped_chains(8).
    assert [r.cases for r in reports] == [150, 29]


def test_criterion_8_lift_demo():
    _report(8, "propositional split lifts to a first-order certificate",
            [SUITES["thm413-demo"]()])


def test_criterion_9_divisibility():
    _report(9, "subchain sizes of the 7-element MV-chain are {2,3,4,7}",
            [SUITES["divisibility"]()])


def test_criterion_10_fo_axiom_soundness():
    report = SUITES["fo-axioms"]()
    _report(10, "quantifier axiom instances evaluate to 1 everywhere", [report])
    assert report.cases == 189_638  # one case per model


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
