"""Planted faults: each check of the trust base must fail when the code
it checks is broken.  Each test breaks one piece of the program by a
patch, runs the check, and asserts that the check reports the fault
in its own message format instead of passing or crashing.
"""

import re
from unittest import mock

import pytest

from mvlogic import Exists, find_countermodel, is_taut_prop, make_chain, parse, suites
from mvlogic import formulas, grounding
from mvlogic.suites import SUITES


def _exists_closure(phi):
    """universal_closure with exists in place of forall."""
    closed = phi
    for v in reversed(formulas.free_variables(phi)):
        closed = Exists(v, closed)
    return closed


def _assert_reports(report, failing, cases, pattern):
    assert (len(report.failures), report.cases) == (failing, cases)
    for message in report.failures:
        assert re.fullmatch(pattern, message), message
        assert "masks and eval_fo disagree" not in message


def test_lemma_clos_catches_an_existential_closure():
    # The suite compares each open formula, grounded valuation by
    # valuation, with its closure; closing with exists must show.
    with mock.patch.object(suites, "universal_closure", _exists_closure), \
            mock.patch.object(grounding, "universal_closure", _exists_closure):
        report = SUITES["lemma-clos"]()
    _assert_reports(report, 2, 50, r"\S+ .+: (taut-up-to-2|refuted at n=\d) vs "
                                   r"(taut-up-to-2|refuted at n=\d)")


def test_lemma_gc_catches_an_identity_squaring():
    with mock.patch.object(suites, "wnm_star", lambda phi: phi):
        report = SUITES["lemma-gc"](max_n=1)
    _assert_reports(report, 288, 2968, r"\S+ .+: \S+ vs \S+ \(allowed: (True|False)\)")


def test_lemma_gc1_reports_an_identity_squaring():
    # Without squaring, the restricted value can leave the fragment's
    # support: a failed case, not a TranslationError.
    with mock.patch.object(suites, "wnm_star", lambda phi: phi):
        report = SUITES["lemma-gc1"](max_n=1)
    _assert_reports(report, 74, 2968,
                    r"\S+ .+: \S+ vs \S+ vs \S+( \(outside the fragment support\))?")
    assert any(m.endswith("(outside the fragment support)") for m in report.failures)


def test_fo_axioms_catches_a_non_axiom():
    instances = {"forall1": (parse("forall x. P(x)"),)}
    with mock.patch.object(suites.corpus, "fo_axiom_instances", lambda: instances):
        report = SUITES["fo-axioms"](max_n=1, max_chain_size=3)
    _assert_reports(report, 13, 22, r"\S+ forall1 \(forall x\. P\(x\)\): value \S+")


def test_lemma_luk1_catches_a_guard_that_is_always_1():
    with mock.patch.object(suites, "predef", lambda phi: parse("bot -> bot")):
        report = SUITES["lemma-luk1"](max_n=1)
    _assert_reports(report, 48, 534,
                    r"\S+ .+: \S+ in A\+ is (True|False) but collapse gives \S+")


def _corrupted_residuum():
    """lukasiewicz(2) whose cached residuum table, which the masks read,
    has 1/2 -> 1/2 = 0; eval_prop and eval_fo still read 1."""
    chain = make_chain("lukasiewicz", 2)
    tables = chain.operation_tables
    tables["res"] = tuple(
        tuple(0 if (i, j) == (1, 1) else x for j, x in enumerate(row))
        for i, row in enumerate(tables["res"])
    )
    return chain


def test_is_taut_prop_rechecks_its_witness():
    with pytest.raises(AssertionError, match="differs from eval_prop"):
        is_taut_prop(_corrupted_residuum(), parse("p -> p", kind="prop"))


def test_direct_checker_rechecks_its_witness():
    with pytest.raises(AssertionError, match="mask value 0 differs from eval_fo value 1"):
        find_countermodel(_corrupted_residuum(), parse("forall x. (P(x) -> P(x))"), 1)


def test_model_scan_rechecks_each_failure():
    chain = _corrupted_residuum()
    with mock.patch.object(suites, "shipped_chains", lambda max_size=12: [chain]), \
            pytest.raises(AssertionError, match="masks and eval_fo disagree"):
        SUITES["fo-axioms"](max_n=1, max_chain_size=3)
