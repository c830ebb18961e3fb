"""The package's lazy exports: every name that ``mvlogic`` exported when
it imported all of its modules up front still resolves, to the object
its module defines."""

import pytest

import mvlogic

# The package's import list before its exports became lazy.
EXPORTS = {
    "chains": [
        "Chain", "IDENTITIES", "LawViolation", "NegationProfile", "RationalFamilyChain",
        "ValidityReport", "chain_from_text", "chain_to_text", "check_chain", "cn_schema",
        "delta_expand", "dnm_schema", "gn_schema", "make_chain", "make_rational_chain",
        "make_wnm_chain", "negation_profile", "ordinal_sum", "satisfies_identity",
        "subchains", "trivial_chain",
    ],
    "errors": [
        "CapExceededError", "CertificateError", "ChainLawError", "EvaluationError",
        "FormatError", "GroundingError", "InvalidNegationError", "InvalidParameterError",
        "MvlogicError", "NotAnMVChainError", "ParseError", "SignatureError",
        "TranslationError", "UnsupportedChainError",
    ],
    "formulas": [
        "And", "Atom", "Bottom", "Delta", "Exists", "Forall", "Formula", "Iff", "Implies",
        "Not", "Or", "StrongAnd", "Var", "desugar", "free_variables", "is_classical",
        "is_closed", "parse", "pretty", "signature_of", "universal_closure",
    ],
    "grounding": [
        "GroundedFormula", "Verdict", "ground", "induced_assignment",
        "taut_upto_grounded", "witness_model",
    ],
    "reductions": [
        "GodelFragment", "boolean_collapse", "delta_guard", "double_neg",
        "godel_fragment", "luk_star", "model_plus", "predef", "wnm_star",
    ],
    "search": [
        "Certificate", "certificate_from_text", "certificate_to_text", "find_countermodel",
        "lift_prop", "taut_upto_direct", "verify_certificate",
    ],
    "semantics": [
        "Model", "count_models", "enumerate_models", "eval_fo", "eval_prop",
        "is_taut_prop", "model_from_text", "model_to_text",
    ],
    "suites": ["SUITES", "SuiteReport"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_export_count():
    assert len(NAMES) == 88


def test_every_name_resolves_to_its_definition():
    wrong = []
    for module, name in NAMES:
        defined = getattr(__import__(f"mvlogic.{module}", fromlist=[name]), name)
        scope = {}
        exec(f"from mvlogic import {name}", scope)
        if not getattr(mvlogic, name) is scope[name] is defined:
            wrong.append(name)
    assert wrong == []


def test_all_and_dir_list_the_exports():
    names = {name for _, name in NAMES}
    assert set(mvlogic.__all__) == names
    assert names <= set(dir(mvlogic))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'mvlogic' has no attribute 'nosuch'$"):
        mvlogic.nosuch
    with pytest.raises(ImportError):
        exec("from mvlogic import nosuch", {})


def test_export_follows_a_rebinding_in_its_module(monkeypatch):
    # Nothing is copied into the package: a function replaced in its
    # module, and then restored, is what mvlogic hands out each time.
    import mvlogic.search as search

    original = search.find_countermodel
    stand_in = lambda *args: None
    monkeypatch.setattr(search, "find_countermodel", stand_in)
    assert mvlogic.find_countermodel is stand_in
    monkeypatch.undo()
    assert mvlogic.find_countermodel is original
