"""mvlogic: a workbench for finite-model reasoning in many-valued logics.

Finite residuated chains with exact rational arithmetic, a first-order
formula language, evaluation over finite models, propositional grounding
of quantified formulas, chain-to-chain translations, bounded
countermodel search with re-checkable certificates, and a battery of
verification suites.

The public names below are exported lazily (PEP 562): ``import mvlogic``
loads no submodule, and ``mvlogic.X`` or ``from mvlogic import X``
imports the module that defines X on first use.  Every access reads X
from that module and nothing is copied here, so a function rebound in
its module (patched or wrapped) is what the package hands out.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "chains": (
        "Chain", "IDENTITIES", "LawViolation", "NegationProfile",
        "RationalFamilyChain", "ValidityReport", "chain_from_text",
        "chain_to_text", "check_chain", "cn_schema", "delta_expand",
        "dnm_schema", "gn_schema", "make_chain", "make_rational_chain",
        "make_wnm_chain", "negation_profile", "ordinal_sum",
        "satisfies_identity", "subchains", "trivial_chain",
    ),
    "errors": (
        "CapExceededError", "CertificateError", "ChainLawError",
        "EvaluationError", "FormatError", "GroundingError",
        "InvalidNegationError", "InvalidParameterError", "MvlogicError",
        "NotAnMVChainError", "ParseError", "SignatureError",
        "TranslationError", "UnsupportedChainError",
    ),
    "formulas": (
        "And", "Atom", "Bottom", "Delta", "Exists", "Forall", "Formula",
        "Iff", "Implies", "Not", "Or", "StrongAnd", "Var", "desugar",
        "free_variables", "is_classical", "is_closed", "parse", "pretty",
        "signature_of", "universal_closure",
    ),
    "grounding": (
        "GroundedFormula", "Verdict", "ground", "induced_assignment",
        "taut_upto_grounded", "witness_model",
    ),
    "reductions": (
        "GodelFragment", "boolean_collapse", "delta_guard", "double_neg",
        "godel_fragment", "luk_star", "model_plus", "predef", "wnm_star",
    ),
    "search": (
        "Certificate", "certificate_from_text", "certificate_to_text",
        "find_countermodel", "lift_prop", "taut_upto_direct",
        "verify_certificate",
    ),
    "semantics": (
        "Model", "count_models", "enumerate_models", "eval_fo", "eval_prop",
        "is_taut_prop", "model_from_text", "model_to_text",
    ),
    "suites": ("SUITES", "SuiteReport"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
