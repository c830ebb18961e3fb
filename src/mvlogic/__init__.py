"""mvlogic: a workbench for finite-model reasoning in many-valued logics.

Finite residuated chains with exact rational arithmetic, a first-order
formula language, evaluation over finite models, propositional grounding
of quantified formulas, chain-to-chain translations, bounded
countermodel search with re-checkable certificates, and a battery of
verification suites.
"""

__version__ = "0.1.0"

from .chains import (
    Chain,
    IDENTITIES,
    LawViolation,
    NegationProfile,
    RationalFamilyChain,
    ValidityReport,
    chain_from_text,
    chain_to_text,
    check_chain,
    cn_schema,
    delta_expand,
    dnm_schema,
    gn_schema,
    make_chain,
    make_rational_chain,
    make_wnm_chain,
    negation_profile,
    ordinal_sum,
    satisfies_identity,
    subchains,
    trivial_chain,
)
from .errors import (
    CapExceededError,
    CertificateError,
    ChainLawError,
    EvaluationError,
    FormatError,
    GroundingError,
    InvalidNegationError,
    InvalidParameterError,
    MvlogicError,
    NotAnMVChainError,
    ParseError,
    SignatureError,
    TranslationError,
    UnsupportedChainError,
)
from .formulas import (
    And,
    Atom,
    Bottom,
    Delta,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    StrongAnd,
    Var,
    desugar,
    free_variables,
    is_classical,
    is_closed,
    parse,
    pretty,
    signature_of,
    universal_closure,
)
from .grounding import (
    GroundedFormula,
    Verdict,
    ground,
    induced_assignment,
    taut_upto_grounded,
    witness_model,
)
from .reductions import (
    GodelFragment,
    boolean_collapse,
    delta_guard,
    double_neg,
    godel_fragment,
    luk_star,
    model_plus,
    predef,
    wnm_star,
)
from .search import (
    Certificate,
    certificate_from_text,
    certificate_to_text,
    find_countermodel,
    lift_prop,
    taut_upto_direct,
    verify_certificate,
)
from .semantics import (
    Model,
    count_models,
    enumerate_models,
    eval_fo,
    eval_prop,
    is_taut_prop,
    model_from_text,
    model_to_text,
)
from .suites import SUITES, SuiteReport
