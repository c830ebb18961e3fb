"""The value contract of the chains and the records that mvlogic
returns: keyword construction, equality by fields, hash, repr,
pickling, copying and immutability.  Formula nodes are pinned in
test_formulas.py."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from mvlogic import (
    Certificate,
    Chain,
    GodelFragment,
    GroundedFormula,
    LawViolation,
    Model,
    NegationProfile,
    RationalFamilyChain,
    ValidityReport,
    Verdict,
    find_countermodel,
    godel_fragment,
    ground,
    make_chain,
    make_rational_chain,
    negation_profile,
    parse,
    verify_certificate,
)
from mvlogic.suites import SuiteReport

L2 = make_chain("lukasiewicz", 2)
NM4 = make_chain("nm", 4)
GODEL = make_rational_chain("godel")
CERT = find_countermodel(L2, parse(r"forall x. (P(x) \/ ~P(x))"), 2)
GROUNDED = ground(parse("forall x. P(x)"), 2)
FRAGMENT = godel_fragment(NM4)
VIOLATION = LawViolation("unit", (0,), "d")
MODEL = Model(1, {"P": {(1,): F(1, 2)}})

L2_REPR = ("Chain(name='lukasiewicz(2)', carrier=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)), "
           "star_table=((0, 0, 0), (0, 0, 1), (0, 1, 2)), has_delta=False)")
MODEL_REPR = "Model(domain_size=1, tables={'P': {(1,): Fraction(1, 2)}})"

# Per class: its fields by keyword, in declaration order; one field with
# another value for it; and the repr of the value the fields make.
CASES = {
    "Chain": (
        Chain,
        dict(name=L2.name, carrier=L2.carrier, star_table=L2.star_table, has_delta=False),
        ("has_delta", True),
        L2_REPR,
    ),
    "RationalFamilyChain": (
        RationalFamilyChain,
        dict(name=GODEL.name, family="godel", star_fn=GODEL.star_fn,
             residuum_fn=GODEL.residuum_fn, has_delta=False),
        ("name", "other"),
        f"RationalFamilyChain(name='godel[0,1]', family='godel', star_fn={GODEL.star_fn!r}, "
        f"residuum_fn={GODEL.residuum_fn!r}, has_delta=False)",
    ),
    "LawViolation": (
        LawViolation,
        dict(law="unit", witness=(0,), detail="d"),
        ("witness", (1,)),
        "LawViolation(law='unit', witness=(0,), detail='d')",
    ),
    "ValidityReport": (
        ValidityReport,
        dict(chain_name="c", violations=(VIOLATION,)),
        ("violations", ()),
        "ValidityReport(chain_name='c', violations=(LawViolation(law='unit', witness=(0,), detail='d'),))",
    ),
    "NegationProfile": (
        NegationProfile,
        dict(a_plus=frozenset({2, 3}), fixpoint=None),
        ("fixpoint", 1),
        "NegationProfile(a_plus=frozenset({2, 3}), fixpoint=None)",
    ),
    "GroundedFormula": (
        GroundedFormula,
        dict(formula=GROUNDED.formula, legend=GROUNDED.legend, domain_size=2),
        ("domain_size", 3),
        "GroundedFormula(formula=And(left=Var(name='p_P_1'), right=Var(name='p_P_2')), "
        "legend={'p_P_1': ('P', (1,)), 'p_P_2': ('P', (2,))}, domain_size=2)",
    ),
    "Verdict": (
        Verdict,
        dict(is_taut=False, bound=2, refuted_at=1, witness=None, grounded=None, closed_input=True),
        ("closed_input", False),
        "Verdict(is_taut=False, bound=2, refuted_at=1, witness=None, grounded=None, closed_input=True)",
    ),
    "Certificate": (
        Certificate,
        dict(chain_name=L2.name, chain_hash=L2.table_hash(), formula_text=CERT.formula_text,
             model=CERT.model, valuation={}, value=F(1, 2), chain_text=CERT.chain_text),
        ("value", F(1, 3)),
        f"Certificate(chain_name='lukasiewicz(2)', chain_hash='{L2.table_hash()}', "
        r"formula_text='(forall x. (P(x) \\/ ~P(x)))', " + f"model={MODEL_REPR}, valuation={{}}, "
        r"value=Fraction(1, 2), chain_text='mtlchain 1\nsize 3\nlabels 0 1/2 1\ndelta 0\n0 0 0\n0 0 1\n0 1 2\n')",
    ),
    "Model": (
        Model,
        dict(domain_size=1, tables={"P": {(1,): F(1, 2)}}),
        ("domain_size", 2),
        MODEL_REPR,
    ),
    "GodelFragment": (
        GodelFragment,
        dict(chain=FRAGMENT.chain, embedding=(0, 2, 3), source=NM4, to_fragment=FRAGMENT.to_fragment),
        ("embedding", (0, 1, 3)),
        f"GodelFragment(chain={FRAGMENT.chain!r}, embedding=(0, 2, 3), source={NM4!r}, "
        "to_fragment={Fraction(0, 1): Fraction(0, 1), Fraction(2, 3): Fraction(1, 2), "
        "Fraction(1, 1): Fraction(1, 1)})",
    ),
    "SuiteReport": (
        SuiteReport,
        dict(name="x", cases=2, failures=["f"], seconds=0.5),
        ("cases", 3),
        "SuiteReport(name='x', cases=2, failures=['f'], seconds=0.5)",
    ),
}
HASHABLE = {"Chain", "RationalFamilyChain", "LawViolation", "ValidityReport", "NegationProfile", "Verdict"}
# SuiteReport is the one record that was built by mutation.
FROZEN = set(CASES) - {"SuiteReport"}

PARAMS = pytest.mark.parametrize("name", list(CASES))


@PARAMS
def test_keyword_construction(name):
    cls, fields, _, _ = CASES[name]
    value = cls(**fields)
    assert type(value) is cls
    for field, expected in fields.items():
        assert getattr(value, field) is expected
    assert cls(*fields.values()) == value


@PARAMS
def test_equality_is_by_fields(name):
    cls, fields, (field, other), _ = CASES[name]
    value = cls(**fields)
    assert value == cls(**fields)
    assert not value != cls(**fields)
    changed = cls(**{**fields, field: other})
    assert value != changed
    assert not value == changed


@PARAMS
def test_hash(name):
    cls, fields, _, _ = CASES[name]
    if name in HASHABLE:
        assert hash(cls(**fields)) == hash(cls(**fields))
    else:
        with pytest.raises(TypeError):
            hash(cls(**fields))


@PARAMS
def test_repr(name):
    cls, fields, _, expected = CASES[name]
    assert repr(cls(**fields)) == expected


@PARAMS
def test_pickle_and_copy(name):
    cls, fields, _, expected = CASES[name]
    value = cls(**fields)
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls
        assert clone == value
        assert repr(clone) == expected


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_fields_cannot_be_assigned(name):
    cls, fields, (_, other), _ = CASES[name]
    value = cls(**fields)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, other)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == cls(**fields)


def test_producers_make_the_pinned_values():
    assert make_chain("lukasiewicz", 2) == CASES["Chain"][0](**CASES["Chain"][1])
    assert CERT == Certificate(**CASES["Certificate"][1])
    assert FRAGMENT == GodelFragment(**CASES["GodelFragment"][1])
    assert negation_profile(NM4) == NegationProfile(frozenset({2, 3}), None)
    assert GROUNDED == GroundedFormula(**CASES["GroundedFormula"][1])


# The cached tables of a chain: none of them is a field.
CACHED = ("_index", "residuum_table", "operation_tables", "_negation_profile", "_is_mv", "_text", "_hash")


class TestChainValue:
    def warm(self, family="nm", n=4):
        chain = make_chain(family, n)
        for name in CACHED:
            getattr(chain, name)
        return chain

    def test_cached_tables_do_not_enter_equality_or_hash(self):
        fresh, warm = make_chain("nm", 4), self.warm()
        assert fresh == warm and hash(fresh) == hash(warm) and repr(fresh) == repr(warm)
        assert make_chain("nm", 4) == fresh
        assert warm != make_chain("nm", 5)

    def test_a_chain_is_not_its_field_tuple(self):
        assert L2 != (L2.name, L2.carrier, L2.star_table, L2.has_delta)

    def test_pickled_chain_keeps_its_hash_and_verifies(self):
        for chain in (make_chain("lukasiewicz", 2), self.warm("lukasiewicz", 2)):
            for clone in (pickle.loads(pickle.dumps(chain)), copy.copy(chain), copy.deepcopy(chain)):
                assert clone == chain
                assert clone.table_hash() == L2.table_hash()
                assert clone.operation_tables == L2.operation_tables
                assert verify_certificate(CERT, clone)
