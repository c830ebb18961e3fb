import random
from fractions import Fraction as F

import pytest

from mvlogic import (
    GroundingError,
    Model,
    enumerate_models,
    eval_fo,
    eval_prop,
    ground,
    induced_assignment,
    make_chain,
    parse,
    pretty,
    signature_of,
    taut_upto_direct,
    taut_upto_grounded,
    universal_closure,
    witness_model,
)
from mvlogic.corpus import random_formula


L2 = make_chain("lukasiewicz", 2)


class TestGround:
    def test_forall_exists_n2(self):
        g = ground(parse("forall x. exists y. R(x,y)"), 2)
        assert pretty(g.formula) == (
            r"((p_R_1_1 \/ p_R_1_2) /\ (p_R_2_1 \/ p_R_2_2))"
        )
        assert g.legend["p_R_1_2"] == ("R", (1, 2))
        assert g.domain_size == 2

    def test_forall_n1_single_conjunct(self):
        g = ground(parse("forall x. P(x)"), 1)
        assert pretty(g.formula) == "p_P_1"

    def test_delta_commutes(self):
        g = ground(parse("forall x. !P(x)"), 2)
        assert pretty(g.formula) == r"(!p_P_1 /\ !p_P_2)"

    def test_right_associated(self):
        g = ground(parse("forall x. P(x)"), 3)
        assert pretty(g.formula) == r"(p_P_1 /\ (p_P_2 /\ p_P_3))"

    def test_open_input_rejected(self):
        with pytest.raises(GroundingError):
            ground(parse("P(x)"), 2)

    def test_bad_size(self):
        with pytest.raises(GroundingError):
            ground(parse("forall x. P(x)"), 0)

    def test_variables_match_legend(self):
        from mvlogic.formulas import prop_variables

        g = ground(parse("forall x. (P(x) -> exists y. R(x,y))"), 2)
        assert set(prop_variables(g.formula)) == set(g.legend)

    def test_cell_names_injective(self):
        # Without escaping "_", P(1,1) and P_1(1) share p_P_1_1.
        g = ground(parse("forall x. forall y. (P(x,y) -> P_1(y))"), 1)
        assert g.legend == {"p_P_1_1": ("P", (1, 1)), "p_P__1_1": ("P_1", (1,))}


class TestInducedAssignment:
    def test_unary(self):
        m = Model.from_dict(1, {"P": {(1,): F(1, 2)}})
        assert induced_assignment(m) == {"p_P_1": F(1, 2)}

    def test_arity_zero(self):
        m = Model.from_dict(1, {"Q": {(): F(1)}})
        assert induced_assignment(m) == {"p_Q": F(1)}

    def test_matches_fo_value(self):
        m = Model.from_dict(2, {"R": {(1, 1): F(1), (1, 2): F(0),
                                      (2, 1): F(1, 2), (2, 2): F(1, 2)}})
        phi = parse("forall x. exists y. R(x,y)")
        g = ground(phi, 2)
        assert eval_prop(L2, induced_assignment(m), g.formula) == F(1, 2)
        assert eval_fo(L2, m, {}, phi) == F(1, 2)


class TestCodingIdentity:
    def test_random_spot_checks(self):
        rng = random.Random(17)
        chains = [make_chain("lukasiewicz", 3), make_chain("nm", 4),
                  make_chain("dp", 4), make_chain("godel", 5)]
        for _ in range(60):
            chain = rng.choice(chains)
            phi = universal_closure(random_formula(rng, depth=3))
            sig = signature_of(phi)
            n = rng.randint(1, 3)
            g = ground(phi, n)
            m = Model.from_dict(
                n,
                {
                    p: {
                        args: rng.choice(chain.carrier)
                        for args in __import__("itertools").product(
                            range(1, n + 1), repeat=a
                        )
                    }
                    for p, a in sig.items()
                },
            )
            assert eval_fo(chain, m, {}, phi) == eval_prop(
                chain, induced_assignment(m), g.formula
            )


class TestTautUpto:
    def test_boolean_lem(self):
        v = taut_upto_grounded(make_chain("boolean"),
                               parse(r"forall x. (P(x) \/ ~P(x))"), 3)
        assert v.is_taut
        assert v.bound == 3

    def test_luk2_lem_refuted(self):
        v = taut_upto_grounded(L2, parse(r"forall x. (P(x) \/ ~P(x))"), 3)
        assert not v.is_taut
        assert v.refuted_at == 1
        assert v.witness == {"p_P_1": F(1, 2)}

    def test_open_formula_closed_with_notice(self):
        v = taut_upto_grounded(L2, parse("P(x) -> P(x)"), 2)
        assert v.closed_input
        assert v.is_taut

    def test_witness_model_reconstruction(self):
        v = taut_upto_grounded(L2, parse(r"forall x. (P(x) \/ ~P(x))"), 3)
        m = witness_model(v.grounded, v.witness)
        assert m.domain_size == 1
        assert m.value("P", (1,)) == F(1, 2)
        assert eval_fo(L2, m, {}, parse(r"forall x. (P(x) \/ ~P(x))")) < F(1)

    def test_underscore_names_agree_with_direct(self):
        b = make_chain("boolean")
        phi = parse("forall x. forall y. (P(x,y) -> P_1(y))")
        grounded = taut_upto_grounded(b, phi, 1)
        direct = taut_upto_direct(b, phi, 1)
        assert (grounded.is_taut, grounded.refuted_at) == (False, 1)
        assert (direct.is_taut, direct.refuted_at) == (False, 1)
        m = witness_model(grounded.grounded, grounded.witness)
        assert m.tables == {"P": {(1, 1): F(1)}, "P_1": {(1,): F(0)}}
        assert eval_fo(b, m, {}, phi) == F(0)

    def test_describe(self):
        v = taut_upto_grounded(make_chain("boolean"),
                               parse(r"forall x. (P(x) \/ ~P(x))"), 2)
        assert "taut-up-to-2" in v.describe()
