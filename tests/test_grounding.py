import random
import re
from fractions import Fraction as F
from unittest import mock

import pytest

from mvlogic import (
    And,
    Atom,
    CapExceededError,
    Forall,
    GroundingError,
    Model,
    Or,
    UnsupportedChainError,
    Var,
    enumerate_models,
    eval_fo,
    eval_prop,
    find_countermodel,
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
from mvlogic import formulas, grounding, masks, semantics
from mvlogic.corpus import fixed_corpus, random_formula
from mvlogic.formulas import prop_variables


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

    def test_open_input_message_comes_before_an_ungroundable_node(self):
        closed = re.escape("formula has free variables ['x']; close it first")
        with pytest.raises(GroundingError, match=f"^{closed}$"):
            ground(parse("forall y. (P(y) & P(x))"), 2)
        with pytest.raises(GroundingError, match=f"^{closed}$"):
            ground(And(Var("p"), Atom("P", ("x",))), 2)
        with pytest.raises(GroundingError, match=r"^cannot ground node Var\(name='p'\)$"):
            ground(And(Atom("P", ()), Var("p")), 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_legend_is_in_first_occurrence_order(self, n):
        """Each cell's variable is entered where the walk first reads the
        cell, which is where it first occurs in the grounded formula."""
        for phi in fixed_corpus():
            g = ground(universal_closure(phi), n)
            assert list(g.legend) == prop_variables(g.formula)
            assert all(grounding.cell_variable(*cell) == name for name, cell in g.legend.items())

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


def _ternary_formula(rng: random.Random):
    """A closed formula over a ternary T with repeated arguments, the
    unary P and a T of arity 1, under three quantifiers."""
    leaves = [Atom("T", tuple(rng.choice("xyz") for _ in range(3))) for _ in range(rng.randint(1, 4))]
    leaves.append(Atom(rng.choice(["P", "T"]), (rng.choice("xyz"),)))
    body = leaves[0]
    for leaf in leaves[1:]:
        body = rng.choice([And, Or])(body, leaf)
    for var in "zyx":
        body = Forall(var, body)
    return body


class TestCellCount:
    """The grounded checker counts a size's cells without grounding it,
    from the argument patterns of the closure's atoms."""

    @staticmethod
    def _count(closed, n):
        return grounding._cell_count(closed, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_is_the_legend_size(self, n):
        rng = random.Random(5)
        closed = [universal_closure(phi) for phi in fixed_corpus()]
        closed += [universal_closure(random_formula(rng, depth=3)) for _ in range(40)]
        closed += [_ternary_formula(rng) for _ in range(60)]
        for phi in closed:
            assert self._count(phi, n) == len(ground(phi, n).legend), phi

    def test_patterns_of_one_predicate_overlap(self):
        # T(x,y,x), T(x,x,y) and T(y,x,x) share the n constant tuples.
        phi = parse("forall x. forall y. (T(x,y,x) & T(x,x,y) & T(y,x,x) & T(x,y,y))")
        assert [self._count(phi, n) for n in (1, 2, 3, 4)] == [1, 8, 21, 40]

    def test_over_the_cap_before_grounding(self, monkeypatch):
        """2^16 cells at n = 2 on boolean: refused from the count, without
        grounding that size (the grounding of n = 1 runs)."""
        monkeypatch.delenv("MVLOGIC_ENUM_CAP", raising=False)
        xs = ",".join(f"x{i}" for i in range(16))
        phi = parse(" ".join(f"forall x{i}." for i in range(16)) + f" (P({xs}) -> P({xs}))")
        real = masks.ground

        def ground_one(phi, n):
            assert n == 1, f"grounded at n = {n}"
            return real(phi, n)

        with mock.patch.object(masks, "ground", ground_one):
            with pytest.raises(CapExceededError,
                               match=r"^2\^65536 assignments exceed the enumeration cap 20000000$"):
                taut_upto_grounded(make_chain("boolean"), phi, 2)

    def test_missing_delta_and_ungroundable_nodes_come_before_the_cap(self, monkeypatch):
        monkeypatch.setenv("MVLOGIC_ENUM_CAP", "1")  # under one cell's digits
        xs = ",".join(f"x{i}" for i in range(8))
        phi = parse(" ".join(f"forall x{i}." for i in range(8)) + f" !P({xs})")
        with pytest.raises(UnsupportedChainError, match=r"^chain lukasiewicz\(3\) has no delta operation$"):
            taut_upto_grounded(make_chain("lukasiewicz", 3), phi, 2)
        with pytest.raises(GroundingError, match=r"^cannot ground node Var\(name='p'\)$"):
            taut_upto_grounded(make_chain("boolean"), And(phi, Var("p")), 2)


class TestOneSetUpPerCall:
    """What one taut_upto_grounded call pays once, counted, not timed:
    a tautology up to 3, so that every size is grounded and scanned."""

    PHI = parse("forall x. exists y. (R(x,y) -> (P(x) \\/ R(y,x)))")
    CHAIN = make_chain("boolean")

    @pytest.mark.parametrize("check", [taut_upto_grounded, taut_upto_direct, find_countermodel])
    def test_the_cap_is_read_once(self, check):
        read = mock.Mock(wraps=semantics.enum_cap)
        with mock.patch.object(semantics, "enum_cap", read), mock.patch.object(grounding, "enum_cap", read):
            out = check(make_chain("nm", 4), parse("forall x. (P(x) -> P(x))"), 3)
        assert out is None or out.is_taut
        assert read.call_count == 1

    def test_free_variables_walks_the_formula_once(self):
        calls = []
        real = formulas.free_variables

        def counted(phi):
            calls.append(phi)
            return real(phi)

        with mock.patch.object(formulas, "free_variables", counted), \
                mock.patch.object(grounding, "free_variables", counted):
            assert taut_upto_grounded(self.CHAIN, self.PHI, 3).is_taut
        assert calls == [self.PHI]

    def test_one_name_per_cell_and_size(self):
        made = []
        real = grounding.cell_variable

        def counted(pred, args):
            made.append((pred, args))
            return real(pred, args)

        with mock.patch.object(grounding, "cell_variable", counted):
            assert taut_upto_grounded(self.CHAIN, self.PHI, 3).is_taut
        assert made == [cell for n in (1, 2, 3) for cell in ground(self.PHI, n).legend.values()]

    def test_a_second_call_builds_no_digit_pattern(self):
        taut_upto_grounded(self.CHAIN, self.PHI, 3)
        before = dict(masks._PATTERNS)
        assert before
        taut_upto_grounded(self.CHAIN, self.PHI, 3)
        assert masks._PATTERNS.keys() == before.keys()
        assert all(masks._PATTERNS[key] is patterns for key, patterns in before.items())
