import itertools
from fractions import Fraction as F

import pytest

from mvlogic import (
    Model,
    NotAnMVChainError,
    TranslationError,
    boolean_collapse,
    count_models,
    delta_expand,
    delta_guard,
    double_neg,
    enumerate_models,
    eval_fo,
    godel_fragment,
    luk_star,
    make_chain,
    make_wnm_chain,
    model_plus,
    negation_profile,
    ordinal_sum,
    parse,
    predef,
    pretty,
    signature_of,
    universal_closure,
    wnm_star,
)
from mvlogic import suites
from mvlogic.corpus import classical_corpus
from mvlogic.formulas import subformulas
from mvlogic.reductions import predef_atom
from mvlogic.suites import _fixpoint_formula


class TestWnmStar:
    def test_atom_squared(self):
        assert pretty(wnm_star(parse("P(x)"))) == "(P(x) & P(x))"

    def test_implication_squared(self):
        got = wnm_star(parse("P(x) -> Q(x)"))
        want = parse(
            "((P(x) & P(x)) -> (Q(x) & Q(x))) & ((P(x) & P(x)) -> (Q(x) & Q(x)))"
        )
        assert got == want

    def test_forall_homomorphic(self):
        assert wnm_star(parse("forall x. P(x)")) == parse(
            "forall x. (P(x) & P(x))"
        )

    def test_derived_connectives_desugared_first(self):
        got = wnm_star(parse("~P(x)"))
        # ~P desugars to P -> bot; bot is fixed, so ((P^2 -> bot))^2
        want = parse("((P(x) & P(x)) -> bot) & ((P(x) & P(x)) -> bot)")
        assert got == want

    def test_delta_rejected(self):
        with pytest.raises(TranslationError):
            wnm_star(parse("!P(x)"))


class TestModelPlus:
    def test_a_plus_value_kept(self):
        nm5 = make_chain("nm", 5)
        m = Model.from_dict(1, {"P": {(1,): F(3, 4)}})
        assert model_plus(nm5, m).value("P", (1,)) == F(3, 4)

    def test_fixpoint_zeroed(self):
        nm5 = make_chain("nm", 5)
        m = Model.from_dict(1, {"P": {(1,): F(1, 2)}})
        assert model_plus(nm5, m).value("P", (1,)) == F(0)

    def test_boolean_values_fixed(self):
        nm5 = make_chain("nm", 5)
        m = Model.from_dict(2, {"P": {(1,): F(0), (2,): F(1)}})
        plus = model_plus(nm5, m)
        assert plus.value("P", (1,)) == F(0)
        assert plus.value("P", (2,)) == F(1)

    def test_non_wnm_rejected(self):
        m = Model.from_dict(1, {"P": {(1,): F(1)}})
        with pytest.raises(TranslationError):
            model_plus(make_chain("lukasiewicz", 3), m)


class TestGodelFragment:
    def test_nm5(self):
        frag = godel_fragment(make_chain("nm", 5))
        assert frag.chain.size == 3
        # embedding targets: 0, 3/4, 1 in the source chain
        nm5 = make_chain("nm", 5)
        assert [nm5.carrier[i] for i in frag.embedding] == [F(0), F(3, 4), F(1)]

    def test_boolean(self):
        frag = godel_fragment(make_chain("boolean"))
        assert frag.chain.size == 2

    def test_godel_is_its_own_fragment(self):
        g4 = make_chain("godel", 4)
        frag = godel_fragment(g4)
        assert frag.chain.star_table == g4.star_table
        assert frag.chain.carrier == g4.carrier

    def test_fragment_is_godel(self):
        frag = godel_fragment(make_wnm_chain([5, 3, 3, 2, 0, 0]))
        for i in range(frag.chain.size):
            for j in range(frag.chain.size):
                assert frag.chain.star_table[i][j] == min(i, j)


class TestPredef:
    def test_single_atom(self):
        got = predef(parse("forall x. P(x)"))
        assert got == parse("forall x1. ~(P(x1) <-> ~P(x1))")

    def test_two_atoms_conjoined(self):
        got = predef(parse(r"forall x. forall y. (P(x) \/ R(x,y))"))
        assert got == parse(
            r"(forall x1. ~(P(x1) <-> ~P(x1))) /\ (forall x1. forall x2. ~(R(x1,x2) <-> ~R(x1,x2)))"
        )

    def test_value_zero_at_fixpoint(self):
        L2 = make_chain("lukasiewicz", 2)
        m = Model.from_dict(1, {"P": {(1,): F(1, 2)}})
        assert eval_fo(L2, m, {}, predef(parse("forall x. P(x)"))) == F(0)

    def test_value_one_on_crisp_model(self):
        L2 = make_chain("lukasiewicz", 2)
        m = Model.from_dict(1, {"P": {(1,): F(1)}})
        assert eval_fo(L2, m, {}, predef(parse("forall x. P(x)"))) == F(1)

    def test_non_classical_rejected(self):
        with pytest.raises(TranslationError):
            predef(parse("P(x) -> Q(x)"))

    def test_no_atoms_rejected(self):
        with pytest.raises(TranslationError):
            predef(parse("bot", kind="prop"))


def _subformula_values(chain, model, phi):
    """The values of every subformula occurrence of phi at every
    valuation of its variables, one model at a time: the loop that the
    lemma-pred suite ran before it moved to the mask engine."""
    names = set()
    for node in subformulas(phi):
        names.update(getattr(node, "args", ()))
        if hasattr(node, "var"):
            names.add(node.var)
    names = sorted(names)
    out = set()
    for values in itertools.product(range(1, model.domain_size + 1), repeat=len(names)):
        v = dict(zip(names, values))
        for node in subformulas(phi):
            out.add(eval_fo(chain, model, v, node))
    return out


def _lemma_pred_failures(max_n):
    """The lemma-pred failure messages, found model by model with the
    suite's predef and the loop above."""
    out = []
    for chain in [make_chain("lukasiewicz", 2), make_chain("lukasiewicz", 3)]:
        fixpoint = negation_profile(chain).fixpoint
        if fixpoint is None:
            continue
        fix = chain.carrier[fixpoint]
        for phi in classical_corpus():
            guard = suites.predef(phi)
            for n in range(1, max_n + 1):
                for model in enumerate_models(signature_of(phi), n, chain.carrier):
                    if eval_fo(chain, model, {}, guard) > 0 and fix in _subformula_values(
                        chain, model, phi
                    ):
                        out.append(
                            f"{chain.name} {pretty(phi)}: fixpoint {fix} appears "
                            "as a subformula value despite a positive guard"
                        )
    return out


class TestLemmaPred:
    @pytest.mark.parametrize("chain", [make_chain("lukasiewicz", 2), make_chain("nm", 5)],
                             ids=lambda c: c.name)
    def test_fixpoint_formula_is_the_subformula_loop(self, chain):
        # At most 200 models per (formula, n), spread over the whole space.
        fix = chain.carrier[negation_profile(chain).fixpoint]
        for phi in classical_corpus():
            fixed = _fixpoint_formula(phi)
            sig = signature_of(phi)
            for n in (1, 2):
                step = -(-count_models(sig, n, chain.carrier) // 200)
                models = itertools.islice(enumerate_models(sig, n, chain.carrier), 0, None, step)
                for model in models:
                    got = eval_fo(chain, model, {}, fixed) == chain.top
                    assert got == (fix in _subformula_values(chain, model, phi)), (
                        pretty(phi), model
                    )

    def test_planted_failures_match_the_model_loop(self, monkeypatch):
        # A guard that is always 1 lets the fixpoint through; the mask
        # scan must name the failing models the model loop names, in order.
        monkeypatch.setattr(suites, "predef", lambda phi: parse("bot -> bot"))
        report = suites.SUITES["lemma-pred"](max_n=1)
        assert (report.cases, len(report.failures)) == (198, 102)
        assert report.failures == _lemma_pred_failures(max_n=1)

    def test_passing_run_makes_no_eval_fo_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(suites, "eval_fo",
                            lambda *args: calls.append(args) or eval_fo(*args))
        report = suites.SUITES["lemma-pred"]()
        assert report.ok and report.cases == 468
        assert calls == []

    def test_cases_are_the_models_with_a_positive_guard(self):
        chain = make_chain("lukasiewicz", 2)
        positive = sum(
            eval_fo(chain, model, {}, predef(phi)) > 0
            for phi in classical_corpus()
            for model in enumerate_models(signature_of(phi), 1, chain.carrier)
        )
        assert positive == 96
        assert suites.SUITES["lemma-pred"](max_n=1).cases == positive

    def test_open_guard_rejected(self, monkeypatch):
        monkeypatch.setattr(suites, "predef", lambda phi: parse("P(x)"))
        with pytest.raises(AssertionError, match="valuation-uniform"):
            suites.SUITES["lemma-pred"](max_n=1)


class TestLukStar:
    def test_shape(self):
        phi = parse(r"forall x. (P(x) \/ ~P(x))")
        got = luk_star(phi)
        from mvlogic import Implies, Not, Or

        assert isinstance(got, Or)
        assert got.left == Not(predef(phi))
        assert got.right == Implies(Not(phi), phi)

    def test_fixpoint_model_satisfies(self):
        L2 = make_chain("lukasiewicz", 2)
        phi = parse(r"forall x. (P(x) \/ ~P(x))")
        m = Model.from_dict(1, {"P": {(1,): F(1, 2)}})
        assert eval_fo(L2, m, {}, luk_star(phi)) == F(1)

    def test_boolean_reduces_to_consequentia(self):
        b = make_chain("boolean")
        phi = parse(r"forall x. (P(x) \/ ~P(x))")
        for m in enumerate_models({"P": 1}, 2, b.carrier):
            assert eval_fo(b, m, {}, luk_star(phi)) == eval_fo(
                b, m, {}, parse(r"~(forall x. (P(x) \/ ~P(x))) -> (forall x. (P(x) \/ ~P(x)))")
            )

    def test_non_classical_rejected(self):
        with pytest.raises(TranslationError):
            luk_star(parse("P(x) & Q(x)"))


class TestBooleanCollapse:
    def test_a_plus_to_one(self):
        L3 = make_chain("lukasiewicz", 3)
        m = Model.from_dict(1, {"P": {(1,): F(2, 3)}})
        assert boolean_collapse(L3, m).value("P", (1,)) == F(1)

    def test_fixpoint_to_zero(self):
        L2 = make_chain("lukasiewicz", 2)
        m = Model.from_dict(1, {"P": {(1,): F(1, 2)}})
        assert boolean_collapse(L2, m).value("P", (1,)) == F(0)

    def test_crisp_unchanged(self):
        L2 = make_chain("lukasiewicz", 2)
        m = Model.from_dict(2, {"P": {(1,): F(0), (2,): F(1)}})
        assert boolean_collapse(L2, m) == m

    def test_suite_checks_mv_once_per_chain(self, monkeypatch):
        # boolean_collapse reads the MV check and the negation profile
        # that each chain object derives once, so lemma-luk1 scans for
        # ~~x -> x once per chain, not once per model.
        import mvlogic.semantics as semantics
        from mvlogic.suites import SUITES

        scan = semantics.is_taut_prop
        calls = []
        monkeypatch.setattr(semantics, "is_taut_prop",
                            lambda *args: calls.append(args) or scan(*args))
        report = SUITES["lemma-luk1"](max_n=1)
        assert report.ok and report.cases == 432
        assert len(calls) == 2  # lukasiewicz(2), lukasiewicz(3)

    def test_non_mv_rejected(self):
        # On every call, though the check runs once per chain, and with
        # the message ordinal_sum gives.
        g3 = make_chain("godel", 3)
        m = Model.from_dict(1, {"P": {(1,): F(1)}})
        for call in (lambda: boolean_collapse(g3, m), lambda: boolean_collapse(g3, m),
                     lambda: ordinal_sum(g3, make_chain("boolean"))):
            with pytest.raises(NotAnMVChainError,
                               match=r"^godel\(3\) does not satisfy ~~x -> x$"):
                call()


class TestDoubleNeg:
    def test_atom(self):
        assert double_neg(parse("P(x)")) == parse("~~P(x)")

    def test_structure_preserved(self):
        got = double_neg(parse(r"forall x. (P(x) \/ Q(x))"))
        assert got == parse(r"forall x. (~~P(x) \/ ~~Q(x))")

    def test_godel_double_neg_is_support(self):
        g4 = make_chain("godel", 4)
        m = Model.from_dict(1, {"P": {(1,): F(1, 3)}})
        assert eval_fo(g4, m, {}, universal_closure(parse("~~P(x)"))) == F(1)

    def test_first_block_value_kept(self):
        s = ordinal_sum(make_chain("lukasiewicz", 2), make_chain("godel", 2))
        low = s.carrier[1]
        m = Model.from_dict(1, {"P": {(1,): low}})
        assert eval_fo(s, m, {}, universal_closure(parse("~~P(x)"))) == low

    def test_delta_rejected(self):
        with pytest.raises(TranslationError):
            double_neg(parse("!P(x)"))


class TestDeltaGuard:
    def test_atom(self):
        assert delta_guard(parse("P(x)")) == parse("!P(x)")

    def test_luk2_guard_value(self):
        c = delta_expand(make_chain("lukasiewicz", 2))
        m = Model.from_dict(1, {"P": {(1,): F(1, 2)}})
        assert eval_fo(c, m, {}, universal_closure(delta_guard(parse("P(x)")))) == F(0)

    def test_boolean_guard_is_identity(self):
        b = delta_expand(make_chain("boolean"))
        phi = universal_closure(parse(r"P(x) \/ ~P(x)"))
        for m in enumerate_models({"P": 1}, 2, b.carrier):
            assert eval_fo(b, m, {}, delta_guard(phi)) == eval_fo(b, m, {}, phi)


class TestGcEqualities:
    def test_chain_of_equalities_sample(self):
        chain = make_chain("nm", 4)
        frag = godel_fragment(chain)
        prof = negation_profile(chain)
        allowed = {chain.carrier[i] for i in prof.a_plus} | {F(0)}
        phi = universal_closure(parse(r"forall x. (P(x) -> Q(x))"))
        starred = wnm_star(phi)
        sig = signature_of(phi)
        for m in enumerate_models(sig, 2, chain.carrier):
            a = eval_fo(chain, m, {}, starred)
            b = eval_fo(chain, model_plus(chain, m), {}, starred)
            m_prime = frag.translate_model(m)
            c_ = eval_fo(frag.chain, m_prime, {}, starred)
            d = eval_fo(frag.chain, m_prime, {}, phi)
            assert a == b and a in allowed
            assert frag.restrict_value(a) == c_ == d

    @pytest.mark.parametrize("name", ["lemma-gc", "lemma-gc1"])
    def test_suite_checks_wnm_once_per_chain(self, name, monkeypatch):
        # The suites map every model through the fragment they build
        # once per chain, so only godel_fragment scans for the WNM law.
        import mvlogic.semantics as semantics
        from mvlogic.suites import SUITES

        scan = semantics.is_taut_prop
        calls = []
        monkeypatch.setattr(semantics, "is_taut_prop",
                            lambda *args: calls.append(args) or scan(*args))
        report = SUITES[name](max_n=1)
        assert report.ok and report.cases == 2968
        assert len(calls) == 4  # nm(4), nm(5), wnmA, wnmB

    def test_fragment_maps_match_model_plus(self):
        # A value off the carrier is zeroed, as by the one-shot model_plus.
        chain = make_wnm_chain([5, 3, 3, 2, 0, 0])
        frag = godel_fragment(chain)
        m = Model.from_dict(1, {"P": {(1,): F(1, 7)}, "Q": {(1,): F(4, 5)}})
        assert frag.model_plus(m) == model_plus(chain, m)
        assert model_plus(chain, m).value("P", (1,)) == F(0)
        assert frag.translate_model(m).value("P", (1,)) == F(0)
        assert frag.translate_model(m).value("Q", (1,)) == frag.restrict_value(F(4, 5))
