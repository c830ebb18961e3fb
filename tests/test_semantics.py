import itertools
import random
import re
from fractions import Fraction as F

import pytest

from mvlogic import (
    CapExceededError,
    EvaluationError,
    FormatError,
    Model,
    UnsupportedChainError,
    count_models,
    delta_expand,
    desugar,
    enumerate_models,
    eval_fo,
    eval_prop,
    is_taut_prop,
    make_chain,
    make_rational_chain,
    model_from_text,
    model_to_text,
    parse,
    signature_of,
    universal_closure,
)
from mvlogic import masks
from mvlogic.corpus import fo_axiom_instances, random_formula, random_propositional


L2 = make_chain("lukasiewicz", 2)


class TestEvalProp:
    def test_luk2_example(self):
        phi = parse("p -> (p & p)", kind="prop")
        assert eval_prop(L2, {"p": F(1, 2)}, phi) == F(1, 2)

    def test_prelinearity_any_assignment(self):
        phi = parse(r"(p -> q) \/ (q -> p)", kind="prop")
        for c in [L2, make_chain("nm", 5), make_chain("dp", 4)]:
            for p in c.carrier:
                for q in c.carrier:
                    assert eval_prop(c, {"p": p, "q": q}, phi) == F(1)

    def test_delta(self):
        c = delta_expand(L2)
        assert eval_prop(c, {"p": F(1, 2)}, parse("!p", kind="prop")) == F(0)
        assert eval_prop(c, {"p": F(1)}, parse("!p", kind="prop")) == F(1)

    def test_delta_requires_delta(self):
        with pytest.raises(UnsupportedChainError):
            eval_prop(L2, {"p": F(1)}, parse("!p", kind="prop"))

    def test_missing_variable(self):
        with pytest.raises(EvaluationError):
            eval_prop(L2, {}, parse("p", kind="prop"))

    def test_desugar_preserves_value(self):
        rng = random.Random(2)
        for _ in range(200):
            phi = random_propositional(rng, depth=4)
            vars_ = sorted({v for v in ("p", "q", "r")})
            for values in itertools.product(L2.carrier, repeat=3):
                a = dict(zip(vars_, values))
                assert eval_prop(L2, a, phi) == eval_prop(L2, a, desugar(phi))

    def test_rational_family_eval(self):
        c = make_rational_chain("lukasiewicz")
        phi = parse("p -> (p & p)", kind="prop")
        assert eval_prop(c, {"p": F(3, 7)}, phi) == F(1) - F(3, 7) + F(0)


class TestEvalFo:
    def test_forall_exists_binary_example(self):
        m = Model.from_dict(2, {"R": {(1, 1): F(1), (1, 2): F(0),
                                      (2, 1): F(1, 2), (2, 2): F(1, 2)}})
        phi = parse("forall x. exists y. R(x,y)")
        assert eval_fo(L2, m, {}, phi) == F(1, 2)

    def test_singleton_forall(self):
        for t in [F(0), F(1, 2), F(1)]:
            m = Model.from_dict(1, {"P": {(1,): t}})
            assert eval_fo(L2, m, {}, parse("forall x. P(x)")) == t

    def test_forall3_on_boolean(self):
        b = make_chain("boolean")
        phi = parse(r"(forall x. (P(x) \/ Q(y))) -> ((forall x. P(x)) \/ Q(y))")
        closed = universal_closure(phi)
        for m in enumerate_models({"P": 1, "Q": 1}, 2, b.carrier):
            assert eval_fo(b, m, {}, closed) == F(1)

    def test_unbound_variable(self):
        m = Model.from_dict(1, {"P": {(1,): F(1)}})
        with pytest.raises(EvaluationError):
            eval_fo(L2, m, {}, parse("P(x)"))

    def test_bound_variable_renaming(self):
        rng = random.Random(4)
        c = make_chain("nm", 4)
        for _ in range(50):
            phi = universal_closure(random_formula(rng, depth=3))
            import re

            text = __import__("mvlogic").pretty(phi)
            renamed = parse(
                re.sub(
                    r"\b[xyz]\b",
                    lambda m_: {"x": "u", "y": "v", "z": "w"}[m_.group()],
                    text,
                )
            )
            sig = signature_of(phi)
            for m in itertools.islice(enumerate_models(sig, 2, (F(0), F(1, 3), F(1))), 5):
                assert eval_fo(c, m, {}, phi) == eval_fo(c, m, {}, renamed)

    def test_domain_permutation_invariance(self):
        rng = random.Random(8)
        c = make_chain("lukasiewicz", 3)
        for _ in range(30):
            phi = universal_closure(random_formula(rng, depth=3))
            sig = signature_of(phi)
            m = Model.from_dict(
                2,
                {
                    p: {
                        args: rng.choice(c.carrier)
                        for args in itertools.product((1, 2), repeat=a)
                    }
                    for p, a in sig.items()
                },
            )
            swap = {1: 2, 2: 1}
            permuted = Model.from_dict(
                2,
                {
                    p: {
                        args: m.value(p, tuple(swap[i] for i in args))
                        for args in itertools.product((1, 2), repeat=a)
                    }
                    for p, a in sig.items()
                },
            )
            assert eval_fo(c, m, {}, phi) == eval_fo(c, permuted, {}, phi)

    def test_closure_is_min_over_valuations(self):
        rng = random.Random(13)
        c = make_chain("godel", 3)
        for _ in range(40):
            phi = random_formula(rng, depth=3)
            free = sorted(__import__("mvlogic").free_variables(phi))
            if not free:
                continue
            sig = signature_of(phi)
            for m in itertools.islice(enumerate_models(sig, 2, c.carrier), 4):
                closed_val = eval_fo(c, m, {}, universal_closure(phi))
                open_vals = [
                    eval_fo(c, m, dict(zip(free, combo)), phi)
                    for combo in itertools.product((1, 2), repeat=len(free))
                ]
                assert closed_val == min(open_vals)


class TestIsTaut:
    def test_wnm_on_nm5(self):
        phi = parse(r"~(p & q) \/ ((p /\ q) -> (p & q))", kind="prop")
        ok, witness = is_taut_prop(make_chain("nm", 5), phi)
        assert ok and witness is None

    def test_lem_on_luk2(self):
        ok, witness = is_taut_prop(L2, parse(r"x \/ ~x", kind="prop"))
        assert not ok
        assert witness == {"x": F(1, 2)}

    def test_lem_on_boolean(self):
        ok, _ = is_taut_prop(make_chain("boolean"), parse(r"x \/ ~x", kind="prop"))
        assert ok

    def test_witness_is_lexicographically_first(self):
        # p /\ q fails first at p=0,q=0 (carrier order, last var fastest).
        ok, witness = is_taut_prop(L2, parse(r"p /\ q", kind="prop"))
        assert not ok
        assert witness == {"p": F(0), "q": F(0)}

    def test_rational_family_rejected(self):
        with pytest.raises(UnsupportedChainError):
            is_taut_prop(make_rational_chain("godel"), parse("p", kind="prop"))

    def test_first_order_formula_rejected(self):
        # An MvlogicError, not a traceback, for atoms and quantifiers.
        for text in ("P", "forall x. P(x)", "forall x. bot"):
            with pytest.raises(EvaluationError, match="cannot evaluate node"):
                is_taut_prop(L2, parse(text))


class TestEnumerateModels:
    def test_counts(self):
        assert count_models({"P": 1}, 1, (F(0), F(1))) == 2
        assert count_models({"P": 1}, 2, L2.carrier) == 9
        assert count_models({"R": 2}, 2, (F(0), F(1))) == 16
        assert len(list(enumerate_models({"P": 1}, 2, L2.carrier))) == 9

    def test_canonical_order_deterministic(self):
        first = list(enumerate_models({"P": 1, "Q": 1}, 2, (F(0), F(1))))
        second = list(enumerate_models({"P": 1, "Q": 1}, 2, (F(0), F(1))))
        assert first == second
        # first model is all-bottom, last is all-top
        assert all(v == F(0) for v in first[0].table("P").values())
        assert all(v == F(1) for v in first[-1].table("Q").values())

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("MVLOGIC_ENUM_CAP", "10")
        with pytest.raises(CapExceededError):
            list(enumerate_models({"R": 2}, 2, L2.carrier))

    def test_cap_bounds_assignments(self, monkeypatch):
        # 2^8 = 256 assignments; the first one already refutes the formula.
        phi = parse(" /\\ ".join(f"p{i}" for i in range(8)), kind="prop")
        monkeypatch.setenv("MVLOGIC_ENUM_CAP", "256")
        assert is_taut_prop(make_chain("boolean"), phi)[0] is False
        monkeypatch.setenv("MVLOGIC_ENUM_CAP", "10")
        with pytest.raises(CapExceededError, match="^256 assignments exceed the enumeration cap 10$"):
            is_taut_prop(make_chain("boolean"), phi)

    def test_cap_is_checked_before_compiling(self, monkeypatch):
        # 3^12 assignments on godel(3): no formula is compiled over the cap.
        def no_code(*args):
            raise AssertionError("a Code was compiled over the cap")

        monkeypatch.setattr(masks, "Code", no_code)
        monkeypatch.setenv("MVLOGIC_ENUM_CAP", "10")
        phi = parse(" /\\ ".join(f"p{i}" for i in range(12)), kind="prop")
        with pytest.raises(CapExceededError,
                           match="^531441 assignments exceed the enumeration cap 10$"):
            is_taut_prop(make_chain("godel", 3), phi)

    def test_missing_delta_is_reported_before_the_cap(self, monkeypatch):
        # 3^30 assignments are far over the cap, but the chain's missing
        # delta is found first, while the formula is compiled.
        phi = parse("!p0 /\\ " + " /\\ ".join(f"p{i}" for i in range(1, 30)), kind="prop")
        monkeypatch.setenv("MVLOGIC_ENUM_CAP", "10")
        with pytest.raises(UnsupportedChainError, match=r"lukasiewicz\(3\) has no delta"):
            is_taut_prop(make_chain("lukasiewicz", 3), phi)


class TestFoAxiomSoundness:
    def test_samples(self):
        chains = [make_chain("lukasiewicz", 3), make_chain("nm", 4)]
        for name, instances in fo_axiom_instances().items():
            for phi in instances:
                closed = universal_closure(phi)
                sig = signature_of(closed)
                for c in chains:
                    for m in itertools.islice(enumerate_models(sig, 2, c.carrier), 30):
                        assert eval_fo(c, m, {}, closed) == F(1), name


class TestModelFiles:
    def test_round_trip(self):
        m = Model.from_dict(2, {"R": {(1, 1): F(1), (1, 2): F(0),
                                      (2, 1): F(1, 2), (2, 2): F(1, 2)},
                                "P": {(1,): F(2, 3), (2,): F(0)}})
        again = model_from_text(model_to_text(m))
        assert again == m

    def test_arity_zero(self):
        m = Model.from_dict(1, {"Q": {(): F(1)}})
        again = model_from_text(model_to_text(m))
        assert again.value("Q", ()) == F(1)

    @pytest.mark.parametrize("text, message", [
        ("mtlmodel 1\ndomain 2\npred P 1\n1 1/2\n1 1/2\n", "line 5: repeated row 1"),
        ("mtlmodel 1\ndomain 1\npred P 1\n2 1/2\n", "line 4: argument 2 outside 1..1"),
    ], ids=["repeated-row", "argument-outside-the-domain"])
    def test_row_faults_are_named(self, text, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            model_from_text(text)
