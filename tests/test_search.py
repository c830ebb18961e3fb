import dataclasses
from fractions import Fraction as F

import pytest

from mvlogic import (
    CapExceededError,
    Certificate,
    CertificateError,
    Chain,
    ChainLawError,
    FormatError,
    InvalidParameterError,
    Model,
    MvlogicError,
    SignatureError,
    certificate_from_text,
    certificate_to_text,
    chain_to_text,
    find_countermodel,
    lift_prop,
    make_chain,
    make_rational_chain,
    make_wnm_chain,
    parse,
    pretty,
    taut_upto_direct,
    taut_upto_grounded,
    verify_certificate,
)

L2 = make_chain("lukasiewicz", 2)
L3 = make_chain("lukasiewicz", 3)
LEM = parse(r"forall x. (P(x) \/ ~P(x))")


class TestFindCountermodel:
    def test_luk2_lem(self):
        cert = find_countermodel(L2, LEM, 3)
        assert cert is not None
        assert cert.model.domain_size == 1
        assert cert.model.value("P", (1,)) == F(1, 2)
        assert cert.value == F(1, 2)

    def test_boolean_lem_none(self):
        assert find_countermodel(make_chain("boolean"), LEM, 3) is None

    def test_luk3_squaring_demo(self):
        psi = lift_prop(parse("(x & x) <-> (x & x & x)", kind="prop"))
        cert = find_countermodel(L3, psi, 2)
        assert cert is not None
        assert cert.model.domain_size == 1
        assert list(cert.model.table("P1").values()) == [F(2, 3)]

    @pytest.mark.parametrize("max_size, values", [
        (0, None),
        (1, [F(1, 3)]),  # not in the carrier of lukasiewicz(2)
        (1, []),
    ])
    def test_bad_parameters(self, max_size, values):
        with pytest.raises(InvalidParameterError):
            find_countermodel(L2, LEM, max_size, values)

    def test_canonically_first(self):
        a = find_countermodel(L2, LEM, 3)
        b = find_countermodel(L2, LEM, 3)
        assert a.model == b.model and a.value == b.value


class TestVerify:
    def test_round_trip_verifies(self):
        cert = find_countermodel(L2, LEM, 2)
        assert verify_certificate(cert)

    def test_tampered_value(self):
        cert = find_countermodel(L2, LEM, 2)
        bad = dataclasses.replace(cert, value=F(1, 3))
        assert not verify_certificate(bad)

    def test_wrong_chain_hash_mismatch(self):
        cert = find_countermodel(L2, LEM, 2)
        with pytest.raises(CertificateError):
            verify_certificate(cert, L3)

    def test_out_of_carrier_forgery_rejected(self):
        cert = find_countermodel(L2, parse("forall x. P(x)"), 1)
        forged = dataclasses.replace(
            cert, model=Model.from_dict(1, {"P": {(1,): F(1, 3)}}), value=F(1, 3)
        )
        with pytest.raises(SignatureError):
            verify_certificate(forged)
        with pytest.raises(SignatureError):
            verify_certificate(certificate_from_text(certificate_to_text(forged)))

    def test_inline_chain_breaking_a_law_is_rejected(self):
        # star(1/3, 2/3) = 2/3 on nm(4): not monotone.  The hash is the
        # broken chain's own, so only the law check can reject it; on
        # that chain the model would be a real countermodel.
        nm4 = make_chain("nm", 4)
        rows = [list(r) for r in nm4.star_table]
        rows[1][2] = rows[2][1] = 2
        bad = Chain("nm(4)", nm4.carrier, tuple(map(tuple, rows)))
        cert = Certificate("nm(4)", bad.table_hash(), "(forall x. P(x))",
                           Model.from_dict(1, {"P": {(1,): F(1, 3)}}), {}, F(1, 3),
                           chain_to_text(bad))
        with pytest.raises(ChainLawError):
            verify_certificate(cert)
        with pytest.raises(ChainLawError):
            verify_certificate(certificate_from_text(certificate_to_text(cert)))

    def test_no_hash_needs_rational_chain(self):
        cert = find_countermodel(L2, LEM, 1)
        with pytest.raises(CertificateError):
            verify_certificate(dataclasses.replace(cert, chain_hash="-"))

    def test_rational_chain_must_be_the_named_one(self):
        # A rational-family chain has no table to hash, so its name and
        # the hash "-" are what identify it.
        luk = make_rational_chain("lukasiewicz")
        cert = find_countermodel(luk, LEM, 1, [F(0), F(1, 2), F(1)])
        assert (cert.chain_name, cert.chain_hash) == ("lukasiewicz[0,1]", "-")
        assert verify_certificate(cert, luk)
        for family in ("godel", "nm"):
            with pytest.raises(CertificateError):
                verify_certificate(cert, make_rational_chain(family))
        finite = find_countermodel(make_chain("godel", 3), LEM, 1)
        with pytest.raises(CertificateError):
            verify_certificate(finite, make_rational_chain("godel"))

    def test_text_round_trip(self):
        cert = find_countermodel(L3, LEM, 2)
        again = certificate_from_text(certificate_to_text(cert))
        assert again.value == cert.value
        assert again.model == cert.model
        assert again.chain_hash == cert.chain_hash
        assert verify_certificate(again)

    def test_inline_chain_errors_count_lines_within_the_copy(self):
        text = certificate_to_text(find_countermodel(L2, LEM, 2))
        cert = certificate_from_text(text.replace("labels 0 1/2 1", "labels 0 1/2 x"))
        with pytest.raises(FormatError, match=r"^inline chain, line 3: "):
            verify_certificate(cert)

    def test_chain_name_with_spaces_round_trips(self):
        chain = make_wnm_chain([4, 3, 1, 1, 0])
        assert chain.name == "wnm[4, 3, 1, 1, 0]"
        cert = find_countermodel(chain, parse("forall x. P(x)"), 1)
        text = certificate_to_text(cert)
        again = certificate_from_text(text)
        assert again == cert
        assert certificate_to_text(again) == text
        assert verify_certificate(again)


    @pytest.mark.parametrize("valuation, error", [
        ("x=1", CertificateError),  # x is bound
        ("zz=-3", CertificateError),  # not in the formula
        ("x=99 x=7", FormatError),
    ])
    def test_valuation_of_a_closed_formula_is_empty(self, valuation, error):
        text = certificate_to_text(find_countermodel(L2, parse("forall x. P(x)"), 1))
        assert text.endswith("\nvaluation \nvalue 0\n")
        with pytest.raises(error):
            verify_certificate(certificate_from_text(text.replace("valuation ", "valuation " + valuation)))

    def test_valuation_sends_each_free_variable_into_the_domain(self):
        model = Model.from_dict(2, {"R": {(1, 1): F(1, 2), (1, 2): F(0), (2, 1): F(1), (2, 2): F(1)}})
        cert = Certificate(L2.name, L2.table_hash(), "R(x, y)", model, {"x": 1, "y": 2}, F(0))
        assert verify_certificate(cert, L2)
        assert not verify_certificate(dataclasses.replace(cert, valuation={"x": 1, "y": 1}), L2)
        for valuation in ({"x": 1}, {}, {"x": 1, "y": 3}, {"x": 0, "y": 2}, {"x": 1, "y": 2, "z": 1}):
            with pytest.raises(CertificateError):
                verify_certificate(dataclasses.replace(cert, valuation=valuation), L2)


class TestTautUptoDirect:
    def test_agrees_with_grounded(self):
        for chain in [make_chain("boolean"), L2, make_chain("nm", 4)]:
            for text in [
                r"forall x. (P(x) \/ ~P(x))",
                "forall x. (P(x) -> P(x))",
                "forall x. P(x)",
            ]:
                phi = parse(text)
                a = taut_upto_direct(chain, phi, 2)
                b = taut_upto_grounded(chain, phi, 2)
                assert (a.is_taut, a.refuted_at) == (b.is_taut, b.refuted_at)

    def test_nm5_lem_refuted_at_fixpoint(self):
        v = taut_upto_direct(make_chain("nm", 5), LEM, 2)
        assert not v.is_taut
        assert v.refuted_at == 1

    def test_boolean_taut(self):
        v = taut_upto_direct(make_chain("boolean"), LEM, 3)
        assert v.is_taut

    @pytest.mark.parametrize("check", [taut_upto_direct, taut_upto_grounded])
    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_1_rejected(self, check, bound):
        with pytest.raises(MvlogicError):
            check(make_chain("boolean"), LEM, bound)


class TestDirectCap:
    """The direct checker checks MVLOGIC_ENUM_CAP once per domain size,
    before it scans that size: lukasiewicz(2) has 3, 9 and 27 models
    of a unary predicate at n = 1, 2, 3."""

    TAUT = parse("forall x. (P(x) -> P(x))")
    REFUTED_AT_1 = parse("forall x. P(x)")
    REFUTED_AT_2 = parse("(exists x. P(x)) -> (forall x. P(x))")

    @staticmethod
    def _search(phi, bound):
        return find_countermodel(L2, phi, bound)

    @staticmethod
    def _direct(phi, bound):
        return taut_upto_direct(L2, phi, bound)

    @pytest.mark.parametrize("check", ["_search", "_direct"])
    def test_raises_before_a_size_over_the_cap(self, monkeypatch, check):
        monkeypatch.setenv("MVLOGIC_ENUM_CAP", "9")
        run = getattr(self, check)
        run(self.TAUT, 2)
        with pytest.raises(CapExceededError, match="27 models exceed the enumeration cap 9"):
            run(self.TAUT, 3)
        # The first countermodel lies at n = 2, but n = 2 is over a cap
        # of 3, so the scan stops before it.
        monkeypatch.setenv("MVLOGIC_ENUM_CAP", "3")
        with pytest.raises(CapExceededError, match="9 models exceed the enumeration cap 3"):
            run(self.REFUTED_AT_2, 2)

    def test_witness_below_the_cap_is_returned(self, monkeypatch):
        monkeypatch.setenv("MVLOGIC_ENUM_CAP", "3")
        cert = find_countermodel(L2, self.REFUTED_AT_1, 5)
        assert cert.model.domain_size == 1
        assert verify_certificate(cert)
        assert taut_upto_direct(L2, self.REFUTED_AT_1, 5).refuted_at == 1

    def test_grid_counts_its_own_values(self, monkeypatch):
        # Two grid values: 2, 4 and 8 models at n = 1, 2, 3.
        monkeypatch.setenv("MVLOGIC_ENUM_CAP", "4")
        assert find_countermodel(L2, self.TAUT, 2, (F(0), F(1))) is None
        with pytest.raises(CapExceededError, match="8 models exceed the enumeration cap 4"):
            find_countermodel(L2, self.TAUT, 3, (F(0), F(1)))


class TestLiftProp:
    def test_lem(self):
        got = lift_prop(parse(r"x \/ ~x", kind="prop"))
        assert pretty(got) == r"(forall x1. (P1(x1) \/ ~P1(x1)))"

    def test_squaring(self):
        got = lift_prop(parse("(x & x) <-> (x & x & x)", kind="prop"))
        assert got == parse(
            "forall x1. ((P1(x1) & P1(x1)) <-> (P1(x1) & P1(x1) & P1(x1)))"
        )

    def test_two_variables(self):
        got = lift_prop(parse("bot -> y", kind="prop"))
        assert got == parse("forall x1. (bot -> P1(x1))")

    def test_distinct_variables_distinct_predicates(self):
        got = lift_prop(parse("p -> q", kind="prop"))
        assert got == parse("forall x1. forall x2. (P1(x1) -> P2(x2))")
