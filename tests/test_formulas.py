import pytest
from hypothesis import given, settings, strategies as st

import random

from mvlogic import (
    And,
    Atom,
    Bottom,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    ParseError,
    SignatureError,
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
from mvlogic.corpus import random_formula, random_propositional
from mvlogic.formulas import MAX_DEPTH, _tokenize


class TestParse:
    def test_quantified_atom(self):
        phi = parse("forall x. exists y. R(x,y)")
        assert phi == Forall("x", Exists("y", Atom("R", ("x", "y"))))
        assert signature_of(phi) == {"R": 2}

    def test_wnm_schema(self):
        phi = parse(r"~(p & q) \/ ((p /\ q) -> (p & q))", kind="prop")
        assert phi == Or(
            Not(StrongAnd(Var("p"), Var("q"))),
            Implies(And(Var("p"), Var("q")), StrongAnd(Var("p"), Var("q"))),
        )

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse("p -> -> q", kind="prop")

    def test_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse("p -> )", kind="prop")
        assert exc.value.line == 1
        assert exc.value.column > 0

    @pytest.mark.parametrize("open_, close", [("~", ""), ("!", ""), ("(", ")"),
                                               ("forall x. ", ""), ("P(x) -> ", "")])
    def test_depth_limit(self, open_, close):
        def nest(depth):
            return open_ * depth + "P(x)" + close * depth

        parse(nest(MAX_DEPTH - 1))
        with pytest.raises(ParseError):
            parse(nest(MAX_DEPTH))
        with pytest.raises(ParseError):
            parse(nest(5000))

    @pytest.mark.parametrize("wrap", ["{}", "~({})", "forall x. ({})", "({}) -> P(x)"])
    def test_height_limit(self, wrap):
        def chain(terms):
            return wrap.format(" & ".join(["P(x)"] * terms))

        extra = 0 if wrap == "{}" else 1  # levels the wrapper adds
        parse(chain(MAX_DEPTH - extra))
        with pytest.raises(ParseError, match="deeper than"):
            parse(chain(MAX_DEPTH - extra + 1))
        with pytest.raises(ParseError):
            parse(chain(5000))

    def test_precedence(self):
        # ~,! > & > /\ > \/ > -> > <->
        phi = parse(r"~p & q /\ r \/ s -> t", kind="prop")
        assert phi == Implies(
            Or(And(StrongAnd(Not(Var("p")), Var("q")), Var("r")), Var("s")),
            Var("t"),
        )

    def test_implies_right_assoc(self):
        phi = parse("p -> q -> r", kind="prop")
        assert phi == Implies(Var("p"), Implies(Var("q"), Var("r")))

    def test_quantifier_binds_weakest(self):
        phi = parse("forall x. P(x) -> Q(x)")
        assert phi == Forall("x", Implies(Atom("P", ("x",)), Atom("Q", ("x",))))

    def test_bot(self):
        assert parse("bot", kind="prop") == Bottom()

    def test_inconsistent_arity(self):
        with pytest.raises(SignatureError):
            signature_of(parse("P(x) /\\ P(x,y)"))

    def test_prop_rejects_quantifier(self):
        with pytest.raises(ParseError):
            parse("forall x. P(x)", kind="prop")


# Pinned token streams (kind, text, line, column), or the ParseError
# (message, line, column), that _tokenize must reproduce exactly.
# Only "\n" starts a line; every other whitespace character, "\r" and
# "\u2028" included, is one column.  A name starts with a letter
# (str.isalpha) or "_" and goes on with str.isalnum, "_" or "'", so
# "²" and "Ⅷ", which are alphanumeric but no letters, cannot start one.
TOKEN_TABLE = [
    ("", [("eof", "", 1, 1)]),
    ("p\t->\tq",
     [("name", "p", 1, 1), ("->", "->", 1, 3), ("name", "q", 1, 6), ("eof", "", 1, 7)]),
    ("p\r\n-> q",
     [("name", "p", 1, 1), ("->", "->", 2, 1), ("name", "q", 2, 4), ("eof", "", 2, 5)]),
    ("p\x0b-> q",
     [("name", "p", 1, 1), ("->", "->", 1, 3), ("name", "q", 1, 6), ("eof", "", 1, 7)]),
    ("p\u2028-> q",
     [("name", "p", 1, 1), ("->", "->", 1, 3), ("name", "q", 1, 6), ("eof", "", 1, 7)]),
    ("p\x1c& q\x0c",
     [("name", "p", 1, 1), ("&", "&", 1, 3), ("name", "q", 1, 5), ("eof", "", 1, 7)]),
    ("forall x.\n  P(x)\n\n  -> Q(x)",
     [("forall", "forall", 1, 1), ("name", "x", 1, 8), (".", ".", 1, 9),
      ("name", "P", 2, 3), ("(", "(", 2, 4), ("name", "x", 2, 5), (")", ")", 2, 6),
      ("->", "->", 4, 3), ("name", "Q", 4, 6), ("(", "(", 4, 7), ("name", "x", 4, 8),
      (")", ")", 4, 9), ("eof", "", 4, 10)]),
    ("P(x)  \n  ",
     [("name", "P", 1, 1), ("(", "(", 1, 2), ("name", "x", 1, 3), (")", ")", 1, 4),
      ("eof", "", 2, 3)]),
    ("\n\n", [("eof", "", 3, 1)]),
    ("foo_bar1' & x_2'' /\\ _a",
     [("name", "foo_bar1'", 1, 1), ("&", "&", 1, 11), ("name", "x_2''", 1, 13),
      ("/\\", "/\\", 1, 19), ("name", "_a", 1, 22), ("eof", "", 1, 24)]),
    ("é(x)",
     [("name", "é", 1, 1), ("(", "(", 1, 2), ("name", "x", 1, 3), (")", ")", 1, 4),
      ("eof", "", 1, 5)]),
    ("P²(x)",
     [("name", "P²", 1, 1), ("(", "(", 1, 3), ("name", "x", 1, 4), (")", ")", 1, 5),
      ("eof", "", 1, 6)]),
    ("x٣ <-> y",
     [("name", "x٣", 1, 1), ("<->", "<->", 1, 4), ("name", "y", 1, 8), ("eof", "", 1, 9)]),
    ("²", ("1:1: unexpected character '²'", 1, 1)),
    ("Ⅷ(x)", ("1:1: unexpected character 'Ⅷ'", 1, 1)),
    ("1p", ("1:1: unexpected character '1'", 1, 1)),
    ("e\u0301(x)", ("1:2: unexpected character '\u0301'", 1, 2)),
    ("P(x) <- Q(x)", ("1:6: unexpected character '<'", 1, 6)),
    ("p $ q", ("1:3: unexpected character '$'", 1, 3)),
    ("a- >b", ("1:2: unexpected character '-'", 1, 2)),
    ("'p", ("1:1: unexpected character \"'\"", 1, 1)),
    ("forallx & bottom",
     [("name", "forallx", 1, 1), ("&", "&", 1, 9), ("name", "bottom", 1, 11),
      ("eof", "", 1, 17)]),
    ("forall x. exists y. bot",
     [("forall", "forall", 1, 1), ("name", "x", 1, 8), (".", ".", 1, 9),
      ("exists", "exists", 1, 11), ("name", "y", 1, 18), (".", ".", 1, 19),
      ("bot", "bot", 1, 21), ("eof", "", 1, 24)]),
    ("~!p\\/q<->(r->s),t.u",
     [("~", "~", 1, 1), ("!", "!", 1, 2), ("name", "p", 1, 3), ("\\/", "\\/", 1, 4),
      ("name", "q", 1, 6), ("<->", "<->", 1, 7), ("(", "(", 1, 10), ("name", "r", 1, 11),
      ("->", "->", 1, 12), ("name", "s", 1, 14), (")", ")", 1, 15), (",", ",", 1, 16),
      ("name", "t", 1, 17), (".", ".", 1, 18), ("name", "u", 1, 19), ("eof", "", 1, 20)]),
]


class TestTokenize:
    @pytest.mark.parametrize("text, expected", TOKEN_TABLE, ids=[ascii(t) for t, _ in TOKEN_TABLE])
    def test_recorded_stream(self, text, expected):
        if isinstance(expected, list):
            tokens = _tokenize(text)
            assert [(t.kind, t.text, t.line, t.column) for t in tokens] == expected
        else:
            with pytest.raises(ParseError) as exc:
                _tokenize(text)
            assert (str(exc.value), exc.value.line, exc.value.column) == expected


class TestPrettyRoundTrip:
    def test_samples(self):
        for text in [
            "forall x. exists y. R(x,y)",
            r"(P(x) -> Q(x)) <-> ~P(x) \/ Q(x)",
            "bot -> P(y)",
        ]:
            phi = parse(text)
            assert parse(pretty(phi)) == phi

    @given(st.integers(0, 2**32 - 1))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_random_fo(self, seed):
        rng = random.Random(seed)
        phi = random_formula(rng, depth=rng.randint(0, 5), allow_delta=True)
        assert parse(pretty(phi)) == phi

    @given(st.integers(0, 2**32 - 1))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_random_prop(self, seed):
        rng = random.Random(seed)
        phi = random_propositional(rng, depth=rng.randint(0, 5), allow_delta=True)
        assert parse(pretty(phi), kind="prop") == phi


class TestDesugar:
    def test_neg(self):
        assert desugar(Not(Var("p"))) == Implies(Var("p"), Bottom())

    def test_or(self):
        p, q = Var("p"), Var("q")
        assert desugar(Or(p, q)) == And(
            Implies(Implies(p, q), q), Implies(Implies(q, p), p)
        )

    def test_bottom_fixed(self):
        assert desugar(Bottom()) == Bottom()

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(100):
            phi = random_formula(rng, depth=4, allow_delta=True)
            once = desugar(phi)
            assert desugar(once) == once

    def test_no_derived_nodes_left(self):
        rng = random.Random(5)
        from mvlogic.formulas import subformulas, Iff, Delta

        for _ in range(100):
            phi = random_formula(rng, depth=4)
            for node in subformulas(desugar(phi)):
                assert not isinstance(node, (Not, Or, Iff))


class TestClosure:
    def test_single_free(self):
        phi = parse("P(x) -> Q(x)")
        assert universal_closure(phi) == Forall("x", phi)

    def test_closed_unchanged(self):
        phi = parse("forall x. P(x)")
        assert universal_closure(phi) is phi

    def test_first_occurrence_order(self):
        phi = parse("R(x,y)")
        assert universal_closure(phi) == Forall("x", Forall("y", phi))

    def test_output_closed(self):
        rng = random.Random(9)
        for _ in range(100):
            phi = random_formula(rng, depth=4)
            closed = universal_closure(phi)
            assert is_closed(closed)
            assert not free_variables(closed)


class TestIsClassical:
    def test_lem_is_classical(self):
        assert is_classical(parse(r"forall x. (P(x) \/ ~P(x))"))

    def test_strong_and_is_not(self):
        assert not is_classical(parse("P(x) & Q(x)"))

    def test_exists_is_not(self):
        assert not is_classical(parse("exists x. P(x)"))

    def test_implies_is_not(self):
        assert not is_classical(parse("P(x) -> Q(x)"))


class TestCorpusParsedOnce:
    def test_fixed_corpus_parses_once_per_process(self, monkeypatch):
        import mvlogic.corpus as corpus

        calls = []

        def counting(text, kind="fo"):
            calls.append(text)
            return parse(text, kind=kind)

        monkeypatch.setattr(corpus, "parse", counting)
        corpus.fixed_corpus.cache_clear()
        first = corpus.fixed_corpus()
        assert corpus.fixed_corpus() is first
        assert len(calls) == len(corpus.FIXED_CORPUS_TEXT) == 50
        assert isinstance(first, tuple)
