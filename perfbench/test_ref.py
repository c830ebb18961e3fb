"""Tests of the benchmark's reference semantics and work counts.

Run from the root of the checkout:

    python3 -m unittest perfbench/test_ref.py
"""

from __future__ import annotations

import itertools
import os
import sys
import unittest
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ref  # noqa: E402
import workloads  # noqa: E402


class HandValues(unittest.TestCase):
    """Values worked out by hand from the family definitions."""

    def test_lukasiewicz_powers(self):
        phi = ref.parse(r"(x & x) <-> (x & x & x)", kind="prop")
        luk3 = ref.lukasiewicz(3)
        # x&x = 1/3, x&x&x = 0, 1/3 <-> 0 = min(1 - 1/3, 1) = 2/3
        self.assertEqual(ref.evaluate(luk3, phi, props={"x": F(2, 3)}), F(2, 3))
        # x&x = x&x&x = 0 at x = 1/3
        self.assertEqual(ref.evaluate(luk3, phi, props={"x": F(1, 3)}), F(1))
        self.assertEqual(ref.evaluate(luk3, phi, props={"x": F(1)}), F(1))
        # On lukasiewicz(2) the same formula is a tautology.
        luk2 = ref.lukasiewicz(2)
        for x in luk2.carrier:
            self.assertEqual(ref.evaluate(luk2, phi, props={"x": x}), F(1))

    def test_family_operations(self):
        nm5 = ref.nm(5)  # 0, 1/4, 1/2, 3/4, 1
        self.assertEqual(nm5.star(F(1, 2), F(1, 2)), 0)
        self.assertEqual(nm5.star(F(3, 4), F(1, 2)), F(1, 2))
        self.assertEqual(nm5.res(F(3, 4), F(1, 4)), F(1, 4))
        self.assertEqual(nm5.res(F(1, 2), F(1, 4)), F(1, 2))
        dp4 = ref.dp(4)  # 0, 1/3, 2/3, 1
        self.assertEqual(dp4.star(F(2, 3), F(2, 3)), 0)
        self.assertEqual(dp4.star(F(1), F(1, 3)), F(1, 3))
        self.assertEqual(dp4.res(F(2, 3), F(1, 3)), F(2, 3))
        self.assertEqual(dp4.res(F(1), F(1, 3)), F(1, 3))
        godel = ref.godel(4)
        self.assertEqual(godel.res(F(2, 3), F(1, 3)), F(1, 3))
        self.assertEqual(godel.res(F(1, 3), F(2, 3)), 1)
        product = ref.rational("product")
        self.assertEqual(product.res(F(1, 2), F(1, 4)), F(1, 2))
        self.assertEqual(product.star(F(1, 2), F(1, 3)), F(1, 6))

    def test_wnm_from_negation(self):
        wnm = ref.wnm((4, 3, 1, 1, 0))  # carrier 0, 1/4, 1/2, 3/4, 1
        # n(1/4) = 3/4, so 1/2 * 1/4 = 0; n(3/4) = 1/4 < 3/4, so 3/4 * 3/4 = 3/4
        self.assertEqual(wnm.star(F(1, 2), F(1, 4)), 0)
        self.assertEqual(wnm.star(F(3, 4), F(3, 4)), F(3, 4))
        # 1/2 => 1/4 = max(n(1/2), 1/4) = 1/4; ~1/4 = 3/4
        self.assertEqual(wnm.res(F(1, 2), F(1, 4)), F(1, 4))
        self.assertEqual(ref.evaluate(wnm, ref.parse("~p", "prop"), props={"p": F(1, 4)}), F(3, 4))

    def test_quantifiers_and_delta(self):
        chain = ref.with_delta(ref.godel(3))
        cells = {("P", (1,)): F(1, 2), ("P", (2,)): F(1)}
        self.assertEqual(ref.evaluate(chain, ref.parse("forall x. P(x)"), 2, cells), F(1, 2))
        self.assertEqual(ref.evaluate(chain, ref.parse("exists x. P(x)"), 2, cells), F(1))
        self.assertEqual(ref.evaluate(chain, ref.parse("exists x. !P(x) & ~P(x)"), 2, cells), F(0))
        self.assertEqual(ref.evaluate(chain, ref.parse("forall x. !P(x) -> P(x)"), 2, cells), F(1))

    def test_residuation_holds_on_every_finite_chain(self):
        chains = [ref.boolean(), ref.lukasiewicz(4), ref.godel(5), ref.nm(6), ref.dp(5)]
        chains += [ref.wnm(neg) for neg in workloads.WNM_NAMES]
        for chain in chains:
            for x, y, z in itertools.product(chain.carrier, repeat=3):
                self.assertEqual(chain.star(z, x) <= y, z <= chain.res(x, y), chain.name)
                self.assertEqual(chain.star(x, y), chain.star(y, x), chain.name)


class Syntax(unittest.TestCase):
    def test_precedence(self):
        p, q, r = ("var", "p"), ("var", "q"), ("var", "r")
        self.assertEqual(ref.parse("p -> q -> r", "prop"), ("imp", p, ("imp", q, r)))
        self.assertEqual(ref.parse("~p & q \\/ r", "prop"), ("or", ("sand", ("not", p), q), r))
        self.assertEqual(ref.parse("p /\\ q <-> r", "prop"), ("iff", ("and", p, q), r))
        body = ("imp", ("atom", "P", ("x",)), ("atom", "Q", ("x",)))
        self.assertEqual(ref.parse("forall x. P(x) -> Q(x)"), ("forall", "x", body))

    def test_text_round_trip_of_the_corpus(self):
        blocks = workloads.corpus_blocks(ROOT)
        self.assertEqual([len(blocks[b]) for b in ("valid", "classical", "invalid")], [27, 10, 13])
        for block in ("valid", "classical", "invalid"):
            for text in blocks[block]:
                phi = ref.parse(text)
                self.assertEqual(ref.parse(ref.to_text(phi)), phi)

    def test_closure_and_cells(self):
        phi = ref.parse("P(y) -> exists x. R(x,x)")
        self.assertEqual(ref.closure(phi)[:2], ("forall", "y"))
        cells = ref.occurring_cells(ref.closure(phi), 2)
        self.assertEqual(cells, {("P", (1,)), ("P", (2,)), ("R", (1, 1)), ("R", (2, 2))})


def odometer(length, values):
    """All tuples over `values`, the last position fastest, counted
    one step at a time."""
    digits = [0] * length
    while True:
        yield tuple(values[d] for d in digits)
        i = length - 1
        while i >= 0 and digits[i] == len(values) - 1:
            digits[i] = 0
            i -= 1
        if i < 0:
            return
        digits[i] += 1


class Ranks(unittest.TestCase):
    """The work counts against a brute-force walk of the canonical
    search spaces on tiny cases."""

    def test_model_points(self):
        values = (F(0), F(1, 2), F(1))
        for sig in ({"P": 1}, {"Q": 1, "P": 1}, {"R": 2}, {"R": 2, "P": 1}, {"S": 0, "P": 1}):
            seen = 0
            for n in (1, 2):
                cells = sorted(
                    (pred, args)
                    for pred in sig
                    for args in itertools.product(range(1, n + 1), repeat=sig[pred])
                )
                for row in odometer(len(cells), values):
                    seen += 1
                    table = dict(zip(cells, row))
                    self.assertEqual(ref.model_points(sig, n, table, values), seen, (sig, n, row))

    def test_assignment_points(self):
        carrier = (F(0), F(1, 3), F(2, 3), F(1))
        names_by_size = [["p_P_1"], ["p_P_1", "p_P_2", "p_Q_1"]]
        seen = 0
        for n, names in enumerate(names_by_size, start=1):
            before = [len(v) for v in names_by_size[: n - 1]]
            for row in odometer(len(names), carrier):
                seen += 1
                witness = dict(zip(sorted(names), row))
                self.assertEqual(ref.assignment_points(before, witness, carrier), seen)

    def test_first_countermodel_matches_the_walk(self):
        chain = ref.lukasiewicz(2)
        phi = ref.closure(ref.parse("forall x. (P(x) -> Q(x))"))
        n, table = ref.first_countermodel(chain, phi, 2, chain.carrier)
        seen = 0
        for row in odometer(2, chain.carrier):
            seen += 1
            cells = dict(zip([("P", (1,)), ("Q", (1,))], row))
            if ref.evaluate(chain, phi, 1, cells) != 1:
                break
        self.assertEqual((n, ref.model_points(ref.signature(phi), n, table, chain.carrier)), (1, seen))


class ProgramOrder(unittest.TestCase):
    """The program enumerates in the order the ranks assume."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import mvlogic

        cls.mv = mvlogic

    def test_enumerate_models_order(self):
        values = (F(0), F(1, 2), F(1))
        sig = {"R": 2, "P": 1}
        for n in (1, 2):
            cells = ref.model_cells(sig, n)
            expected = [dict(zip(cells, row)) for row in odometer(len(cells), values)]
            got = [
                {(pred, args): v for pred, table in m.as_dict().items() for args, v in table.items()}
                for m in self.mv.enumerate_models(sig, n, values)
            ]
            self.assertEqual(got, expected)

    def test_first_witnesses(self):
        mv = self.mv
        chain = mv.make_chain("lukasiewicz", 2)
        rchain = ref.lukasiewicz(2)
        text = "forall x. (P(x) -> Q(x)) \\/ exists y. ~Q(y)"
        phi = ref.closure(ref.parse(text))
        cert = mv.find_countermodel(chain, mv.parse(text), 2)
        n, table = ref.first_countermodel(rchain, phi, 2, rchain.carrier)
        got = {(p, a): v for p, t in cert.model.as_dict().items() for a, v in t.items()}
        self.assertEqual((cert.model.domain_size, got), (n, table))
        verdict = mv.taut_upto_grounded(chain, mv.parse(text), 2)
        first = ref.first_refuting_assignment(rchain, phi, verdict.refuted_at, verdict.grounded.legend)
        self.assertEqual(verdict.witness, first)


if __name__ == "__main__":
    unittest.main()
