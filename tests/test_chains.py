import builtins
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import mvlogic
from mvlogic import (
    Chain,
    ChainLawError,
    FormatError,
    IDENTITIES,
    InvalidNegationError,
    InvalidParameterError,
    NotAnMVChainError,
    UnsupportedChainError,
    chain_from_text,
    chain_to_text,
    check_chain,
    delta_expand,
    make_chain,
    make_rational_chain,
    make_wnm_chain,
    negation_profile,
    ordinal_sum,
    parse,
    pretty,
    satisfies_identity,
    subchains,
    trivial_chain,
)
from mvlogic.chains import cn_schema, dnm_schema, gn_schema
from mvlogic.suites import custom_wnm_chains, shipped_chains


class TestMakeChain:
    def test_lukasiewicz_2(self):
        c = make_chain("lukasiewicz", 2)
        assert c.carrier == (F(0), F(1, 2), F(1))
        assert c.star(F(1, 2), F(1, 2)) == F(0)
        assert c.implies(F(1, 2), F(0)) == F(1, 2)

    def test_lukasiewicz_matches_mv_formulas(self):
        c = make_chain("lukasiewicz", 5)
        for x in c.carrier:
            for y in c.carrier:
                assert c.star(x, y) == max(F(0), x + y - 1)
                assert c.implies(x, y) == min(F(1), 1 - x + y)

    def test_boolean(self):
        c = make_chain("boolean")
        assert c.size == 2
        assert c.star(F(1), F(1)) == F(1)
        assert c.implies(F(1), F(0)) == F(0)

    def test_dp4_coatom_fixpoint(self):
        c = make_chain("dp", 4)
        coatom = c.carrier[-2]
        assert coatom == F(2, 3)
        assert c.neg(coatom) == coatom

    def test_godel_is_min(self):
        c = make_chain("godel", 5)
        for x in c.carrier:
            for y in c.carrier:
                assert c.star(x, y) == min(x, y)
                assert c.implies(x, y) == (F(1) if x <= y else y)

    def test_element_counts(self):
        assert make_chain("lukasiewicz", 4).size == 5
        assert make_chain("godel", 4).size == 4
        assert make_chain("nm", 4).size == 4
        assert make_chain("dp", 4).size == 4

    def test_invalid_parameter(self):
        with pytest.raises(InvalidParameterError):
            make_chain("godel", 0)
        with pytest.raises(InvalidParameterError):
            make_chain("nosuch", 3)

    def test_trivial(self):
        assert trivial_chain().size == 1


class TestResiduum:
    def test_luk2(self):
        c = make_chain("lukasiewicz", 2)
        assert c.residuum_table == ((2, 2, 2), (1, 2, 2), (0, 1, 2))
        assert c.carrier[c.residuum_table[1][0]] == F(1, 2)

    def test_x_le_y_gives_top(self):
        for c in [make_chain("nm", 5), make_chain("dp", 6)]:
            for i, x in enumerate(c.carrier):
                for j, y in enumerate(c.carrier):
                    if x <= y:
                        assert c.implies(x, y) == F(1)

    def test_dp_middle_is_coatom(self):
        c = make_chain("dp", 4)
        coatom = c.carrier[-2]
        for x in c.carrier:
            for y in c.carrier:
                if F(0) < y < x < F(1):
                    assert c.implies(x, y) == coatom

    def test_non_monotone_rejected(self):
        # star(1/2,1/2)=1 on the Luk2 labels is not monotone in the
        # order-compatible sense required for a residuum to exist.
        star = ((0, 0, 0), (0, 2, 1), (0, 1, 2))
        chain = Chain("bad", (F(0), F(1, 2), F(1)), star)
        laws = {v.law for v in check_chain(chain).violations}
        assert {"monotonicity", "residuation"} <= laws
        text = "mtlchain 1\nsize 3\nlabels 0 1/2 1\ndelta 0\n"
        text += "".join(" ".join(map(str, row)) + "\n" for row in star)
        with pytest.raises(ChainLawError):
            chain_from_text(text)


class TestWnmChain:
    def test_involutive_matches_nm5(self):
        c = make_wnm_chain([4, 3, 2, 1, 0])
        nm5 = make_chain("nm", 5)
        assert c.star_table == nm5.star_table
        assert c.residuum_table == nm5.residuum_table

    def test_godel_negation_gives_min(self):
        k = 5
        neg = [k - 1] + [0] * (k - 1)
        c = make_wnm_chain(neg)
        g = make_chain("godel", k)
        assert c.star_table == g.star_table

    def test_fixpoint_reported(self):
        c = make_wnm_chain([4, 3, 2, 1, 0])
        prof = negation_profile(c)
        assert prof.fixpoint == 2

    def test_invalid_negation(self):
        with pytest.raises(InvalidNegationError):
            make_wnm_chain([0, 1, 2])  # not order-reversing, wrong endpoints
        with pytest.raises(InvalidNegationError):
            make_wnm_chain([2, 0, 1])

    def test_a_plus_idempotent(self):
        for c in [make_wnm_chain([4, 3, 1, 1, 0]), make_wnm_chain([5, 3, 3, 2, 0, 0])]:
            prof = negation_profile(c)
            for i in prof.a_plus:
                assert c.star_table[i][i] == i

    def test_a_plus_is_godel_hoop(self):
        c = make_wnm_chain([5, 3, 3, 2, 0, 0])
        prof = negation_profile(c)
        for i in prof.a_plus:
            for j in prof.a_plus:
                assert c.star_table[i][j] == min(i, j)
                assert c.residuum_table[i][j] in (c.size - 1, j)


class TestOrdinalSum:
    def test_luk2_plus_g2(self):
        s = ordinal_sum(make_chain("lukasiewicz", 2), make_chain("godel", 2))
        assert s.size == 4
        low = s.carrier[1]  # strictly inside the first block
        mid = s.carrier[2]  # second block, below top
        assert s.neg(s.neg(low)) == low
        assert s.neg(s.neg(mid)) == F(1)

    def test_sum_identities(self):
        s = ordinal_sum(make_chain("lukasiewicz", 2), make_chain("godel", 2))
        assert satisfies_identity(s, IDENTITIES["div"])
        assert not satisfies_identity(s, IDENTITIES["inv"])

    def test_trivial_second_is_identity(self):
        a = make_chain("lukasiewicz", 3)
        s = ordinal_sum(a, trivial_chain())
        assert s.star_table == a.star_table

    def test_first_must_be_mv(self):
        with pytest.raises(NotAnMVChainError):
            ordinal_sum(make_chain("godel", 3), make_chain("lukasiewicz", 2))

    def test_double_negation_pattern(self):
        first = make_chain("lukasiewicz", 3)
        s = ordinal_sum(first, make_chain("nm", 4))
        boundary = first.size - 1  # index of the glued element
        for i, x in enumerate(s.carrier):
            if i < boundary:
                assert s.neg(s.neg(x)) == x
            elif x < F(1):
                assert s.neg(s.neg(x)) == F(1)


class TestCheckChain:
    def test_constructors_all_pass(self):
        for fam, n in [("boolean", 2), ("lukasiewicz", 5), ("godel", 6),
                       ("nm", 7), ("dp", 6)]:
            assert check_chain(make_chain(fam, n)).all_pass

    def test_mutated_table_reported(self):
        c = make_chain("lukasiewicz", 2)
        rows = [list(r) for r in c.star_table]
        rows[1][1] = 2  # star(1/2,1/2) := 1
        bad = Chain(name="bad", carrier=c.carrier,
                    star_table=tuple(tuple(r) for r in rows))
        report = check_chain(bad)
        assert not report.all_pass
        laws = {v.law for v in report.violations}
        assert laws & {"monotonicity", "residuation"}


def _mutate(kind, table, rng):
    """A copy of the star table broken in one way, drawn from rng."""
    k = len(table)
    rows = [list(r) for r in table]
    if kind == "swap":
        while True:
            (a, b), (c, d) = rng.sample([(i, j) for i in range(k) for j in range(k)], 2)
            if rows[a][b] != rows[c][d]:
                break
        rows[a][b], rows[c][d] = rows[c][d], rows[a][b]
    elif kind == "monotonicity":
        i, j = rng.choice([(i, j) for i in range(k) for j in range(k - 1)
                           if rows[i][j + 1] < k - 1])
        rows[i][j] = rng.randrange(rows[i][j + 1] + 1, k)
    elif kind == "unit":
        i = rng.randrange(k - 1)
        v = rng.choice([v for v in range(k) if v != i])
        rows[i][k - 1] = rows[k - 1][i] = v
    elif kind == "associativity":
        cells = [(i, j) for i in range(k - 1) for j in range(i, k - 1)]
        while True:
            rows = [list(r) for r in table]
            i, j = rng.choice(cells)
            v = rng.choice([v for v in range(k - 1) if v != rows[i][j]])
            rows[i][j] = rows[j][i] = v
            if any(rows[rows[a][b]][c] != rows[a][rows[b][c]]
                   for a in range(k) for b in range(k) for c in range(k)):
                break
    return tuple(tuple(r) for r in rows)


def _broken_chains():
    """Five seeded mutations of each kind, on shipped chains of 3 to 6
    elements (4 to 6 for associativity)."""
    rng = random.Random(13)
    chains = [c for c in shipped_chains(6) if c.size >= 3]
    for kind in ("swap", "monotonicity", "unit", "associativity"):
        pool = [c for c in chains if c.size >= 4] if kind == "associativity" else chains
        for c in rng.sample(pool, 5):
            yield kind, Chain(c.name, c.carrier, _mutate(kind, c.star_table, rng))


class TestBrokenTables:
    """check_chain reports and tolerant residua on broken tables, pinned
    in chain_mutations.json: every violation, in order, and the whole
    residuum table."""

    RECORDED = json.loads((Path(__file__).parent / "chain_mutations.json").read_text())

    def test_reports_and_residua_are_the_recorded_ones(self):
        broken = list(_broken_chains())
        assert len(broken) == len(self.RECORDED) == 20
        for (kind, chain), rec in zip(broken, self.RECORDED):
            assert (kind, chain.name) == (rec["mutation"], rec["chain"])
            assert chain.star_table == tuple(map(tuple, rec["star"]))
            violations = [[v.law, list(v.witness), v.detail]
                          for v in check_chain(chain).violations]
            assert violations == rec["violations"], (kind, chain.name)
            assert chain.residuum_table == tuple(map(tuple, rec["residuum"]))
            assert kind == "swap" or kind in {v[0] for v in violations}


class TestHashConstructor:
    def test_fresh_chains_hash_without_an_import(self, monkeypatch):
        make_chain("godel", 3).table_hash()
        fresh = [make_chain(f, n) for f in ("godel", "nm", "dp") for n in (3, 4)]
        calls = []
        real = builtins.__import__

        def counting(name, *args, **kwargs):
            calls.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counting)
        digests = [c.table_hash() for c in fresh]
        monkeypatch.undo()
        assert calls == []
        assert digests == [hashlib.sha256(chain_to_text(c).encode()).hexdigest()
                           for c in fresh]

    def test_hashlib_stays_unloaded(self):
        code = ("import sys, mvlogic; mvlogic.make_chain('godel', 3).table_hash(); "
                "print('hashlib' in sys.modules)")
        pythonpath = os.pathsep.join(
            [str(Path(mvlogic.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": pythonpath})
        assert result.stdout == "False\n", result.stderr


class TestIdentities:
    def test_nm5_wnm(self):
        assert satisfies_identity(make_chain("nm", 5), IDENTITIES["wnm"])

    def test_luk2_fails_id(self):
        assert not satisfies_identity(make_chain("lukasiewicz", 2), IDENTITIES["id"])

    def test_prelinearity_everywhere(self):
        for c in [make_chain("lukasiewicz", 3), make_chain("dp", 5),
                  make_wnm_chain([4, 3, 1, 1, 0])]:
            assert satisfies_identity(c, IDENTITIES["prelinearity"])

    def test_godel_satisfies_id(self):
        assert satisfies_identity(make_chain("godel", 4), IDENTITIES["id"])

    def test_dp_identity(self):
        assert satisfies_identity(make_chain("dp", 5), IDENTITIES["dp"])
        assert not satisfies_identity(make_chain("lukasiewicz", 3), IDENTITIES["dp"])

    def test_inv_on_mv_chains(self):
        assert satisfies_identity(make_chain("lukasiewicz", 4), IDENTITIES["inv"])
        assert satisfies_identity(make_chain("nm", 5), IDENTITIES["inv"])
        assert not satisfies_identity(make_chain("godel", 3), IDENTITIES["inv"])

    def test_parameterized_schemata(self):
        # Lk satisfies c_n iff the subchain sizes allow it; g_n holds on
        # Goedel chains with at most n elements.
        assert satisfies_identity(make_chain("godel", 3), gn_schema(3))
        assert not satisfies_identity(make_chain("godel", 4), gn_schema(3))
        # L_k satisfies c_n iff n >= k.
        for k in range(1, 5):
            for n in range(1, 5):
                assert satisfies_identity(make_chain("lukasiewicz", k), cn_schema(n)) == (n >= k)
        assert all(satisfies_identity(make_chain("godel", 4), cn_schema(n)) for n in (1, 2, 3))
        nm4 = make_chain("nm", 4)
        assert [satisfies_identity(nm4, cn_schema(n)) for n in (1, 2, 3)] == [False, True, True]
        assert pretty(dnm_schema(2, 2)) == (
            "(((p <-> (p -> (p & p))) & (p <-> (p -> (p & p)))) -> (p & p))"
        )

    @pytest.mark.parametrize("schema", [
        lambda: gn_schema(0), lambda: cn_schema(0), lambda: dnm_schema(0, 2),
    ], ids=["gn0", "cn0", "dnm0"])
    def test_schemata_need_n_at_least_1(self, schema):
        with pytest.raises(InvalidParameterError):
            schema()

    def test_delta_schemata(self):
        c = delta_expand(make_chain("lukasiewicz", 4))
        for name in ["delta1", "delta2", "delta3", "delta4", "delta5"]:
            assert satisfies_identity(c, IDENTITIES[name]), name

    def test_string_lookup(self):
        assert satisfies_identity(make_chain("nm", 4), "wnm")

    def test_rational_family_rejected(self):
        with pytest.raises(UnsupportedChainError):
            satisfies_identity(make_rational_chain("lukasiewicz"), IDENTITIES["wnm"])


class TestNegationProfile:
    def test_nm5(self):
        c = make_chain("nm", 5)
        prof = negation_profile(c)
        assert {c.carrier[i] for i in prof.a_plus} == {F(3, 4), F(1)}
        assert c.carrier[prof.fixpoint] == F(1, 2)

    def test_luk3(self):
        c = make_chain("lukasiewicz", 3)
        prof = negation_profile(c)
        assert prof.fixpoint is None
        assert {c.carrier[i] for i in prof.a_plus} == {F(2, 3), F(1)}

    def test_boolean(self):
        prof = negation_profile(make_chain("boolean"))
        assert prof.fixpoint is None
        assert prof.a_plus == frozenset({1})


class TestSubchains:
    def test_luk6_divisors(self):
        c = make_chain("lukasiewicz", 6)
        sizes = sorted(len(s) for s in subchains(c))
        assert sizes == [2, 3, 4, 7]

    def test_luk_general(self):
        for n in [2, 3, 4]:
            c = make_chain("lukasiewicz", n)
            sizes = {len(s) for s in subchains(c)}
            assert sizes == {k + 1 for k in range(1, n + 1) if n % k == 0}

    def test_boolean_only_itself(self):
        assert subchains(make_chain("boolean")) == [(0, 1)]

    def test_godel_all_supersets_of_bounds(self):
        c = make_chain("godel", 4)
        subs = subchains(c)
        assert len(subs) == 4  # subsets of 2 middle elements
        for s in subs:
            assert 0 in s and c.size - 1 in s


class TestDelta:
    def test_boolean_delta_is_identity(self):
        c = delta_expand(make_chain("boolean"))
        for x in c.carrier:
            assert c.delta(x) == x

    def test_luk2_delta(self):
        c = delta_expand(make_chain("lukasiewicz", 2))
        assert c.delta(F(1, 2)) == F(0)
        assert c.delta(F(1)) == F(1)

    def test_delta1_schema(self):
        c = delta_expand(make_chain("lukasiewicz", 4))
        assert satisfies_identity(c, parse(r"!p \/ ~!p", kind="prop"))


class TestChainFiles:
    def test_round_trip(self):
        for c in [make_chain("nm", 5), delta_expand(make_chain("lukasiewicz", 3))]:
            again = chain_from_text(chain_to_text(c))
            assert again.carrier == c.carrier
            assert again.star_table == c.star_table
            assert again.has_delta == c.has_delta

    def test_law_violation_on_load(self):
        c = make_chain("lukasiewicz", 2)
        text = chain_to_text(c)
        lines = text.splitlines()
        # corrupt the star table row for 1/2: star(1/2,1/2) := 1
        lines[5] = "0 2 1"
        with pytest.raises(ChainLawError) as exc:
            chain_from_text("\n".join(lines) + "\n")
        assert "monotonicity" in str(exc.value) or "residuation" in str(exc.value)

    def test_impossible_sizes_rejected(self):
        # size 0, and a one-element carrier labelled other than 1.
        with pytest.raises(FormatError):
            chain_from_text("mtlchain 1\nsize 0\nlabels\ndelta 0\n")
        with pytest.raises(ChainLawError):
            chain_from_text("mtlchain 1\nsize 1\nlabels 5\ndelta 0\n0\n")
        assert chain_from_text(chain_to_text(trivial_chain())).size == 1

    def test_embed_lines_are_the_one_trailer(self):
        text = chain_to_text(make_chain("lukasiewicz", 2))
        assert chain_from_text(text + "embed 1/2 -> 1/4\nembed 1 -> 1\n").size == 3
        for bad in (
            text.replace("size 3", "size 3 9"),
            text.replace("delta 0", "delta 0 5"),
            text + "garbage line here\n",
            text + "embed 1/3 -> 1/3\n",  # 1/3 is not a label
            text + "embed 1/2 -> 1/4 1\n",
            text + "embed 1/2 -> x\n",
            text + "0 1 2\n",  # a fourth table row
        ):
            with pytest.raises(FormatError):
                chain_from_text(bad)

    def test_table_hash_is_sha256_of_the_text(self):
        for c in [*shipped_chains(), *custom_wnm_chains(),
                  delta_expand(make_chain("lukasiewicz", 3)), trivial_chain()]:
            text = chain_to_text(c)
            assert c.table_hash() == hashlib.sha256(text.encode()).hexdigest()

    def test_whitespace_tolerant(self):
        text = chain_to_text(make_chain("lukasiewicz", 2))
        noisy = "\n".join("  " + line + "  " for line in text.splitlines())
        assert chain_from_text(noisy).size == 3


class TestResiduationLaw:
    def test_biconditional_exhaustive(self):
        for c in [make_chain("lukasiewicz", 4), make_chain("dp", 5),
                  make_wnm_chain([4, 3, 1, 1, 0])]:
            for x in c.carrier:
                for y in c.carrier:
                    for z in c.carrier:
                        assert (c.star(z, x) <= y) == (z <= c.implies(x, y))
