import functools
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mvlogic
from mvlogic import Chain, chain_to_text, delta_expand, make_chain, model_to_text, Model
from mvlogic.cli import main, run
from mvlogic.suites import SUITES, shipped_chains

from fractions import Fraction as F


@pytest.fixture
def luk2_file(tmp_path):
    path = tmp_path / "luk2.chain"
    path.write_text(chain_to_text(make_chain("lukasiewicz", 2)))
    return str(path)


@pytest.fixture
def luk3_file(tmp_path):
    path = tmp_path / "luk3.chain"
    path.write_text(chain_to_text(make_chain("lukasiewicz", 3)))
    return str(path)


class TestChainCommands:
    def test_make_and_check(self, tmp_path, capsys):
        out = tmp_path / "c.chain"
        assert run(["chain", "make", "lukasiewicz", "2", "-o", str(out)]) == 0
        assert run(["chain", "check", str(out)]) == 0
        assert "all-pass" in capsys.readouterr().out

    def test_make_bad_family_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main_argv(["chain", "make", "nosuch", "3"])
        assert exc.value.code == 2

    def test_show(self, luk2_file, capsys):
        assert run(["chain", "show", luk2_file]) == 0
        out = capsys.readouterr().out
        assert "size 3" in out
        assert "1/2" in out

    def test_subchains(self, tmp_path, capsys):
        path = tmp_path / "luk6.chain"
        path.write_text(chain_to_text(make_chain("lukasiewicz", 6)))
        assert run(["chain", "subchains", str(path)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert sorted(len(l.split()) for l in lines) == [2, 3, 4, 7]

    def test_sum_and_delta(self, tmp_path, luk2_file, capsys):
        g2 = tmp_path / "g2.chain"
        g2.write_text(chain_to_text(make_chain("godel", 2)))
        out = tmp_path / "sum.chain"
        assert run(["chain", "sum", luk2_file, str(g2), "-o", str(out)]) == 0
        assert "size 4" in out.read_text()
        out2 = tmp_path / "sumd.chain"
        assert run(["chain", "delta", str(out), "-o", str(out2)]) == 0
        assert "delta 1" in out2.read_text()


class TestFormulaCommands:
    def test_parse(self, capsys):
        assert run(["parse", "--formula", r"forall x. P(x) \/ ~P(x)"]) == 0
        out = capsys.readouterr().out
        assert "pred P 1" in out

    def test_eval(self, tmp_path, luk2_file, capsys):
        m = tmp_path / "m.model"
        m.write_text(model_to_text(Model.from_dict(
            2, {"R": {(1, 1): F(1), (1, 2): F(0), (2, 1): F(1, 2), (2, 2): F(1, 2)}}
        )))
        assert run(["eval", "--chain", luk2_file, "--model", str(m),
                    "--formula", "forall x. exists y. R(x,y)"]) == 0
        assert capsys.readouterr().out.strip() == "1/2"

    def test_ground(self, capsys):
        assert run(["ground", "--size", "2",
                    "--formula", "forall x. exists y. R(x,y)"]) == 0
        out = capsys.readouterr().out
        assert "p_R_1_2" in out
        assert "legend p_R_1_2 = R(1,2)" in out

    def test_taut_exit_codes(self, luk2_file, capsys):
        assert run(["taut", "--chain", luk2_file, "--bound", "2",
                    "--formula", "forall x. (P(x) -> P(x))"]) == 0
        assert run(["taut", "--chain", luk2_file, "--bound", "2",
                    "--formula", r"forall x. (P(x) \/ ~P(x))"]) == 1
        out = capsys.readouterr().out
        assert "refuted" in out
        assert "p_P_1 = 1/2" in out

    def test_translate(self, capsys):
        from mvlogic import parse

        assert run(["translate", "--pass", "double-neg",
                    "--formula", "forall x. P(x)"]) == 0
        out = capsys.readouterr().out.strip()
        assert parse(out) == parse("forall x. ~~P(x)")

    def test_lift(self, capsys):
        assert run(["lift", "--formula", r"x \/ ~x"]) == 0
        assert "P1" in capsys.readouterr().out


class TestSearchVerify:
    def test_search_refutes_and_verifies(self, tmp_path, luk2_file, capsys):
        assert run(["search", "--chain", luk2_file, "--max-size", "3",
                    "--formula", r"forall x. (P(x) \/ ~P(x))"]) == 1
        cert_text = capsys.readouterr().out
        assert "value 1/2" in cert_text
        cert_file = tmp_path / "c.cert"
        cert_file.write_text(cert_text)
        assert run(["verify", "--certificate", str(cert_file)]) == 0

    def test_search_taut_exit_0(self, tmp_path, capsys):
        b = tmp_path / "b.chain"
        b.write_text(chain_to_text(make_chain("boolean")))
        assert run(["search", "--chain", str(b), "--max-size", "2",
                    "--formula", r"forall x. (P(x) \/ ~P(x))"]) == 0
        assert "taut-up-to-2" in capsys.readouterr().out

    def test_grid_keeps_carrier_values_up_to_denominator(self, tmp_path, monkeypatch):
        # The values p/q with q <= D that the carrier holds, in carrier
        # order: what --grid D searches over.
        import mvlogic.cli

        seen = []
        monkeypatch.setattr(mvlogic.cli, "find_countermodel",
                            lambda chain, phi, size, values: seen.append(values))
        path = tmp_path / "c.chain"
        for chain in shipped_chains(6):
            path.write_text(chain_to_text(chain))
            for d in range(-1, 14):
                assert run(["search", "--chain", str(path), "--max-size", "1",
                            "--grid", str(d), "--formula", "P(x)"]) == 0
                expected = sorted({F(p, q) for q in range(1, d + 1)
                                   for p in range(q + 1) if chain.contains(F(p, q))})
                assert seen.pop() == expected, (chain.name, d)

    def test_large_grid_is_fast(self, luk2_file):
        # In a child process, so that a grid built in O(D^2) times out
        # rather than hangs the run.
        t0 = time.perf_counter()
        result = run_mvlogic(["search", "--chain", luk2_file, "--max-size", "1",
                              "--grid", "1000000", "--formula", "forall x. P(x)"],
                             timeout=10)
        assert time.perf_counter() - t0 < 2
        assert result.returncode == 1
        assert "value 0" in result.stdout

    def test_verify_wrong_chain_exits_2(self, tmp_path, luk2_file, luk3_file, capsys):
        run(["search", "--chain", luk2_file, "--max-size", "2",
             "--formula", r"forall x. (P(x) \/ ~P(x))"])
        cert_file = tmp_path / "c.cert"
        cert_file.write_text(capsys.readouterr().out)
        with pytest.raises(SystemExit) as exc:
            main_argv(["verify", "--certificate", str(cert_file),
                       "--chain", luk3_file])
        assert exc.value.code == 2


class TestModelmapFragment:
    def test_modelmap_plus(self, tmp_path, capsys):
        nm5 = tmp_path / "nm5.chain"
        nm5.write_text(chain_to_text(make_chain("nm", 5)))
        m = tmp_path / "m.model"
        m.write_text(model_to_text(Model.from_dict(1, {"P": {(1,): F(1, 2)}})))
        assert run(["modelmap", "--pass", "plus", "--chain", str(nm5),
                    "--model", str(m)]) == 0
        assert "0" in capsys.readouterr().out

    def test_fragment(self, tmp_path, capsys):
        nm5 = tmp_path / "nm5.chain"
        nm5.write_text(chain_to_text(make_chain("nm", 5)))
        assert run(["fragment", "--chain", str(nm5)]) == 0
        out = capsys.readouterr().out
        assert "size 3" in out
        assert "embed" in out
        # The embed lines are the chain file's one trailer.
        frag = tmp_path / "frag.chain"
        frag.write_text(out)
        assert run(["chain", "check", str(frag)]) == 0
        assert capsys.readouterr().out.startswith("all-pass: 3 elements")


class TestSuiteCommand:
    def test_named_suite(self, capsys):
        assert run(["suite", "residuation"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_trials_and_seed_reach_lemma_tr(self, capsys):
        # 62,164 exhaustive cases plus 3 sampled models per trial.
        assert run(["suite", "lemma-tr", "--trials", "5", "--seed", "3"]) == 0
        assert re.match(r"suite lemma-tr: PASS, 62179 cases, ", capsys.readouterr().out)

    def test_seed_reaches_lemma_clos(self, capsys, monkeypatch):
        calls = []
        suite = SUITES["lemma-clos"]
        spy = functools.wraps(suite)(lambda **kwargs: calls.append(kwargs) or suite(**kwargs))
        monkeypatch.setitem(SUITES, "lemma-clos", spy)
        assert run(["suite", "lemma-clos", "--seed", "3"]) == 0
        assert calls == [{"seed": 3}]
        assert re.match(r"suite lemma-clos: PASS, 50 cases, ", capsys.readouterr().out)

    def test_trials_and_seed_reach_lemma_clos(self, capsys):
        assert run(["suite", "lemma-clos", "--trials", "5", "--seed", "3"]) == 0
        assert re.match(r"suite lemma-clos: PASS, 5 cases, ", capsys.readouterr().out)

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["suite", "nosuch"])
        assert exc.value.code == 2


FORGED_CERT = """mtlcert 1
chain lukasiewicz(2) {hash}
formula (forall x. P(x))
begin model
mtlmodel 1
domain 1
pred P 1
1 1/3
end model
valuation
value 1/3
"""


class TestBadInputExits2:
    """Bad input exits 2 (never 1, which means refuted) with an error
    line and no traceback."""

    @pytest.fixture
    def files(self, tmp_path, luk2_file):
        def write(name, text):
            path = tmp_path / name
            path.write_text(text)
            return str(path)

        l2 = make_chain("lukasiewicz", 2)
        # nm(4) with star(1/3, 2/3) = 2/3, inline under its own hash.
        nm4 = make_chain("nm", 4)
        rows = [list(r) for r in nm4.star_table]
        rows[1][2] = rows[2][1] = 2
        broken = Chain("nm(4)", nm4.carrier, tuple(map(tuple, rows)))
        # A certificate that verifies, and the inline copy of its chain.
        good = FORGED_CERT.replace("1/3", "1/2").format(hash=l2.table_hash())
        inline = "begin chain\n" + chain_to_text(l2) + "end chain\n"
        model = good[good.index("begin model"):good.index("valuation")]
        return {
            "luk2": luk2_file,
            "size0": write("s0.chain", "mtlchain 1\nsize 0\nlabels\ndelta 0\n"),
            "label5": write("l5.chain", "mtlchain 1\nsize 1\nlabels 5\ndelta 0\n0\n"),
            "size39": write("s39.chain", chain_to_text(l2).replace("size 3", "size 3 9")),
            "garbage": write("g.chain", chain_to_text(l2) + "garbage line here\n"),
            "forged": write("f.cert", FORGED_CERT.format(hash=l2.table_hash())),
            "nohash": write("n.cert", FORGED_CERT.replace("1/3", "0").format(hash="-")),
            "third": write("m.model", model_to_text(
                Model.from_dict(1, {"P": {(1,): F(1, 3)}}))),
            "zerodiv": write("z.cert", FORGED_CERT.replace("value 1/3", "value 1/0")
                             .format(hash=l2.table_hash())),
            "negarity": write("neg.model", "mtlmodel 1\ndomain 2\npred P -1\n"),
            "twice": write("t.model", "mtlmodel 1\ndomain 1\npred P 1\n1 1/2\n"
                           "pred P 1\n1 1\n"),
            "extra": write("x.model", "mtlmodel 1\ndomain 1\npred P 1\n1 1/2 7\n"),
            "extrapred": write("xp.model", "mtlmodel 1\ndomain 1\npred P 1 7\n1 1/2\n"),
            "extradomain": write("xd.model", "mtlmodel 1\ndomain 1 5\npred P 1\n1 1/2\n"),
            "extracert": write("x.cert", FORGED_CERT.replace("1/3", "1/2")
                               .replace("1 1/2", "1 1/2 7").format(hash=l2.table_hash())),
            "brokenlaw": write("b.cert", FORGED_CERT.replace("lukasiewicz(2)", "nm(4)")
                               .replace("begin model", "begin chain\n" + chain_to_text(broken)
                                        + "end chain\nbegin model")
                               .format(hash=broken.table_hash())),
            "valuejunk": write("vj.cert", good.replace("value 1/2", "value 1/2 junk")),
            "twovalues": write("tv.cert", good + "value 1/2\n"),
            "twoformulas": write("tf.cert", good + "formula (forall x. P(x))\n"),
            "twovaluations": write("tva.cert", good + "valuation\n"),
            "twochainlines": write("tc.cert", good + f"chain lukasiewicz(2) {l2.table_hash()}\n"),
            "twomodels": write("tm.cert", good + model),
            "twoinline": write("ti.cert", good.replace("begin model", inline + inline
                                                       + "begin model")),
            "valuations": write("vs.cert", good.replace("valuation\n", "valuations\n")),
            "repeatedvar": write("rv.cert", good.replace("valuation\n", "valuation x=99 x=7\n")),
            "boundvar": write("bv.cert", good.replace("valuation\n", "valuation x=1\n")),
            "absentvar": write("av.cert", good.replace("valuation\n", "valuation zz=-3\n")),
        }

    @pytest.mark.parametrize("argv", [
        ["search", "--chain", "{luk2}", "--max-size", "0", "--formula", "forall x. P(x)"],
        ["search", "--chain", "{luk2}", "--max-size", "1", "--grid", "0",
         "--formula", "forall x. P(x)"],
        ["parse", "--kind", "prop", "--formula", "~" * 5000 + "p"],
        ["chain", "check", "{size0}"],
        ["chain", "check", "{label5}"],
        ["chain", "check", "{size39}"],
        ["chain", "check", "{garbage}"],
        ["verify", "--certificate", "{forged}", "--chain", "{luk2}"],
        ["verify", "--certificate", "{nohash}", "--chain", "{luk2}"],
        ["eval", "--chain", "{luk2}", "--model", "{third}", "--formula", "P(x)"],
        ["modelmap", "--pass", "boolean-collapse", "--chain", "{luk2}",
         "--model", "{third}"],
        ["verify", "--certificate", "{zerodiv}"],
        ["eval", "--chain", "{luk2}", "--model", "{negarity}", "--formula", "P(x)"],
        ["eval", "--chain", "{luk2}", "--model", "{twice}", "--formula", "P(x)"],
        ["modelmap", "--pass", "boolean-collapse", "--chain", "{luk2}",
         "--model", "{extra}"],
        ["eval", "--chain", "{luk2}", "--model", "{extrapred}", "--formula", "P(x)"],
        ["eval", "--chain", "{luk2}", "--model", "{extradomain}", "--formula", "P(x)"],
        ["verify", "--certificate", "{extracert}", "--chain", "{luk2}"],
        ["verify", "--certificate", "{brokenlaw}"],
        ["verify", "--certificate", "{valuejunk}", "--chain", "{luk2}"],
        ["verify", "--certificate", "{twovalues}", "--chain", "{luk2}"],
        ["verify", "--certificate", "{twoformulas}", "--chain", "{luk2}"],
        ["verify", "--certificate", "{twovaluations}", "--chain", "{luk2}"],
        ["verify", "--certificate", "{twochainlines}", "--chain", "{luk2}"],
        ["verify", "--certificate", "{twomodels}", "--chain", "{luk2}"],
        ["verify", "--certificate", "{twoinline}"],
        ["verify", "--certificate", "{valuations}", "--chain", "{luk2}"],
        ["verify", "--certificate", "{repeatedvar}", "--chain", "{luk2}"],
        ["verify", "--certificate", "{boundvar}", "--chain", "{luk2}"],
        ["verify", "--certificate", "{absentvar}", "--chain", "{luk2}"],
    ], ids=["max-size-0", "grid-0", "deep", "size-0", "label-5", "size-3-9",
            "trailing-garbage", "forged",
            "no-hash", "eval", "modelmap", "value-1/0", "negative-arity",
            "pred-twice", "extra-cell-token", "extra-pred-token",
            "extra-domain-token", "extra-cert-token", "inline-chain-breaks-a-law",
            "extra-value-token", "second-value", "second-formula", "second-valuation",
            "second-chain-line", "second-model", "second-inline-chain", "valuations",
            "valuation-repeats-a-variable", "valuation-of-a-bound-variable",
            "valuation-of-an-absent-variable"])
    def test_exit_2(self, files, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main_argv([arg.format(**files) for arg in argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_deep_formula_subprocess(self):
        result = run_mvlogic(["parse", "--kind", "prop", "--formula", "~" * 5000 + "p"])
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    def test_negative_arity_subprocess(self, files):
        result = run_mvlogic(["eval", "--chain", files["luk2"], "--model",
                              files["negarity"], "--formula", "P(x)"])
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", [
        ["parse", "--formula-file", "{flat}"],
        ["ground", "--size", "1500", "--formula", "forall x. P(x)"],
    ], ids=["flat-chain", "deep-grounding"])
    def test_deep_tree_subprocess(self, tmp_path, argv):
        # A flat chain that the parser reads in a loop, and a grounding
        # whose conjunction is as deep as the domain is large.
        flat = tmp_path / "flat.txt"
        flat.write_text(" & ".join(["P"] * 3000) + "\n")
        result = run_mvlogic([arg.format(flat=flat) for arg in argv])
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr


def main_argv(argv):
    """Invoke main() with a patched argv."""
    import sys
    from unittest import mock

    with mock.patch.object(sys, "argv", ["mvlogic"] + argv):
        main()


def run_mvlogic(argv, command=(sys.executable, "-m", "mvlogic"), **kwargs):
    """Run the CLI in a child process that imports the mvlogic under test."""
    pythonpath = [str(Path(mvlogic.__file__).parents[1])]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    return subprocess.run([*command, *argv], capture_output=True, text=True,
                          env=env, **kwargs)


class TestConsoleScript:
    def test_version_subprocess(self):
        result = run_mvlogic(["--version"])
        assert result.returncode == 0
        assert result.stdout.strip() == mvlogic.__version__

    def test_pipe_make_check(self):
        make = run_mvlogic(["chain", "make", "lukasiewicz", "2"])
        assert make.returncode == 0, make.stderr
        assert make.stdout
        check = run_mvlogic(["chain", "check", "-"], input=make.stdout)
        assert check.returncode == 0, check.stderr
        assert check.stdout.strip() == "all-pass: 3 elements"

    def test_script_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts["mvlogic"] == "mvlogic.cli:main"

    @pytest.mark.skipif(shutil.which("mvlogic") is None,
                        reason="mvlogic console script is not installed")
    def test_installed_script_version(self):
        result = run_mvlogic(["--version"], command=[shutil.which("mvlogic")])
        assert result.returncode == 0
        assert result.stdout.strip() == mvlogic.__version__
