"""The mask engine against the Fraction evaluator.

At every rank, the mask value of a closed formula equals eval_fo on the
model that the rank decodes to, and that model is the one an
itertools.product over the cells yields at that position, as
enumerate_models does.  The engine's first failing rank equals the
first failing model of an itertools.product + eval_fo scan, the
model-by-model loop that the engine replaced, kept here as the oracle.
On the rational families, find_countermodel's grid scan on the masks,
over the values the formula can reach, equals that loop too, with the
loop's Fraction arithmetic as the oracle.  is_taut_prop's verdict and
witness equal those of an itertools.product + eval_prop scan over the
assignments.  Chunk sizes are shrunk in some examples so that one small
space spans many chunks.
"""

import contextlib
import hashlib
import itertools
import re
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from mvlogic import (
    CapExceededError,
    EvaluationError,
    InvalidNegationError,
    Model,
    MvlogicError,
    UnsupportedChainError,
    count_models,
    delta_expand,
    enumerate_models,
    eval_fo,
    eval_prop,
    find_countermodel,
    is_taut_prop,
    make_chain,
    make_rational_chain,
    make_wnm_chain,
    parse,
    signature_of,
    taut_upto_direct,
    taut_upto_grounded,
    universal_closure,
)
from mvlogic import grounding, masks, suites
from mvlogic.chains import trivial_chain
from mvlogic.corpus import fixed_corpus
from mvlogic.formulas import (
    And,
    Atom,
    Bottom,
    Delta,
    Exists,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    StrongAnd,
    Var,
    prop_variables,
)
from mvlogic.suites import SUITES, Batch, _coding_cases, _model_scan

# Predicate names with "_", digits and "'", of arities 0, 1 and 2.
PREDICATES = {"B0": 0, "P": 1, "q_1": 1, "R2'": 2}
VARIABLES = ("x", "y")
# Propositional variables with "_" and digits, as grounding names cells.
PROP_VARIABLES = ("p", "q_1", "r2", "p_P__1_2")
MAX_MODELS = 700  # keeps each example's oracle scan to a few milliseconds


def _wnm_negations(k):
    """Every weak negation on k points that make_wnm_chain accepts."""
    out = []
    for middle in itertools.product(range(k), repeat=k - 2):
        neg = [k - 1, *middle, 0]
        try:
            make_wnm_chain(neg)
        except InvalidNegationError:
            continue
        out.append(neg)
    return out


NAMED = [
    make_chain("boolean"),
    make_chain("lukasiewicz", 2),
    make_chain("lukasiewicz", 3),
    make_chain("godel", 3),
    make_chain("nm", 4),
    make_chain("dp", 3),
    trivial_chain(),
    delta_expand(make_chain("lukasiewicz", 2)),
]
chains = st.one_of(
    st.sampled_from(NAMED),
    st.sampled_from(_wnm_negations(5)).map(lambda neg: make_wnm_chain(neg, "wnm")),
)

atoms = st.sampled_from(sorted(PREDICATES)).flatmap(
    lambda p: st.tuples(*[st.sampled_from(VARIABLES)] * PREDICATES[p]).map(
        lambda args: Atom(p, args)
    )
)


def _connectives(sub):
    return [
        st.builds(Not, sub),
        st.builds(Delta, sub),
        *(st.builds(kind, sub, sub) for kind in (And, StrongAnd, Implies, Or, Iff)),
    ]


def _extend(sub):
    var = st.sampled_from(VARIABLES)
    return st.one_of(
        *_connectives(sub), st.builds(Forall, var, sub), st.builds(Exists, var, sub)
    )


formulas = st.recursive(st.one_of(st.just(Bottom()), atoms), _extend, max_leaves=6)
prop_formulas = st.recursive(
    st.one_of(st.just(Bottom()), st.sampled_from(PROP_VARIABLES).map(Var)),
    lambda sub: st.one_of(*_connectives(sub)),
    max_leaves=8,
)
# Default chunks, or chunks of 4 to 64 ranks.
chunk_bits = st.sampled_from([None, (4, 64)])

PROPERTY = settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def _small_chunks(bits):
    if bits is None:
        return contextlib.nullcontext()
    first, largest = bits
    return mock.patch.multiple(masks, FIRST_CHUNK_BITS=first, MAX_CHUNK_BITS=largest)


def _closed_case(chain, phi, n):
    closed = universal_closure(phi)
    sig = signature_of(closed)
    assume(count_models(sig, n, chain.carrier) <= MAX_MODELS)
    return closed, sig


def _same_error(exc, action):
    with pytest.raises(type(exc), match=re.escape(str(exc))):
        action()


def _product_models(sig, n, values):
    """The models of sig over {1..n} with cells from values, in the
    canonical order, by an itertools.product over the cells: the loop
    that enumerate_models ran before it decoded ranks."""
    cells = [
        (pred, args)
        for pred in sorted(sig)
        for args in itertools.product(range(1, n + 1), repeat=sig[pred])
    ]
    for row in itertools.product(values, repeat=len(cells)):
        tables = {pred: {} for pred in sorted(sig)}
        for (pred, args), value in zip(cells, row):
            tables[pred][args] = value
        yield Model(n, tables)


@PROPERTY
@given(chain=chains, phi=formulas, n=st.integers(1, 2), bits=chunk_bits)
def test_mask_value_is_eval_fo_at_every_rank(chain, phi, n, bits):
    closed, sig = _closed_case(chain, phi, n)
    space = masks.Space(sig, n, chain.size)
    identity = tuple(range(chain.size))
    models = list(_product_models(sig, n, chain.carrier))
    try:
        expected = [eval_fo(chain, m, {}, closed) for m in models]
    except MvlogicError as exc:  # delta on a chain without delta
        _same_error(exc, lambda: masks.Program(masks.Code(closed, space), chain, identity))
        return
    program = masks.Program(masks.Code(closed, space), chain, identity)
    scanned = 0
    with _small_chunks(bits):
        for chunk, (values,) in space.scan(program):
            assert chunk.start == scanned
            scanned += chunk.size
            for offset in range(chunk.size):
                rank = chunk.start + offset
                assert space.model(rank, chain.carrier) == models[rank]
                indices = [v for v, mask in enumerate(values) if mask >> offset & 1]
                assert indices == [chain.index(expected[rank])]
    assert scanned == len(models) == space.size


@pytest.mark.parametrize("values", [(F(0), F(1, 2), F(1)), (F(1), F(0), F(1))])
@pytest.mark.parametrize("n", [1, 2])
def test_enumerate_models_is_the_product_loop(n, values):
    sig = {"R2'": 2, "B0": 0, "q_1": 1}
    assert list(enumerate_models(sig, n, values)) == list(_product_models(sig, n, values))


def _fraction_loop(chain, closed, max_size, values):
    """The model-by-model scan that the engine replaced: the first
    countermodel over domains 1..max_size, with its value."""
    sig = signature_of(closed)
    for n in range(1, max_size + 1):
        for model in _product_models(sig, n, values):
            value = eval_fo(chain, model, {}, closed)
            if value != chain.top:
                return model, value
    return None


@PROPERTY
@given(
    chain=chains, phi=formulas, n=st.integers(1, 2), bits=chunk_bits, data=st.data()
)
def test_first_failure_is_the_first_failing_model(chain, phi, n, bits, data):
    # A grid: carrier values in the caller's order, possibly repeated.
    values = data.draw(
        st.one_of(
            st.just(chain.carrier),
            st.lists(st.sampled_from(chain.carrier), min_size=1, max_size=4).map(tuple),
        )
    )
    closed, sig = _closed_case(chain, phi, n)
    assume(sum(count_models(sig, m, values) for m in range(1, n + 1)) <= MAX_MODELS)
    try:
        oracle = _fraction_loop(chain, closed, n, values)
    except MvlogicError as exc:
        _same_error(exc, lambda: find_countermodel(chain, closed, n, values))
        return
    with _small_chunks(bits):
        cert = find_countermodel(chain, closed, n, values)
    if oracle is None:
        assert cert is None
    else:
        assert (cert.model, cert.value) == oracle


RATIONAL = [
    *(make_rational_chain(f) for f in ("lukasiewicz", "godel", "product", "nm", "dp")),
    delta_expand(make_rational_chain("product")),
]
GRIDS = [
    (F(0), F(1, 3), F(1, 2), F(2, 3), F(1)),  # perfbench's --grid 3
    (F(1, 2), F(0), F(1), F(1, 3)),  # unsorted
    (F(2, 3), F(1, 3), F(2, 3), F(1, 2)),  # a duplicate, and neither 0 nor 1
    (F(1, 4),),
]


def _grid_tables(chain, closed, values):
    """grid_tables over the size-1 Code of a closed formula, as the grid
    scan computes it."""
    code = masks.Code(closed, masks.Space(signature_of(closed), 1, len(values)))
    return masks.grid_tables(chain, code, values)


@PROPERTY
@given(
    chain=st.sampled_from(RATIONAL),
    phi=formulas,
    values=st.sampled_from(GRIDS),
    max_size=st.integers(1, 2),
    cap=st.sampled_from([None, None, 0, 6]),
)
def test_grid_scan_is_the_fraction_loop(chain, phi, values, max_size, cap):
    closed = universal_closure(phi)
    sig = signature_of(closed)
    assume(sum(count_models(sig, n, values) for n in range(1, max_size + 1)) <= MAX_MODELS)
    patch = contextlib.nullcontext() if cap is None else mock.patch.object(masks, "GRID_VALUE_CAP", cap)
    try:
        oracle = _fraction_loop(chain, closed, max_size, values)
    except MvlogicError as exc:
        with patch, pytest.raises(type(exc)):
            find_countermodel(chain, closed, max_size, values)
        return
    with patch:
        if cap == 0:  # past the cap: the model-by-model loop answers
            assert _grid_tables(chain, closed, values) is None
        cert = find_countermodel(chain, closed, max_size, values)
    if oracle is None:
        assert cert is None
    else:
        assert (cert.model, cert.value, cert.chain_hash) == (*oracle, "-")


def test_grid_tables_are_the_reachable_values():
    chain = make_rational_chain("product")
    tables = _grid_tables(chain, parse("forall x. (P(x) & P(x))"), (F(1, 2), F(1, 3)))
    assert tables.carrier == [F(0), F(1, 9), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(1)]
    # Only the pairs that the formula reaches are tabulated.
    assert tables.operation_tables["star"] == {4: {4: 1, 5: 2}, 5: {4: 2, 5: 3}}
    assert tables.operation_tables["res"] == {}
    with mock.patch.object(masks, "GRID_VALUE_CAP", 6):
        assert _grid_tables(chain, universal_closure(parse("P(x) & P(x)")), (F(1, 2), F(1, 3))) is None


def test_grid_residuum_is_the_family_own():
    # Over the dense rationals dp takes 1/2 -> 0 to 1; a residuum derived
    # from the star on {0, 1/2, 1} would give 1/2 and a countermodel.
    dp = make_rational_chain("dp")
    assert find_countermodel(dp, parse("~P(x)"), 2, (F(1, 2),)) is None
    assert find_countermodel(make_chain("dp", 3), parse("~P(x)"), 2, (F(1, 2),)).value == F(1, 2)


@PROPERTY
@given(chain=chains, phi=prop_formulas)
def test_is_taut_prop_is_the_first_failing_assignment(chain, phi):
    names = sorted(prop_variables(phi))
    assignments = (
        dict(zip(names, values))
        for values in itertools.product(chain.carrier, repeat=len(names))
    )
    try:
        witness = next(
            (a for a in assignments if eval_prop(chain, a, phi) != chain.top), None
        )
    except MvlogicError as exc:  # delta on a chain without delta
        _same_error(exc, lambda: is_taut_prop(chain, phi))
        return
    with _small_chunks((4, 64)):
        assert is_taut_prop(chain, phi) == (witness is None, witness)


@pytest.mark.parametrize("text", ["bot", "bot -> bot", "forall x. (bot -> bot)", "!bot"])
@pytest.mark.parametrize("chain", [make_chain("lukasiewicz", 2), NAMED[-1]])
def test_no_atoms_one_model_per_size(chain, text):
    phi = parse(text)
    for n in (1, 2):
        space = masks.Space({}, n, chain.size)
        assert space.size == 1
        (model,) = _product_models({}, n, chain.carrier)
        assert space.model(0, chain.carrier) == model
        try:
            oracle = _fraction_loop(chain, phi, n, chain.carrier)
        except UnsupportedChainError as exc:
            _same_error(exc, lambda: find_countermodel(chain, phi, n))
            continue
        cert = find_countermodel(chain, phi, n)
        if oracle is None:
            assert cert is None
        else:
            assert (cert.model, cert.value) == oracle


class TestChunks:
    def test_aligned_powers_of_the_radix(self):
        space = masks.Space({"P": 1, "Q": 2}, 2, 3)  # 3^6 = 729 ranks
        with mock.patch.multiple(masks, FIRST_CHUNK_BITS=9, MAX_CHUNK_BITS=81):
            sizes = [(c.start, c.size) for c, _ in space.scan()]
        assert sizes[:4] == [(0, 9), (9, 9), (18, 9), (27, 27)]
        assert max(size for _, size in sizes) == 81
        assert all(start % size == 0 for start, size in sizes)
        assert sum(size for _, size in sizes) == 729

    def test_budget_shrinks_chunks(self):
        space = masks.Space({"P": 1}, 12, 2)
        program = masks.Program(masks.Code(parse("forall x. P(x)"), space), make_chain("boolean"), (0, 1))
        with mock.patch.object(masks, "MASK_BUDGET_BITS", 64 * program.live_bits):
            assert max(c.size for c, _ in space.scan(program)) == 64

    def test_cap_is_checked_upfront(self, monkeypatch):
        monkeypatch.setenv("MVLOGIC_ENUM_CAP", "8")
        with pytest.raises(CapExceededError, match="9 models exceed the enumeration cap 8"):
            masks.Space({"P": 1}, 2, 3)

    def test_cap_is_decided_from_the_cell_count(self, monkeypatch):
        """2^30 cells: refused before a cell is listed, and the count,
        2^30 bits long, is written as a power."""
        monkeypatch.delenv("MVLOGIC_ENUM_CAP", raising=False)
        start = time.perf_counter()
        with mock.patch.object(masks, "product", side_effect=AssertionError("cells listed")):
            with pytest.raises(CapExceededError,
                               match=r"^2\^1073741824 models exceed the enumeration cap 20000000$"):
                masks.Space({"P": 30}, 2, 2)
        assert time.perf_counter() - start < 0.5


def test_every_scan_runs_programs_inside_space_scan():
    """Space.scan is the one loop that runs a Program: each run happens
    while scan computes a chunk's masks, never in a caller's loop."""
    scan, run = masks.Space.scan, masks.Program.run
    inside, runs = [False], [0]

    def guarded_scan(space, *programs):
        chunks = scan(space, *programs)
        while True:
            inside[0] = True
            try:
                item = next(chunks)
            except StopIteration:
                return
            finally:
                inside[0] = False
            yield item

    def guarded_run(program, chunk):
        assert inside[0], "Program.run called outside Space.scan"
        runs[0] += 1
        return run(program, chunk)

    scans = {
        "is_taut_prop": lambda: is_taut_prop(make_chain("nm", 4), parse("p -> ~~p", kind="prop")),
        "finite chain": lambda: find_countermodel(make_chain("godel", 3), parse("P(x) \\/ ~P(x)"), 2),
        "product grid": lambda: find_countermodel(
            make_rational_chain("product"), parse("P(x) -> (P(x) & P(x))"), 2, GRIDS[0]
        ),
        "fo-axioms": lambda: SUITES["fo-axioms"](max_n=1, max_chain_size=3),
        "lemma-gc": lambda: SUITES["lemma-gc"](max_n=1),
    }
    with mock.patch.object(masks.Space, "scan", guarded_scan), \
            mock.patch.object(masks.Program, "run", guarded_run):
        for name, action in scans.items():
            before = runs[0]
            action()
            assert runs[0] > before, name


def test_delta_error_of_the_direct_checker():
    with pytest.raises(UnsupportedChainError, match=r"chain lukasiewicz\(2\) has no delta"):
        find_countermodel(make_chain("lukasiewicz", 2), parse("forall x. !P(x)"), 2)


def test_error_order_of_the_two_checkers(monkeypatch):
    """The direct checker builds each size's Space, which checks the cap,
    before it binds a Program; the grounded checker reports a missing
    delta before the cap."""
    monkeypatch.setenv("MVLOGIC_ENUM_CAP", "2")
    chain, phi = make_chain("lukasiewicz", 3), parse("forall x. !P(x)")
    for direct in (find_countermodel, taut_upto_direct):
        with pytest.raises(CapExceededError, match="^4 models exceed the enumeration cap 2$"):
            direct(chain, phi, 2)
    with pytest.raises(UnsupportedChainError, match=r"chain lukasiewicz\(3\) has no delta"):
        taut_upto_grounded(chain, phi, 2)


_NO_DELTA = "chain lukasiewicz(3) has no delta operation"
_LUK3 = make_chain("lukasiewicz", 3)
_PRODUCT = make_rational_chain("product")


@pytest.mark.parametrize("check, phi, error", [
    # delta alone
    (is_taut_prop, Delta(Var("p")), (UnsupportedChainError, _NO_DELTA)),
    (taut_upto_grounded, parse("forall x. !P(x)"), (UnsupportedChainError, _NO_DELTA)),
    (taut_upto_direct, parse("forall x. !P(x)"), (UnsupportedChainError, _NO_DELTA)),
    # delta and a node the engine cannot evaluate: the first one met wins
    (is_taut_prop, And(Delta(Var("p")), Atom("P", ())), (UnsupportedChainError, _NO_DELTA)),
    (is_taut_prop, And(Atom("P", ()), Delta(Var("p"))),
     (EvaluationError, "cannot evaluate node Atom(pred='P', args=())")),
    (is_taut_prop, Delta(Atom("P", ())),
     (EvaluationError, "cannot evaluate node Atom(pred='P', args=())")),
    (taut_upto_direct, And(Delta(Atom("P", ("x",))), Var("p")), (UnsupportedChainError, _NO_DELTA)),
    (taut_upto_direct, And(Var("p"), Delta(Atom("P", ("x",)))),
     (EvaluationError, "cannot evaluate node Var(name='p')")),
    (lambda chain, phi: find_countermodel(_PRODUCT, phi, 2, (F(0), F(1))),
     And(Delta(Atom("P", ("x",))), Var("p")),
     (UnsupportedChainError, "chain product[0,1] has no delta operation")),
    (lambda chain, phi: find_countermodel(_PRODUCT, phi, 2, (F(0), F(1))),
     And(Var("p"), Delta(Atom("P", ("x",)))),
     (EvaluationError, "cannot evaluate node Var(name='p')")),
], ids=["prop", "grounded", "direct", "prop-delta-first", "prop-node-first",
        "prop-node-under-delta", "direct-delta-first", "direct-node-first",
        "grid-delta-first", "grid-node-first"])
def test_which_error_a_formula_raises_on_a_chain_without_delta(check, phi, error):
    """Type and message of the first error, on lukasiewicz(3) or the
    product family, neither of which has delta."""
    args = (_LUK3, phi, 2) if check in (taut_upto_grounded, taut_upto_direct) else (_LUK3, phi)
    with pytest.raises(error[0], match=f"^{re.escape(error[1])}$"):
        check(*args)


@pytest.mark.parametrize("cap", [None, 6], ids=["under-the-cap", "past-the-cap"])
@pytest.mark.parametrize("var_first", [True, False], ids=["var-first", "var-last"])
def test_a_grid_scan_reports_an_unevaluable_node_at_any_reach(var_first, cap):
    """The grid scan raises what the size-1 Code cannot run before it
    tabulates, so the error does not depend on whether the values that
    the formula reaches from the grid pass GRID_VALUE_CAP (patched to 6,
    they do)."""
    phi = parse("forall x. (P(x) & P(x) & P(x)) -> (P(x) & P(x))")
    grid = (F(1, 2), F(1, 3), F(2, 3))
    patch = contextlib.nullcontext() if cap is None else mock.patch.object(masks, "GRID_VALUE_CAP", cap)
    with patch:
        assert (_grid_tables(_PRODUCT, phi, grid) is None) == (cap is not None)
        with pytest.raises(EvaluationError, match=r"^cannot evaluate node Var\(name='p'\)$"):
            find_countermodel(_PRODUCT, And(Var("p"), phi) if var_first else And(phi, Var("p")), 1, grid)


def test_an_unevaluable_node_after_delta_on_a_chain_with_delta():
    chain = delta_expand(_LUK3)
    with pytest.raises(EvaluationError, match=r"^cannot evaluate node Atom\(pred='P', args=\(\)\)$"):
        is_taut_prop(chain, And(Delta(Var("p")), Atom("P", ())))
    with pytest.raises(EvaluationError, match=r"^cannot evaluate node Var\(name='p'\)$"):
        taut_upto_direct(chain, And(Delta(Atom("P", ("x",))), Var("p")), 2)


def test_missing_delta_comes_before_the_cap_with_its_message(monkeypatch):
    phi = parse("!p0 /\\ " + " /\\ ".join(f"p{i}" for i in range(1, 30)), kind="prop")
    monkeypatch.setenv("MVLOGIC_ENUM_CAP", "10")
    with pytest.raises(UnsupportedChainError, match=f"^{re.escape(_NO_DELTA)}$"):
        is_taut_prop(_LUK3, phi)


def test_grid_tables_of_the_corpus_are_pinned():
    """Carrier and tables of every corpus formula's grid_tables on the
    rational families over perfbench's --grid 3 values, the direct-search
    grid cases among them, by sha256 prefix of a sorted text form."""
    digest = hashlib.sha256()
    for chain in RATIONAL:
        for phi in fixed_corpus():
            tables = _grid_tables(chain, universal_closure(phi), GRIDS[0])
            rows = [
                (op, sorted((i, sorted(row.items()) if isinstance(row, dict) else row)
                            for i, row in table.items()))
                for op, table in sorted(tables.operation_tables.items())
            ]
            digest.update(repr((tables.carrier, rows)).encode() + b"\n")
    assert digest.hexdigest()[:16] == "75aacb52a91b180e"


def test_suite_scan_reports_failing_ranks_in_order():
    """A scan whose judge passes only value 1 reports every other model
    of `forall x. P(x)` on lukasiewicz(2), as eval_fo sees it."""
    chain = make_chain("lukasiewicz", 2)
    closed = parse("forall x. P(x)")

    def case(model):
        value = eval_fo(chain, model, {}, closed)
        return value == 1, f"{value} at {sorted(model.table('P').values())}"

    batches = list(
        _model_scan(chain, closed, 2, [(chain, masks.Compiled(closed).code, None)],
                    lambda full, v: (full, v[2]), case)
    )
    assert all(isinstance(b, Batch) for b in batches)
    assert sum(b.cases for b in batches) == 3 + 9
    failures = [f for b in batches for f in b.failures]
    expected = [
        case(m)[1]
        for n in (1, 2)
        for m in _product_models({"P": 1}, n, chain.carrier)
        if not case(m)[0]
    ]
    assert failures == expected
    assert failures[:2] == ["0 at [Fraction(0, 1)]", "1/2 at [Fraction(1, 2)]"]


def test_lemma_tr_reports_a_planted_grounding_fault():
    """With exists grounded as forall, lemma-tr reports the failures,
    and the messages, of the model-by-model loop it replaced.  At n = 1
    a quantifier grounds to its one instance, so the fault shows only
    from n = 2 on; the three chains of at most 3 elements keep the
    oracle loop short."""
    ground_node = grounding._ground

    def exists_as_forall(phi, n, env, legend):
        if type(phi) is Exists:
            phi = Forall(phi.var, phi.body)
        return ground_node(phi, n, env, legend)

    chains = [c for c in suites._lemma_tr_chains() if c.size <= 3]
    with mock.patch.object(grounding, "_ground", exists_as_forall), \
            mock.patch.object(suites, "_lemma_tr_chains", lambda: chains):
        for exhaustive_n, failing in ((1, 0), (2, 464)):
            report = SUITES["lemma-tr"](trials=0, exhaustive_n=exhaustive_n)
            oracle = [
                case
                for chain in chains
                for phi in fixed_corpus()
                for n in range(1, exhaustive_n + 1)
                for case in _coding_cases(
                    chain, phi, n, _product_models(signature_of(phi), n, chain.carrier)
                )
            ]
            assert report.cases == len(oracle)
            assert report.failures == [message for ok, message in oracle if not ok]
            assert len(report.failures) == failing
