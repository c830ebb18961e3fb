"""The mask engine against the Fraction evaluator.

At every rank, the mask value of a closed formula equals eval_fo on the
model that the rank decodes to, and that model is the one
enumerate_models yields at that position.  The engine's first failing
rank equals the first failing model of an enumerate_models + eval_fo
scan, the model-by-model loop that the engine replaced, kept here as
the oracle.  On the rational families, find_countermodel's grid scan
on the masks, over the values the formula can reach, equals that loop
too, with the loop's Fraction arithmetic as the oracle.  is_taut_prop's
verdict and witness equal those of an itertools.product + eval_prop
scan over the assignments.  Chunk sizes are shrunk in some examples so
that one small space spans many chunks.
"""

import contextlib
import itertools
import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from mvlogic import (
    CapExceededError,
    InvalidNegationError,
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
    universal_closure,
)
from mvlogic import masks
from mvlogic.chains import trivial_chain
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
from mvlogic.suites import Batch, _model_scan

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


@PROPERTY
@given(chain=chains, phi=formulas, n=st.integers(1, 2), bits=chunk_bits)
def test_mask_value_is_eval_fo_at_every_rank(chain, phi, n, bits):
    closed, sig = _closed_case(chain, phi, n)
    space = masks.Space(sig, n, chain.size)
    identity = tuple(range(chain.size))
    models = list(enumerate_models(sig, n, chain.carrier))
    try:
        expected = [eval_fo(chain, m, {}, closed) for m in models]
    except MvlogicError as exc:  # delta on a chain without delta
        _same_error(exc, lambda: masks.Program(chain, closed, space, identity))
        return
    program = masks.Program(chain, closed, space, identity)
    scanned = 0
    with _small_chunks(bits):
        for chunk in space.chunks(program):
            assert chunk.start == scanned
            scanned += chunk.size
            values = program.run(chunk)
            for offset in range(chunk.size):
                rank = chunk.start + offset
                assert space.model(rank, chain.carrier) == models[rank]
                indices = [v for v, mask in enumerate(values) if mask >> offset & 1]
                assert indices == [chain.index(expected[rank])]
    assert scanned == len(models) == space.size


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
    assume(count_models(sig, n, values) <= MAX_MODELS)
    models = list(enumerate_models(sig, n, values))
    try:
        oracle = next(
            (
                (rank, value)
                for rank, model in enumerate(models)
                if (value := eval_fo(chain, model, {}, closed)) != chain.top
            ),
            None,
        )
    except MvlogicError as exc:
        _same_error(exc, lambda: masks.first_failure(chain, closed, sig, n, values))
        return
    with _small_chunks(bits):
        found = masks.first_failure(chain, closed, sig, n, values)
    if oracle is None:
        assert found is None
    else:
        rank, value = oracle
        model, index = found
        assert model == models[rank]
        assert chain.carrier[index] == value


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


def _fraction_loop(chain, closed, max_size, values):
    """The model-by-model scan that the grid engine replaced."""
    sig = signature_of(closed)
    for n in range(1, max_size + 1):
        for model in enumerate_models(sig, n, values):
            value = eval_fo(chain, model, {}, closed)
            if value != chain.top:
                return model, value
    return None


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
            assert masks.grid_tables(chain, closed, values) is None
        cert = find_countermodel(chain, closed, max_size, values)
    if oracle is None:
        assert cert is None
    else:
        assert (cert.model, cert.value, cert.chain_hash) == (*oracle, "-")


def test_grid_tables_are_the_reachable_values():
    chain = make_rational_chain("product")
    tables = masks.grid_tables(chain, parse("forall x. (P(x) & P(x))"), (F(1, 2), F(1, 3)))
    assert tables.carrier == [F(0), F(1, 9), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(1)]
    # Only the pairs that the formula reaches are tabulated.
    assert tables.operation_tables["star"] == {4: {4: 1, 5: 2}, 5: {4: 2, 5: 3}}
    assert tables.operation_tables["res"] == {}
    with mock.patch.object(masks, "GRID_VALUE_CAP", 6):
        assert masks.grid_tables(chain, parse("P(x) & P(x)"), (F(1, 2), F(1, 3))) is None


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
        (model,) = enumerate_models({}, n, chain.carrier)
        assert space.model(0, chain.carrier) == model
        try:
            value = eval_fo(chain, model, {}, phi)
        except UnsupportedChainError as exc:
            _same_error(exc, lambda: masks.first_failure(chain, phi, {}, n, chain.carrier))
            continue
        found = masks.first_failure(chain, phi, {}, n, chain.carrier)
        if value == chain.top:
            assert found is None
        else:
            assert found == (model, chain.index(value))


class TestChunks:
    def test_aligned_powers_of_the_radix(self):
        space = masks.Space({"P": 1, "Q": 2}, 2, 3)  # 3^6 = 729 ranks
        with mock.patch.multiple(masks, FIRST_CHUNK_BITS=9, MAX_CHUNK_BITS=81):
            sizes = [(c.start, c.size) for c in space.chunks()]
        assert sizes[:4] == [(0, 9), (9, 9), (18, 9), (27, 27)]
        assert max(size for _, size in sizes) == 81
        assert all(start % size == 0 for start, size in sizes)
        assert sum(size for _, size in sizes) == 729

    def test_budget_shrinks_chunks(self):
        space = masks.Space({"P": 1}, 12, 2)
        program = masks.Program(make_chain("boolean"), parse("forall x. P(x)"), space, (0, 1))
        with mock.patch.object(masks, "MASK_BUDGET_BITS", 64 * program.live_bits):
            assert max(c.size for c in space.chunks(program)) == 64

    def test_cap_is_checked_upfront(self, monkeypatch):
        monkeypatch.setenv("MVLOGIC_ENUM_CAP", "8")
        with pytest.raises(CapExceededError, match="9 models exceed the enumeration cap 8"):
            masks.Space({"P": 1}, 2, 3)


def test_delta_error_of_the_direct_checker():
    with pytest.raises(UnsupportedChainError, match=r"chain lukasiewicz\(2\) has no delta"):
        find_countermodel(make_chain("lukasiewicz", 2), parse("forall x. !P(x)"), 2)


def test_suite_scan_reports_failing_ranks_in_order():
    """A scan whose judge passes only value 1 reports every other model
    of `forall x. P(x)` on lukasiewicz(2), as eval_fo sees it."""
    chain = make_chain("lukasiewicz", 2)
    closed = parse("forall x. P(x)")

    def case(model):
        value = eval_fo(chain, model, {}, closed)
        return value == 1, f"{value} at {sorted(model.table('P').values())}"

    batches = list(
        _model_scan(chain, closed, 2, [(chain, closed, None)], lambda full, v: (full, v[2]), case)
    )
    assert all(isinstance(b, Batch) for b in batches)
    assert sum(b.cases for b in batches) == 3 + 9
    failures = [f for b in batches for f in b.failures]
    expected = [
        case(m)[1]
        for n in (1, 2)
        for m in enumerate_models({"P": 1}, n, chain.carrier)
        if not case(m)[0]
    ]
    assert failures == expected
    assert failures[:2] == ["0 at [Fraction(0, 1)]", "1/2 at [Fraction(1, 2)]"]
