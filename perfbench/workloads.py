"""The four workloads: their seeded inputs, their operations and the
checks that judge each operation's output against the reference
semantics in ``ref``.

A workload is built in two steps.  ``build(name, seed, root)`` makes the
inputs from the seed without touching mvlogic.  ``Workload.setup()``
then imports mvlogic and prepares what the program needs (chains loaded
from their text form, parsed formulas); that step is what ``setup_s``
times.  ``Workload.ops`` is one round: the same operations, in the same
order, every round.

Every operation gets an ``Outcome`` from its check: whether the output
is right, and the work it stands for in the workload's unit, counted by
the benchmark from the canonical search space (see ``ref``), never read
from the program.
"""

from __future__ import annotations

import ast
import itertools
import os
import random
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

import ref

WORKLOADS = ("grounded-taut", "direct-search", "suites", "cli")

# Largest canonical search space, in points, that one operation may
# scan.  Fixed-corpus operations get a larger budget than seeded random
# ones, so the seed moves the cost of a round little.
CORPUS_CAP = 20_000
RANDOM_CAP = 2_000
RANDOM_SEARCH_CAP = 600
SAMPLES = 6  # reference samples per domain size for a tautology verdict
EXHAUSTIVE_CAP = 400  # space of the fixed subset the reference scans itself
REFERENCE_SCAN_CAP = 5_000  # largest space the reference scans to confirm a verdict

FAULT_3A = r"forall x. forall y. (P(x,y) -> P_1(y))"

# The two weak negations of the WNM suites, under the suites' names.
# make_wnm_chain's default name holds spaces, and a certificate that
# names such a chain cannot be read back (see CHANGES.md).
WNM_NAMES = {(4, 3, 1, 1, 0): "wnmA", (5, 3, 3, 2, 0, 0): "wnmB"}


# ---------------------------------------------------------------------------
# Inputs shared by the workloads


def corpus_blocks(root: str) -> dict[str, list[str]]:
    """The fixed corpus of mvlogic/corpus.py split into its three
    commented blocks, read from the source without importing it."""
    path = os.path.join(root, "src", "mvlogic", "corpus.py")
    with open(path) as handle:
        source = handle.read()
    lines = source.splitlines()
    tree = ast.parse(source)
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            values[node.targets[0].id] = node.value
    markers = {
        "# -- valid on every chain": "valid",
        "# -- classically valid": "classical",
        "# -- non-tautologies everywhere": "invalid",
    }
    blocks: dict[str, list[str]] = {"valid": [], "classical": [], "invalid": []}
    for element in values["FIXED_CORPUS_TEXT"].elts:
        block = None
        for line in lines[: element.lineno - 1]:
            for marker, name in markers.items():
                if line.strip().startswith(marker):
                    block = name
        blocks[block].append(ast.literal_eval(element))
    blocks["classical_corpus"] = ast.literal_eval(values["CLASSICAL_CORPUS_TEXT"])
    blocks["fo_axioms"] = ast.literal_eval(values["FO_AXIOM_INSTANCES_TEXT"])
    return blocks


def ref_chain(spec) -> ref.RefChain:
    family, param, delta = spec
    if family == "rational":
        chain = ref.rational(param)
    elif family == "wnm":
        chain = ref.wnm(param, WNM_NAMES[param])
    elif family == "boolean":
        chain = ref.boolean()
    else:
        chain = getattr(ref, family)(param)
    return ref.with_delta(chain) if delta else chain


def random_formula(rng: random.Random, depth: int, preds: dict, delta: bool):
    """Seeded formula over the predicates `preds`, free variables left
    open (the program closes them universally)."""
    if depth <= 0 or rng.random() < 0.15:
        if rng.random() < 0.08:
            return ("bot",)
        pred = rng.choice(sorted(preds))
        return ("atom", pred, tuple(rng.choice("xyz") for _ in range(preds[pred])))
    kinds = ["and", "sand", "or", "imp", "iff", "not", "forall", "exists"]
    if delta:
        kinds.append("delta")
    kind = rng.choice(kinds)
    if kind in ("not", "delta"):
        return (kind, random_formula(rng, depth - 1, preds, delta))
    if kind in ref.QUANTIFIERS:
        return (kind, rng.choice("xyz"), random_formula(rng, depth - 1, preds, delta))
    return (
        kind,
        random_formula(rng, depth - 1, preds, delta),
        random_formula(rng, depth - 1, preds, delta),
    )


def largest_bound(space, cap: int, top: int = 3) -> int:
    """Largest b <= top whose search space up to b is within cap."""
    best = 0
    for b in range(1, top + 1):
        if sum(space(n) for n in range(1, b + 1)) <= cap:
            best = b
    return best


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Outcome:
    ok: bool
    work: int = 0
    message: str = ""


@dataclass
class Op:
    """One operation of a round.  `run` is timed; `before` prepares its
    input untimed; `check` judges the output."""

    label: str
    run: object
    check: object
    before: object = None
    fault: bool = False  # a known program fault makes this op fail
    output: object = None


class Workload:
    unit = "points"  # what work_per_s counts

    def __init__(self, name: str, seed: int, root: str):
        self.name = name
        self.root = root
        self.ops: list[Op] = []
        self.traced = False  # read by workloads that trace in child processes
        self.trace_files: list[str] = []  # their span files
        self.notes: set[str] = set()

    def setup(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed work before the first round."""

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that runs the program."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


class ChainCache:
    """Program chains built once per spec, loaded from their text form
    as a chain file would be."""

    def __init__(self, mv):
        self.mv = mv
        self.chains = {}

    def get(self, spec):
        if spec not in self.chains:
            mv = self.mv
            family, param, delta = spec
            if family == "rational":
                chain = mv.make_rational_chain(param)
            else:
                if family == "wnm":
                    chain = mv.make_wnm_chain(list(param), WNM_NAMES[param])
                elif family == "boolean":
                    chain = mv.make_chain("boolean")
                else:
                    chain = mv.make_chain(family, param)
                if delta:
                    chain = mv.delta_expand(chain)
                chain = mv.chain_from_text(mv.chain_to_text(chain), chain.name)
            self.chains[spec] = chain
        return self.chains[spec]


def sample_tables(rng, cells, values, count):
    cells = sorted(cells)
    for _ in range(count):
        yield {cell: rng.choice(values) for cell in cells}


# ---------------------------------------------------------------------------
# grounded-taut


class GroundedCase:
    """taut_upto_grounded(chain, phi, bound), judged by the reference.

    The first round checks fully; later rounds must repeat the verdict,
    and a refutation's witness is evaluated again every round.  A corpus
    block label that the reference disproves is reported as a note, not
    held against the program.
    """

    def __init__(self, spec, phi, cap, block=None, fault=False):
        self.spec, self.phi, self.block, self.fault = spec, phi, block, fault
        self.chain = ref_chain(spec)
        self.closed = ref.closure(phi)
        k = self.chain.size
        self.bound = largest_bound(lambda n: k ** len(ref.occurring_cells(self.closed, n)), cap)
        self.sizes = [len(ref.occurring_cells(self.closed, n)) for n in range(1, self.bound + 1)]
        self.exhaustive = self.total_space() <= EXHAUSTIVE_CAP
        self.verified = None  # (is_taut, refuted_at) once fully checked

    def total_space(self):
        return sum(self.chain.size**v for v in self.sizes)

    def label(self):
        return f"{ref.to_text(self.phi)} on {self.chain.name}"

    def check(self, verdict, rng, notes) -> Outcome:
        if isinstance(verdict, Exception):
            return Outcome(False, message=f"raised {verdict!r}")
        key = (verdict.is_taut, verdict.refuted_at)
        if self.verified is not None and key != self.verified:
            return Outcome(False, message=f"verdict changed from {self.verified} to {key}")
        if verdict.is_taut:
            work = self.total_space()
            if self.verified is None:
                scan = self.exhaustive or self.block == "invalid"
                bad = self.reference_taut(rng, scan)
                if bad:
                    return Outcome(False, message=bad)
                if self.block == "invalid":
                    notes.add(f"corpus non-tautology holds: {self.label()}")
        else:
            n = verdict.refuted_at
            bad = self.check_witness(n, verdict.grounded.legend, verdict.witness)
            if not bad and self.verified is None and self.exhaustive:
                bad = self.reference_first(n, verdict.grounded.legend, verdict.witness)
            if bad:
                return Outcome(False, message=bad)
            if self.block == "valid":
                notes.add(f"corpus tautology refuted at n={n}: {self.label()}")
            work = ref.assignment_points(self.sizes[: n - 1], verdict.witness, self.chain.carrier)
        self.verified = key
        return Outcome(True, work)

    def check_witness(self, n, legend, witness) -> str:
        if not 1 <= n <= self.bound:
            return f"refuted_at {n} outside 1..{self.bound}"
        if set(witness) != set(legend) or len(witness) != self.sizes[n - 1]:
            return "witness does not cover the grounded cells"
        table = {legend[name]: value for name, value in witness.items()}
        if set(table) != ref.occurring_cells(self.closed, n):
            return "legend cells differ from the formula's"
        if any(not self.chain.contains(v) for v in table.values()):
            return "witness value outside the carrier"
        if ref.evaluate(self.chain, self.closed, n, table) == ref.ONE:
            return "witness evaluates to 1"
        return ""

    def reference_taut(self, rng, exhaustive) -> str:
        """Look for a refutation the taut verdict missed: every
        assignment when `exhaustive`, else a seeded sample."""
        values = self.chain.carrier
        if exhaustive and self.total_space() > REFERENCE_SCAN_CAP:
            return "taut verdict too large for the reference to confirm"
        for n in range(1, self.bound + 1):
            cells = sorted(ref.occurring_cells(self.closed, n))
            if exhaustive:
                tables = (dict(zip(cells, row)) for row in itertools.product(values, repeat=len(cells)))
            else:
                tables = sample_tables(rng, cells, values, SAMPLES)
            for table in tables:
                if ref.evaluate(self.chain, self.closed, n, table) != ref.ONE:
                    return f"reference refutes the taut verdict at n={n}"
        return ""

    def reference_first(self, n, legend, witness) -> str:
        for m in range(1, n):
            names = {f"{p}{a}": (p, a) for p, a in ref.occurring_cells(self.closed, m)}
            if ref.first_refuting_assignment(self.chain, self.closed, m, names):
                return f"reference refutes at n={m} < {n}"
        first = ref.first_refuting_assignment(self.chain, self.closed, n, legend)
        if first != witness:
            return f"witness is not the first: reference gives {first}"
        return ""


class GroundedTaut(Workload):
    """taut_upto_grounded over the fixed corpus on fixed chains, seeded
    random formulas on seeded chains, and the fault of ROADMAP 3a."""

    CORPUS_CHAINS = (
        ("boolean", None, False),
        ("lukasiewicz", 3, False),
        ("godel", 5, True),
        ("nm", 6, False),
        ("wnm", (5, 3, 3, 2, 0, 0), False),
    )
    RANDOM_CHAINS = (
        ("boolean", None, True),
        ("lukasiewicz", 2, False),
        ("lukasiewicz", 4, True),
        ("lukasiewicz", 5, False),
        ("godel", 3, False),
        ("godel", 6, True),
        ("nm", 4, True),
        ("nm", 5, False),
        ("dp", 4, False),
        ("dp", 6, True),
        ("wnm", (4, 3, 1, 1, 0), False),
    )
    RANDOM_FORMULAS = 30
    unit = "assignments"

    def __init__(self, name, seed, root):
        super().__init__(name, seed, root)
        blocks = corpus_blocks(root)
        cases = []
        for spec in self.CORPUS_CHAINS:
            for block in ("valid", "classical", "invalid"):
                for text in blocks[block]:
                    cases.append(GroundedCase(spec, ref.parse(text), CORPUS_CAP, block))
        rng = random.Random(seed)
        preds = {"P": 1, "Q": 1, "R": 2}
        made = 0
        while made < self.RANDOM_FORMULAS:
            spec = rng.choice(self.RANDOM_CHAINS)
            case = GroundedCase(spec, random_formula(rng, rng.randint(2, 4), preds, spec[2]), RANDOM_CAP)
            if case.bound:
                cases.append(case)
                made += 1
        # The fault of ROADMAP 3a at bound 1, whose space is 2^2 points.
        cases.append(GroundedCase(("boolean", None, False), ref.parse(FAULT_3A), 4, fault=True))
        self.cases = cases
        self.rng = random.Random(seed + 1)

    def setup(self):
        import mvlogic as mv

        chains = ChainCache(mv)
        self.ops = []
        for case in self.cases:
            chain = chains.get(case.spec)
            formula = mv.parse(ref.to_text(case.phi))
            run = lambda c=chain, f=formula, b=case.bound: mv.taut_upto_grounded(c, f, b)
            self.ops.append(
                Op(ref.to_text(case.phi), run, (lambda out, case=case: case.check(out, self.rng, self.notes)), fault=case.fault)
            )


# ---------------------------------------------------------------------------
# direct-search


def parse_certificate(text: str):
    """(formula text, domain size, cells, value) read from a certificate."""
    lines = text.splitlines()
    formula = next(line[len("formula "):] for line in lines if line.startswith("formula "))
    value = Fraction(next(line.split()[1] for line in lines if line.startswith("value ")))
    start = lines.index("begin model") + 1
    model = lines[start : lines.index("end model", start)]
    n, cells = parse_model(model)
    return formula, n, cells, value


def parse_model(lines):
    rows = [line.split() for line in lines if line.split()]
    n = int(rows[1][1])
    cells = {}
    arity = pred = None
    for row in rows[2:]:
        if row[0] == "pred":
            pred, arity = row[1], int(row[2])
        else:
            cells[(pred, tuple(int(a) for a in row[:arity]))] = Fraction(row[arity])
    return n, cells


def certificate_text(cells, n, value, base: str) -> str:
    """`base` with its model cells and value line replaced."""
    lines = base.splitlines()
    start = lines.index("begin model") + 1
    end = lines.index("end model", start)
    model = lines[start:end]
    out = model[:2]
    arity = 0
    for line in model[2:]:
        row = line.split()
        if row[0] == "pred":
            arity = int(row[2])
            out.append(line)
            pred = row[1]
        else:
            args = tuple(int(a) for a in row[:arity])
            out.append(" ".join(row[:arity] + [str(cells[(pred, args)])]))
    tail = [f"value {value}" if line.startswith("value ") else line for line in lines[end:]]
    return "\n".join(lines[:start] + out + tail) + "\n"


class SearchCase:
    """find_countermodel, then the certificate's text round trip and
    verify_certificate, judged by the reference the way GroundedCase
    judges a verdict."""

    def __init__(self, spec, phi, cap, values=None, block=None):
        self.spec, self.phi, self.block = spec, phi, block
        self.chain = ref_chain(spec)
        self.values = tuple(values) if values is not None else self.chain.carrier
        self.grid = values is not None
        self.closed = ref.closure(phi)
        self.sig = ref.signature(self.closed)
        self.max_size = largest_bound(self.space, cap)
        self.exhaustive = self.total_space() <= EXHAUSTIVE_CAP
        self.verified = None  # "none" or the certificate text once fully checked

    def space(self, n):
        return ref.model_space(self.sig, n, len(self.values))

    def total_space(self):
        return sum(self.space(n) for n in range(1, self.max_size + 1))

    def label(self):
        return f"{ref.to_text(self.phi)} on {self.chain.name}"

    def check(self, out, rng, notes) -> Outcome:
        if isinstance(out, Exception):
            return Outcome(False, message=f"raised {out!r}")
        if out is None:
            if self.verified not in (None, "none"):
                return Outcome(False, message="countermodel vanished between rounds")
            if self.verified is None:
                scan = self.exhaustive or (self.block == "invalid" and not self.grid)
                bad = self.reference_none(rng, scan)
                if bad:
                    return Outcome(False, message=bad)
                if self.block == "invalid" and not self.grid:
                    notes.add(f"corpus non-tautology holds: {self.label()}")
            self.verified = "none"
            return Outcome(True, self.total_space())
        text, accepted = out
        if self.verified is not None and self.verified != text:
            return Outcome(False, message="certificate changed between rounds")
        if accepted is not True:
            return Outcome(False, message="own certificate does not verify")
        formula, n, cells, value = parse_certificate(text)
        if self.verified is None:
            bad = self.check_certificate(formula, n, cells, value)
            if bad:
                return Outcome(False, message=bad)
            if self.block == "valid":
                notes.add(f"corpus tautology refuted at n={n}: {self.label()}")
        self.verified = text
        return Outcome(True, ref.model_points(self.sig, n, cells, self.values))

    def check_certificate(self, formula, n, cells, value) -> str:
        if ref.parse(formula) != self.closed:
            return f"certificate formula {formula!r} is not the closure"
        if not 1 <= n <= self.max_size or set(cells) != set(ref.model_cells(self.sig, n)):
            return "certificate model has the wrong shape"
        if any(v not in self.values for v in cells.values()):
            return "certificate value outside the value set"
        actual = ref.evaluate(self.chain, self.closed, n, cells)
        if actual != value or actual == ref.ONE:
            return f"reference value {actual} vs certificate {value}"
        if self.exhaustive:
            first = ref.first_countermodel(self.chain, self.closed, self.max_size, self.values)
            if first != (n, cells):
                return "certificate model is not the first countermodel"
        return ""

    def reference_none(self, rng, exhaustive) -> str:
        if exhaustive and self.total_space() > REFERENCE_SCAN_CAP:
            return "no-countermodel result too large for the reference to confirm"
        for n in range(1, self.max_size + 1):
            cells = ref.model_cells(self.sig, n)
            if exhaustive:
                tables = (dict(zip(cells, row)) for row in itertools.product(self.values, repeat=len(cells)))
            else:
                tables = sample_tables(rng, cells, self.values, SAMPLES)
            for table in tables:
                if ref.evaluate(self.chain, self.closed, n, table) != ref.ONE:
                    return f"reference finds a countermodel at n={n}"
        return ""


class ForgedCase:
    """A certificate from a search op of the same round, edited; the
    reference says whether the edited certificate is a real
    countermodel, and verify must agree (a rejection is False or an
    MvlogicError)."""

    def __init__(self, source: Op, case: SearchCase, edit, fault=False):
        self.source, self.case, self.edit, self.fault = source, case, edit, fault
        self.text = None
        self.expect = None

    def prepare(self):
        if self.text is not None:
            return
        base = self.source.output[0]
        _, n, cells, value = parse_certificate(base)
        cells, value = self.edit(dict(cells), value, self.case.chain.carrier)
        self.text = certificate_text(cells, n, value, base)
        chain = self.case.chain
        real = (
            all(chain.contains(v) for v in cells.values())
            and chain.contains(value)
            and ref.evaluate(chain, self.case.closed, n, cells) == value
            and value != ref.ONE
        )
        self.expect = real

    def check(self, out, mverror) -> Outcome:
        if isinstance(out, Exception) and not isinstance(out, mverror):
            return Outcome(False, message=f"raised {out!r}")
        accepted = out is True
        if accepted != self.expect:
            return Outcome(False, message=f"verify gave {out!r}, reference says {self.expect}")
        return Outcome(True)


def edit_out_of_carrier(cells, value, carrier):
    """ROADMAP 3b: P(1) = 1/3 with value 1/3 on lukasiewicz(2)."""
    return {cell: Fraction(1, 3) for cell in cells}, Fraction(1, 3)


def edit_value(offset):
    def edit(cells, value, carrier):
        i = carrier.index(value)
        return cells, carrier[(i + offset) % len(carrier)]

    return edit


def edit_cell(position, offset):
    def edit(cells, value, carrier):
        cell = sorted(cells)[position % len(cells)]
        i = carrier.index(cells[cell])
        cells[cell] = carrier[(i + offset) % len(carrier)]
        return cells, value

    return edit


def grid_values(d: int):
    return sorted({Fraction(p, q) for q in range(1, d + 1) for p in range(q + 1)})


class DirectSearch(Workload):
    """find_countermodel on finite chains with every certificate
    re-verified through its text form, a --grid slice over
    rational-family chains, and edited certificates."""

    UNARY_CHAINS = (
        ("lukasiewicz", 4, False),
        ("lukasiewicz", 5, False),
        ("godel", 5, False),
        ("godel", 6, True),
        ("nm", 5, False),
        ("nm", 6, False),
        ("dp", 5, False),
        ("dp", 6, False),
        ("wnm", (4, 3, 1, 1, 0), False),
        ("wnm", (5, 3, 3, 2, 0, 0), False),
    )
    BINARY_CHAINS = (
        ("lukasiewicz", 2, False),
        ("godel", 3, False),
        ("nm", 3, False),
        ("dp", 3, False),
    )
    GRID_FAMILIES = ("lukasiewicz", "godel", "product", "nm")
    RANDOM_FORMULAS = 24
    GRID_FORMULAS = 8
    # The one R tautology scanned through n = 3: 3 + 81 + 19683 models.
    R_TAUT = r"forall x. forall y. (R(x,y) -> R(x,y))"
    unit = "models"

    def __init__(self, name, seed, root):
        super().__init__(name, seed, root)
        blocks = corpus_blocks(root)
        cases = []
        i = 0
        for block in ("valid", "classical", "invalid"):
            for text in blocks[block]:
                phi = ref.parse(text)
                binary = "R" in ref.signature(phi)
                chains = self.BINARY_CHAINS if binary else self.UNARY_CHAINS
                spec = chains[i % len(chains)]
                i += 1
                cap = 3 + 81 + 3**9 if text == self.R_TAUT else RANDOM_CAP
                cases.append(SearchCase(spec, phi, cap, block=block))
        rng = random.Random(seed)
        made = 0
        while made < self.RANDOM_FORMULAS:
            binary = rng.random() < 0.3
            preds = {"P": 1, "Q": 1, "R": 2} if binary else {"P": 1, "Q": 1}
            chains = self.BINARY_CHAINS if binary else self.UNARY_CHAINS
            spec = rng.choice(chains)
            phi = random_formula(rng, rng.randint(2, 4), preds, spec[2])
            case = SearchCase(spec, phi, RANDOM_SEARCH_CAP)
            if case.max_size and case.sig:
                cases.append(case)
                made += 1
        grid = grid_values(3)
        made = 0
        pool = blocks["invalid"] + blocks["classical"]
        while made < self.GRID_FORMULAS:
            phi = ref.parse(rng.choice(pool))
            if "R" in ref.signature(phi):
                continue
            spec = ("rational", rng.choice(self.GRID_FAMILIES), False)
            cases.append(SearchCase(spec, phi, RANDOM_CAP, values=grid))
            made += 1
        self.cases = cases
        # Edited certificates: the fault of ROADMAP 3b on a search of
        # its own, then in-carrier edits of seeded refuted corpus cases.
        # max_size 1, whose space is 3 models.
        self.fault_case = SearchCase(("lukasiewicz", 2, False), ref.parse("forall x. P(x)"), 3)
        self.edit_sources = [
            case for case in cases
            if case.block == "invalid" and not case.grid
            and ref.first_countermodel(case.chain, case.closed, case.max_size, case.values)
        ]
        self.edits = [(rng.randrange(1, 7), rng.randrange(1, 5), rng.randrange(0, 2)) for _ in range(4)]
        self.rng = random.Random(seed + 1)

    def setup(self):
        import mvlogic as mv

        chains = ChainCache(mv)
        self.ops = []
        search_ops = []
        for case in self.cases + [self.fault_case]:
            chain = chains.get(case.spec)
            formula = mv.parse(ref.to_text(case.phi))
            values = case.values if case.grid else None
            run = lambda c=chain, f=formula, m=case.max_size, v=values: search_and_verify(mv, c, f, m, v)
            op = Op(ref.to_text(case.phi), run, (lambda out, case=case: case.check(out, self.rng, self.notes)))
            self.ops.append(op)
            search_ops.append((op, case))
        refuted = [(op, case) for op, case in search_ops if case in self.edit_sources]
        forged = [ForgedCase(search_ops[-1][0], self.fault_case, edit_out_of_carrier, fault=True)]
        for pick, offset, kind in self.edits:
            op, case = refuted[pick % len(refuted)]
            edit = edit_value(offset) if kind == 0 else edit_cell(pick, offset)
            forged.append(ForgedCase(op, case, edit))
        for f in forged:
            run = lambda f=f: verify_text(mv, f.text)
            self.ops.append(
                Op("edited certificate", run, (lambda out, f=f: f.check(out, mv.MvlogicError)), before=f.prepare, fault=f.fault)
            )


def search_and_verify(mv, chain, formula, max_size, values):
    cert = mv.find_countermodel(chain, formula, max_size, values)
    if cert is None:
        return None
    text = mv.certificate_to_text(cert)
    again = mv.certificate_from_text(text)
    if again.chain_text is not None:
        return text, mv.verify_certificate(again)
    return text, mv.verify_certificate(again, chain)


def verify_text(mv, text):
    return mv.verify_certificate(mv.certificate_from_text(text))


# ---------------------------------------------------------------------------
# suites


# Carrier sizes of the chains each suite scans, from the suites'
# definitions: nm(4), nm(5), wnmA, wnmB for lemma-gc/gc1; the eight
# LEMMA_TR_CHAINS for lemma-tr.
WNM_SUITE_SIZES = (4, 5, 5, 6)
LEMMA_TR_SIZES = (2, 3, 4, 3, 4, 4, 5, 4)


def zoo_sizes(max_size: int) -> list[int]:
    """Carrier sizes of shipped_chains(max_size): boolean, lukasiewicz
    1..max_size-1 and godel/nm/dp 2..max_size."""
    return [2] + [n + 1 for n in range(1, max_size)] + [k for _ in range(3) for k in range(2, max_size + 1)]


def model_scan_cases(texts, sizes, max_n) -> int:
    """Cases of a suite that checks every model of sizes 1..max_n of each
    formula's closure, over chains of the given carrier sizes."""
    total = 0
    for text in texts:
        sig = ref.signature(ref.closure(ref.parse(text)))
        for k in sizes:
            total += sum(ref.model_space(sig, n, k) for n in range(1, max_n + 1))
    return total


class Suites(Workload):
    """A fixed list of SUITES calls, as `mvlogic suite NAME` makes them,
    at parameters that keep one round to about twelve seconds."""

    unit = "cases"
    SHORT_REPEATS = 4

    def __init__(self, name, seed, root):
        super().__init__(name, seed, root)
        blocks = corpus_blocks(root)
        corpus = blocks["valid"] + blocks["classical"] + blocks["invalid"]
        rng = random.Random(seed)
        tr_seed, clos_seed = rng.randrange(10**6), rng.randrange(10**6)
        axioms = [t for texts in blocks["fo_axioms"].values() for t in texts]
        # lemma-gc and lemma-gc1 take about 5 s each, the others under
        # 0.3 s.  The short ones run SHORT_REPEATS times per round, so that
        # the median operation time, which falls among them, rests on
        # more samples than the three or so rounds of a run.
        long = [
            ("lemma-gc", {"max_n": 1}, model_scan_cases(corpus, WNM_SUITE_SIZES, 1)),
            ("lemma-gc1", {"max_n": 1}, model_scan_cases(corpus, WNM_SUITE_SIZES, 1)),
        ]
        short = [
            ("lemma-tr", {"trials": 40, "seed": tr_seed, "exhaustive_n": 1},
             model_scan_cases(corpus, LEMMA_TR_SIZES, 1) + 3 * 40),
            ("thm41-smtl", {"bound": 2}, len(corpus)),
            ("thm41-bl", {"bound": 2}, len(corpus)),
            ("thm415-delta", {"bound": 2}, 3 * len(corpus)),
            ("lemma-luk", {"bound": 2}, 2 * len(blocks["classical_corpus"])),
            ("lemma-clos", {"trials": 20, "seed": clos_seed, "bound": 2}, 20),
            ("fo-axioms", {"max_n": 1, "max_chain_size": 4}, model_scan_cases(axioms, zoo_sizes(4), 1)),
            ("thm413-demo", {"bound": 2}, 6),
        ]
        self.calls = long + short * self.SHORT_REPEATS

    def setup(self):
        import mvlogic as mv

        self.ops = []
        for name, kwargs, cases in self.calls:
            run = lambda name=name, kwargs=kwargs: mv.SUITES[name](**kwargs)
            self.ops.append(Op(name, run, (lambda out, cases=cases: check_report(out, cases))))


def check_report(report, cases) -> Outcome:
    if isinstance(report, Exception):
        return Outcome(False, message=f"raised {report!r}")
    if report.failures:
        return Outcome(False, message=f"{len(report.failures)} failures: {report.failures[0]}")
    if report.cases != cases:
        return Outcome(False, message=f"{report.cases} cases, expected {cases}")
    return Outcome(True, cases)


# ---------------------------------------------------------------------------
# cli


@dataclass
class Completed:
    code: int
    stdout: str
    stderr: str


class Cli(Workload):
    """Sequential `python -m mvlogic` commands: chain make and check,
    taut, a refuting search, a search that finds none, and verify."""

    # Chains of one size and formulas over P and Q only, so that every
    # seed scans search spaces of the same size.
    CHAINS = (
        ("lukasiewicz", 4, False),
        ("lukasiewicz", 4, True),
        ("godel", 5, False),
        ("godel", 5, True),
        ("nm", 5, False),
        ("nm", 5, True),
        ("dp", 5, False),
        ("dp", 5, True),
    )

    def __init__(self, name, seed, root):
        super().__init__(name, seed, root)
        blocks = corpus_blocks(root)
        rng = random.Random(seed)
        self.spec = rng.choice(self.CHAINS)
        over_pq = {
            block: [t for t in blocks[block] if ref.signature(ref.parse(t)).keys() == {"P", "Q"}]
            for block in ("valid", "invalid")
        }
        # Formulas whose verdict the reference settles by its own
        # exhaustive scan, so that every round runs the same commands
        # with the same exit codes.

        def pick(block, make, settled):
            for text in rng.sample(over_pq[block], len(over_pq[block])):
                case = make(ref.parse(text))
                if settled(case):
                    return case
            raise ValueError(f"no {block} corpus formula settles on {self.spec}")

        self.taut_case = pick(
            "valid",
            lambda phi: GroundedCase(self.spec, phi, RANDOM_CAP, "valid"),
            lambda c: not c.reference_taut(None, True),
        )
        self.refute_case = pick(
            "invalid",
            lambda phi: SearchCase(self.spec, phi, RANDOM_CAP, block="invalid"),
            lambda c: ref.first_countermodel(c.chain, c.closed, c.max_size, c.values) is not None,
        )
        self.none_case = pick(
            "valid",
            lambda phi: SearchCase(self.spec, phi, RANDOM_CAP, block="valid"),
            lambda c: not c.reference_none(None, True),
        )
        self.rng = random.Random(seed + 1)
        self.workdir = os.path.join(root, ".perfbench", f"cli-{os.getpid()}")
        self.peak_kb = 0

    def command(self, *args):
        """The argv of one CLI call; traced calls go through the shim,
        which records spans inside the child."""
        if self.traced:
            out = os.path.join(self.workdir, f"spans-{len(self.trace_files)}.json")
            self.trace_files.append(out)
            shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
            return [sys.executable, shim, out, *args]
        return [sys.executable, "-m", "mvlogic", *args]

    def call(self, *args) -> Completed:
        """Run one command; its own resource usage is read as it is
        reaped, so that the peak memory is that of the commands."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        paths = [os.path.join(self.workdir, name) for name in ("stdout", "stderr")]
        with open(paths[0], "w+") as out, open(paths[1], "w+") as err:
            proc = subprocess.Popen(self.command(*args), stdout=out, stderr=err, env=env, cwd=self.root)
            watchdog = threading.Timer(120, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            done = Completed(proc.returncode, out.read(), err.read())
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return done

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024

    def setup(self):
        import mvlogic as mv
        import mvlogic.cli

        mvlogic.cli.build_parser()
        for case in (self.taut_case, self.refute_case, self.none_case):
            mv.parse(ref.to_text(case.phi))
        mv.chain_to_text(ChainCache(mv).get(self.spec))
        os.makedirs(self.workdir, exist_ok=True)
        chain_file = os.path.join(self.workdir, "c.chain")
        cert_file = os.path.join(self.workdir, "c.cert")
        family, param, delta = self.spec
        make = ["chain", "make", family] + ([] if param is None else [str(param)])
        make += ["--delta"] if delta else []
        make += ["-o", chain_file]
        taut, refute, none = self.taut_case, self.refute_case, self.none_case

        def search(case):
            return self.call("search", "--chain", chain_file, "--max-size", str(case.max_size),
                             "--formula", ref.to_text(case.phi))

        def save_cert(done):
            with open(cert_file, "w") as handle:
                handle.write(done.stdout)
            return done

        self.ops = [
            Op("chain make", lambda: self.call(*make), lambda d: self.check_make(d, chain_file)),
            Op("chain check", lambda: self.call("chain", "check", chain_file), self.check_check),
            Op("taut", lambda: self.call("taut", "--chain", chain_file, "--bound", str(taut.bound),
                                         "--formula", ref.to_text(taut.phi)), self.check_taut),
            Op("search refutes", lambda: save_cert(search(refute)), self.check_refute),
            Op("search finds none", lambda: search(none), self.check_none),
            Op("verify", lambda: self.call("verify", "--certificate", cert_file), self.check_verify),
        ]

    def warm(self):
        # Fill the bytecode cache before anything is timed.
        self.call("--version")

    def close(self):
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)

    # -- checks -----------------------------------------------------------

    def check_make(self, done, chain_file) -> Outcome:
        if done.code != 0:
            return Outcome(False, message=f"exit {done.code}: {done.stderr.strip()}")
        with open(chain_file) as handle:
            rows = [line.split() for line in handle if line.split()]
        chain = ref_chain(self.spec)
        carrier = chain.carrier
        index = {v: i for i, v in enumerate(carrier)}
        expected = [[str(index[chain.star(x, y)]) for y in carrier] for x in carrier]
        if (
            rows[:2] != [["mtlchain", "1"], ["size", str(len(carrier))]]
            or [Fraction(t) for t in rows[2][1:]] != list(carrier)
            or rows[3] != ["delta", "1" if chain.delta else "0"]
            or rows[4:] != expected
        ):
            return Outcome(False, message="chain file differs from the closed-form chain")
        return Outcome(True)

    def check_check(self, done) -> Outcome:
        want = f"all-pass: {ref_chain(self.spec).size} elements"
        if done.code != 0 or done.stdout.strip() != want:
            return Outcome(False, message=f"exit {done.code}: {done.stdout.strip()!r}")
        return Outcome(True)

    def check_taut(self, done) -> Outcome:
        case = self.taut_case
        want = f"taut-up-to-{case.bound}"
        if done.code != 0 or done.stdout.strip().splitlines()[-1:] != [want]:
            return Outcome(False, message=f"exit {done.code}: {done.stdout.strip()!r}")
        return Outcome(True, sum(case.chain.size**v for v in case.sizes))

    def check_refute(self, done) -> Outcome:
        if done.code != 1:
            return Outcome(False, message=f"exit {done.code}: {done.stderr.strip()}")
        return self.refute_case.check((done.stdout, True), self.rng, self.notes)

    def check_none(self, done) -> Outcome:
        want = f"taut-up-to-{self.none_case.max_size}"
        if done.code != 0 or done.stdout.strip() != want:
            return Outcome(False, message=f"exit {done.code}: {done.stdout.strip()!r}")
        return Outcome(True, self.none_case.total_space())

    def check_verify(self, done) -> Outcome:
        if done.code != 0 or done.stdout.strip() != "verified":
            return Outcome(False, message=f"exit {done.code}: {done.stdout.strip()!r}")
        return Outcome(True)


def build(name: str, seed: int, root: str) -> Workload:
    classes = {
        "grounded-taut": GroundedTaut,
        "direct-search": DirectSearch,
        "suites": Suites,
        "cli": Cli,
    }
    return classes[name](name, seed, root)
