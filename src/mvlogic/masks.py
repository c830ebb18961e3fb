"""Bit-parallel evaluation of a closed formula over every model of a
finite model space at once: the engine of the exhaustive scans of
models and of propositional assignments.

Space owns the canonical order of the models of a signature over
{1..n} with `radix` digits a cell: cells by predicate name, then
argument tuple in lexicographic order, cell 0 the rank's most
significant digit.  A formula node over a finite chain of k elements is
k Python ints, its masks: bit r of mask v is set iff the node takes
carrier index v on the model of rank r.  Connectives combine masks with
& and |, which run in C, so no Fraction and no Python-level loop
touches a model; Fractions appear only when a rank is decoded back into
a Model.  A propositional formula is evaluated the same way over a
space whose cells are its variables: a Var reads its cell as an Atom
does.  A grid of a rational family, whose carrier is infinite, is
scanned through grid_tables: the family's operations tabulated on the
values the formula can reach from the grid.

A formula is compiled once per domain size and cell layout into a Code,
which holds no chain, and a Program binds that Code to one chain's
tables, size and leaf map.  A Compiled holds what a scan derives from
a formula without a chain, its Codes and its groundings; a caller that
checks one formula on many chains, with either checker, keeps one for
the length of its call.  A grid scan tabulates the family on the
instructions of the size-1 Code, which its first scan then runs.

Every scan is one loop, Space.scan, over aligned chunks of ranks whose
size is a power of the radix.  The first chunk holds about 2^10 ranks,
so an early refutation stays cheap; later chunks grow up to about 2^22
ranks, or less when the masks alive at once would exceed MASK_BUDGET_BITS.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .chains import ONE, ZERO, Chain, RationalFamilyChain
from .errors import EvaluationError, InvalidParameterError, UnsupportedChainError
from .formulas import (
    And,
    Atom,
    Bottom,
    Delta,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    StrongAnd,
    Var,
)
from .grounding import GroundedFormula, ground
from .semantics import Model, check_cap

FIRST_CHUNK_BITS = 1 << 10
MAX_CHUNK_BITS = 1 << 22
MASK_BUDGET_BITS = 1 << 28  # about 32 MB of masks alive at once
GRID_VALUE_CAP = 256  # reachable values of a rational-grid scan on the masks


def ranks(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Space:
    """The models of sig over {1..n} with `radix` digits a cell, in the
    canonical order; raises upfront on no digits, n < 1 or over the cap."""

    def __init__(self, sig: dict[str, int], n: int, radix: int):
        if radix < 1:
            raise InvalidParameterError("value set must be nonempty")
        if n < 1:
            raise InvalidParameterError("domain size must be >= 1")
        self.preds = sorted(sig)
        check_cap(radix, sum(n**arity for arity in sig.values()), "models")
        domain = range(1, n + 1)
        cells = [(p, a) for p in self.preds for a in product(domain, repeat=sig[p])]
        self._index(cells, n, radix)

    @classmethod
    def of_variables(cls, names: list[str], radix: int) -> "Space":
        """The assignments of `radix` digits to the variables `names`,
        read by Var leaves; the caller checks the cap."""
        space = cls.__new__(cls)
        space._index(names, 1, radix)
        space.preds = None
        return space

    def _index(self, cells: list, n: int, radix: int) -> None:
        self.cells = tuple(cells)
        self.n = n
        self.radix = radix
        self.size = radix ** len(cells)
        self.position = {cell: i for i, cell in enumerate(cells)}
        self._patterns: dict = {}

    def digits(self, rank: int) -> list[int]:
        """The digits of the given rank, cell 0 first."""
        radix = self.radix
        return [rank // radix**i % radix for i in range(len(self.cells) - 1, -1, -1)]

    def model(self, rank: int, values) -> Model:
        """The model of the given rank, digit d read as values[d]."""
        tables = {pred: {} for pred in self.preds}
        place = self.size
        for pred, args in self.cells:
            place //= self.radix
            tables[pred][args] = values[rank // place % self.radix]
        return Model(self.n, tables)

    def scan(self, *programs: "Program") -> Iterator[tuple["Chunk", list[list[int]]]]:
        """Aligned chunks covering the ranks in order, each with the masks
        of every program over it; a chunk grows by the radix once the
        ranks scanned so far are a multiple of it."""
        radix = self.radix
        live = sum(p.live_bits for p in programs) or 1
        limit = min(MAX_CHUNK_BITS, max(1, MASK_BUDGET_BITS // live))
        size = 1
        while radix > 1 and size * radix <= min(FIRST_CHUNK_BITS, limit, self.size):
            size *= radix
        start = 0
        while start < self.size:
            chunk = Chunk(self, start, size)
            yield chunk, [p.run(chunk) for p in programs]
            start += size
            if start % (size * radix) == 0 and size * radix <= limit:
                size *= radix

    def digit_patterns(self, place: int, size: int) -> list[int]:
        """Over an aligned chunk of `size` ranks, the mask of each digit
        of the cell whose place value is `place` < size."""
        key = (place, size)
        if key not in self._patterns:
            full = (1 << size) - 1
            x, length = (1 << place) - 1, place * self.radix
            while length < size:
                x |= x << length
                length *= 2
            x &= full
            self._patterns[key] = [(x << (d * place)) & full for d in range(self.radix)]
        return self._patterns[key]


class Chunk:
    """The ranks start .. start + size - 1 of a space."""

    def __init__(self, space: Space, start: int, size: int):
        self.space = space
        self.start = start
        self.size = size
        self.full = (1 << size) - 1

    def cell(self, i: int, leaf: tuple[int, ...], k: int) -> list[int]:
        """Masks of cell i, its digit d read as target index leaf[d]."""
        space = self.space
        place = space.radix ** (len(space.cells) - 1 - i)
        out = [0] * k
        if place >= self.size:  # the digit is constant over the chunk
            out[leaf[self.start // place % space.radix]] = self.full
        else:
            for d, pattern in enumerate(space.digit_patterns(place, self.size)):
                out[leaf[d]] |= pattern
        return out


class Code:
    """A closed formula compiled at a space's domain size into a
    straight-line list of mask operations, with no chain in it: cell
    positions, register numbers and the peak count of live registers
    depend on the formula and the cells alone, so one Code runs on
    every chain that a Program binds it to.

    Each (subformula, valuation of its free variables) becomes one
    instruction, and equal instructions are shared; a min or max of
    one distinct register is that register, as every quantifier is at
    domain size 1.  At domain size 1 every valuation is all-1, so the
    subformula alone is the key.  Registers are dropped after their
    last use; `peak` is the most registers alive at once.

    What the walk cannot compile it keeps, with whether a delta came
    before it, for the bind to raise: the first fault the walk meets
    is the one reported, as when the chain was known at compile time.
    """

    def __init__(self, phi: Formula, space: Space):
        self.instructions = code = []
        self.has_delta = False
        self.error = None
        made: dict[tuple, int] = {}
        seen: dict = {}
        free = None if space.n == 1 else _free_variables(phi)
        propositional = space.preds is None

        def emit(node, env):
            key = id(node) if free is None else (id(node), tuple(map(env.get, free[id(node)])))
            reg = seen.get(key)
            if reg is not None:
                return reg
            t = type(node)
            op = _BINARY.get(t)
            if op is not None:
                ins = (op, emit(node.left, env), emit(node.right, env))
            elif t is Var and propositional:
                ins = ("cell", space.position[node.name])
            elif t is Atom and not propositional:
                try:
                    args = tuple(env[x] for x in node.args)
                except KeyError as exc:
                    raise EvaluationError(f"unbound free variable {exc.args[0]}")
                ins = ("cell", space.position[(node.pred, args)])
            elif t is Bottom:
                ins = ("bottom",)
            elif t is Not:
                ins = ("neg", emit(node.sub, env))
            elif t is Delta:
                ins = ("delta", emit(node.sub, env))
                self.has_delta = True
            elif (t is Forall or t is Exists) and not propositional:
                op = "min" if t is Forall else "max"
                var, saved = node.var, env.get(node.var)
                ins = [op]
                for e in range(1, space.n + 1):
                    env[var] = e
                    ins.append(emit(node.body, env))
                if saved is None:
                    del env[var]
                else:
                    env[var] = saved
            else:
                raise EvaluationError(f"cannot evaluate node {node!r}")
            if op == "min" or op == "max":
                # Order and repeats do not matter; of one register, it.
                args = sorted(set(ins[1:]))
                if len(args) == 1:
                    seen[key] = args[0]
                    return args[0]
                ins = (op, *args)
            reg = made.get(ins)
            if reg is None:
                reg = made[ins] = len(code)
                code.append(ins)
                if ins[0] != "cell":
                    for a in ins[1:]:
                        last[a] = reg
            seen[key] = reg
            return reg

        last: dict[int, int] = {}  # register -> index of its last reader
        self.result = None
        try:
            self.result = emit(phi, {})
        except EvaluationError as exc:
            self.error = str(exc)
        del emit  # the closure refers to itself: free it without the cyclic GC
        self.drops = [[] for _ in code]
        for reg, i in last.items():
            if reg != self.result:
                self.drops[i].append(reg)
        live = peak = 0
        for drops in self.drops:
            live += 1
            peak = max(peak, live)
            live -= len(drops)
        self.peak = peak

    def require(self, chain: Chain | RationalFamilyChain | GridTables) -> None:
        """Raise what the Code cannot run on the chain, a missing delta first."""
        if self.has_delta and not chain.has_delta:
            raise UnsupportedChainError(f"chain {chain.name} has no delta operation")
        if self.error is not None:
            raise EvaluationError(self.error)


class Compiled:
    """A formula's chain-free work, made on first use and kept for the
    length of one call, so that each chain binds what the first made:
    its Codes, keyed by the space's domain size and cells, which fix the
    Code (the chain and the radix do not), and per domain size its
    grounding, the grounding's sorted variables and its own Compiled."""

    __slots__ = ("phi", "_codes", "_groundings")

    def __init__(self, phi: Formula):
        self.phi = phi
        self._codes: dict[tuple, Code] = {}
        self._groundings: dict[int, tuple] = {}

    def code(self, space: Space) -> Code:
        key = (space.n, space.cells)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = Code(self.phi, space)
        return code

    def grounding(self, n: int) -> tuple[GroundedFormula, list[str], "Compiled"]:
        """The closed formula's grounding at domain size n, its
        variables sorted, and its Compiled."""
        found = self._groundings.get(n)
        if found is None:
            g = ground(self.phi, n)
            found = self._groundings[n] = g, sorted(g.legend), Compiled(g.formula)
        return found


class Program:
    """A Code bound to a finite chain (or the GridTables of a rational
    family): its operation tables and size k, and `leaf`, by which a
    cell's digit d reads as carrier index leaf[d].  Binding raises what
    the Code cannot run on the chain, a delta it lacks first;
    `live_bits` bounds the mask bits per rank alive at once."""

    def __init__(self, code: Code, chain: Chain | GridTables, leaf: tuple[int, ...]):
        code.require(chain)
        self.code = code
        self.k = chain.size
        self.leaf = leaf
        self.tables = chain.operation_tables
        self.live_bits = code.peak * self.k

    def run(self, chunk: Chunk) -> list[int]:
        """The formula's masks over the chunk."""
        k, full, code = self.k, chunk.full, self.code
        regs: list = [None] * len(code.instructions)
        for i, (op, *args) in enumerate(code.instructions):
            if op == "cell":
                out = chunk.cell(args[0], self.leaf, k)
            elif op == "min" or op == "max":
                out = _fold([regs[a] for a in args], op == "min", k, full)
            elif op == "bottom":
                out = [full] + [0] * (k - 1)
            elif len(args) == 1:  # neg, delta: index v becomes table[v]
                out = [0] * k
                table = self.tables[op]
                for v, mask in enumerate(regs[args[0]]):
                    if mask:
                        out[table[v]] |= mask
            else:
                out = _pairs(self.tables[op], regs[args[0]], regs[args[1]], k)
            regs[i] = out
            for reg in code.drops[i]:
                regs[reg] = None
        return regs[code.result]


_BINARY = {StrongAnd: "star", Implies: "res", Iff: "iff", And: "min", Or: "max"}


def _pairs(table, a: list[int], b: list[int], k: int) -> list[int]:
    """table applied rank by rank: index table[i][j] wherever a takes i
    and b takes j."""
    out = [0] * k
    bs = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            row = table[i]
            for j, y in bs:
                out[row[j]] |= x & y
    return out


def _fold(args: list[list[int]], meet: bool, k: int, full: int) -> list[int]:
    """Rank-wise min (meet) or max of the args, through their up-set
    masks: min(a, b) >= v iff a >= v and b >= v."""
    acc = None
    for masks in args:
        up, run = [0] * k, 0
        for v in range(k - 1, 0, -1):
            run |= masks[v]
            up[v] = run
        if acc is None:
            acc = up
        elif meet:
            acc = [x & y for x, y in zip(acc, up)]
        else:
            acc = [x | y for x, y in zip(acc, up)]
    out, above = [0] * k, 0
    for v in range(k - 1, 0, -1):
        out[v] = acc[v] ^ above
        above = acc[v]
    out[0] = full ^ above
    return out


class GridTables:
    """A rational family's operations tabulated on `carrier`, the sorted
    values that a closed formula can reach from a grid: what a Program
    reads in place of a finite chain.  A table holds only the entries
    that the formula can reach, as dict rows; _pairs and the unary step
    read only where a mask is nonzero, so a miss would fail loudly."""

    def __init__(self, chain: RationalFamilyChain, carrier: list, operation_tables: dict):
        self.name = chain.name
        self.has_delta = chain.has_delta
        self.carrier = carrier
        self.size = len(carrier)
        self.operation_tables = operation_tables
        self.index = {v: i for i, v in enumerate(carrier)}.__getitem__


def grid_tables(chain: RationalFamilyChain, code: Code, values) -> GridTables | None:
    """The tables of a closed formula over grid `values` on a rational
    family, read from the formula's size-1 Code, or None as soon as
    more than GRID_VALUE_CAP values are reachable.  Raises first what
    the Code cannot run on the family, as binding it would.

    One pass over the instructions computes V(register), a superset of
    the values the register takes on any model, of any domain size,
    with cells in the grid: V(cell) is the grid, V(bottom) = {0}, min
    and max take the union (a quantifier at size 1 is its body), and
    every other op applies the family's own star_fn and residuum_fn to
    every pair of argument values, each (op, x, y) once.  The carrier
    is U, the union of every V with the grid, 0 and 1, in order, so
    that index order is value order.  An iff reads each residuum from
    the res entries when a res instruction has made it already."""
    code.require(chain)
    res = chain.residuum_fn
    fns = {
        "neg": lambda x, _: res(x, ZERO),
        "delta": lambda x, _: ONE if x == ONE else ZERO,
        "star": chain.star_fn,
        "res": res,
        "iff": None,  # the min of both residua, by index through residuum
    }
    memo: dict[str, dict] = {op: {} for op in fns}  # op -> (i, j) -> result
    found: list = []  # U in order of discovery; sets below hold its indices
    ids: dict = {}

    def intern(x) -> int:
        i = ids.get(x)
        if i is None:
            i = ids[x] = len(found)
            found.append(x)
        return i

    def residuum(i, j):
        r = memo["res"].get((i, j))
        return res(found[i], found[j]) if r is None else found[r]

    intern(ZERO)  # index 0, the value of bot
    intern(ONE)
    grid = set(map(intern, values))
    if len(found) > GRID_VALUE_CAP:
        return None
    sets: list[set] = []  # V of each register
    for op, *args in code.instructions:
        if op == "cell":
            out = grid
        elif op == "bottom":
            out = {0}
        elif op == "min" or op == "max":
            out = set().union(*(sets[a] for a in args))
        else:  # a unary op gets a dummy second argument
            a, b = sets[args[0]], sets[args[1]] if len(args) == 2 else (0,)
            fn, seen, out = fns[op], memo[op], set()
            for i in a:
                for j in b:
                    r = seen.get((i, j))
                    if r is None:
                        x = fn(found[i], found[j]) if fn else min(residuum(i, j), residuum(j, i))
                        r = seen[i, j] = intern(x)
                    out.add(r)
                if len(found) > GRID_VALUE_CAP:
                    return None
        sets.append(out)
    order = sorted(range(len(found)), key=found.__getitem__)
    pos = {i: p for p, i in enumerate(order)}
    tables: dict[str, dict] = {op: {} for op in fns}
    for op, seen in memo.items():
        for (i, j), r in seen.items():
            if op == "neg" or op == "delta":
                tables[op][pos[i]] = pos[r]
            else:
                tables[op].setdefault(pos[i], {})[pos[j]] = pos[r]
    return GridTables(chain, [found[i] for i in order], tables)


def _free_variables(phi: Formula) -> dict[int, tuple[str, ...]]:
    """Free individual variables of every node, keyed by id(node)."""
    out: dict[int, tuple[str, ...]] = {}

    def walk(node) -> frozenset:
        t = type(node)
        if t is Atom:
            free = frozenset(node.args)
        elif t is Forall or t is Exists:
            free = walk(node.body) - {node.var}
        elif t is Not or t is Delta:
            free = walk(node.sub)
        elif t in _BINARY:
            free = walk(node.left) | walk(node.right)
        else:
            free = frozenset()
        out[id(node)] = tuple(sorted(free))
        return free

    walk(phi)
    return out


def first_rank(space: Space, program: Program) -> tuple[int, int] | None:
    """The first rank at which the program's value is not the top
    index, with that value; None if there is none."""
    for chunk, (masks,) in space.scan(program):
        bad = chunk.full ^ masks[-1]
        if bad:
            low = next(ranks(bad))
            value = next(v for v, mask in enumerate(masks) if mask >> low & 1)
            return chunk.start + low, value
    return None
