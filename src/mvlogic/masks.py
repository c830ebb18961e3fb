"""Bit-parallel evaluation of a closed formula over every model of a
finite model space at once: the engine of the exhaustive scans of
models and of propositional assignments.

The models of a signature over domain {1..n} whose cells take one of
`radix` digits are ranked in the canonical order of `enumerate_models`:
cell 0 is the most significant digit, the last cell varies fastest.  A
formula node over a finite chain of k elements is k Python ints, its
masks: bit r of mask v is set iff the node takes carrier index v on the
model of rank r.  Connectives combine masks with & and |, which run in
C, so no Fraction and no Python-level loop touches a model; Fractions
appear only when a rank is decoded back into a Model.  A propositional
formula is evaluated the same way over a space whose cells are its
variables: a Var reads its cell as an Atom does.  A grid of a rational
family, whose carrier is infinite, is scanned through grid_tables: the
family's operations tabulated on the finitely many values the formula
can reach from the grid.

A scan walks the rank space in aligned chunks whose size is a power of
the radix.  The first chunk holds about 2^10 ranks, so an early
refutation stays cheap; later chunks grow up to about 2^22 ranks, or
less when the masks alive at once would exceed MASK_BUDGET_BITS.
"""

from __future__ import annotations

from typing import Iterator

from .chains import ONE, ZERO, Chain, RationalFamilyChain
from .errors import EvaluationError, UnsupportedChainError
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
from .semantics import Model, model_cells

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
    """The models of sig over {1..n} whose cells take `radix` digits.
    Raises upfront, as enumerate_models does, on an empty digit set, a
    domain below 1 or a model count above the enumeration cap."""

    def __init__(self, sig: dict[str, int], n: int, radix: int):
        self._index(model_cells(sig, n, radix), n, radix)
        self.preds = sorted(sig)

    @classmethod
    def of_variables(cls, names: list[str], radix: int) -> "Space":
        """The assignments of `radix` digits to the variables `names`,
        read by Var leaves; the caller checks the cap."""
        space = cls.__new__(cls)
        space._index(names, 1, radix)
        space.preds = None
        return space

    def _index(self, cells: list, n: int, radix: int) -> None:
        self.cells = cells
        self.n = n
        self.radix = radix
        self.size = radix ** len(cells)
        self.position = {cell: i for i, cell in enumerate(cells)}
        self._patterns: dict = {}

    def digits(self, rank: int) -> list[int]:
        """The digits of the given rank, cell 0 first."""
        out = []
        for _ in self.cells:
            rank, d = divmod(rank, self.radix)
            out.append(d)
        out.reverse()
        return out

    def model(self, rank: int, values) -> Model:
        """The model of the given rank, digit d read as values[d]."""
        tables = {pred: {} for pred in self.preds}
        for (pred, args), d in zip(self.cells, self.digits(rank)):
            tables[pred][args] = values[d]
        return Model(self.n, tables)

    def chunks(self, *programs: "Program") -> Iterator["Chunk"]:
        """Aligned chunks covering the ranks in order; a chunk grows by
        the radix once the ranks scanned so far are a multiple of it."""
        radix = self.radix
        live = sum(p.live_bits for p in programs) or 1
        limit = min(MAX_CHUNK_BITS, max(1, MASK_BUDGET_BITS // live))
        size = 1
        while radix > 1 and size * radix <= min(FIRST_CHUNK_BITS, limit, self.size):
            size *= radix
        start = 0
        while start < self.size:
            yield Chunk(self, start, size)
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


class Program:
    """A closed formula over a finite chain (or the GridTables of a
    rational family), instantiated at the space's domain size as a
    straight-line list of mask operations.  Cells are read through
    `leaf`: digit d is carrier index leaf[d].

    Each (subformula, valuation of its free variables) becomes one
    instruction, and equal instructions are shared; a min or max of
    one distinct register is that register, as every quantifier is at
    domain size 1.  At domain size 1 every valuation is all-1, so the
    subformula alone is the key.  Registers are dropped after their
    last use; `live_bits` bounds the mask bits per rank alive at once.
    """

    def __init__(
        self, chain: Chain | GridTables, phi: Formula, space: Space, leaf: tuple[int, ...]
    ):
        self.k = chain.size
        self.leaf = leaf
        self.tables = chain.operation_tables
        self.code = code = []
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
                if not chain.has_delta:
                    raise UnsupportedChainError(f"chain {chain.name} has no delta operation")
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
        self.result = emit(phi, {})
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
        self.live_bits = peak * self.k

    def run(self, chunk: Chunk) -> list[int]:
        """The formula's masks over the chunk."""
        k, full = self.k, chunk.full
        regs: list = [None] * len(self.code)
        for i, (op, *args) in enumerate(self.code):
            if op == "cell":
                out = chunk.cell(args[0], self.leaf, k)
            elif op == "min" or op == "max":
                out = _fold([regs[a] for a in args], op == "min", k, full)
            elif op == "bottom":
                out = [0] * k
                out[0] = full
            elif len(args) == 1:  # neg, delta: index v becomes table[v]
                out = [0] * k
                table = self.tables[op]
                for v, mask in enumerate(regs[args[0]]):
                    if mask:
                        out[table[v]] |= mask
            else:
                out = _pairs(self.tables[op], regs[args[0]], regs[args[1]], k)
            regs[i] = out
            for reg in self.drops[i]:
                regs[reg] = None
        return regs[self.result]


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
        self._index = {v: i for i, v in enumerate(carrier)}

    def index(self, x) -> int:
        return self._index[x]


class _CapPassed(Exception):
    pass


def grid_tables(chain: RationalFamilyChain, phi: Formula, values) -> GridTables | None:
    """The tables of phi over grid `values` on a rational family, or None
    as soon as more than GRID_VALUE_CAP values are reachable.

    One bottom-up pass computes V(node), a superset of the values the
    node takes on any model with cells in the grid: V(atom) is the grid,
    V(bot) = {0}, a quantifier keeps the set of its body, /\\ and \\/
    take the union, and the other connectives apply the family's own
    star_fn and residuum_fn to every pair of child values, each
    (operation, x, y) once.  The carrier is U, the union of every V with
    the grid, 0 and 1, in order, so that index order is value order."""
    res = chain.residuum_fn
    fns = {
        "neg": lambda x, _: res(x, ZERO),
        "delta": lambda x, _: ONE if x == ONE else ZERO,
        "star": chain.star_fn,
        "res": res,
        "iff": lambda x, y: min(res(x, y), res(y, x)),
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

    def walk(node) -> set:
        t = type(node)
        if t is Atom:
            return grid
        if t is Bottom:
            return {0}
        if t is Forall or t is Exists:
            return walk(node.body)
        if t is And or t is Or:
            return walk(node.left) | walk(node.right)
        if t is Not or t is Delta:  # unary: a dummy second argument
            op, a, b = "neg" if t is Not else "delta", walk(node.sub), (0,)
        elif t in _BINARY:
            op, a, b = _BINARY[t], walk(node.left), walk(node.right)
        else:
            return set()  # Program reports the node
        fn, seen, out = fns[op], memo[op], set()
        for i in a:
            for j in b:
                r = seen.get((i, j))
                if r is None:
                    r = seen[i, j] = intern(fn(found[i], found[j]))
                out.add(r)
            if len(found) > GRID_VALUE_CAP:
                raise _CapPassed
        return out

    intern(ZERO)  # index 0, the value of bot
    intern(ONE)
    grid = set(map(intern, values))
    if len(found) > GRID_VALUE_CAP:
        return None
    try:
        walk(phi)
    except _CapPassed:
        return None
    order = sorted(range(len(found)), key=found.__getitem__)
    pos = [0] * len(found)
    for p, i in enumerate(order):
        pos[i] = p
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


def first_failure(
    chain: Chain | GridTables, phi: Formula, sig: dict[str, int], n: int, values: tuple
) -> tuple[Model, int] | None:
    """The canonically first model of sig over {1..n}, cells drawn from
    values, on which the closed phi is not 1, with the carrier index of
    its value; None if there is none."""
    space = Space(sig, n, len(values))
    if values is chain.carrier:
        leaf = tuple(range(chain.size))
    else:
        leaf = tuple(map(chain.index, values))
    found = first_rank(space, Program(chain, phi, space, leaf))
    return found and (space.model(found[0], values), found[1])


def first_rank(space: Space, program: Program) -> tuple[int, int] | None:
    """The first rank at which the program's value is not the top
    index, with that value; None if there is none."""
    top = program.k - 1
    for chunk in space.chunks(program):
        masks = program.run(chunk)
        bad = chunk.full ^ masks[top]
        if bad:
            low = next(ranks(bad))
            value = next(v for v, mask in enumerate(masks) if mask >> low & 1)
            return chunk.start + low, value
    return None
