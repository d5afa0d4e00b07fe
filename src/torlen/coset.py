"""Todd-Coxeter coset enumeration (HLT strategy).

Relator-tracing with immediate coincidence processing over a union-find
of cosets; between scans, table entries name live cosets only.  The
relators are prepared once, from their cyclic cores:

- a generator killed by a one-letter relator gets one self-loop column,
  filled as each coset is defined, and its letters are deleted from the
  other relators;
- an involution (a core x x or x^-1 x^-1) gets one column;
- the relators left, freely and cyclically reduced over the columns,
  are scanned shortest first (a stable sort, as ACE does), followed by
  every other cyclic conjugate of each, once up to inversion (the
  Mendelsohn variant of HLT).

Each scanned loop is a relator of the same group, so completion still
certifies the index of the given subgroup; exceeding the coset budget
only means "not certified finite at this budget", never "infinite".
Complete tables come back standardized (Holt, Eick & O'Brien, Handbook
of Computational Group Theory, 2005, ch. 5): their rows depend on the
action only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from .presentation import Presentation
from .stallings import UnionFind
from .words import Word, cyclic_split_ints, free_reduce, word_to_ints


class BoundExceeded(Exception):
    def __init__(self, limit: int):
        super().__init__(f"live cosets exceeded {limit}")
        self.limit = limit


@dataclass(frozen=True)
class CosetTable:
    status: str  # "complete" | "bound_exceeded"
    index: int | None
    limit: int | None
    generators: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]  # standardized action table, complete only

    def digest(self) -> str:
        payload = repr((self.generators, self.rows)).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_json(self) -> dict:
        if self.status == "complete":
            return {"status": self.status, "index": self.index, "table_digest": self.digest()}
        return {"status": self.status, "limit": self.limit}


class _Enumerator(UnionFind):
    """Coset table with one column per letter, where inv[x] is the column
    of x's inverse letter (x itself for an involution).  Each of loops
    is a killed generator's column, whose entry at every coset is that
    coset.  Between calls every entry of a live coset names a live
    coset, so scans read the table directly; a coset is dead once the
    union-find has merged it into a lesser one."""

    def __init__(self, inv: list[int], loops: list[int], max_cosets: int):
        super().__init__(1)
        self.inv = inv
        self.loops = loops
        self.max_cosets = max_cosets
        row: list[int | None] = [None] * len(inv)
        for c in loops:
            row[c] = 0
        self.table: list[list[int | None] | None] = [row]
        self.live_count = 1

    def define(self, a: int, x: int):
        if self.live_count >= self.max_cosets:
            raise BoundExceeded(self.max_cosets)
        b = self.add()
        row = [None] * len(self.inv)
        for c in self.loops:
            row[c] = b
        self.table.append(row)
        self.live_count += 1
        self.table[a][x] = b
        self.table[b][self.inv[x]] = a

    def coincidence(self, a: int, b: int):
        """Identify live cosets a and b and every coincidence this forces:
        procedure COINCIDENCE of Holt, Eick & O'Brien, Handbook of
        Computational Group Theory (2005), 5.1.  A FIFO holds the dead
        cosets; each dead row's entries move to the survivors (the least
        coset of each class) and the row is dropped.  A root is read as
        parent[c] (c itself when live); find runs only if that is dead."""
        table, parent, find, inv = self.table, self.parent, self.find, self.inv
        queue = [max(a, b)]
        parent[queue[0]] = min(a, b)
        for e in queue:
            mu = parent[e]
            for x, f in enumerate(table[e]):
                if f is None:
                    continue
                ix = inv[x]
                table[f][ix] = None
                if parent[mu] != mu:
                    mu = find(mu)
                nu = parent[f]
                if parent[nu] != nu:
                    nu = find(nu)
                if (c := table[mu][x]) is not None:
                    d = nu
                elif (c := table[nu][ix]) is not None:
                    d = mu
                else:
                    table[mu][x], table[nu][ix] = nu, mu
                    continue
                c = parent[c]
                if parent[c] != c:
                    c = find(c)
                if c != d:
                    c, d = (c, d) if c < d else (d, c)
                    parent[d] = c
                    queue.append(d)
            table[e] = None
        self.live_count -= len(queue)

    def scan_and_fill(self, start: int, word: tuple[int, ...], back: tuple[int, ...]):
        """Trace word from live coset start, forwards and backwards,
        defining cosets until the two ends meet or one entry closes the
        gap (a deduction).  back[i] is the inverse column of word[i]."""
        table = self.table
        f, fi = start, 0
        b, bi = start, len(word)
        while True:
            while fi < bi and (nxt := table[f][word[fi]]) is not None:
                f, fi = nxt, fi + 1
            while bi > fi and (prev := table[b][back[bi - 1]]) is not None:
                b, bi = prev, bi - 1
            if bi == fi:
                if f != b:
                    self.coincidence(f, b)
                return
            if bi == fi + 1:  # both slots are empty: the scans stopped there
                table[f][word[fi]] = b
                table[b][back[fi]] = f
                return
            self.define(f, word[fi])


def _prepare_relators(
    p: Presentation, index: dict[str, int]
) -> tuple[list[int], list[int], list[int], list[tuple[int, ...]]]:
    """Columns and scanned loops from the relators' cyclic cores, as the
    module docstring describes.  Returns (col, inv, loops, words):
    col[2i] and col[2i+1] are the columns of generator i and of its
    inverse, inv[c] is the inverse column of c, loops lists the
    self-loop columns and words are the loops to scan, in order."""
    cores = [cyclic_split_ints(word_to_ints(r, index))[1] for r in p.relators]
    killed = {abs(w[0]) - 1 for w in cores if len(w) == 1}
    one_column = killed | {abs(w[0]) - 1 for w in cores if len(w) == 2 and w[0] == w[1]}
    col, inv, loops = [], [], []
    for i in range(len(index)):
        c = len(inv)
        if i in one_column:
            col += [c, c]
            inv.append(c)
            if i in killed:
                loops.append(c)
        else:
            col += [c, c + 1]
            inv += [c + 1, c]

    skip = set(loops)
    words = []
    for core in cores:
        stack: list[int] = []
        for x in core:
            c = col[2 * abs(x) - 2 + (x < 0)]
            if c in skip:
                continue
            if stack and stack[-1] == inv[c]:
                stack.pop()
            else:
                stack.append(c)
        lo, hi = 0, len(stack)
        while hi - lo > 1 and stack[hi - 1] == inv[stack[lo]]:
            lo, hi = lo + 1, hi - 1
        if lo < hi:
            words.append(tuple(stack[lo:hi]))
    words.sort(key=len)

    def inverse(w: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(inv[c] for c in reversed(w))

    seen = {*words, *map(inverse, words)}
    conjugates = []
    for w in words:
        for k in range(1, len(w)):
            if (v := w[k:] + w[:k]) not in seen:
                seen.update((v, inverse(v)))
                conjugates.append(v)
    return col, inv, loops, words + conjugates


def todd_coxeter(
    p: Presentation,
    subgroup_generators: Iterable[Word] = (),
    max_cosets: int = 10_000,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

    Complete(n) certifies index n; with no subgroup generators, n is
    the group order when finite.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    index = {g: i for i, g in enumerate(p.generators)}
    subgroup = []
    for w in subgroup_generators:
        if extra := w.symbols() - index.keys():
            raise ValueError(f"subgroup word uses undeclared generator(s) {sorted(extra)}")
        subgroup.append(free_reduce(w))
    if not p.generators:
        return CosetTable("complete", 1, None, p.generators, ((),))

    col, inv, loops, words = _prepare_relators(p, index)

    def with_back(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return word, tuple(map(inv.__getitem__, word))

    relators = [with_back(w) for w in words]
    subgroup_words = [
        with_back(tuple(col[2 * index[g] + (s < 0)] for g, s in w.letters)) for w in subgroup if w
    ]

    enum = _Enumerator(inv, loops, max_cosets)
    table, parent, scan, define = enum.table, enum.parent, enum.scan_and_fill, enum.define
    try:
        for w, back in subgroup_words:
            scan(0, w, back)
        alpha = 0
        while alpha < len(table):
            if parent[alpha] == alpha:
                for rel, back in relators:
                    scan(alpha, rel, back)
                    if parent[alpha] != alpha:
                        break
                else:
                    for x, entry in enumerate(table[alpha]):
                        if entry is None:
                            define(alpha, x)
            alpha += 1
    except BoundExceeded as exc:
        return CosetTable("bound_exceeded", None, exc.limit, p.generators, ())

    # standardize: number the live cosets breadth-first from coset 0, taking
    # columns in order; an involution's two output columns read its one
    number = [-1] * len(table)
    number[0] = 0
    order = [0]
    for a in order:
        for b in table[a]:
            if number[b] < 0:
                number[b] = len(order)
                order.append(b)
    rows = tuple(tuple(number[table[a][c]] for c in col) for a in order)
    return CosetTable("complete", len(order), None, p.generators, rows)


def table_error(table: CosetTable, p: Presentation, subgroup: Iterable[Word] = ()) -> str | None:
    """Recheck a complete table from itself, the presentation and the
    subgroup generators, without enumerating: None when each column is a
    permutation, inverse columns invert, every relator closes at every
    coset, every subgroup generator fixes coset 0 and every coset is
    reached from coset 0; otherwise the first fault found."""
    if table.status != "complete":
        return f"table is {table.status}"
    rows, n = table.rows, table.index
    index = {g: i for i, g in enumerate(table.generators)}
    width = 2 * len(index)
    if table.generators != p.generators or len(rows) != n or any(len(r) != width for r in rows):
        return "table shape does not match the presentation"
    for x in range(width):
        column = [row[x] for row in rows]
        if sorted(column) != list(range(n)):
            return f"column {x} is not a permutation"
        if any(rows[d][x ^ 1] != c for c, d in enumerate(column)):
            return f"column {x ^ 1} does not invert column {x}"

    def trace(c: int, w: Word) -> int:
        for g, s in w.letters:
            c = rows[c][2 * index[g] + (s < 0)]
        return c

    for r in p.relators:
        for c in range(n):
            if trace(c, r) != c:
                return f"relator {r} does not close at coset {c}"
    for w in subgroup:
        if w.symbols() - index.keys() or trace(0, w) != 0:
            return f"subgroup generator {w} does not fix coset 0"
    # a coset is marked as it is pushed, so each is pushed once
    seen, stack = {0}, [0]
    while stack:
        for d in rows[stack.pop()]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return None if len(seen) == n else "some coset is not reached from coset 0"
