"""Todd-Coxeter coset enumeration (HLT strategy).

Relator-tracing with immediate coincidence processing over a union-find
of cosets; between scans, table entries name live cosets only.  The
relators are prepared once, from their cyclic cores:

- a generator killed by a one-letter relator gets no column: its
  letters are deleted from the other relators and the subgroup words,
  and each coset's entries for it, in the returned table, are the coset
  itself;
- an involution (a core x x or x^-1 x^-1) gets one column;
- the relators left, freely and cyclically reduced over the columns,
  are scanned shortest first (a stable sort, as ACE does), followed by
  every other cyclic conjugate of each, once up to inversion (the
  Mendelsohn variant of HLT);
- the subgroup words are freely reduced over the columns, as the
  relators are, and scanned at coset 0 first.

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
from .words import Word, cyclic_split_ints, word_to_ints


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


def _prepare_relators(
    p: Presentation, index: dict[str, int], subgroup: list[Word]
) -> tuple[list[int | None], list[int], list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Columns and scanned words from the relators' cyclic cores and the
    subgroup words, as the module docstring describes.  Returns (col,
    inv, words, subgroup_words): col[2i] and col[2i+1] are the columns
    of generator i and of its inverse (None for a killed generator),
    inv[c] is the inverse column of c, words are the loops to scan, in
    order, and subgroup_words the subgroup words over the columns."""
    cores = [cyclic_split_ints(word_to_ints(r, index))[1] for r in p.relators]
    killed = {abs(w[0]) - 1 for w in cores if len(w) == 1}
    involutions = {abs(w[0]) - 1 for w in cores if len(w) == 2 and w[0] == w[1]}
    col: list[int | None] = []
    inv: list[int] = []
    for i in range(len(index)):
        c = len(inv)
        if i in killed:
            col += [None, None]
        elif i in involutions:
            col += [c, c]
            inv.append(c)
        else:
            col += [c, c + 1]
            inv += [c + 1, c]

    def reduce(word: tuple[int, ...]) -> list[int]:
        """The word over the columns, killed letters deleted, freely reduced."""
        stack: list[int] = []
        for x in word:
            if (c := col[2 * abs(x) - 2 + (x < 0)]) is None:
                continue
            if stack and stack[-1] == inv[c]:
                stack.pop()
            else:
                stack.append(c)
        return stack

    words = []
    for core in cores:
        stack = reduce(core)
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
    subgroup_words = [tuple(reduce(word_to_ints(w, index))) for w in subgroup]
    return col, inv, words + conjugates, subgroup_words


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
    subgroup = list(subgroup_generators)
    for w in subgroup:
        if extra := w.symbols() - index.keys():
            raise ValueError(f"subgroup word uses undeclared generator(s) {sorted(extra)}")

    col, inv, words, subgroup_words = _prepare_relators(p, index, subgroup)
    # HLT fills a coset's empty entries once every loop has been scanned
    # there.  The loops come with all their cyclic conjugates, up to
    # inversion, so by then each column a loop holds, and its inverse, is
    # filled.  Each other column x is filled by scanning the freely
    # trivial loop x x^-1 (x x for an involution) last.
    filled = {c for w in words for x in w for c in (x, inv[x])}
    words += [(x, inv[x]) for x in range(len(inv)) if x not in filled]

    def with_back(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        return word, tuple(map(inv.__getitem__, word)), len(word)

    relators = [with_back(w) for w in words]

    # One row per coset, one column per letter; inv[x] is the column of
    # x's inverse letter (x itself for an involution).  Between scans
    # every entry of a live coset names a live coset, so scans read the
    # table directly; a coset is dead once the union-find has merged it
    # into a lesser one.
    cosets = UnionFind(1)
    parent, find, width = cosets.parent, cosets.find, len(inv)
    table: list[list[int | None] | None] = [[None] * width]
    live = 1

    def coincidence(a: int, b: int):
        """Identify live cosets a and b and every coincidence this forces:
        procedure COINCIDENCE of Holt, Eick & O'Brien, Handbook of
        Computational Group Theory (2005), 5.1.  A FIFO holds the dead
        cosets; each dead row's entries move to the survivors (the least
        coset of each class) and the row is dropped.  A root is read as
        parent[c] (c itself when live); find runs only if that is dead."""
        nonlocal live
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
        live -= len(queue)

    # HLT: scan every loop at each live coset in turn, the subgroup words
    # first at coset 0.  A coincidence keeps the lesser coset, so coset 0
    # is never merged away.
    first = [with_back(w) for w in subgroup_words] + relators
    alpha = 0
    while alpha < len(table):
        if parent[alpha] == alpha:
            for word, back, n in (first if alpha == 0 else relators):
                # trace word from alpha, forwards and backwards, defining
                # cosets until the two ends meet or one entry closes the
                # gap (a deduction); back[i] is the inverse column of word[i]
                f, fi = alpha, 0
                b, bi = alpha, n
                while True:
                    while fi < bi and (nxt := table[f][word[fi]]) is not None:
                        f, fi = nxt, fi + 1
                    while bi > fi and (prev := table[b][back[bi - 1]]) is not None:
                        b, bi = prev, bi - 1
                    if bi == fi:
                        if f != b:
                            coincidence(f, b)
                        break
                    if bi == fi + 1:  # both slots are empty: the scans stopped there
                        table[f][word[fi]] = b
                        table[b][back[fi]] = f
                        break
                    # define a coset at f's entry word[fi]
                    if live >= max_cosets:
                        return CosetTable("bound_exceeded", None, max_cosets, p.generators, ())
                    x, new = word[fi], len(parent)
                    parent.append(new)
                    row = [None] * width
                    table.append(row)
                    live += 1
                    table[f][x] = new
                    row[inv[x]] = f
                if parent[alpha] != alpha:
                    break
        alpha += 1

    # standardize: number the live cosets breadth-first from coset 0, taking
    # columns in order; an involution's two output columns read its one,
    # and a killed generator's read the coset's own number
    number = [-1] * len(table)
    number[0] = 0
    order = [0]
    for a in order:
        for b in table[a]:
            if number[b] < 0:
                number[b] = len(order)
                order.append(b)
    rows = tuple(
        tuple(k if c is None else number[table[a][c]] for c in col) for k, a in enumerate(order)
    )
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
