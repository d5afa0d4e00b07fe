"""Todd-Coxeter coset enumeration (HLT strategy).

Relator-tracing with immediate coincidence processing over a
union-find of cosets; between scans, table entries name live cosets
only.  Completion certifies the index of the given subgroup; exceeding
the coset budget only means "not certified finite at this budget",
never "infinite".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from .presentation import Presentation
from .stallings import UnionFind
from .words import Word, free_reduce


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
    rows: tuple[tuple[int, ...], ...]  # compacted action table, complete only

    def digest(self) -> str:
        payload = repr((self.generators, self.rows)).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_json(self) -> dict:
        if self.status == "complete":
            return {"status": self.status, "index": self.index, "table_digest": self.digest()}
        return {"status": self.status, "limit": self.limit}


class _Enumerator(UnionFind):
    """Coset table over letters 2i (generator i) and 2i+1 (its inverse),
    so letter ^ 1 is the inverse letter.  Between calls every entry of a
    live coset names a live coset, so scans read the table directly; a
    coset is dead once the union-find has merged it into a lesser one."""

    def __init__(self, n_letters: int, max_cosets: int):
        super().__init__(1)
        self.n_letters = n_letters
        self.max_cosets = max_cosets
        self.table: list[list[int | None] | None] = [[None] * n_letters]
        self.live_count = 1

    def define(self, a: int, x: int):
        if self.live_count >= self.max_cosets:
            raise BoundExceeded(self.max_cosets)
        b = self.add()
        self.table.append([None] * self.n_letters)
        self.live_count += 1
        self.table[a][x] = b
        self.table[b][x ^ 1] = a

    def coincidence(self, a: int, b: int):
        """Identify live cosets a and b and every coincidence this forces:
        procedure COINCIDENCE of Holt, Eick & O'Brien, Handbook of
        Computational Group Theory (2005), 5.1.  A FIFO holds the dead
        cosets; each dead row's entries move to the survivors (the least
        coset of each class) and the row is dropped.  A root is read as
        parent[c] (c itself when live); find runs only if that is dead."""
        table, parent, find = self.table, self.parent, self.find
        queue = [max(a, b)]
        parent[queue[0]] = min(a, b)
        for e in queue:
            mu = parent[e]
            for x, f in enumerate(table[e]):
                if f is None:
                    continue
                table[f][x ^ 1] = None
                if parent[mu] != mu:
                    mu = find(mu)
                nu = parent[f]
                if parent[nu] != nu:
                    nu = find(nu)
                if (c := table[mu][x]) is not None:
                    d = nu
                elif (c := table[nu][x ^ 1]) is not None:
                    d = mu
                else:
                    table[mu][x], table[nu][x ^ 1] = nu, mu
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

    def scan_and_fill(self, start: int, word: tuple[int, ...]):
        """Trace word from live coset start, forwards and backwards,
        defining cosets until the two ends meet or one entry closes the
        gap (a deduction)."""
        table = self.table
        f, fi = start, 0
        b, bi = start, len(word)
        while True:
            while fi < bi and (nxt := table[f][word[fi]]) is not None:
                f, fi = nxt, fi + 1
            while bi > fi and (prev := table[b][word[bi - 1] ^ 1]) is not None:
                b, bi = prev, bi - 1
            if bi == fi:
                if f != b:
                    self.coincidence(f, b)
                return
            if bi == fi + 1:  # both slots are empty: the scans stopped there
                table[f][word[fi]] = b
                table[b][word[fi] ^ 1] = f
                return
            self.define(f, word[fi])


def _word_to_letters(w: Word, index: dict[str, int]) -> tuple[int, ...]:
    return tuple(index[g] * 2 + (0 if s == 1 else 1) for g, s in w.letters)


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
    subgroup = [free_reduce(w) for w in subgroup_generators]
    for w in subgroup:
        if extra := w.symbols() - index.keys():
            raise ValueError(f"subgroup word uses undeclared generator(s) {sorted(extra)}")
    relators = [_word_to_letters(r, index) for r in p.relators if r]
    subgroup_words = [_word_to_letters(w, index) for w in subgroup if w]

    if not p.generators:
        return CosetTable("complete", 1, None, p.generators, ((),))

    enum = _Enumerator(2 * len(p.generators), max_cosets)
    table, parent, scan, define = enum.table, enum.parent, enum.scan_and_fill, enum.define
    try:
        for w in subgroup_words:
            scan(0, w)
        alpha = 0
        while alpha < len(table):
            if parent[alpha] == alpha:
                for rel in relators:
                    scan(alpha, rel)
                    if parent[alpha] != alpha:
                        break
                else:
                    for x, entry in enumerate(table[alpha]):
                        if entry is None:
                            define(alpha, x)
            alpha += 1
    except BoundExceeded as exc:
        return CosetTable("bound_exceeded", None, exc.limit, p.generators, ())

    # compact: renumber live cosets in allocation order
    live = [a for a in range(len(table)) if parent[a] == a]
    number = {a: i for i, a in enumerate(live)}
    rows = tuple(tuple(number[e] for e in table[a]) for a in live)
    return CosetTable("complete", len(live), None, p.generators, rows)
