"""Todd-Coxeter coset enumeration (HLT strategy).

Relator-tracing with immediate coincidence processing over a
union-find of cosets.  Completion certifies the index of the given
subgroup; exceeding the coset budget only means "not certified finite
at this budget", never "infinite".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

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
        out = {"status": self.status}
        if self.status == "complete":
            out["index"] = self.index
            out["table_digest"] = self.digest()
        else:
            out["limit"] = self.limit
        return out


class _Enumerator(UnionFind):
    """Coset table over letters 2i (generator i) and 2i+1 (its inverse),
    so letter ^ 1 is the inverse letter; the union-find merges
    coincident cosets into the least one."""

    def __init__(self, n_letters: int, max_cosets: int):
        super().__init__(1)
        self.n_letters = n_letters
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * n_letters]
        self.live_count = 1

    def define(self, a: int, x: int) -> int:
        if self.live_count >= self.max_cosets:
            raise BoundExceeded(self.max_cosets)
        b = self.add()
        self.table.append([None] * self.n_letters)
        self.live_count += 1
        self.table[a][x] = b
        self.table[b][x ^ 1] = a
        return b

    def set_entry(self, a: int, x: int, b: int):
        """Record a.x = b, processing any induced coincidences."""
        queue = [(a, x, b)]
        while queue:
            a, x, b = queue.pop()
            a, b = self.find(a), self.find(b)
            cur = self.table[a][x]
            if cur is not None and self.find(cur) != b:
                self.merge(self.find(cur), b, queue)
                a, b = self.find(a), self.find(b)
            self.table[a][x] = b
            cur = self.table[b][x ^ 1]
            if cur is not None and self.find(cur) != a:
                self.merge(self.find(cur), a, queue)
                a, b = self.find(a), self.find(b)
            self.table[self.find(b)][x ^ 1] = self.find(a)

    def merge(self, a: int, b: int, queue: list):
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        keep, drop = min(a, b), max(a, b)
        self.parent[drop] = keep
        self.live_count -= 1
        for x in range(self.n_letters):
            entry = self.table[drop][x]
            if entry is not None:
                queue.append((keep, x, self.find(entry)))

    def scan_and_fill(self, start: int, word: tuple[int, ...]):
        start = self.find(start)
        # forward scan
        f, fi = start, 0
        while fi < len(word):
            nxt = self.table[f][word[fi]]
            if nxt is None:
                break
            f, fi = self.find(nxt), fi + 1
        if fi == len(word):
            if f != start:
                q: list = []
                self.merge(f, start, q)
                self._drain(q)
            return
        # backward scan
        b, bi = start, len(word)
        while bi > fi:
            prev = self.table[b][word[bi - 1] ^ 1]
            if prev is None:
                break
            b, bi = self.find(prev), bi - 1
        if bi == fi:
            q = []
            self.merge(f, b, q)
            self._drain(q)
        elif bi == fi + 1:
            self.set_entry(f, word[fi], b)
        else:
            nxt = self.define(f, word[fi])
            self.scan_and_fill(start, word)
            return

    def _drain(self, queue: list):
        while queue:
            a, x, b = queue.pop()
            self.set_entry(a, x, b)


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
    index = {g: i for i, g in enumerate(p.generators)}
    subgroup = [free_reduce(w) for w in subgroup_generators]
    for w in subgroup:
        extra = w.symbols() - set(p.generators)
        if extra:
            raise ValueError(f"subgroup word uses undeclared generator(s) {sorted(extra)}")
    relators = [_word_to_letters(free_reduce(r), index) for r in p.relators]
    relators = [r for r in relators if r]
    subgroup_words = [_word_to_letters(w, index) for w in subgroup if w]

    if not p.generators:
        return CosetTable("complete", 1, None, p.generators, ((),))

    enum = _Enumerator(2 * len(p.generators), max_cosets)
    try:
        for w in subgroup_words:
            enum.scan_and_fill(0, w)
        alpha = 0
        while alpha < len(enum.table):
            if enum.find(alpha) != alpha:
                alpha += 1
                continue
            for rel in relators:
                enum.scan_and_fill(alpha, rel)
                if enum.find(alpha) != alpha:
                    break
            if enum.find(alpha) == alpha:
                for x in range(enum.n_letters):
                    if enum.find(alpha) != alpha:
                        break
                    if enum.table[alpha][x] is None:
                        enum.define(alpha, x)
            alpha += 1
    except BoundExceeded as exc:
        return CosetTable("bound_exceeded", None, exc.limit, p.generators, ())

    # compact: renumber live cosets in allocation order
    live = [a for a in range(len(enum.table)) if enum.find(a) == a]
    number = {a: i for i, a in enumerate(live)}
    rows = tuple(
        tuple(number[enum.find(enum.table[a][x])] for x in range(enum.n_letters))
        for a in live
    )
    return CosetTable("complete", len(live), None, p.generators, rows)
