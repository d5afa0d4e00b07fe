"""Subgroup graphs of free groups via Stallings folding.

A subgroup of a free group is represented as a folded, base-pointed,
labeled core graph.  Folding yields rank, a free basis, and a
membership test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

from .words import (
    Word,
    check_symbol,
    free_reduce,
    ints_to_word,
    invert_ints,
    multiply_ints,
    packed_digits,
    reduce_ints,
    spell_packed,
    word_to_ints,
)


class UnionFind:
    def __init__(self, n: int = 0):
        self.parent = list(range(n))

    def add(self) -> int:
        x = len(self.parent)
        self.parent.append(x)
        return x

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)
        return min(ra, rb)


@dataclass(frozen=True)
class SubgroupGraph:
    """Folded core graph: deterministic (no repeated labels out of or
    into a vertex), connected, with no non-base leaf."""

    ambient: tuple[str, ...]
    base: int
    n_vertices: int
    edges: tuple[tuple[int, str, int], ...]  # (source, label, target)

    def __post_init__(self):
        # steps[vertex]: (label, sign) -> vertex reached, built once for
        # membership; not a field, so == and hash compare the graph only.
        # Labels are checked here, so free_basis can decode them unchecked.
        steps: list[dict[tuple[str, int], int]] = [{} for _ in range(self.n_vertices)]
        for u, g, v in self.edges:
            steps[u][(check_symbol(g), 1)] = v
            steps[v][(g, -1)] = u
        object.__setattr__(self, "_steps", steps)

    def rank(self) -> int:
        return len(self.edges) - self.n_vertices + 1

    def to_json(self) -> dict:
        return {
            "rank": self.rank(),
            "basis": [w.to_text() for w in free_basis(self)],
            "vertices": self.n_vertices,
            "edges": len(self.edges),
        }


def build_subgroup_graph(ambient: Sequence[str], generators: Iterable[Word]) -> SubgroupGraph:
    """Wedge of loops at the base, fully folded.  The ambient names must
    be valid generator names and distinct.  Each vertex inside the loop of
    a reduced word has two distinct letters, and so has any vertex it is
    folded into, so no non-base leaf arises and the graph is its core."""
    ambient = tuple(ambient)
    index = {check_symbol(g): i for i, g in enumerate(ambient)}
    if len(index) != len(ambient):
        twice = sorted({g for g in ambient if ambient.count(g) > 1})
        raise ValueError(f"ambient generator(s) {twice} named more than once")
    words = []
    for w in generators:
        try:
            words.append(reduce_ints(word_to_ints(w, index)))
        except KeyError:
            extra = sorted(w.symbols() - index.keys())
            raise ValueError(f"generator word uses non-ambient symbol(s) {extra}") from None

    # maps[v]: letter -> neighbour in both directions (an edge u -x-> v
    # is maps[u][x] = v and maps[v][-x] = u), over union-find roots only
    uf = UnionFind(1)
    work = []  # edges to add, (source, letter, target)
    for w in words:
        path = [0] + [uf.add() for _ in w[1:]] + [0]
        work += zip(path, w, path[1:])
    maps: list[dict[int, int]] = [{} for _ in uf.parent]

    # fold: an edge whose letter is already taken at either end merges
    # the two neighbours; the dropped vertex's edges go back on the list
    while work:
        u, x, v = work.pop()
        u, v = uf.find(u), uf.find(v)
        a, b = maps[u].get(x), maps[v].get(-x)
        if a is None and b is None:
            maps[u][x] = v
            maps[v][-x] = u
            continue
        if a == v:
            continue
        p, q = (a, v) if a is not None else (b, u)
        keep = uf.union(p, q)
        drop = p + q - keep
        dropped, maps[drop] = maps[drop], {}
        for y, t in dropped.items():
            if t != drop:
                del maps[t][-y]
            work.append((keep, y, t))

    names = {0: 0}
    for v in _bfs_tree(maps, 0):
        names[v] = len(names)
    edges = tuple(
        sorted(
            (names[u], ambient[x - 1], names[v])
            for u in names
            for x, v in maps[u].items()
            if x > 0
        )
    )
    return SubgroupGraph(ambient, 0, len(names), edges)


def _bfs_tree(maps, base) -> dict[int, tuple[int, int]]:
    """Breadth-first spanning tree from ``base`` that takes each vertex's
    letters in (label, direction) order: vertex -> (parent, letter) for
    every vertex but the base, in the order the search reaches them.  On
    a folded graph this order depends on nothing but the graph's shape."""
    tree = {}
    queue = deque([base])
    while queue:
        u = queue.popleft()
        step = maps[u]
        for x in sorted(step, key=lambda x: (abs(x), x < 0)):
            v = step[x]
            if v != base and v not in tree:
                tree[v] = (u, x)
                queue.append(v)
    return tree


def free_basis(graph: SubgroupGraph) -> tuple[Word, ...]:
    """One basis word per non-tree edge of the breadth-first spanning
    tree: base-to-source path, the edge, target-to-base path."""
    index = {g: i + 1 for i, g in enumerate(graph.ambient)}
    maps: list[dict[int, int]] = [{} for _ in range(graph.n_vertices)]
    for u, g, v in graph.edges:
        maps[u][index[g]] = v
        maps[v][-index[g]] = u
    paths = {graph.base: ()}
    for v, (u, x) in _bfs_tree(maps, graph.base).items():
        paths[v] = paths[u] + (x,)
    words = []
    for u, g, v in graph.edges:
        # a tree edge closes a loop that reduces to the empty word
        w = reduce_ints(paths[u] + (index[g],) + invert_ints(paths[v]))
        if w:
            words.append(ints_to_word(w, graph.ambient))
    return tuple(words)


def membership(graph: SubgroupGraph, w: Word) -> bool:
    """True iff the freely reduced word traces a base-to-base loop.

    The walk reads ``w`` as it stands.  A folded graph is deterministic
    in both directions, so a pair ``x x^-1`` read on the graph returns
    to where it started, and a walk that never leaves the graph ends
    where the reduced word's walk ends.  A reduced word that leaves the
    graph is no member; only an unreduced one is reduced and walked
    again."""
    steps = graph._steps
    letters = w.letters
    vertex = graph.base
    for letter in letters:
        vertex = steps[vertex].get(letter)
        if vertex is None:
            break
    else:
        return vertex == graph.base
    for (g, s), (h, t) in zip(letters, letters[1:]):
        if g == h and s != t:
            break
    else:
        return False
    vertex = graph.base
    for letter in free_reduce(w).letters:
        vertex = steps[vertex].get(letter)
        if vertex is None:
            return False
    return vertex == graph.base


def nielsen_reduce(generators: Iterable[Word]) -> tuple[Word, ...]:
    """Nielsen-reduce a finite generating set (Lyndon & Schupp,
    *Combinatorial Group Theory*, ch. I.2): for u, v, w among the words
    and their inverses,

    - N0: u != 1;
    - N1: |u v| >= |u|, |v| when u v != 1;
    - N2: |u v w| > |u| - |v| + |w| when u v != 1 and v w != 1.

    Trivial and repeated words are dropped, and a word that a product
    with another word (or its inverse) on either side shortens is
    replaced by it.  Under N1, N2 fails only where v = p q with
    |p| = |q|, u ends in p^-1 and w begins with q^-1; then u becomes
    u v if q^-1 < p, else w becomes v w.  The new word is as long as
    the old one and shares its left half, the first ceil(n/2) letters
    of a word of length n, while its inverse's left half starts with
    q^-1 (or p) where the old one started with p (or q^-1).  So each
    step lowers the total length, or keeps it and lowers one word's key
    (length, sorted pair of the left halves of it and its inverse), and
    the loop ends."""
    generators = list(generators)
    symbols = sorted({g for w in generators for g in w.symbols()})
    index = {g: i for i, g in enumerate(symbols)}
    ws = [t for t in (reduce_ints(word_to_ints(w, index)) for w in generators) if t]
    changed = True
    while changed:
        changed = False
        canon = {}
        for w in ws:
            canon[min(w, invert_ints(w))] = w
        ws = list(canon.values())
        for i, j in permutations(range(len(ws)), 2):
            u, v = ws[i], ws[j]
            products = [multiply_ints(a, b) for t in (u, invert_ints(u)) for a, b in ((t, v), (v, t))]
            best = min(products, key=len)
            if len(best) < len(v):
                ws[j], changed = best, True
        ws = [w for w in ws if w]
        if changed:  # the N2 rule needs N1 to hold
            continue
        for j, v in enumerate(ws):
            if len(v) % 2:
                continue
            h = len(v) // 2
            p, q_inv = v[:h], invert_ints(v[h:])
            signed = [(i, t) for i, w in enumerate(ws) if i != j for t in (w, invert_ints(w))]
            u_moves = [(i, multiply_ints(t, v)) for i, t in signed if t[-h:] == invert_ints(p)]
            w_moves = [(i, multiply_ints(v, t)) for i, t in signed if t[:h] == q_inv]
            if u_moves and w_moves:
                if q_inv < p:
                    i, ws[i] = u_moves[0]
                else:
                    i, ws[i] = w_moves[0]
                changed = True
                break
    return tuple(ints_to_word(w, symbols) for w in sorted(ws))


def closure_members(
    generators: Iterable[Word], max_length: int = 8
) -> frozenset[tuple[tuple[str, int], ...]]:
    """Letter tuples of all subgroup elements of reduced length
    ``max_length`` or less, by breadth-first closure over a
    Nielsen-reduced basis, to radius ``max_length``.

    The radius is complete.  Take a member w = u_1 ... u_n, each u_i a
    basis word or inverse and u_i u_(i+1) != 1.  N1 lets a neighbour
    cancel at most half of u_i and N2 not both halves, so every factor
    keeps a middle letter and cancellation stays between neighbours.
    With a_n the part of u_n that cancels against u_(n-1),
    |u_1 ... u_n| - |u_1 ... u_(n-1)| = |u_n| - 2|a_n| >= 0 by N1: no
    prefix of the path to w is longer than w.  (Closure over the raw
    generators is *not* complete at this radius: short members can
    require long intermediate products.)

    The search packs each reduced word into one int over the k basis
    symbols (``words.packed_digits``).  Appending a word is
    ``cur * base**len + code``; a cancelling letter is peeled off with
    ``cur // base``.
    """
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    basis = nielsen_reduce(list(generators))
    symbols = sorted({g for w in basis for g in w.symbols()})
    index = {g: i for i, g in enumerate(symbols)}
    k = len(symbols)
    base = 2 * k + 1
    digit = packed_digits(k)
    # one move per basis word and inverse g; for each suffix rest = g[i:],
    # the digit that cancels g[i], base**len(rest) and the code of rest
    moves = []
    for b in basis:
        t = word_to_ints(b, index)
        for g in (t, invert_ints(t)):
            size = len(g)
            cancels = [digit[-x] for x in g]
            shifts = [base ** (size - i) for i in range(size + 1)]
            codes = [0] * (size + 1)
            for i in reversed(range(size)):
                codes[i] = digit[g[i]] * shifts[i + 1] + codes[i + 1]
            moves.append((size, cancels, shifts, codes))
    seen = {0: 0}  # packed word -> its length
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        n = seen[cur]
        last = cur % base
        for size, cancels, shifts, codes in moves:
            if last != cancels[0]:
                # nothing cancels: a plain concatenation
                if n + size > max_length:
                    continue
                new, length = cur * shifts[0] + codes[0], n + size
            else:
                rest, i = cur // base, 1
                while i < size and rest % base == cancels[i]:
                    rest //= base
                    i += 1
                length = n + size - 2 * i
                if length > max_length:
                    continue
                new = rest * shifts[i] + codes[i]
            if new not in seen:
                seen[new] = length
                queue.append(new)
    letter = {digit[x]: (symbols[abs(x) - 1], 1 if x > 0 else -1) for x in digit}
    spelled = spell_packed(seen, base, letter)
    return frozenset(spelled[w] for w in seen)
