"""Subgroup graphs of free groups via Stallings folding.

A subgroup of a free group is represented as a folded, core-pruned,
base-pointed labeled graph.  Folding yields rank, a free basis, and a
membership test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .words import (
    Word,
    free_reduce,
    ints_to_word,
    invert_ints,
    multiply_ints,
    reduce_ints,
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
    into a vertex), connected, every non-base leaf pruned."""

    ambient: tuple[str, ...]
    base: int
    n_vertices: int
    edges: tuple[tuple[int, str, int], ...]  # (source, label, target)

    def __post_init__(self):
        # (vertex, label, sign) -> vertex reached, built once for
        # membership; not a field, so == and hash compare the graph only
        steps = {}
        for u, g, v in self.edges:
            steps[(u, g, 1)] = v
            steps[(v, g, -1)] = u
        object.__setattr__(self, "_steps", steps)

    def rank(self) -> int:
        return len(self.edges) - self.n_vertices + 1


def build_subgroup_graph(
    ambient: Sequence[str], generators: Iterable[Word], fold_seed: int | None = None
) -> SubgroupGraph:
    """Wedge of loops at the base, fully folded and core-pruned.

    ``fold_seed`` shuffles the fold order (used by the confluence
    tests); the folded result is independent of it.
    """
    ambient = tuple(ambient)
    ambient_set = set(ambient)
    words = [free_reduce(w) for w in generators]
    for w in words:
        extra = w.symbols() - ambient_set
        if extra:
            raise ValueError(f"generator word uses non-ambient symbol(s) {sorted(extra)}")

    uf = UnionFind(1)
    edges: list[tuple[int, str, int]] = []  # positively oriented
    base = 0
    for w in words:
        prev = base
        for k, (g, s) in enumerate(w.letters):
            nxt = base if k == len(w.letters) - 1 else uf.add()
            if s == 1:
                edges.append((prev, g, nxt))
            else:
                edges.append((nxt, g, prev))
            prev = nxt

    if fold_seed is not None:
        import random

        random.Random(fold_seed).shuffle(edges)

    # fold to a deterministic graph
    changed = True
    while changed:
        changed = False
        out: dict[tuple[int, str], int] = {}
        incoming: dict[tuple[int, str], int] = {}
        canon = set()
        for u, g, v in edges:
            u, v = uf.find(u), uf.find(v)
            if (u, g, v) in canon:
                continue
            if (u, g) in out and out[(u, g)] != v:
                uf.union(out[(u, g)], v)
                changed = True
                break
            if (v, g) in incoming and incoming[(v, g)] != u:
                uf.union(incoming[(v, g)], u)
                changed = True
                break
            out[(u, g)] = v
            incoming[(v, g)] = u
            canon.add((u, g, v))
        if not changed:
            edges = sorted(canon)

    # core-prune: drop non-base vertices of degree 1 (base always kept)
    base = uf.find(base)
    while True:
        degree: dict[int, int] = {}
        for u, g, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        leaves = {v for v, d in degree.items() if d == 1 and v != base}
        if not leaves:
            break
        edges = [e for e in edges if e[0] not in leaves and e[2] not in leaves]

    return _relabel_bfs(ambient, base, edges)


def _relabel_bfs(ambient, base, edges) -> SubgroupGraph:
    """Canonical form: breadth-first relabeling from the base with edge
    order given by (label order, direction)."""
    label_order = {g: i for i, g in enumerate(ambient)}
    adjacency: dict[int, list[tuple[int, int, int]]] = {}
    for u, g, v in edges:
        adjacency.setdefault(u, []).append((label_order[g], 0, v))
        adjacency.setdefault(v, []).append((label_order[g], 1, u))
    names = {base: 0}
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for _, _, v in sorted(adjacency.get(u, [])):
            if v not in names:
                names[v] = len(names)
                queue.append(v)
    # isolated base with no edges
    if base not in names:
        names[base] = 0
    new_edges = tuple(sorted((names[u], g, names[v]) for u, g, v in edges))
    return SubgroupGraph(ambient, 0, len(names), new_edges)


@dataclass(frozen=True)
class FreeBasis:
    words: tuple[Word, ...]


def _spanning_tree(graph: SubgroupGraph):
    """BFS spanning tree; returns (path words to each vertex, non-tree
    edges in discovery order)."""
    label_order = {g: i for i, g in enumerate(graph.ambient)}
    adjacency: dict[int, list[tuple[int, int, int, tuple[int, str, int]]]] = {}
    for edge in graph.edges:
        u, g, v = edge
        adjacency.setdefault(u, []).append((label_order[g], 0, v, edge))
        adjacency.setdefault(v, []).append((label_order[g], 1, u, edge))
    paths: dict[int, Word] = {graph.base: Word.empty()}
    tree_edges = set()
    queue = deque([graph.base])
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for _, direction, v, edge in sorted(adjacency.get(u, []), key=lambda t: t[:3]):
            if v not in paths:
                paths[v] = paths[u] * Word(((edge[1], 1 if direction == 0 else -1),))
                tree_edges.add(edge)
                queue.append(v)
    non_tree = [e for e in graph.edges if e not in tree_edges]
    return paths, non_tree


def free_basis(graph: SubgroupGraph) -> FreeBasis:
    """One basis word per non-tree edge: base-to-source path, the edge,
    target-to-base path."""
    paths, non_tree = _spanning_tree(graph)
    words = []
    for u, g, v in non_tree:
        w = paths[u] * Word(((g, 1),)) * paths[v].inverse()
        words.append(free_reduce(w))
    return FreeBasis(tuple(words))


def membership(graph: SubgroupGraph, w: Word) -> bool:
    """True iff the freely reduced word traces a base-to-base loop."""
    steps = graph._steps
    vertex = graph.base
    for g, s in free_reduce(w).letters:
        vertex = steps.get((vertex, g, s))
        if vertex is None:
            return False
    return vertex == graph.base


def graph_report(graph: SubgroupGraph) -> dict:
    return {
        "rank": graph.rank(),
        "basis": [w.to_text() for w in free_basis(graph).words],
        "vertices": graph.n_vertices,
        "edges": len(graph.edges),
    }


def nielsen_reduce(generators: Iterable[Word]) -> tuple[Word, ...]:
    """Nielsen-reduce a finite generating set: repeatedly drop trivial
    or redundant words and replace any word shortened by multiplication
    with another generator (or its inverse) on either side."""
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
        for i in range(len(ws)):
            for j in range(len(ws)):
                if i == j:
                    continue
                u, v = ws[i], ws[j]
                best = v
                for up in (u, invert_ints(u)):
                    for cand in (multiply_ints(up, v), multiply_ints(v, up)):
                        if len(cand) < len(best):
                            best = cand
                if len(best) < len(v):
                    ws[j] = best
                    changed = True
        ws = [w for w in ws if w]
    return tuple(ints_to_word(w, symbols) for w in sorted(ws))


def closure_members(
    generators: Iterable[Word], max_length: int = 8
) -> frozenset[tuple[tuple[str, int], ...]]:
    """Letter tuples of all subgroup elements of reduced length
    ``max_length`` or less, by breadth-first closure over a
    Nielsen-reduced basis.

    The exploration radius is max_length plus the longest basis word:
    with a Nielsen-reduced basis, partial products of a reduced
    expression never overshoot the final length by more than one
    factor, so the truncated closure is complete on the reported ball.
    (Closure over the raw generators at radius max_length is *not*:
    short members can require long intermediate products.)
    """
    basis = nielsen_reduce(list(generators))
    symbols = sorted({g for w in basis for g in w.symbols()})
    index = {g: i for i, g in enumerate(symbols)}
    gens = []
    for b in basis:
        t = word_to_ints(b, index)
        gens.append(t)
        gens.append(invert_ints(t))
    radius = max_length + max((len(b) for b in basis), default=0)
    seen = {()}
    queue = deque([()])
    while queue:
        cur = queue.popleft()
        last = cur[-1] if cur else 0
        room = radius - len(cur)
        for g in gens:
            if g[0] != -last:
                # nothing cancels: a plain concatenation
                if len(g) > room:
                    continue
                new = cur + g
            else:
                new = multiply_ints(cur, g)
                if len(new) > radius:
                    continue
            if new not in seen:
                seen.add(new)
                queue.append(new)
    letter = {}
    for i, g in enumerate(symbols):
        letter[i + 1] = (g, 1)
        letter[-(i + 1)] = (g, -1)
    return frozenset(tuple(map(letter.__getitem__, w)) for w in seen if len(w) <= max_length)


def closure_membership_oracle(
    generators: Iterable[Word], w: Word, max_length: int = 8
) -> bool:
    """Brute-force membership oracle, independent of the folded graph:
    answers for freely reduced words of length up to ``max_length`` by
    breadth-first closure (see closure_members)."""
    target = free_reduce(w)
    if len(target) > max_length:
        raise ValueError(f"oracle only answers words of length <= {max_length}")
    return target.letters in closure_members(generators, max_length)
