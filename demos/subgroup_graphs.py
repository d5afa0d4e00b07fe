"""Folded subgroup graphs of a free group on {a, b}.

Starting from a wedge of loops spelling the generating words, folding
produces a deterministic core graph whose loops at the base vertex are
exactly the subgroup elements.  Rank and a free basis fall out of a
spanning tree; membership is a single trace through the graph.
"""

from torlen import (
    build_subgroup_graph,
    closure_members,
    free_basis,
    graph_report,
    membership,
    nielsen_reduce,
)
from torlen.words import Word

ambient = ("a", "b")

examples = [
    ["a a", "b b", "a b a^-1 b^-1"],
    ["b^-1 a b", "b^-1 b^-1 a b b"],
    ["a a", "a a a"],
]

for texts in examples:
    gens = [Word.from_text(t) for t in texts]
    graph = build_subgroup_graph(ambient, gens)
    report = graph_report(graph)
    print("generators:", texts)
    print("  vertices:", report["vertices"], " edges:", report["edges"],
          " rank:", report["rank"])
    print("  basis:", report["basis"])
    print("  Nielsen-reduced input:",
          [w.to_text() for w in nielsen_reduce(gens)])
    for probe in ("a", "a a", "b^-1 a b", "a b"):
        w = Word.from_text(probe)
        print(f"  {probe!r} in subgroup: {membership(graph, w)}")
    print()

# the graph and the brute-force closure tell the same story
gens = [Word.from_text("a a"), Word.from_text("b a b^-1")]
graph = build_subgroup_graph(ambient, gens)
members = closure_members(gens, 6)
agreeing = sum(
    membership(graph, Word(l)) == (l in members)
    for l in members
)
print(f"closure oracle agrees on all {len(members)} members up to length 6:",
      agreeing == len(members))
print("basis via spanning tree:",
      [w.to_text() for w in free_basis(graph)])
