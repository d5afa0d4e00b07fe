import random

import pytest
from hypothesis import example, given, settings, strategies as st

from torlen.stallings import (
    SubgroupGraph,
    build_subgroup_graph,
    closure_members,
    free_basis,
    graph_report,
    membership,
    nielsen_reduce,
)
from torlen.words import Word, WordError, free_reduce

F2 = ("a", "b")


def random_reduced_word(rng, symbols, max_length):
    while True:
        n = rng.randint(1, max_length)
        letters = []
        for _ in range(n):
            g = rng.choice(symbols)
            s = rng.choice((1, -1))
            if letters and letters[-1] == (g, -s):
                continue
            letters.append((g, s))
        w = free_reduce(Word(tuple(letters)))
        if w:
            return w


def all_reduced_words(symbols, max_length):
    letters = [(g, s) for g in symbols for s in (1, -1)]
    frontier = [()]
    out = [Word.empty()]
    for _ in range(max_length):
        new = []
        for w in frontier:
            for l in letters:
                if w and w[-1] == (l[0], -l[1]):
                    continue
                nw = w + (l,)
                new.append(nw)
                out.append(Word(nw))
        frontier = new
    return out


def test_wedge_rank_and_basis():
    gens = [Word.from_text(t) for t in ("a a", "b b", "a b c^-1 c^-1")]
    graph = build_subgroup_graph(("a", "b", "c"), gens)
    assert graph.rank() == 3
    basis = free_basis(graph).words
    assert len(basis) == 3
    for w in basis:
        assert membership(graph, w)


def test_nielsen_schreier_sanity():
    # the whole ambient group folds to a rose with one loop per symbol
    graph = build_subgroup_graph(F2, [Word.gen("a"), Word.gen("b")])
    assert graph.n_vertices == 1
    assert graph.rank() == 2


def test_fold_ignores_generator_order_and_inversion():
    # a different fold order for the same subgroup gives the same graph
    rng = random.Random(5)
    cases = [[Word.from_text(t) for t in ("a b a^-1", "b b", "a b^-1 a b")]]
    cases += [[random_reduced_word(rng, F2, 5) for _ in range(rng.randint(2, 4))] for _ in range(30)]
    for gens in cases:
        reference = build_subgroup_graph(F2, gens)
        for _ in range(8):
            shuffled = rng.sample(gens, len(gens))
            shuffled = [g.inverse() if rng.random() < 0.5 else g for g in shuffled]
            assert build_subgroup_graph(F2, shuffled) == reference


def test_membership_accepts_generator_products():
    rng = random.Random(1)
    for _ in range(30):
        gens = [random_reduced_word(rng, F2, 4) for _ in range(rng.randint(1, 3))]
        graph = build_subgroup_graph(F2, gens)
        for _ in range(20):
            w = Word.empty()
            for _ in range(rng.randint(1, 3)):
                g = rng.choice(gens)
                w = w * (g if rng.random() < 0.5 else g.inverse())
            assert membership(graph, w)


def test_membership_rejects_outside_words():
    graph = build_subgroup_graph(F2, [Word.from_text("a a")])
    assert membership(graph, Word.from_text("a a a a"))
    assert not membership(graph, Word.from_text("a"))
    assert not membership(graph, Word.from_text("b"))
    assert not membership(graph, Word.from_text("c"))


def test_basis_generates_same_graph():
    rng = random.Random(2)
    for _ in range(25):
        gens = [random_reduced_word(rng, F2, 4) for _ in range(rng.randint(1, 3))]
        graph = build_subgroup_graph(F2, gens)
        rebuilt = build_subgroup_graph(F2, free_basis(graph).words)
        assert rebuilt == graph


def test_nielsen_reduce_basics():
    assert [w.to_text() for w in nielsen_reduce([Word.from_text("a a"), Word.from_text("a a a")])] == ["a"]
    reduced = nielsen_reduce([Word.from_text("a"), Word.from_text("a b")])
    assert len(reduced) == 2
    assert max(len(w) for w in reduced) == 1


def test_nielsen_reduce_preserves_subgroup():
    rng = random.Random(3)
    for _ in range(25):
        gens = [random_reduced_word(rng, F2, 4) for _ in range(rng.randint(1, 3))]
        reduced = nielsen_reduce(gens)
        assert build_subgroup_graph(F2, reduced) == build_subgroup_graph(F2, gens)


def test_closure_oracle_fixed_cases():
    conj = closure_members([Word.from_text("b^-1 a b"), Word.from_text("b^-1 b^-1 a b b")], 8)
    assert Word.from_text("b^-1 a b").letters in conj
    assert Word.from_text("b^-1 a a b").letters in conj
    assert Word.from_text("a").letters not in conj
    powers = closure_members([Word.from_text("a a"), Word.from_text("a a a")], 8)
    assert Word.from_text("a").letters in powers
    assert Word.from_text("b").letters not in powers


def test_closure_oracle_agrees_with_graph():
    rng = random.Random(4)
    words = all_reduced_words(F2, 6)
    for _ in range(40):
        gens = [random_reduced_word(rng, F2, 4) for _ in range(rng.randint(1, 3))]
        graph = build_subgroup_graph(F2, gens)
        members = closure_members(gens, 6)
        for w in words:
            assert membership(graph, w) == (w.letters in members)


def test_graph_report_shape():
    report = graph_report(build_subgroup_graph(F2, [Word.from_text("a a")]))
    assert report == {"rank": 1, "basis": ["a a"], "vertices": 2, "edges": 2}


def test_rejects_non_ambient_symbols():
    with pytest.raises(ValueError):
        build_subgroup_graph(("a",), [Word.from_text("b")])
    with pytest.raises(ValueError):
        build_subgroup_graph(("a",), [Word.from_text("a b b^-1")])


@pytest.mark.parametrize("ambient", [("x", "x"), ("a b", "x"), ("", "x"), ("x", "y^-1")])
def test_rejects_duplicate_or_malformed_ambient_names(ambient):
    with pytest.raises(ValueError):
        build_subgroup_graph(ambient, [Word.from_text("x x")])


def test_hand_built_graph_labels_are_checked():
    # free_basis decodes the edge labels without checking them again
    with pytest.raises(WordError):
        free_basis(SubgroupGraph(("a b",), 0, 1, ((0, "a b", 0),)))


# -- membership against the closure oracle, on words that need not be
# reduced (the walk may leave the graph through a cancelling pair and
# come back) and that may mention a letter outside the ambient group

MEMBER_BOUND = 4


@st.composite
def subgroups_with_queries(draw):
    ambient = ("a", "b", "c")[: draw(st.integers(2, 3))]
    letter = st.tuples(st.sampled_from(ambient), st.sampled_from((1, -1)))
    gens = draw(st.lists(st.lists(letter, min_size=1, max_size=3), min_size=1, max_size=3))
    gens = [tuple(g) for g in gens]
    # a query is a product of pieces: a generator or its inverse, one
    # letter (ambient or not), or a cancelling pair x x^-1
    stray = st.tuples(st.sampled_from(ambient + ("z",)), st.sampled_from((1, -1)))
    piece = st.one_of(
        st.tuples(st.sampled_from(gens), st.booleans()).map(
            lambda t: t[0] if t[1] else Word(t[0]).inverse().letters
        ),
        stray.map(lambda l: (l,)),
        stray.map(lambda l: (l, (l[0], -l[1]))),
    )
    queries = draw(st.lists(st.lists(piece, max_size=5), min_size=1, max_size=12))
    return ambient, gens, [sum(q, ()) for q in queries]


@settings(max_examples=150, deadline=None)
@given(subgroups_with_queries())
@example((("a", "b"), [(("a", 1),)], [(("b", 1), ("b", -1), ("a", 1)), (("a", 1), ("b", 1), ("b", -1))]))
@example((("a", "b"), [(("a", 1),), (("b", 1), ("a", 1))], [(("c", 1), ("c", -1))]))
def test_membership_matches_closure_on_unreduced_words(case):
    ambient, gens, queries = case
    gens = [Word(g) for g in gens]
    graph = build_subgroup_graph(ambient, gens)
    members = closure_members(gens, MEMBER_BOUND)
    for q in queries:
        w = Word(q)
        reduced = free_reduce(w)
        answer = membership(graph, w)
        assert answer == membership(graph, reduced), w.to_text()
        if len(reduced) <= MEMBER_BOUND:
            assert answer == (reduced.letters in members), w.to_text()


def test_membership_walks_back_over_cancelling_pairs():
    graph = build_subgroup_graph(F2, [Word.from_text("a")])
    assert membership(graph, Word.from_text("b b^-1 a"))
    assert membership(graph, Word.from_text("a b b^-1"))
    assert not membership(graph, Word.from_text("b a b^-1"))
    assert membership(graph, Word.from_text("c c^-1"))
    assert not membership(graph, Word.from_text("a c"))
