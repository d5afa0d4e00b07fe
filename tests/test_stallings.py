import hashlib
import json
import random
from collections import Counter, deque
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from test_golden import criterion_8_cases
from torlen.stallings import (
    SubgroupGraph,
    build_subgroup_graph,
    closure_members,
    free_basis,
    membership,
    nielsen_reduce,
)
from torlen.words import (
    Word,
    WordError,
    free_reduce,
    invert_ints,
    multiply_ints,
    reduce_ints,
    word_to_ints,
)

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
    basis = free_basis(graph)
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
        rebuilt = build_subgroup_graph(F2, free_basis(graph))
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


def test_nielsen_reduce_applies_the_triple_condition():
    # No product of two of these words is shorter than either, so a
    # pair-only reduction keeps b b a b a; but in (a b)^-1 . a b^-1 .
    # b b a b a both halves of the middle word cancel, and the triple
    # rule goes on to a basis of single letters.
    reduced = nielsen_reduce([Word.from_text(t) for t in ("a b^-1", "a b", "b b a b a")])
    assert sorted(max(w.letters, w.inverse().letters) for w in reduced) == [(("a", 1),), (("b", 1),)]


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


def pair_only_nielsen_reduce(generators):
    """``nielsen_reduce`` as it was when it checked pairs only (N0 and N1,
    no triple condition): int words over the sorted symbols, with them."""
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
    return sorted(ws), symbols


def reference_closure_members(generators, max_length=8):
    """``closure_members`` as it was when it explored tuples of ints over
    a pair-only Nielsen reduction, to radius ``max_length`` plus the
    longest basis word: the reference that later searches must match."""
    basis, symbols = pair_only_nielsen_reduce(generators)
    gens = []
    for t in basis:
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


def subgroup_ball_size(ambient, gens, radius):
    """How many reduced words of length ``radius`` or less lie in the
    subgroup: the reduced closed walks at the base of its folded graph.
    It bounds the states a closure exploration of that radius visits."""
    graph = build_subgroup_graph(ambient, gens)
    arcs = [(u, (g, 1), v) for u, g, v in graph.edges]
    arcs += [(v, (g, -1), u) for u, g, v in graph.edges]
    walks = Counter({(graph.base, None): 1})
    total = 1
    for _ in range(radius):
        longer = Counter()
        for (u, last), n in walks.items():
            for s, l, t in arcs:
                if s == u and (last is None or l != (last[0], -last[1])):
                    longer[t, l] += n
        walks = longer
        total += sum(n for (v, _), n in walks.items() if v == graph.base)
    return total


def capped_length(ambient, gens, max_length):
    """``max_length``, lowered until the reference's ball holds at most
    40,000 subgroup elements; F(a, b) at length 8 explores 39,365."""
    longest = max((len(w) for w in pair_only_nielsen_reduce(gens)[0]), default=0)
    while subgroup_ball_size(ambient, gens, max_length + longest) > 40_000:
        max_length -= 1
    return max_length


@st.composite
def small_subgroups(draw):
    """An ambient of 1-3 letters and 0-3 generator words of 0-5 letters,
    not necessarily reduced, so a word may cancel to the empty word."""
    ambient = ("a", "b", "c")[: draw(st.integers(min_value=1, max_value=3))]
    letter = st.tuples(st.sampled_from(ambient), st.sampled_from((1, -1)))
    gens = draw(st.lists(st.lists(letter, max_size=5), max_size=3))
    return ambient, [Word(tuple(g)) for g in gens]


@seed(17)
@settings(max_examples=200, deadline=None)
@given(small_subgroups(), st.integers(min_value=0, max_value=8))
@example((("a", "b"), [Word.gen("a"), Word.gen("b")]), 8)
@example((("a", "b"), [Word.from_text("a b b^-1 a^-1"), Word.from_text("b b")]), 8)
@example((("a",), [Word.from_text("a a^-1")]), 3)
@example((("a", "b", "c"), []), 0)
@example(  # one letter short of this radius, a member of length 3 is lost
    (("a", "b", "c"), [Word.from_text(t) for t in ("c^-1 c b c", "a^-1 b^-1", "c^-1 a b^-1 b c^-1")]),
    3,
)
def test_closure_members_matches_reference(case, max_length):
    ambient, gens = case
    max_length = capped_length(ambient, gens, max_length)
    assert closure_members(gens, max_length) == reference_closure_members(gens, max_length)


# reference_closure_members(gens, 8) on each of criterion 8's cases, by
# members_digest; to write the file afresh, run
#     PYTHONPATH=src python tests/test_stallings.py
CRITERION_8_DIGESTS = Path(__file__).parent / "golden" / "criterion_8_members.json"


def shortlex_positions(ambient, max_length):
    """Each reduced word of length ``max_length`` or less over ``ambient``
    -> its position in shortlex order, each generator before its inverse."""
    letters = [(g, s) for g in ambient for s in (1, -1)]
    words, level = [()], [()]
    for _ in range(max_length):
        level = [w + (x,) for w in level for x in letters if not w or w[-1] != (x[0], -x[1])]
        words += level
    return {w: i for i, w in enumerate(words)}


def members_digest(members, positions) -> str:
    """sha256 of a set of letter tuples as its sorted shortlex positions:
    exact, and cheaper than sorting the tuples themselves."""
    return hashlib.sha256(repr(sorted(map(positions.__getitem__, members))).encode()).hexdigest()


def test_closure_members_matches_reference_on_criterion_8():
    expected = json.loads(CRITERION_8_DIGESTS.read_text())
    cases = criterion_8_cases()
    assert len(expected) == len(cases)
    positions = shortlex_positions(F2, 8)
    for i, (gens, want) in enumerate(zip(cases, expected)):
        got = members_digest(closure_members(gens, 8), positions)
        assert got == want, f"case {i}: {[w.to_text() for w in gens]}"


def test_closure_members_matches_reference_on_seeded_subgroups():
    rng = random.Random(31)
    for _ in range(300):
        ambient = ("a", "b", "c")[: rng.randint(2, 3)]
        gens = [random_reduced_word(rng, ambient, 5) for _ in range(rng.randint(1, 3))]
        max_length = capped_length(ambient, gens, 6)
        assert closure_members(gens, max_length) == reference_closure_members(gens, max_length)


@settings(max_examples=300, deadline=None)
@given(small_subgroups())
# the criterion-8 subgroups whose pair-only reduction loses members at radius max_length
@example((("a", "b"), [Word.from_text(t) for t in ("b^-1 a", "b a", "b^-1 b^-1 b^-1 a^-1")]))
@example((("a", "b"), [Word.from_text(t) for t in ("a b^-1", "b a", "a^-1 a^-1 b")]))
@example((("a", "b"), [Word.from_text(t) for t in ("a a", "a b^-1", "a^-1 b^-1 a^-1 b")]))
@example((("a", "b"), [Word.from_text(t) for t in ("a^-1 b b", "b^-1 a^-1", "a b^-1")]))
def test_nielsen_reduce_output_is_nielsen_reduced(case):
    """N0, N1 and N2 of Lyndon & Schupp, ch. I.2, checked on every pair
    and triple of output words and inverses, and the same subgroup."""
    ambient, gens = case
    reduced = nielsen_reduce(gens)
    signed = [w for u in reduced for w in (u, u.inverse())]

    def length(*factors):
        return len(free_reduce(Word(sum((w.letters for w in factors), ()))))

    assert all(u and free_reduce(u) == u for u in reduced)
    for u, v in product(signed, repeat=2):
        if length(u, v):
            assert length(u, v) >= max(len(u), len(v))
    for u, v, w in product(signed, repeat=3):
        if length(u, v) and length(v, w):
            assert length(u, v, w) > len(u) - len(v) + len(w)
    assert build_subgroup_graph(ambient, reduced) == build_subgroup_graph(ambient, gens)


@settings(max_examples=300, deadline=None)
@given(small_subgroups())
@example((("a", "b"), [Word.from_text("a b a^-1")]))
@example((("a", "b"), [Word.from_text("a b a^-1"), Word.from_text("a b^-1 a^-1")]))
@example((("a", "b"), [Word.from_text("a b b^-1 a^-1")]))
def test_folded_graph_has_no_non_base_leaf(case):
    """Each vertex inside the loop of a reduced word has two distinct
    letters, and so does any vertex it is folded into: the folded wedge is
    its own core without pruning."""
    ambient, gens = case
    graph = build_subgroup_graph(ambient, gens)
    ends = Counter(v for u, _, w in graph.edges for v in (u, w))
    assert all(ends[v] >= 2 for v in range(graph.n_vertices) if v != graph.base)


def test_closure_member_counts_in_closed_form():
    # reduced words of length <= 8: 1 + 4 (1 + 3 + ... + 3^7) = 2 * 3^8 - 1
    # in F(a, b); a^-8 .. a^8 in <a>; the even powers among them in <a^2>
    assert len(closure_members([Word.gen("a"), Word.gen("b")], 8)) == 2 * 3**8 - 1
    assert len(closure_members([Word.gen("a")], 8)) == 17
    assert len(closure_members([Word.gen("a", 2)], 8)) == 9


def test_closure_members_rejects_negative_length():
    assert closure_members([Word.gen("a")], 0) == {()}
    with pytest.raises(ValueError, match="max_length must be >= 0"):
        closure_members([Word.gen("a")], -1)


def test_graph_report_shape():
    report = build_subgroup_graph(F2, [Word.from_text("a a")]).to_json()
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


if __name__ == "__main__":
    positions = shortlex_positions(F2, 8)
    digests = [
        members_digest(reference_closure_members(gens, 8), positions)
        for gens in criterion_8_cases()
    ]
    CRITERION_8_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
