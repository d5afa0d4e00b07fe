import random
import time
from collections import deque
from dataclasses import replace
from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from torlen import torsion
from torlen.consequences import closure_ball, verify_factors
from torlen.constructions import build_chain, build_pjkl, build_pn
from torlen.freeprod import CyclicFactorSpec, is_torsion, normal_form
from torlen.presentation import (
    Presentation,
    abelianization,
    adjoin_relators,
    canonicalize,
    free_product,
)
from torlen.stallings import UnionFind
from torlen.torsion import (
    CertificateSearchReport,
    TorsionCertificate,
    check_certificates,
    in_certified_class,
    torsion_certificate_search,
    torsion_length,
    torsion_quotient_step,
)
from torlen.words import (
    Word,
    cyclic_key,
    cyclic_reduce,
    cyclic_split_ints,
    free_reduce,
    ints_to_word,
    invert_ints,
    reduce_ints,
    substitute,
    word_to_ints,
)


def P(gens, *relators):
    return Presentation(tuple(gens.split()), tuple(Word.from_text(r) for r in relators))


# -- closure ball ----------------------------------------------------------


def test_closure_ball_factors_verify():
    relators = [(1, 1), (2, 2), (1, 2, -3, -3)]  # x^2, y^2, x y z^-2
    ball = closure_ball(relators, 3, max_len=6, max_depth=8)
    for member in ball.parents:
        factors = ball.factors(member)
        assert verify_factors(member, factors, ball.relators)


def test_closure_ball_contains_relator_consequences():
    relators = [(1, 1)]
    ball = closure_ball(relators, 1, max_len=6, max_depth=6)
    assert (1, 1) in ball
    assert (1, 1, 1, 1) in ball
    assert (1,) not in ball


def reference_ball(relators, n_generators, max_len, max_depth, max_states):
    """The closure BFS with every child reduced from scratch: the
    reference that ``closure_ball``'s seam-only cancellation must match,
    down to the order in which states are found."""
    rels = tuple(reduce_ints(r) for r in relators)
    moves = []
    for ridx, rel in enumerate(rels):
        if not rel:
            continue
        for sign, oriented in ((1, rel), (-1, invert_ints(rel))):
            seen = set()
            for k in range(len(oriented)):
                rotated = oriented[k:] + oriented[:k]
                if rotated not in seen:
                    seen.add(rotated)
                    moves.append((ridx, sign, k, rotated))
    letters = list(range(1, n_generators + 1)) + [-g for g in range(1, n_generators + 1)]
    parents = {(): ((), ("root",))}
    queue = deque([((), 0)])
    while queue:
        word, depth = queue.popleft()
        if depth >= max_depth:
            continue
        children = [
            (reduce_ints(word[:pos] + rotated + word[pos:]), ("ins", pos, ridx, sign, k))
            for pos in range(len(word) + 1)
            for ridx, sign, k, rotated in moves
        ]
        children += [(reduce_ints((g,) + word + (-g,)), ("conj", g)) for g in letters]
        for new, move in children:
            if len(new) > max_len or new in parents:
                continue
            if len(parents) >= max_states:
                return parents, False
            parents[new] = (word, move)
            queue.append((new, depth + 1))
    return parents, True


def reference_factors(ball, iw):
    """``ClosureBall.factors`` as it was when every call replayed the
    moves from the root, reducing each word and conjugator whole: the
    reference that the factors kept per ball must match."""
    path = []
    cur = iw
    while cur != ():
        parent, move = ball.parents[cur]
        path.append(move)
        cur = parent
    path.reverse()
    factors = []
    word = ()
    for move in path:
        if move[0] == "ins":
            _, pos, ridx, sign, rot = move
            rel = ball.relators[ridx] if sign == 1 else invert_ints(ball.relators[ridx])
            pre = rel[:rot]
            factors.insert(0, (reduce_ints(word[:pos] + invert_ints(pre)), ridx, sign))
            word = reduce_ints(word[:pos] + rel[rot:] + pre + word[pos:])
        else:
            _, letter = move
            factors = [(reduce_ints((letter,) + c), ridx, sign) for c, ridx, sign in factors]
            word = reduce_ints((letter,) + word + (-letter,))
    assert word == iw
    return factors


small_relators = st.lists(
    st.lists(st.sampled_from((1, -1, 2, -2)), min_size=1, max_size=5).map(tuple),
    min_size=1,
    max_size=3,
)


@settings(deadline=None)
@given(
    small_relators,
    st.integers(min_value=2, max_value=3),  # with 3, one letter no relator uses
    st.integers(min_value=0, max_value=6),  # relators may be longer than the bound
    st.integers(min_value=1, max_value=4),
    st.sampled_from((1, 7, 50, 2000)),  # small budgets fire between two children
)
@example([(1, 2, -1)], 2, 4, 3, 2000)  # a b a^-1: its rotations are not reduced
@example([(1, 1, 2, -1, -1), (2, 2)], 2, 4, 3, 2000)
@example([(2, 1, -2)], 2, 4, 3, 50)  # a conjugation that cancels at the right end only
@example([(2,)], 2, 4, 3, 2000)  # b inserted after the b^-1 of a b^-1 a^-1 leaves the empty word
# the level-2 P_{2,2,2} relators x^2, y^2, x y z^-2 and the adjoined cores
# x^-1, y^-1: most inserts cancel at a seam, and at max_len 5 the state
# budget fires
@example([(1, 1), (2, 2), (1, 2, -3, -3), (-1,), (-2,)], 3, 4, 3, 2000)
@example([(1, 1), (2, 2), (1, 2, -3, -3), (-1,), (-2,)], 3, 5, 4, 2000)
# an insert whose left seam cancels, whose shift one place left cancels
# there too, and whose shift two places left does not
@example([(-1, -2, 3)], 3, 4, 3, 2000)
@example([(1, -1), (2, 2)], 2, 4, 3, 2000)  # a a^-1 reduces to the empty relator
# a rotation of 3 letters at room 0 fits only if 2 letters cancel.  Before
# a^-1 b^-1 a b, a b a cancels exactly 2 (giving a a b) and b a a only 1;
# after the a^-1 of a b^-1 a^-1 b, a^-1 a^-1 b^-1 has 1 letter to cancel
@example([(1, 1, 2)], 2, 4, 3, 2000)
# a^-3 after the b of b a a a b^-1 cancels all 3 letters, then b b^-1
@example([(1, 1, 1)], 2, 5, 3, 2000)
# relators that are not cyclically reduced, with reduced rotations of
# their cores (b c and c b; b b) that end with the letter before them
@example([(1, 2, 3, -1)], 3, 4, 3, 2000)
@example([(1, 2, 2, -1)], 2, 5, 3, 2000)
def test_closure_ball_matches_whole_word_reduction(
    relators, n_generators, max_len, max_depth, max_states
):
    ball = closure_ball(relators, n_generators, max_len, max_depth, max_states)
    parents, exhausted = reference_ball(relators, n_generators, max_len, max_depth, max_states)
    assert list(ball.parents.items()) == list(parents.items())
    assert ball.exhausted == exhausted


@seed(18)
@settings(max_examples=200, deadline=None)
@given(
    small_relators,
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.sampled_from((1, 7, 50, 2000)),  # small budgets stop the ball mid-level
    st.randoms(use_true_random=False),
)
# conjugating a^-1 b^-1 a b^-1 by a cancels the a^-1 that begins its first
# conjugator, a^-1 b^-1 a a
@example([(-1, -2, 1)], 2, 4, 3, 50, random.Random(0))
def test_closure_ball_factors_match_reference(
    relators, n_generators, max_len, max_depth, max_states, rnd
):
    args = (relators, n_generators, max_len, max_depth, max_states)
    ball = closure_ball(*args)
    expected = {state: reference_factors(ball, state) for state in ball.parents}
    states = list(ball.parents)
    rnd.shuffle(states)
    for state in states:
        assert ball.factors(state) == expected[state]
    # a fresh ball asked deepest state first (the parents map is in BFS order)
    ball = closure_ball(*args)
    for state in reversed(ball.parents):
        got = ball.factors(state)
        assert got == expected[state]
        got.append(((1,), 0, 1))  # the caller owns the list it gets
        assert ball.factors(state) == expected[state]
        got.clear()
        assert ball.factors(state) == expected[state]


@seed(26)
@settings(max_examples=300, deadline=None)
@given(
    small_relators,
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=3),
)
def test_closure_ball_budgets_are_monotone(relators, n_generators, max_len, max_depth, budgets):
    # budget contracts that hold whatever order the ball finds states in:
    # a smaller state budget finds a prefix of a larger one's states, and
    # an exhausted ball is the same at every larger budget.  5000 states
    # hold all 4,687 reduced words of up to 5 letters over 3 generators.
    balls = [
        closure_ball(relators, n_generators, max_len, max_depth, b)
        for b in sorted(budgets) + [5000]
    ]
    full = list(balls[-1].parents)
    assert balls[-1].exhausted
    for ball in balls:
        states = list(ball.parents)
        assert states == full[: len(states)]
        assert ball.exhausted == (states == full)


def test_closure_ball_factors_are_kept_per_ball():
    # over relators a b and a, the ball of length 1 reaches b^-1 from a,
    # the ball of length 2 from b^-1 a^-1
    short = closure_ball([(1, 2), (1,)], 2, max_len=1, max_depth=2)
    long = closure_ball([(1, 2), (1,)], 2, max_len=2, max_depth=2)
    assert short.factors((-2,)) == [((), 0, -1), ((), 1, 1)]
    assert long.factors((-2,)) == [((-2,), 1, 1), ((), 0, -1)]
    for ball in (short, long):
        assert all(ball.factors(s) == reference_factors(ball, s) for s in ball.parents)


def test_closure_ball_equality_and_repr_ignore_kept_factors():
    asked = closure_ball([(1, 1), (2, 2)], 2, max_len=4, max_depth=3)
    fresh = closure_ball([(1, 1), (2, 2)], 2, max_len=4, max_depth=3)
    for state in asked.parents:
        asked.factors(state)
    assert asked == fresh
    assert repr(asked) == repr(fresh)


@pytest.mark.parametrize(
    "budgets",
    [
        dict(max_len=-1, max_depth=3),  # would hold the empty word, longer than the bound
        dict(max_len=2, max_depth=-2),
        dict(max_len=2, max_depth=3, max_states=0),  # would hold one state over budget
        # 0 reads as the end of a word: the ball held (0,) and its conjugates by x
        dict(relators=[(0,)], max_len=3, max_depth=2),
        dict(relators=[(1, 5)], max_len=3, max_depth=2),  # x_5 in a one-generator ball
    ],
)
def test_closure_ball_rejects_budgets_it_cannot_honour(budgets):
    args = dict(relators=[(1, 1)], n_generators=1) | budgets
    if "relators" in budgets:
        message = "relator letters must be nonzero and at most n_generators in size"
    else:
        message = "max_len and max_depth must be >= 0, max_states >= 1"
    with pytest.raises(ValueError, match=message):
        closure_ball(**args)
    ball = closure_ball([(1, 1)], 1, max_len=0, max_depth=0, max_states=1)
    assert ball.parents == {(): ((), ("root",))} and ball.exhausted


# -- certified class and quotient steps ------------------------------------


def test_certified_class_membership():
    assert in_certified_class(build_pn(4))
    assert in_certified_class(build_pjkl(3, 4, 5))
    assert in_certified_class(P("a b"))  # free group
    assert in_certified_class(Presentation((), ()))
    assert in_certified_class(P("x y", "x x", "y y y"))  # C2 * C3
    # a commutator relator is outside the class
    assert not in_certified_class(P("a b", "a b a^-1 b^-1"))
    # two power relators on the same generator: not a tree shape
    assert not in_certified_class(P("x", "x x", "x x x"))
    link = "u v w^-1 w^-1"
    for p, expected in [
        (P("p q a b", "q a p^-1 p^-1", "p b q^-1 q^-1", "a a", "b b"), False),  # a cycle
        (P("u v w s", link, "u v s^-1 s^-1", "u u", "v v"), False),  # a shared child
        (P("u v w", link, "u u", "v v", "w w"), False),  # a head with a power
        (P("u v w", link, "u", "v v"), False),  # a leaf of order 1
        (P("u v w", link, "u u"), False),  # a leaf with no relator
        (P("u v w", "u w^-1 v w^-1", "u u", "v v"), False),  # the block w^-2 split
        (P("u v w", "u v w^-1", "u u", "v v"), False),  # a link with e = 1
        (P("u v w", "w^-1 w^-1 u v", "u u", "v v"), True),  # a rotation
        (P("u v w", "w w v^-1 u^-1", "u u", "v v"), True),  # the inverse
    ]:
        assert in_certified_class(p) == reference_in_certified_class(p) == expected


def reference_in_certified_class(p):
    """The recognizer as it was when it split the presentation into
    free-product components with a union-find and checked each one's
    tree shape by counting: the reference that the one-pass forest rule
    must match."""

    def classify(core):
        letters = core.letters
        if not letters:
            return None
        names = {g for g, _ in letters}
        signs = {s for _, s in letters}
        if len(names) == 1 and len(signs) == 1:
            return ("power", letters[0][0], len(letters) * letters[0][1])
        if len(names) != 3:
            return None
        for variant in (letters, core.inverse().letters):
            for k in range(len(variant)):
                rot = variant[k:] + variant[:k]
                if rot[0][1] == 1 and rot[1][1] == 1 and all(s == -1 for _, s in rot[2:]):
                    u, v = rot[0][0], rot[1][0]
                    tail = {g for g, _ in rot[2:]}
                    if len(tail) == 1 and u != v and len(rot) >= 4:
                        (w,) = tail
                        if w not in (u, v):
                            return ("link", u, v, w, len(rot) - 2)
        return None

    def component_in_class(gens, relinfo):
        if not relinfo:
            return len(gens) == 1
        powers, defined, child_count = {}, {}, {}
        for info in relinfo:
            if info is None:
                return False
            if info[0] == "power":
                _, g, e = info
                if g in powers:
                    return False
                powers[g] = e
            else:
                _, u, v, w, e = info
                if w in defined:
                    return False
                defined[w] = (u, v)
                for child in (u, v):
                    child_count[child] = child_count.get(child, 0) + 1
                    if child_count[child] > 1:
                        return False
        if set(powers) & set(defined):
            return False
        if not defined:
            return len(gens) == 1 and gens[0] in powers
        for g in gens:
            if g not in powers and g not in defined:
                return False
        if any(abs(e) < 2 for e in powers.values()):
            return False
        if len(gens) != 2 * len(defined) + 1:
            return False
        roots = [g for g in gens if child_count.get(g, 0) == 0]
        if len(roots) != 1 or roots[0] not in defined:
            return False
        seen = set()
        stack = [roots[0]]
        while stack:
            g = stack.pop()
            if g in seen:
                return False
            seen.add(g)
            if g in defined:
                stack.extend(defined[g])
        return seen == set(gens)

    cores = [c for c in (cyclic_reduce(r)[0] for r in p.relators) if c]
    index = {g: i for i, g in enumerate(p.generators)}
    uf = UnionFind(len(p.generators))
    for core in cores:
        first = index[core.letters[0][0]]
        for g, _ in core.letters[1:]:
            uf.union(first, index[g])
    gen_groups, rel_groups = {}, {}
    for i, g in enumerate(p.generators):
        gen_groups.setdefault(uf.find(i), []).append(g)
    for i, core in enumerate(cores):
        rel_groups.setdefault(uf.find(index[core.letters[0][0]]), []).append(i)
    return all(
        component_in_class(gens, [classify(cores[i]) for i in rel_groups.get(root, [])])
        for root, gens in gen_groups.items()
    )


@st.composite
def structured_presentations(draw):
    """1-7 generators and 0-6 relators, each a power, a linking relator
    u v w^-e (rotated, inverted, conjugated or with one letter replaced)
    or a random word."""
    gens = tuple(f"g{i}" for i in range(draw(st.integers(min_value=1, max_value=7))))
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    relators = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(("power", "power", "link", "link", "replaced", "random")))
        if kind == "power":
            e = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
            letters = [(draw(st.sampled_from(gens)), 1 if e > 0 else -1)] * abs(e)
        elif kind == "random":
            letters = draw(st.lists(letter, max_size=5))
        else:
            three = st.lists(st.sampled_from(gens), min_size=3, max_size=3, unique=len(gens) >= 3)
            u, v, w = draw(three)
            letters = [(u, 1), (v, 1)] + [(w, -1)] * draw(st.integers(min_value=1, max_value=3))
            if kind == "replaced":
                letters[draw(st.integers(0, len(letters) - 1))] = draw(letter)
            k = draw(st.integers(0, len(letters) - 1))
            letters = letters[k:] + letters[:k]
            if draw(st.booleans()):
                letters = [(g, -s) for g, s in reversed(letters)]
            if draw(st.booleans()):
                c = draw(letter)
                letters = [c] + letters + [(c[0], -c[1])]
        relators.append(Word(tuple(letters)))
    return Presentation(gens, tuple(relators))


@seed(19)
@settings(max_examples=500, deadline=None)
@given(structured_presentations())
@example(P("p q a b", "q a p^-1 p^-1", "p b q^-1 q^-1", "a a", "b b"))  # a two-link cycle
@example(P("u v w s", "u v w^-1 w^-1", "u v s^-1 s^-1", "u u", "v v"))  # a shared child
@example(P("u v w", "u v w^-1 w^-1", "u", "v v"))  # a leaf of order 1
def test_certified_class_matches_reference(p):
    assert in_certified_class(p) == reference_in_certified_class(p)


def test_certified_class_matches_reference_on_the_families():
    families = (
        [build_pn(n) for n in range(8)]
        + [build_pjkl(j, k, l) for j in range(2, 5) for k in range(2, 5) for l in range(2, 5)]
        + [build_chain(m) for m in range(5)]
    )
    for p in families:
        assert in_certified_class(p) and reference_in_certified_class(p)


def test_visible_torsion_generators():
    p = build_pjkl(2, 3, 4)
    assert torsion_quotient_step(p).killed == {"x", "y"}
    assert torsion_quotient_step(P("a b")).killed == frozenset()
    # power relator hidden behind a conjugation is still visible
    assert torsion_quotient_step(P("x y", "y^-1 x x y")).killed == {"x"}


def test_quotient_step_pjkl():
    step = torsion_quotient_step(build_pjkl(2, 3, 4))
    assert step.killed == {"x", "y"}
    assert step.sound
    assert step.presentation == P("z", "z^-1 z^-1 z^-1 z^-1")


def test_quotient_step_free_group_is_fixed_point():
    p = P("a b")
    step = torsion_quotient_step(p)
    assert step.presentation == p and step.killed == frozenset() and step.sound


def test_quotient_step_unsound_outside_class():
    step = torsion_quotient_step(P("a b", "a a", "a b a^-1 b^-1"))
    assert step.killed == {"a"}
    assert not step.sound


def test_quotient_ladder_pn():
    for n in range(1, 9):
        step = torsion_quotient_step(build_pn(n))
        assert canonicalize(step.presentation) == canonicalize(build_pn(n - 1))


def test_torsion_length_families():
    for n in range(7):
        report = torsion_length(build_pn(n))
        assert (report.value, report.exact, report.sound) == (n, True, True)
        assert len(report.trace) == n
    for j, k, l in ((2, 3, 4), (2, 2, 2), (5, 5, 5)):
        report = torsion_length(build_pjkl(j, k, l))
        assert report.value == 2 and report.exact


def test_torsion_length_trivial_cases():
    assert torsion_length(Presentation((), ())).value == 0
    report = torsion_length(P("a b"))
    assert report.value == 0 and report.exact


def test_torsion_length_inexact_flagged():
    report = torsion_length(P("a b", "a a", "a b a^-1 b^-1"))
    assert not report.exact
    assert report.value >= 1


def test_torsion_length_budget_leaves_the_value_inexact():
    # P_3 needs three steps; with one allowed, the one taken is all it reports
    report = torsion_length(build_pn(3), max_iter=1)
    assert (report.value, report.exact, len(report.trace)) == (1, False, 1)
    # the one step taken was sound, so the report says so
    assert report.sound
    # here the first step is not sound
    report = torsion_length(P("a b", "a a", "a b a^-1 b^-1"), max_iter=1)
    assert (report.value, report.exact, report.sound) == (1, False, False)


def test_non_hopf_ladder():
    for m in range(1, 6):
        step = torsion_quotient_step(build_chain(m))
        assert step.sound
        assert canonicalize(step.presentation) == canonicalize(build_chain(m - 1))


def test_product_compatibility():
    rng = random.Random(11)
    family = [build_pn(n) for n in range(4)] + [
        build_pjkl(j, k, l) for j, k, l in ((2, 2, 2), (2, 3, 4), (3, 3, 3))
    ]
    for _ in range(20):
        p, q = rng.choice(family), rng.choice(family)
        combined = free_product(p, q).presentation
        left = torsion_quotient_step(combined).presentation
        right = free_product(
            torsion_quotient_step(p).presentation,
            torsion_quotient_step(q).presentation,
        ).presentation
        assert canonicalize(left) == canonicalize(right)
        assert torsion_length(combined).value == max(
            torsion_length(p).value, torsion_length(q).value
        )


family_members = st.one_of(
    st.integers(min_value=0, max_value=3).map(build_pn),
    st.tuples(*[st.integers(min_value=2, max_value=6)] * 3).map(lambda jkl: build_pjkl(*jkl)),
)


def _product(presentations):
    return reduce(lambda p, q: free_product(p, q).presentation, presentations)


@settings(max_examples=60, deadline=None)
@given(st.lists(family_members, min_size=2, max_size=3))
def test_quotient_step_commutes_with_free_product(factors):
    # repeated members clash on every name, so the right factors are
    # renamed (x -> x_1, then x_2 for a third copy)
    combined = torsion_quotient_step(_product(factors))
    steps = [torsion_quotient_step(f) for f in factors]
    assert canonicalize(combined.presentation) == canonicalize(
        _product([s.presentation for s in steps])
    )
    assert len(combined.killed) == sum(len(s.killed) for s in steps)


# -- certificates ----------------------------------------------------------


def test_certificates_level_1():
    report = torsion_certificate_search(build_pjkl(2, 2, 2), level=1)
    words = {c.word.to_text(): c for c in report.certificates}
    assert words["x"].exponent == 2
    assert words["y"].exponent == 2
    assert "z" not in words
    for c in report.certificates:
        assert c.verify()


def test_certificates_level_2_reaches_z():
    report = torsion_certificate_search(build_pjkl(2, 2, 2), level=2)
    words = {c.word.to_text(): c for c in report.certificates}
    z = words["z"]
    assert z.exponent == 2 and z.level == 2
    assert z.adjoined  # carries the lower-level relator set
    assert z.supporting  # and the certificates backing it
    assert z.verify()


def cyclic_free_product(orders) -> tuple[CyclicFactorSpec, Presentation]:
    """<x, y, z | x^m_x, ...> over the first len(orders) of x, y, z, with
    no relator for an order None (a free factor)."""
    gens = "xyz"[: len(orders)]
    spec = CyclicFactorSpec(tuple(zip(gens, orders)))
    relators = tuple(Word.gen(g, m) for g, m in zip(gens, orders) if m is not None)
    return spec, Presentation(tuple(gens), relators)


def level_1_contract(spec, word_bound, exponent_bound) -> set:
    """Every (w, o) with w a nonempty freely reduced word of order o
    (1 for a trivial w, by is_torsion's witness), o <= exponent_bound and
    2|h| + o|c| <= word_bound, where w = h c h^-1 with c cyclically
    reduced: w^o reduces to h c^o h^-1, which has that length.  The words
    are enumerated outright, whatever order the search takes."""
    letters = [(g, s) for g, _ in spec.factors for s in (1, -1)]
    orders = dict(spec.factors)
    order_of: dict = {}
    pairs = set()
    stack = [()]
    while stack:
        w = stack.pop()
        if w:
            k = 0
            while len(w) - 2 * k >= 2 and w[k] == (w[-1 - k][0], -w[-1 - k][1]):
                k += 1
            c = w[k : len(w) - k]
            if c not in order_of:
                torsion, witness = is_torsion(spec, Word(c))
                order_of[c] = None
                if torsion:
                    element = witness.factor_element.letters
                    m = orders[element[0][0]] if element else 1
                    order_of[c] = m // gcd(len(element), m)
            o = order_of[c]
            if o is not None and o <= exponent_bound and 2 * k + o * len(c) <= word_bound:
                pairs.add((w, o))
        if len(w) < word_bound:
            stack.extend(w + (a,) for a in letters if not w or w[-1] != (a[0], -a[1]))
    return pairs


def contract_draws(rng: random.Random, n: int) -> list:
    """(orders, word_bound, exponent_bound) over 2-3 factors of order
    2-5 or free; three factors stop at word bound 6, which keeps the
    enumeration near 23,000 words."""
    draws = []
    for _ in range(n):
        k = rng.randint(2, 3)
        orders = tuple(rng.choice((2, 3, 4, 5, None)) for _ in range(k))
        draws.append((orders, rng.randint(4, 8 if k == 2 else 6), rng.randint(1, 6)))
    return draws


@pytest.mark.parametrize(
    "orders, word_bound, exponent_bound",
    [((2, 3), 8, 6), ((2, 3), 8, 3), ((2, 2), 6, 6)] + contract_draws(random.Random(4), 8),
)
def test_level_1_certificates_are_the_torsion_of_a_cyclic_free_product(
    orders, word_bound, exponent_bound
):
    # with a consequence budget of at least the word bound, every such
    # w^o is reached: relators inserted at one place, then |h| conjugations
    spec, p = cyclic_free_product(orders)
    report = torsion_certificate_search(p, 1, word_bound, exponent_bound, word_bound)
    assert report.exhaustive
    got = {(c.word.letters, c.exponent) for c in report.certificates}
    assert len(got) == len(report.certificates)
    assert got == level_1_contract(spec, word_bound, exponent_bound)


def test_level_1_certificates_stay_in_the_contract_when_the_depth_binds():
    rng = random.Random(7)
    draws = [((2, 3), 8, 6, 3)] + [(*d, rng.randint(1, d[1] - 1)) for d in contract_draws(rng, 4)]
    missing = []
    for orders, word_bound, exponent_bound, depth in draws:
        spec, p = cyclic_free_product(orders)
        report = torsion_certificate_search(p, 1, word_bound, exponent_bound, depth)
        got = {(c.word.letters, c.exponent) for c in report.certificates}
        expected = level_1_contract(spec, word_bound, exponent_bound)
        assert got <= expected
        missing.append(len(expected - got))
    assert missing[0] == 254  # of C2*C3's 612 at word bound 8: the depth condition is needed


def test_certificates_free_group_empty():
    report = torsion_certificate_search(P("a b"), level=1)
    assert report.certificates == ()
    report2 = torsion_certificate_search(P("a b"), level=2)
    assert report2.certificates == ()


def dies_in(q, w):
    """Whether the word ``w`` over ``q``'s generators is trivial in ``q``:
    exactly when every relator core is a power (a free product of cyclic
    groups, or free), else only in the abelianization."""
    cores = [cyclic_reduce(r)[0] for r in q.relators]
    if any(len(set(core.letters)) > 1 for core in cores):
        # finitely generated abelian groups are Hopfian, so this holds iff
        # the image of w in the abelianization is 0
        return abelianization(adjoin_relators(q, [w])) == abelianization(q)
    orders = dict.fromkeys(q.generators, 0)
    for core in cores:
        orders[core.letters[0][0]] = gcd(orders[core.letters[0][0]], len(core))
    w = substitute(w, {g: Word() for g, order in orders.items() if order == 1})
    spec = CyclicFactorSpec(tuple((g, order or None) for g, order in orders.items() if order != 1))
    return not normal_form(spec, w)


def assert_certificates_die(p, word_bound):
    # the recognizer and the consequence ball are two engines: a level-i
    # certificate word must be trivial in the i-th torsion quotient Q_i.
    # The check does not depend on the search, so it holds whatever order
    # the search finds its certificates in.
    report = torsion_length(p)
    assert report.exact
    killed = [set()]  # the generators killed in steps 1..i
    for _, step_killed, _ in report.trace:
        killed.append(killed[-1] | step_killed)
    for level in range(1, report.value + 1):
        for cert in torsion_certificate_search(p, level=level, word_bound=word_bound).certificates:
            q = report.trace[cert.level - 1][2]
            image = substitute(cert.word, {g: Word() for g in killed[cert.level]})
            assert dies_in(q, image), (cert.word, cert.level)


@pytest.mark.parametrize("p", [build_pjkl(2, 2, 2), build_pjkl(2, 3, 4), build_pn(3)])
def test_certificates_die_in_their_quotient(p):
    assert_certificates_die(p, 4)


def test_chain_certificates_die_in_their_quotient():
    # 10,378 certificates at word bound 3; at 4 the searches take about 20 s
    assert_certificates_die(build_chain(3), 3)


@seed(26)
@settings(max_examples=50, deadline=None)
@given(structured_presentations())
def test_class_member_certificates_die_in_their_quotient(p):
    assume(torsion_length(p).exact)
    assert_certificates_die(p, 3)


@pytest.mark.parametrize("budget", ["word_bound", "exponent_bound", "consequence_budget"])
def test_certificate_search_rejects_negative_budgets(budget):
    with pytest.raises(ValueError, match=f"{budget} must be >= 0"):
        torsion_certificate_search(build_pjkl(2, 2, 2), **{budget: -1})
    with pytest.raises(ValueError, match="level must be >= 1"):
        torsion_certificate_search(build_pjkl(2, 2, 2), level=0)
    with pytest.raises(ValueError, match="max_states must be >= 1"):
        torsion_certificate_search(build_pjkl(2, 2, 2), max_states=0)


def test_certificate_verification_rejects_tampering():
    report = torsion_certificate_search(P("x", "x x"), level=1)
    cert = next(c for c in report.certificates if c.word == Word.gen("x"))
    assert not replace(cert, exponent=cert.exponent + 1).verify()
    # the power is never built at a length the product cannot have
    forged = replace(cert, exponent=10**12)
    start = time.perf_counter()
    assert check_certificates(P("x", "x x"), [forged]) == [False]
    assert forged.verify() is False
    assert time.perf_counter() - start < 1


def test_supporting_certificates_are_verified_once(monkeypatch):
    report = torsion_certificate_search(build_pjkl(2, 2, 2), level=2, word_bound=4)
    supporting = {id(s): s for c in report.certificates for s in c.supporting}
    assert supporting and len(report.certificates) > len(supporting)
    calls = []
    real = torsion.verify_factors
    monkeypatch.setattr(
        torsion, "verify_factors", lambda *args: calls.append(1) or real(*args)
    )
    assert all(c.verify() for c in report.certificates)
    assert len(calls) == len(report.certificates) + len(supporting)


def test_search_rejects_bad_level():
    with pytest.raises(ValueError):
        torsion_certificate_search(P("x", "x x"), level=0)


def reference_certificate_search(
    p, level, word_bound, exponent_bound, consequence_budget, max_states
):
    """The certificate search as it was when it enumerated every reduced
    word up to ``word_bound``, in length-lexicographic order with each
    generator before its inverse, and looked up each power in the ball:
    the reference that ``torsion_certificate_search`` must match."""

    def reduced_words(n_gens, max_len):
        letters = [x for g in range(1, n_gens + 1) for x in (g, -g)]
        frontier = [()]
        for _ in range(max_len):
            new = []
            for w in frontier:
                for letter in letters:
                    if w and w[-1] == -letter:
                        continue
                    new.append(w + (letter,))
                    yield w + (letter,)
            frontier = new

    index = {g: i for i, g in enumerate(p.generators)}
    names = list(p.generators)
    relators = [word_to_ints(r, index) for r in p.relators]
    adjoin_length_bound = max(1, word_bound // 2)
    certificates = ()
    by_core = {}
    exhaustive = True
    for current_level in range(1, level + 1):
        if current_level > 1:
            existing = {cyclic_key(r) for r in relators}
            adjoined = []
            for core, cert in sorted(by_core.items(), key=lambda kv: (len(kv[0]), kv[0])):
                if core and len(core) <= adjoin_length_bound and core not in existing:
                    existing.add(core)
                    adjoined.append((core, cert))
            relators = relators + [core for core, _ in adjoined]
            adjoined_words = tuple(ints_to_word(core, names) for core, _ in adjoined)
            supporting = tuple(cert for _, cert in adjoined)
        else:
            adjoined_words = ()
            supporting = ()
        ball = closure_ball(
            relators, len(p.generators), word_bound, consequence_budget, max_states
        )
        exhaustive = exhaustive and ball.exhausted
        rel_words = [ints_to_word(r, names) for r in ball.relators]
        found = []
        new_by_core = {}
        for w in reduced_words(len(p.generators), word_bound):
            head, core, tail = cyclic_split_ints(w)
            for n in range(1, exponent_bound + 1):
                power = head + core * n + tail
                if len(power) > word_bound:
                    break
                if power not in ball:
                    continue
                factors = tuple(
                    (ints_to_word(c, names), rel_words[ridx], sign)
                    for c, ridx, sign in reference_factors(ball, power)
                )
                cert = TorsionCertificate(
                    ints_to_word(w, names), n, current_level, factors, adjoined_words, supporting
                )
                found.append(cert)
                new_by_core.setdefault(cyclic_key(w), cert)
                break
        certificates = tuple(found)
        by_core = new_by_core
    return CertificateSearchReport(
        level, word_bound, exponent_bound, consequence_budget, exhaustive, certificates
    )


def certificate_fields(cert):
    return (
        cert.word,
        cert.exponent,
        cert.level,
        cert.factors,
        cert.adjoined,
        tuple(s.word for s in cert.supporting),
    )


@st.composite
def small_presentations(draw):
    names = ("a", "b", "c")[: draw(st.integers(min_value=1, max_value=3))]
    letters = [x for g in range(1, len(names) + 1) for x in (g, -g)]
    relators = draw(
        st.lists(st.lists(st.sampled_from(letters), min_size=1, max_size=5), max_size=3)
    )
    return Presentation(names, tuple(ints_to_word(r, names) for r in relators))


@seed(16)
@settings(max_examples=300, deadline=None)
@given(
    small_presentations(),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=8),
    st.sampled_from((1, 4, 30, 200, 200_000)),  # small budgets leave the ball unexhausted
)
@example(build_pjkl(2, 2, 2), 2, 5, 6, 8, 200_000)
@example(build_pjkl(2, 2, 2), 2, 5, 6, 8, 60)  # the second ball runs out of states
@example(build_pjkl(2, 3, 4), 1, 5, 6, 8, 200_000)
def test_certificate_search_matches_reference(
    p, level, word_bound, exponent_bound, consequence_budget, max_states
):
    args = (p, level, word_bound, exponent_bound, consequence_budget, max_states)
    report = torsion_certificate_search(*args)
    expected = reference_certificate_search(*args)
    assert report.exhaustive == expected.exhaustive
    assert [certificate_fields(c) for c in report.certificates] == [
        certificate_fields(c) for c in expected.certificates
    ]
    assert report == expected


@seed(26)
@settings(max_examples=150, deadline=None)
@given(
    small_presentations(),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=5),
    st.sampled_from((1, 4, 30, 200)),
)
def test_certified_words_survive_a_larger_budget(
    p, level, word_bound, exponent_bound, consequence_budget, max_states
):
    # a word certified within a small state budget is certified within the
    # full one, with an exponent no larger, at every level: a larger budget
    # certifies more words below, so it adjoins more relators
    full = torsion_certificate_search(p, level, word_bound, exponent_bound, consequence_budget)
    assert full.exhaustive
    exponents = {c.word: c.exponent for c in full.certificates}
    small = torsion_certificate_search(
        p, level, word_bound, exponent_bound, consequence_budget, max_states
    )
    for cert in small.certificates:
        assert exponents[cert.word] <= cert.exponent


# -- a frozen certificate checker ------------------------------------------


def reference_certificate_error(cert, base_relators, checked):
    """The certificate rules as the benchmark's reference states them,
    frozen here over (name, sign) letter tuples: every factor's relator
    is a base relator or adjoined, the conjugate product freely reduces
    to word^exponent, adjoined cores and supporting certificates pair
    up, each supporting certificate is one level down, its cyclic core
    is its adjoined core up to rotation and inversion, and it passes the
    same check.  Returns None when the certificate holds, else a reason."""

    def reduce_letters(letters):
        stack = []
        for name, sign in letters:
            if stack and stack[-1] == (name, -sign):
                stack.pop()
            else:
                stack.append((name, sign))
        return tuple(stack)

    def invert(letters):
        return tuple((name, -sign) for name, sign in reversed(letters))

    def core_of(letters):
        w = reduce_letters(letters)
        while len(w) >= 2 and w[0] == (w[-1][0], -w[-1][1]):
            w = w[1:-1]
        return w

    def rotation_up_to_inverse(a, b):
        if len(a) != len(b):
            return False
        return not a or any(a == v[k:] + v[:k] for v in (b, invert(b)) for k in range(len(v)))

    if id(cert) in checked:
        return checked[id(cert)]
    error = None
    adjoined = {w.letters for w in cert.adjoined}
    expanded = []
    for conj, rel, sign in cert.factors:
        if rel.letters not in base_relators and rel.letters not in adjoined:
            error = "a factor relator is neither a base relator nor adjoined"
            break
        body = rel.letters if sign == 1 else invert(rel.letters)
        expanded.extend(conj.letters + body + invert(conj.letters))
    if error is None:
        target = reduce_letters(cert.word.letters * cert.exponent)
        if reduce_letters(tuple(expanded) + invert(target)):
            error = "factors do not multiply to word^exponent"
    if error is None and len(cert.adjoined) != len(cert.supporting):
        error = "adjoined cores and supporting certificates differ in number"
    if error is None:
        for core, support in zip(cert.adjoined, cert.supporting):
            if support.level != cert.level - 1:
                error = "supporting certificate is not one level down"
            elif not rotation_up_to_inverse(core.letters, core_of(support.word.letters)):
                error = "adjoined core is not the core of its supporting certificate"
            else:
                error = reference_certificate_error(support, base_relators, checked)
            if error:
                break
    checked[id(cert)] = error
    return error


def tampered_copies(p, cert):
    """Copies of ``cert`` that each break one certificate rule."""
    first_conj, first_rel, first_sign = cert.factors[0]
    longest = max(map(len, p.relators + cert.adjoined), default=0)
    not_a_relator = Word.gen(p.generators[0], longest + 1)
    copies = [
        replace(cert, exponent=cert.exponent + 1),
        replace(cert, factors=((first_conj, not_a_relator, first_sign),) + cert.factors[1:]),
        replace(cert, word=cert.word * Word.gen("q")),  # q is no generator of p
    ]
    if cert.supporting:
        copies.append(
            replace(cert, supporting=tuple(replace(s, level=cert.level) for s in cert.supporting))
        )
        copies.append(replace(cert, adjoined=(cert.adjoined[0] ** 2,) + cert.adjoined[1:]))
    return copies


@seed(20)
@settings(max_examples=300, deadline=None)
@given(
    small_presentations(),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=8),
    st.sampled_from((1, 4, 30, 200, 200_000)),  # small budgets leave the ball unexhausted
)
@example(build_pjkl(2, 2, 2), 2, 5, 6, 8, 200_000)
@example(build_pjkl(2, 2, 2), 2, 5, 6, 8, 60)
@example(build_pjkl(2, 3, 4), 1, 5, 6, 8, 200_000)
def test_search_certificates_pass_the_reference_checker(
    p, level, word_bound, exponent_bound, consequence_budget, max_states
):
    report = torsion_certificate_search(
        p, level, word_bound, exponent_bound, consequence_budget, max_states
    )
    assert "q" not in p.generators
    base = {free_reduce(r).letters for r in p.relators}
    checked = {}
    assert [reference_certificate_error(c, base, checked) for c in report.certificates] == [
        None
    ] * len(report.certificates)
    assert check_certificates(p, report.certificates) == [True] * len(report.certificates)
    certs = report.certificates
    sample = {id(c): c for c in certs[:1] + certs[len(certs) // 2 :][:1] + certs[-1:]}
    for cert in sample.values():
        for bad in tampered_copies(p, cert):
            assert reference_certificate_error(bad, base, {}) is not None
            assert check_certificates(p, [bad]) == [False]


def test_forged_certificate_fails_the_checker_but_not_verify():
    p = build_pjkl(2, 2, 2)
    z, q, empty = Word.gen("z"), Word.gen("q"), Word.empty()
    forged = TorsionCertificate(z, 1, 1, ((empty, z, 1),))
    assert check_certificates(p, [forged]) == [False]
    assert forged.verify()  # verify() checks the product only, as documented
    # a letter outside the presentation fails the certificate, and raises nothing
    assert check_certificates(p, [TorsionCertificate(q, 1, 1, ((empty, q, 1),))]) == [False]
    # w^0 = 1 says nothing about the order of w
    assert check_certificates(p, [TorsionCertificate(z, 0, 1, ())]) == [False]
    assert TorsionCertificate(z, 0, 1, ()).verify() is False


def test_checker_rechecks_a_shared_pair_once(monkeypatch):
    p = build_pjkl(2, 2, 2)
    report = torsion_certificate_search(p, level=2, word_bound=4)
    supporting = {id(s): s for c in report.certificates for s in c.supporting}
    checks, reduced, multiplied = [], [], []
    real_check, real_reduce = torsion._reduced_power, torsion.conjugate_ints
    real_multiply = torsion.multiply_ints
    monkeypatch.setattr(
        torsion, "_reduced_power", lambda *args: checks.append(1) or real_check(*args)
    )
    monkeypatch.setattr(
        torsion, "conjugate_ints", lambda *args: reduced.append(args) or real_reduce(*args)
    )
    monkeypatch.setattr(
        torsion, "multiply_ints", lambda *args: multiplied.append(1) or real_multiply(*args)
    )
    assert all(check_certificates(p, report.certificates))
    # one product check per certificate, and one per supporting certificate
    assert len(checks) == len(report.certificates) + len(supporting)
    # each distinct (conjugator, relator, sign) is reduced once per call
    reached = list(report.certificates) + list(supporting.values())
    triples = {(id(c), id(r), s) for cert in reached for c, r, s in cert.factors}
    assert len(reduced) == len(triples) < sum(len(cert.factors) for cert in reached)
    # one product per factor of each distinct certificate
    assert len(multiplied) == sum(len(cert.factors) for cert in reached) == 1220
    # a supporting certificate one level off fails every certificate it backs
    victim = report.certificates[0].supporting[0]
    moved = replace(victim, level=2)
    certs = [
        replace(c, supporting=tuple(moved if s is victim else s for s in c.supporting))
        for c in report.certificates
    ]
    assert check_certificates(p, certs) == [victim not in c.supporting for c in report.certificates]
    # a copy one level up shares its (adjoined, supporting) pair with the original
    z = next(c for c in report.certificates if c.word == Word.gen("z"))
    assert check_certificates(p, [z, replace(z, level=3)]) == [True, False]


def test_checker_judges_shared_factor_chains_per_certificate():
    # the search's certificates share their factor triples, by identity,
    # along the paths of one ball; tampered copies keep the triples around
    # the tampered one, so a checker that remembers products of shared
    # triples must still judge each copy on its own
    p = build_pjkl(2, 2, 2)
    certs = list(torsion_certificate_search(p, level=2, word_bound=4).certificates)
    base = {free_reduce(r).letters for r in p.relators}
    # the middle triple shared by the most certificates, with its sign
    # flipped in one forged triple that every copy shares
    uses = {}
    for cert in certs:
        for triple in cert.factors[1:]:
            uses.setdefault(id(triple), (triple, []))[1].append(cert)
    middle, holders = max(uses.values(), key=lambda u: len(u[1]))
    assert 2 <= len(holders) < len(certs)
    conj, rel, sign = middle
    forged = (conj, rel, -sign)
    moved = [
        replace(c, factors=tuple(forged if t is middle else t for t in c.factors))
        for c in {id(c): c for c in holders}.values()
    ]
    # valid tail triples with an adjoined relator, under level 1's allowed set
    demoted = [
        replace(c, level=1, adjoined=(), supporting=())
        for c in certs
        if c.factors[0][1] not in c.adjoined and any(r in c.adjoined for _, r, _ in c.factors[1:])
    ]
    assert demoted
    copies = moved + demoted
    assert all(reference_certificate_error(c, base, {}) is not None for c in copies)
    expected = [True] * len(certs) + [False] * len(copies)
    assert check_certificates(p, certs + copies) == expected
    assert check_certificates(p, (certs + copies)[::-1]) == expected[::-1]


def test_checker_judges_shared_words_per_certificate():
    # certificates that share Word objects, so a checker that remembers
    # anything by identity must still apply every rule to each one
    p = build_pjkl(2, 2, 2)
    base = {free_reduce(r).letters for r in p.relators}
    empty, x, y = Word.empty(), Word.gen("x"), Word.gen("y")
    xx = p.relators[0]
    # one conjugator and one relator object, with opposite signs, and
    # the relator object with another conjugator
    up = TorsionCertificate(y * x * y.inverse(), 2, 1, ((y, xx, 1),))
    plain = TorsionCertificate(x, 2, 1, ((empty, xx, 1),))
    down = TorsionCertificate(y * x.inverse() * y.inverse(), 2, 1, ((y, xx, -1),))
    both = TorsionCertificate(empty, 1, 1, ((y, xx, 1), (y, xx, -1)))
    # one adjoined core object, valid at level 2 and forged at level 1
    level2 = torsion_certificate_search(p, level=2, word_bound=4).certificates
    z = next(c for c in level2 if c.word == Word.gen("z"))
    core = z.adjoined[0]
    own = replace(z, word=core, exponent=1, factors=((empty, core, 1),))
    forged = TorsionCertificate(core, 1, 1, ((empty, core, 1),))
    # words and conjugators that are not freely reduced
    loose = TorsionCertificate(
        Word.from_text("y x x^-1 x y^-1"), 2, 1, ((Word.from_text("y x^-1 x"), xx, 1),)
    )
    unreduced_relator = Word.from_text("x x^-1 x x")
    certs = [
        up,
        plain,
        down,
        replace(up, factors=down.factors),
        both,
        own,
        forged,
        loose,
        replace(loose, exponent=3),
        TorsionCertificate(Word.from_text("x x^-1"), 1, 1, ()),
        replace(loose, factors=((loose.factors[0][0], unreduced_relator, 1),)),
    ]
    expected = [True, True, True, False, True, True, False, True, False, True, False]
    assert [reference_certificate_error(c, base, {}) is None for c in certs] == expected
    assert check_certificates(p, certs) == expected
    assert check_certificates(p, certs[::-1]) == expected[::-1]
    assert [check_certificates(p, [c]) for c in certs] == [[e] for e in expected]
