import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from torlen.abelian import AbelianInvariants
from torlen.constructions import build_chain, build_ln, build_pn, build_qn, build_tgen
from torlen.coset import todd_coxeter
from torlen.presentation import (
    Presentation,
    PresentationError,
    PresentationSyntaxError,
    abelianization,
    adjoin_relators,
    canonicalize,
    eliminate_generator_with_image,
    free_product,
    hnn_presentation,
    kill_generators,
    parse_presentation,
    serialize_presentation,
)
from torlen.stallings import build_subgroup_graph
from torlen.words import Word, cyclic_reduce, free_reduce, least_rotation, substitute


def P(gens, *relators):
    return Presentation(tuple(gens.split()), tuple(Word.from_text(r) for r in relators))


def test_presentation_validates():
    with pytest.raises(PresentationError):
        Presentation(("x", "x"), ())
    with pytest.raises(PresentationError):
        Presentation(("x",), (Word.from_text("y"),))
    # a name the file format cannot read would not parse back
    with pytest.raises(ValueError):
        Presentation(("a-b",), ())


def test_relators_stored_reduced():
    p = P("x y", "x y y^-1 x")
    assert p.relators[0] == Word.from_text("x x")


# -- free product ----------------------------------------------------------


def test_free_product_disjoint_union():
    r = free_product(P("x", "x x x"), P("y", "y y y"))
    assert r.presentation == P("x y", "x x x", "y y y")


def test_free_product_counts_add():
    p, q = build_pn(2), build_pn(3)
    r = free_product(p, q).presentation
    assert len(r.generators) == len(p.generators) + len(q.generators)
    assert len(r.relators) == len(p.relators) + len(q.relators)


def test_free_product_renames_clashes():
    r = free_product(P("x", "x x"), P("x", "x x x"))
    assert r.presentation.generators == ("x", "x_1")
    assert r.rename == {"x": "x_1"}


def test_free_product_with_empty():
    p = P("x y", "x y x^-1 y^-1")
    assert free_product(Presentation((), ()), p).presentation == p


# -- adjoin / hnn ----------------------------------------------------------


def test_adjoin_relators():
    p = P("x y z", "x x", "y y", "x y z^-1 z^-1")
    q = adjoin_relators(p, [Word.from_text("x"), Word.from_text("y")])
    assert q.relators == p.relators + (Word.from_text("x"), Word.from_text("y"))
    assert adjoin_relators(p, []) == p
    with pytest.raises(PresentationError):
        adjoin_relators(p, [Word.from_text("w")])


def test_hnn_single_pair():
    p = P("a b")
    q = hnn_presentation(p, [(Word.gen("a"), Word.gen("b"))], "t")
    assert q == P("a b t", "t^-1 a t b^-1")


def test_hnn_empty_pairs_and_clash():
    p = P("a", "a a")
    assert hnn_presentation(p, [], "t") == P("a t", "a a")
    with pytest.raises(PresentationError):
        hnn_presentation(p, [], "a")
    with pytest.raises(PresentationError):
        hnn_presentation(p, [(Word.gen("t"), Word.gen("a"))], "t")


# An undeclared letter is rejected even when it cancels: every entry
# point checks the words it is given before reducing them.
CANCELLING = Word.from_text("y y^-1")


@pytest.mark.parametrize(
    "entry",
    [
        lambda: Presentation(("x",), (CANCELLING,)),
        lambda: todd_coxeter(P("x", "x x"), [CANCELLING]),
        lambda: adjoin_relators(P("x"), [CANCELLING]),
        lambda: hnn_presentation(P("x"), [(CANCELLING, Word.gen("x"))], "t"),
        lambda: build_subgroup_graph(("x",), [CANCELLING]),
    ],
    ids=["Presentation", "todd_coxeter", "adjoin_relators", "hnn_presentation", "fold"],
)
def test_cancelling_undeclared_letters_are_rejected(entry):
    with pytest.raises(ValueError, match="undeclared|non-ambient"):
        entry()


# -- kill / eliminate ------------------------------------------------------


def test_kill_generators_example():
    p = P("x y z", "x x", "y y", "x y z^-1 z^-1")
    assert kill_generators(p, {"x", "y"}) == P("z", "z^-1 z^-1")
    assert kill_generators(p, set()) == p


def test_kill_order_independence():
    p = build_pn(3)
    victims = [g for g in p.generators if len(g) == 4]  # depth-2 leaves
    rng = random.Random(5)
    for _ in range(5):
        order = victims[:]
        rng.shuffle(order)
        step = p
        for v in order:
            step = kill_generators(step, {v})
        assert step == kill_generators(p, set(victims))


def test_eliminate_generator():
    p = P("g h", "g h^-1")
    assert eliminate_generator_with_image(p, "g", 0)[0] == P("h")
    q = P("a b t", "t^-1 a t b^-1", "b b b")
    out = eliminate_generator_with_image(q, "b", 0)[0]
    assert out == P("a t", "t^-1 a t t^-1 a t t^-1 a t")


@pytest.mark.parametrize("index", [-1, -2, 2])
def test_eliminate_rejects_an_index_outside_the_relators(index):
    # a negative index used to pick a relator and then keep it, substituted
    p = P("a b", "a b a^-1", "a a")
    assert eliminate_generator_with_image(p, "b", 0)[0] == P("a", "a a")
    with pytest.raises(PresentationError, match=f"no relator at index {index}$"):
        eliminate_generator_with_image(p, "b", index)


def test_eliminate_requires_single_occurrence():
    with pytest.raises(PresentationError):
        eliminate_generator_with_image(P("x", "x x"), "x", 0)


def test_kill_and_eliminate_reject_unknown_generators():
    p = P("x y", "x x", "x y")
    with pytest.raises(PresentationError, match=r"cannot kill undeclared generator\(s\) \['q'\]"):
        kill_generators(p, ["q"])
    with pytest.raises(PresentationError, match="unknown generator 'q'"):
        eliminate_generator_with_image(p, "q", 0)


def reference_eliminate(p, g, k):
    """Tietze elimination as first written: ``substitute`` the image of
    g into every relator but the k-th, which holds g exactly once."""
    relator = p.relators[k]
    (i,) = [i for i, (name, _) in enumerate(relator.letters) if name == g]
    before, after = Word(relator.letters[:i]), Word(relator.letters[i + 1 :])
    if relator.letters[i][1] == 1:
        image = free_reduce(before.inverse() * after.inverse())
    else:
        image = free_reduce(after * before)
    rels = tuple(substitute(r, {g: image}) for j, r in enumerate(p.relators) if j != k)
    return Presentation(tuple(h for h in p.generators if h != g), rels), image


@st.composite
def eliminations(draw):
    """A presentation, a generator g and the index of a relator holding g
    once; the other relators may hold g with either sign, or not at all."""
    gens = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    g = draw(st.sampled_from(gens))
    others = [h for h in gens if h != g]
    sign = st.sampled_from((1, -1))
    free_of_g = st.lists(st.tuples(st.sampled_from(others or [g]), sign), max_size=4 * bool(others))
    defining = draw(free_of_g) + [(g, draw(sign))] + draw(free_of_g)
    any_letter = st.tuples(st.sampled_from(gens), sign)
    rels = draw(st.lists(st.one_of(free_of_g, st.lists(any_letter, max_size=6)), max_size=4))
    k = draw(st.integers(0, len(rels)))
    rels.insert(k, defining)
    p = Presentation(tuple(gens), tuple(Word(tuple(r)) for r in rels))
    return p, g, k


@settings(max_examples=200, deadline=None)
@given(eliminations())
@example((P("a b", "a b", "a a b^-1", "a a"), "b", 0))
@example((P("a b", "b^-1 a^-1", "b^-1 a", "b a b^-1"), "b", 0))
def test_eliminate_matches_substituting_every_relator(case):
    assert eliminate_generator_with_image(*case) == reference_eliminate(*case)


# -- canonicalize ----------------------------------------------------------


def test_canonicalize_inverse_and_rename():
    a = canonicalize(P("z", "z^-1 z^-1"))
    b = canonicalize(P("w", "w w"))
    assert a == b


def test_canonicalize_drops_empty_relators():
    # a a^-1 reduces to the empty word when the presentation is built
    p = P("a", "a a^-1", "a a")
    assert p.relators[0] == Word()
    assert canonicalize(p) == canonicalize(P("a", "a a"))


def test_canonicalize_idempotent():
    cases = [
        P("x y z", "x x", "y y", "x y z^-1 z^-1"),
        build_pn(3),
        P("a b", "a b a^-1 b^-1", "a a a"),
        P("u v", "u v u", "v u v"),
    ]
    for p in cases:
        c = canonicalize(p)
        assert canonicalize(c) == c


def test_canonicalize_quotient_matches_smaller_family_member():
    killed = kill_generators(build_pn(2), {"x_0", "x_1"})
    assert canonicalize(killed) == canonicalize(build_pn(1))


def test_canonicalize_drops_duplicate_relators():
    p = P("x", "x x", "x x")
    assert len(canonicalize(p).relators) == 1


def test_canonicalize_unused_generator_flag():
    p = P("x y", "x x")
    assert len(canonicalize(p).generators) == 2


def reference_canonicalize(p):
    """A frozen copy of ``canonicalize`` with an iteration cap of n + 3
    relabelling rounds, a check for an order seen before, and the least
    output of the rounds as the answer when either fires."""
    cores = [core for core, _ in map(cyclic_reduce, p.relators) if core]
    order = {g: i for i, g in enumerate(p.generators)}
    seen_orders = [order]
    outputs = []
    for _ in range(len(p.generators) + 3):
        by_order = sorted(order, key=order.__getitem__)
        codes = []
        for c in cores:
            code = tuple(2 * order[g] + (s == -1) for g, s in c.letters)
            codes.append(least_rotation(code, tuple(x ^ 1 for x in reversed(code))))
        codes.sort(key=lambda code: (len(code), code))
        rotated = [
            tuple((by_order[x >> 1], -1 if x & 1 else 1) for x in code) for code in codes
        ]
        new_order = {}
        for letters in rotated:
            for name, _ in letters:
                new_order.setdefault(name, len(new_order))
        for g in sorted((g for g in p.generators if g not in new_order), key=order.get):
            new_order[g] = len(new_order)
        kept = sorted(p.generators, key=new_order.__getitem__)
        names = {g: f"g{i}" for i, g in enumerate(kept)}
        rels = dict.fromkeys(tuple((names[g], s) for g, s in w) for w in rotated)
        out = Presentation(tuple(names[g] for g in kept), tuple(map(Word, rels)))
        if new_order == order:
            return out
        outputs.append(out)
        if new_order in seen_orders:
            break
        seen_orders.append(new_order)
        order = new_order
    return min(outputs, key=lambda q: (q.generators, tuple(w.letters for w in q.relators)))


def random_presentations(rng, count):
    """1-9 generators and 0-8 relators of 1-6 letters; every other
    presentation also holds each relator's images under the powers of a
    random permutation of the generators, which makes ties between
    generators likely."""
    for i in range(count):
        gens = tuple(f"x{j}" for j in range(rng.randint(1, 9)))
        rels = [
            tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(0, 8))
        ]
        if i % 2:
            perm = dict(zip(gens, rng.sample(gens, len(gens))))
            orbit = set()
            for r in rels:
                while r not in orbit:
                    orbit.add(r)
                    r = tuple((perm[g], s) for g, s in r)
            rels = sorted(orbit)
        yield Presentation(gens, tuple(map(Word, rels)))


def test_canonicalize_matches_frozen_reference():
    for p in random_presentations(random.Random(25), 3000):
        c = canonicalize(p)
        assert c == reference_canonicalize(p)
        assert canonicalize(c) == c


# -- abelianization --------------------------------------------------------


def test_abelianization_known_values():
    assert abelianization(P("x", "x x x")) == AbelianInvariants((3,), 0)
    assert abelianization(P("a b")) == AbelianInvariants((), 2)
    # frozen value for the depth-2 tree presentation, cross-checked by the
    # determinantal-divisor oracle in test_abelian.py on its exponent matrix
    # [[0,3,0],[0,0,3],[-3,1,1]]
    assert abelianization(build_pn(2)) == AbelianInvariants((3, 9), 0)


def test_abelianization_invariances():
    p = P("x y z", "x x", "y y", "x y z^-1 z^-1")
    base = abelianization(p)
    inverted = Presentation(p.generators, (p.relators[0].inverse(),) + p.relators[1:])
    assert abelianization(inverted) == base
    r = p.relators[2]
    rotated = Presentation(
        p.generators, p.relators[:2] + (Word(r.letters[1:] + r.letters[:1]),)
    )
    assert abelianization(rotated) == base
    assert abelianization(free_product(p, Presentation((), ())).presentation) == base


def test_abelianization_invariant_under_elimination():
    q = P("a b t", "t^-1 a t b^-1", "a a a")
    assert abelianization(eliminate_generator_with_image(q, "b", 0)[0]) == abelianization(q)


# -- parse / serialize -----------------------------------------------------


def test_parse_basic():
    p = parse_presentation("gens: x\nrel: x x x\n")
    assert p == P("x", "x x x")


def test_parse_comments_and_inverses():
    text = "# header\ngens: x y  # trailing\nrel: x y^-1\n\nrel: y y\n"
    p = parse_presentation(text)
    assert p == P("x y", "x y^-1", "y y")


def test_round_trip():
    for p in (build_pn(3), build_pn(12), P("x y z", "x x", "y y", "x y z^-1 z^-1"), P("a b")):
        assert parse_presentation(serialize_presentation(p)) == p


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_qn(3),
        lambda: build_ln(P("x x_1 y", "x x", "x_1 x_1 x_1", "x y x_1^-1")).presentation,
        lambda: free_product(P("x y", "x x"), P("x y", "x y x^-1 y^-1")).presentation,
        lambda: build_tgen(P("a t b", "a a", "t t t", "a t b^-1 b^-1")).intermediate,
    ],
    ids=["qn", "ln", "free_product", "tgen"],
)
def test_emitted_presentations_round_trip(build):
    p = build()
    assert parse_presentation(serialize_presentation(p)) == p


# Names the builders also make or reserve (x, y, a, b, t and their _k
# variants), so fresh names are drawn for clashes at every step.
CLASH_NAMES = ("x", "x_1", "x_2", "y", "y_1", "a", "a_1", "b", "t", "t_1", "z")


@st.composite
def clashing_presentations(draw):
    gens = draw(st.lists(st.sampled_from(CLASH_NAMES), min_size=1, max_size=4, unique=True))
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    relators = draw(
        st.lists(st.lists(letter, min_size=1, max_size=4).map(tuple), max_size=3)
    )
    return Presentation(tuple(gens), tuple(Word(r) for r in relators))


EMITTERS = {
    "chain": lambda data: build_chain(data.draw(st.integers(min_value=0, max_value=3))),
    "qn": lambda data: build_qn(data.draw(st.integers(min_value=1, max_value=3))),
    "ln": lambda data: build_ln(data.draw(clashing_presentations())).presentation,
    "free_product": lambda data: free_product(
        data.draw(clashing_presentations()), data.draw(clashing_presentations())
    ).presentation,
    "tgen_intermediate": lambda data: build_tgen(data.draw(clashing_presentations())).intermediate,
    "tgen": lambda data: build_tgen(data.draw(clashing_presentations())).presentation,
}


@pytest.mark.parametrize("emitter", sorted(EMITTERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_emitted_presentations_round_trip_property(emitter, data):
    p = EMITTERS[emitter](data)
    assert parse_presentation(serialize_presentation(p)) == p


# Characters the file format reads in a name, and ones it gives another
# meaning (comment, line prefix, inverse marker, separators) or none.
NAME_CHARS = "ab1_.-'^:# \té"


@settings(max_examples=200, deadline=None)
@given(names=st.lists(st.text(NAME_CHARS, max_size=3), min_size=1, max_size=3, unique=True))
def test_every_accepted_presentation_parses_back(names):
    try:
        p = Presentation(tuple(names), (Word(tuple((g, 1) for g in names)),))
    except ValueError:
        return
    assert parse_presentation(serialize_presentation(p)) == p


def _killed(data):
    p = data.draw(clashing_presentations())
    return kill_generators(p, data.draw(st.sets(st.sampled_from(p.generators))))


def _eliminated(data):
    """Adjoin ``g w`` (``w`` free of ``g``) to a drawn presentation and
    eliminate ``g`` through it."""
    p = data.draw(clashing_presentations())
    g = data.draw(st.sampled_from(p.generators))
    others = [h for h in p.generators if h != g]
    letter = st.tuples(st.sampled_from(others or [g]), st.sampled_from((1, -1)))
    rest = data.draw(st.lists(letter, max_size=3 if others else 0))
    p = adjoin_relators(p, [Word(((g, 1), *rest))])
    return eliminate_generator_with_image(p, g, len(p.relators) - 1)[0]


def _parsed(data):
    """A drawn presentation's file plus relator lines that need not be
    reduced."""
    p = data.draw(clashing_presentations())
    token = st.sampled_from([g + mark for g in p.generators for mark in ("", "^-1")])
    lines = data.draw(st.lists(st.lists(token, max_size=4), max_size=2))
    return parse_presentation(
        serialize_presentation(p) + "".join("rel: " + " ".join(r) + "\n" for r in lines)
    )


DERIVED = {
    **EMITTERS,
    "drawn": lambda data: data.draw(clashing_presentations()),
    "kill": _killed,
    "eliminate": _eliminated,
    "parse": _parsed,
    "canonicalize": lambda data: canonicalize(data.draw(clashing_presentations())),
}


@pytest.mark.parametrize("deriver", sorted(DERIVED))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_derived_presentations_pass_the_public_check(deriver, data):
    q = DERIVED[deriver](data)
    assert isinstance(q.generators, tuple) and isinstance(q.relators, tuple)
    assert Presentation(q.generators, q.relators) == q
    for r in q.relators:
        assert Word(r.letters) == r


def test_parse_errors_carry_position():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("rel: y\n")
    with pytest.raises(PresentationSyntaxError, match="duplicate generator 'a'") as exc:
        parse_presentation("# header\ngens: a a\n")
    assert exc.value.line == 2
    with pytest.raises(PresentationSyntaxError, match="undeclared symbol 'b'") as exc:
        parse_presentation("gens: a\nrel: a\nrel: b\n")
    assert exc.value.line == 3
    try:
        parse_presentation("gens: x\nwat: x\n")
    except PresentationSyntaxError as exc:
        assert exc.line == 2


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("gens: x y^-1\n", "bad generator token 'y^-1'", 1, 8),
        ("gens: x\n# again\ngens: y\n", "duplicate gens: line", 3, 0),
        ("gens: x\nrel: x^2\n", "bad token 'x^2'", 2, 5),
    ],
)
def test_parse_rejects_malformed_lines(text, message, line, column):
    with pytest.raises(PresentationSyntaxError, match=re.escape(message)) as exc:
        parse_presentation(text)
    assert (exc.value.line, exc.value.column) == (line, column)


@pytest.mark.parametrize("text", ["", "\n\n", "# a comment\n   # another\n"])
def test_text_without_lines_parses_to_the_empty_presentation(text):
    assert parse_presentation(text) == Presentation((), ())
