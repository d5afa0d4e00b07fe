import itertools
import random

import pytest

from torlen.abelian import AbelianInvariants
from torlen.constructions import build_ln, build_pn, build_qn, build_tgen
from torlen.presentation import (
    Presentation,
    PresentationError,
    PresentationMorphism,
    PresentationSyntaxError,
    abelianization,
    adjoin_relators,
    canonicalize,
    eliminate_generator,
    free_product,
    hnn_presentation,
    kill_generators,
    parse_presentation,
    presentation_to_json,
    serialize_presentation,
)
from torlen.words import Word


def P(gens, *relators):
    return Presentation(tuple(gens.split()), tuple(Word.from_text(r) for r in relators))


def test_presentation_validates():
    with pytest.raises(PresentationError):
        Presentation(("x", "x"), ())
    with pytest.raises(PresentationError):
        Presentation(("x",), (Word.from_text("y"),))


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
    assert r.right.images["x"] == Word.gen("x_1")


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
    assert eliminate_generator(p, "g", 0) == P("h")
    q = P("a b t", "t^-1 a t b^-1", "b b b")
    out = eliminate_generator(q, "b", 0)
    assert out == P("a t", "t^-1 a t t^-1 a t t^-1 a t")


def test_eliminate_requires_single_occurrence():
    with pytest.raises(PresentationError):
        eliminate_generator(P("x", "x x"), "x", 0)


# -- canonicalize ----------------------------------------------------------


def test_canonicalize_inverse_and_rename():
    a = canonicalize(P("z", "z^-1 z^-1"))
    b = canonicalize(P("w", "w w"))
    assert a == b


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
    assert len(canonicalize(p, drop_unused=True).generators) == 1


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
    assert abelianization(eliminate_generator(q, "b", 0)) == abelianization(q)


# -- parse / serialize -----------------------------------------------------


def test_parse_basic():
    p = parse_presentation("gens: x\nrel: x x x\n")
    assert p == P("x", "x x x")


def test_parse_comments_and_inverses():
    text = "# header\ngens: x y  # trailing\nrel: x y^-1\n\nrel: y y\n"
    p = parse_presentation(text)
    assert p == P("x y", "x y^-1", "y y")


def test_round_trip():
    for p in (build_pn(3), P("x y z", "x x", "y y", "x y z^-1 z^-1"), P("a b")):
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


def test_parse_errors_carry_position():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("rel: y\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: x x\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: x\nrel: y\n")
    try:
        parse_presentation("gens: x\nwat: x\n")
    except PresentationSyntaxError as exc:
        assert exc.line == 2


def test_json_schema():
    p = P("x y", "x y^-1")
    assert presentation_to_json(p) == {
        "generators": ["x", "y"],
        "relators": [["x", "y^-1"]],
    }


# -- morphisms -------------------------------------------------------------


def test_morphism_relator_status():
    src = P("g", "g g")
    tgt = P("x y", "x x", "y y y")
    m = PresentationMorphism(src, tgt, {"g": Word.gen("x")})
    assert m.relator_status() == ("relator-match",)


def test_morphism_consequence_status():
    src = P("g", "g g")
    tgt = P("x y", "x x")
    m = PresentationMorphism(src, tgt, {"g": Word.from_text("x x x")})
    assert m.relator_status() == ("consequence",)


def test_morphism_unverified_status():
    src = P("g", "g g")
    tgt = P("x", "x x x")
    m = PresentationMorphism(src, tgt, {"g": Word.gen("x")})
    assert m.relator_status() == ("unverified",)
