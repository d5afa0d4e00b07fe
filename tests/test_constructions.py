import pytest

from torlen.constructions import (
    build_chain,
    build_ln,
    build_pjkl,
    build_pn,
    build_qn,
    build_tgen,
)
from torlen.presentation import (
    PresentationError,
    adjoin_relators,
    canonicalize,
    kill_generators,
)
from torlen.words import Word, free_reduce, substitute


def test_pjkl_shape():
    p = build_pjkl(2, 2, 2)
    assert p.generators == ("x", "y", "z")
    assert [r.to_text() for r in p.relators] == ["x x", "y y", "x y z^-1 z^-1"]
    assert [len(r) for r in build_pjkl(2, 3, 5).relators] == [2, 3, 7]
    with pytest.raises(PresentationError):
        build_pjkl(1, 2, 2)
    with pytest.raises(PresentationError, match="n must be >= 0"):
        build_pn(-1)
    with pytest.raises(PresentationError, match="m must be >= 0"):
        build_chain(-1)


def test_pn_counts_and_lengths():
    for n in range(11):
        p = build_pn(n)
        assert len(p.generators) == 2**n - 1
        assert len(p.relators) == 2**n - 1
        assert all(len(r) in (3, 5) for r in p.relators)


def test_pn_small_cases():
    assert build_pn(0).generators == ()
    p1 = build_pn(1)
    assert p1.generators == ("x_",)
    assert p1.relators == (Word.gen("x_", 3),)
    p2 = build_pn(2)
    assert set(p2.generators) == {"x_", "x_0", "x_1"}
    assert Word.from_text("x_0 x_1 x_^-1 x_^-1 x_^-1") in p2.relators


def test_pn_exponent_parameter():
    p = build_pn(2, exponent=2)
    assert Word.gen("x_0", 2) in p.relators
    assert all(len(r) in (2, 4) for r in p.relators)
    with pytest.raises(PresentationError):
        build_pn(2, exponent=1)


def test_chain_counts():
    assert canonicalize(build_chain(1)) == canonicalize(build_pn(1))
    p = build_chain(2)
    assert len(p.generators) == 4
    assert len(p.relators) == 4
    assert len(build_chain(4).generators) == sum(2**i - 1 for i in range(5))


# -- tgen ------------------------------------------------------------------


def test_tgen_structure():
    p = build_pn(1)  # <x_ | x_^3>
    result = build_tgen(p)
    n = len(p.generators)
    assert len(result.intermediate.relators) == len(p.relators) + n + 1
    assert result.presentation.generators == ("a", "t")
    # relator count settles back to |R| after the eliminations
    assert len(result.presentation.relators) == len(p.relators)
    assert set(result.images) == set(p.generators)
    for w in result.images.values():
        assert w.symbols() <= {"a", "t"}


def test_tgen_image_substitution_recovers_relators():
    p = build_pjkl(2, 2, 2)
    result = build_tgen(p)
    substituted = {
        free_reduce(substitute(r, result.images)) for r in p.relators
    }
    assert substituted <= set(result.presentation.relators)


def test_tgen_commutation_with_adjoined_relators():
    for p in (build_pn(1), build_pjkl(2, 2, 2)):
        S = [Word.gen(p.generators[0])]
        before = canonicalize(build_tgen(adjoin_relators(p, S)).presentation)
        tg = build_tgen(p)
        images_S = [free_reduce(substitute(s, tg.images)) for s in S]
        after = canonicalize(adjoin_relators(tg.presentation, images_S))
        assert before == after


def test_tgen_renames_clashing_generators():
    from torlen.presentation import Presentation

    p = Presentation(("a",), (Word.gen("a", 2),))
    result = build_tgen(p)
    assert result.presentation.generators == ("a", "t")
    assert set(result.images) == {"a"}


# -- torsion-raising lift ---------------------------------------------------


def test_ln_counts():
    from torlen.presentation import Presentation

    p = Presentation(("z",), (Word.gen("z", 2),))
    result = build_ln(p)
    assert len(result.presentation.generators) == 3
    assert len(result.presentation.relators) == 3
    assert result.rank == 1
    assert not result.degenerate
    third = result.presentation.relators[2]
    assert third.letters[:2] == ((("z", 1)), ("z", 1))


def test_ln_round_trip():
    from torlen.presentation import Presentation

    cases = [
        Presentation(("z",), (Word.gen("z", 2),)),
        build_pn(1),
        build_pjkl(2, 2, 2),
    ]
    for p in cases:
        result = build_ln(p)
        added = set(result.presentation.generators) - set(p.generators)
        assert len(added) == 2
        killed = kill_generators(result.presentation, added)
        assert canonicalize(killed) == canonicalize(p)


def test_ln_degenerate_flag():
    from torlen.presentation import Presentation

    result = build_ln(Presentation(("z",), ()))
    assert result.degenerate
    assert result.rank == 0
    assert len(result.presentation.relators) == 2  # just x^2, y^3


def test_qn_counts():
    for n in (1, 2, 3):
        q = build_qn(n)
        assert len(q.generators) == 2 * n - 1
        assert len(q.relators) <= 2 * n - 1
    assert build_qn(1).generators == ("z",)
    with pytest.raises(PresentationError):
        build_qn(0)
