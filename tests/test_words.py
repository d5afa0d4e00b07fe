import pytest
from hypothesis import given, strategies as st

from torlen import words as words_module
from torlen.presentation import Presentation, parse_presentation
from torlen.words import (
    Word,
    WordError,
    check_symbol,
    cyclic_reduce,
    cyclic_split_ints,
    free_reduce,
    fresh_symbol,
    ints_to_word,
    least_rotation,
    multiply_ints,
    reduce_ints,
    invert_ints,
    substitute,
    word_to_ints,
)

SYMS = ("a", "b", "c")

letters = st.tuples(st.sampled_from(SYMS), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=12).map(lambda ls: Word(tuple(ls)))


def test_from_text_round_trip():
    w = Word.from_text("x y^-1 x_01 x")
    assert w.to_text() == "x y^-1 x_01 x"
    assert Word.from_text(w.to_text()) == w


def test_from_text_rejects_bad_tokens():
    with pytest.raises(WordError):
        Word.from_text("x^2")
    with pytest.raises(WordError):
        Word.from_text("x^-2")


@pytest.mark.parametrize(
    "letter",
    [
        ("", 1), ("x^", 1), ("a^-1", 1), ("x y", 1), ("x\t", 1), ("x", 0), ("x", 2), ("x", -2),
        ("a-b", 1), ("x'", 1), ("é", 1),
    ],
)
def test_direct_construction_rejects_bad_letters(letter):
    with pytest.raises(WordError):
        Word((letter,))


@pytest.mark.parametrize(
    "letters",
    ["ab", ("a",), (("a", 1, 1),), ((1, 1),), ((None, 1),), ((["a"], 1),), (5,), ((("a", 1),),)],
)
def test_direct_construction_rejects_letters_that_are_not_name_sign_pairs(letters):
    with pytest.raises(WordError):
        Word(letters)
    with pytest.raises(WordError):
        Word((("a", 1),) + tuple(letters))  # also after a good letter


def test_direct_construction_stores_a_tuple():
    letters = [("a", 1), ("b", -1)]
    w = Word(letters)
    letters.append(("c", 1))
    assert type(w.letters) is tuple and w.letters == (("a", 1), ("b", -1))
    assert hash(w) == hash(Word.from_text("a b^-1"))
    assert Word(letter for letter in letters) == Word.from_text("a b^-1 c")


def test_check_symbol_rejects_names_that_are_not_strings():
    for name in (1, None, b"a"):
        with pytest.raises(WordError):
            check_symbol(name)
    with pytest.raises(WordError):
        Word.gen(1)


def test_check_symbol_rejects_unhashable_names():
    # the type is tested before the accepted-name cache, which needs a hash
    for name in (["a"], {"a": 1}, {"a"}):
        with pytest.raises(WordError):
            check_symbol(name)
    with pytest.raises(WordError):
        Word.gen(["a"])
    with pytest.raises(WordError):
        Presentation((["a"],), ())
    with pytest.raises(WordError):
        Word(((["a"], 1),))


def test_bad_letters_rejected_after_valid_name_is_cached():
    Word((("x", 1),))
    for _ in range(2):
        with pytest.raises(WordError):
            Word((("x", 1), ("x y", 1)))
        with pytest.raises(WordError):
            Word((("x", 1), ("", -1)))
        with pytest.raises(WordError):
            Word((("x", 1), ("x", 0)))


def test_accepted_symbol_cache_is_capped():
    cache, cap = words_module._ACCEPTED_SYMBOLS, words_module._ACCEPTED_SYMBOLS_CAP
    for k in range(cap + 10):
        assert check_symbol(f"cap_{k}") == f"cap_{k}"
        assert len(cache) <= cap
    assert "cap_0" not in cache  # emptied at least once
    for bad in ("x y", "a-b", ""):
        with pytest.raises(WordError):
            Word(((bad, 1),))
        assert bad not in cache
    assert Word.gen("cap_0") == Word.from_text("cap_0")


def test_empty_word():
    assert Word.from_text("") == Word.empty()
    assert len(Word.empty()) == 0
    assert not Word.empty()


def test_pow_and_inverse():
    x = Word.gen("x")
    assert x**3 == Word.from_text("x x x")
    assert x**-2 == Word.from_text("x^-1 x^-1")
    assert Word.from_text("x y").inverse() == Word.from_text("y^-1 x^-1")


@given(words)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r


@given(words)
def test_word_times_inverse_is_trivial(w):
    assert free_reduce(w * w.inverse()) == Word.empty()
    assert free_reduce(w.inverse() * w) == Word.empty()


@given(words, words)
def test_reduction_is_a_homomorphism(u, v):
    assert free_reduce(u * v) == free_reduce(free_reduce(u) * free_reduce(v))


@given(words)
def test_cyclic_reduce_reassembles(w):
    core, conj = cyclic_reduce(w)
    assert cyclic_reduce(core) == (core, Word.empty())
    assert free_reduce(conj * core * conj.inverse()) == free_reduce(w)


@given(words)
def test_substitute_commutes_with_reduction(w):
    mapping = {"a": Word.from_text("c c"), "b": Word.empty()}
    assert substitute(w, mapping) == substitute(free_reduce(w), mapping)


def test_substitute_rejects_chained_substitution():
    with pytest.raises(WordError):
        substitute(Word.from_text("a"), {"a": Word.from_text("b"), "b": Word.from_text("a")})


@given(words, words, st.integers(min_value=-3, max_value=3))
def test_derived_words_pass_the_public_check(u, v, n):
    index = {g: i for i, g in enumerate(SYMS)}
    derived = [
        free_reduce(u),
        u.inverse(),
        u * v,
        u**n,
        *cyclic_reduce(u),
        substitute(u, {"a": Word.from_text("c c"), "b": Word.from_text("c^-1")}),
        ints_to_word(word_to_ints(u, index), SYMS),
    ]
    for d in derived:
        assert isinstance(d.letters, tuple)
        assert Word(d.letters) == d


@given(st.lists(st.sampled_from((1, -1, 2, -2)), max_size=10))
def test_int_reduction_matches_word_reduction(ls):
    iw = tuple(ls)
    names = ("a", "b")
    as_word = Word(tuple((names[abs(x) - 1], 1 if x > 0 else -1) for x in iw))
    red = reduce_ints(iw)
    red_word = Word(tuple((names[abs(x) - 1], 1 if x > 0 else -1) for x in red))
    assert red_word == free_reduce(as_word)
    assert reduce_ints(red + invert_ints(red)) == ()


int_words = st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=10).map(tuple)


def _rotations(w):
    return {w[k:] + w[:k] for k in range(len(w))} or {w}


@given(int_words, st.integers(min_value=0, max_value=9))
def test_least_rotation_is_a_class_invariant(w, k):
    key = least_rotation(w, invert_ints(w))
    rotated = w[k % len(w) :] + w[: k % len(w)] if w else w
    assert least_rotation(rotated, invert_ints(rotated)) == key
    assert least_rotation(invert_ints(w), w) == key
    assert key == min(_rotations(w) | _rotations(invert_ints(w)))


@given(int_words, int_words)
def test_least_rotation_matches_rotation_sets(u, v):
    same_class = v in _rotations(u) | _rotations(invert_ints(u))
    assert (least_rotation(u, invert_ints(u)) == least_rotation(v, invert_ints(v))) == same_class


@given(int_words, int_words)
def test_multiply_ints_is_reduced_concatenation(a, b):
    a, b = reduce_ints(a), reduce_ints(b)
    assert multiply_ints(a, b) == reduce_ints(a + b)


@given(int_words, st.integers(min_value=1, max_value=6))
def test_cyclic_split_gives_powers_in_closed_form(w, n):
    w = reduce_ints(w)
    head, core, tail = cyclic_split_ints(w)
    assert head + core + tail == w
    assert tail == invert_ints(head)
    assert reduce_ints(core + core) == core + core  # cyclically reduced
    power = head + core * n + tail
    assert power == reduce_ints(w * n)
    assert len(power) == 2 * len(head) + n * len(core)


names = st.from_regex(r"[A-Za-z0-9_]{1,4}", fullmatch=True)


@given(names, st.sets(names, max_size=8), st.integers(min_value=0, max_value=3))
def test_fresh_symbol_is_free_and_parses(stem, taken, clashes):
    taken = taken | {stem} | {f"{stem}_{k}" for k in range(1, clashes + 1)}
    name = fresh_symbol(stem, taken)
    assert name not in taken
    gens = sorted(taken) + [name]
    assert parse_presentation("gens: " + " ".join(gens) + "\n").generators == tuple(gens)


def test_fresh_symbol_keeps_a_free_stem():
    assert fresh_symbol("x", {"y"}) == "x"
    assert fresh_symbol("x", {"x", "x_1", "x_3"}) == "x_2"
