import dataclasses
import itertools
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from torlen.freeprod import (
    CyclicFactorSpec,
    FactorError,
    NormalForm,
    NoWitnessUpToBound,
    SeparationWitness,
    TorsionWitness,
    conjugate_separation_search,
    is_torsion,
    nf_invert,
    nf_multiply,
    nf_power,
    normal_form,
    ping_pong_free_check,
)
from torlen.coset import todd_coxeter
from torlen.presentation import Presentation
from torlen.words import Word, free_reduce

C22 = CyclicFactorSpec.from_text("factors: x:2 y:2")
C23 = CyclicFactorSpec.from_text("factors: x:2 y:3")
C33 = CyclicFactorSpec.from_text("factors: x:3 y:3")


def rewrite_oracle(spec, w):
    """Independent normal form by fixpoint rewriting: merge adjacent
    runs of a generator, reduce exponents by the factor relation, drop
    vanished runs, repeat."""
    index = {name: i for i, (name, _) in enumerate(spec.factors)}
    runs = [[index[g], s] for g, s in w.letters]
    changed = True
    while changed:
        changed = False
        out = []
        for factor, exp in runs:
            if out and out[-1][0] == factor:
                out[-1][1] += exp
                changed = True
            else:
                out.append([factor, exp])
        runs = []
        for factor, exp in out:
            order = spec.order_of(factor)
            if order is not None:
                reduced = exp % order
                if reduced != exp:
                    changed = True
                exp = reduced
            if exp == 0:
                changed = True
                continue
            runs.append([factor, exp])
    return tuple((f, e) for f, e in runs)


def all_words(spec, max_length):
    letters = []
    for name, _ in spec.factors:
        letters.append((name, 1))
        letters.append((name, -1))
    for length in range(max_length + 1):
        for combo in itertools.product(letters, repeat=length):
            yield Word(combo)


def test_spec_parsing():
    spec = CyclicFactorSpec.from_text("factors: x:2 y:3 t:inf")
    assert spec.factors == (("x", 2), ("y", 3), ("t", None))
    assert spec.to_text() == "factors: x:2 y:3 t:inf"
    with pytest.raises(FactorError):
        CyclicFactorSpec.from_text("factors: x:1")
    with pytest.raises(FactorError):
        CyclicFactorSpec.from_text("factors: x:2 x:3")
    with pytest.raises(FactorError, match="bad factor token 'x'"):
        CyclicFactorSpec.from_text("x")
    for tok in ("x:two", "x:2:3", "x:2.5"):
        with pytest.raises(FactorError, match=f"^bad factor token '{tok}'$"):
            CyclicFactorSpec.from_text(f"{tok} y:2")


def test_spec_equality_ignores_lookup_table():
    spec = CyclicFactorSpec.from_text("factors: x:2 y:3")
    assert spec == C23 and hash(spec) == hash(C23)
    assert [f.name for f in dataclasses.fields(spec)] == ["factors"]


def test_normal_form_rejects_undeclared_generator():
    with pytest.raises(FactorError, match="undeclared generator 'z'"):
        normal_form(C22, Word.from_text("x y z"))


def test_normal_form_known_identities():
    # xxyx = yx and yxyy = yx in the infinite dihedral group
    assert normal_form(C22, Word.from_text("x x y x")) == normal_form(
        C22, Word.from_text("y x")
    )
    assert normal_form(C22, Word.from_text("y x y y")) == normal_form(
        C22, Word.from_text("y x")
    )
    g_inf = CyclicFactorSpec.from_text("factors: g:3 t:inf")
    assert normal_form(g_inf, Word.from_text("g g g g")).syllables == ((0, 1),)


@pytest.mark.parametrize(
    "spec_text",
    ["x:2 y:2", "x:2 y:3", "x:3 y:4", "x:4 y:inf", "x:inf y:inf", "x:2 y:inf", "x:2 y:3 z:inf"],
)
def test_normal_form_matches_rewrite_oracle(spec_text):
    spec = CyclicFactorSpec.from_text(spec_text)
    for w in all_words(spec, 5):
        assert normal_form(spec, w).syllables == rewrite_oracle(spec, w), w.to_text()


def test_normal_form_oracle_length_8_spot_check():
    # full length-8 sweep for the smallest alphabet
    for w in all_words(C22, 8):
        assert normal_form(C22, w).syllables == rewrite_oracle(C22, w)


def test_nf_algebra():
    w = Word.from_text("x y x")
    nf = normal_form(C23, w)
    assert nf_multiply(C23, nf, nf_invert(C23, nf)) == NormalForm()
    assert nf_power(C23, nf, 3) == nf_multiply(C23, nf, nf_multiply(C23, nf, nf))


def test_is_torsion_basic():
    ok, witness = is_torsion(C22, Word.from_text("x"))
    assert ok and witness.factor_element == Word.gen("x")
    ok, _ = is_torsion(C22, Word.from_text("x y"))
    assert not ok
    # a word trivial in the group is torsion, with empty witness words
    assert is_torsion(C23, Word.from_text("x x")) == (True, TorsionWitness(Word.empty(), Word.empty()))
    ok, witness = is_torsion(C33, Word.from_text("y^-1 x y"))
    assert ok
    assert len(witness.factor_element.symbols()) == 1
    reassembled = witness.conjugator * witness.factor_element * witness.conjugator.inverse()
    assert normal_form(C33, reassembled) == normal_form(C33, Word.from_text("y^-1 x y"))


def test_is_torsion_conjugation_invariance():
    words = [Word.from_text(t) for t in ("x", "x y", "y x y", "x y x y")]
    conjugators = [w for w in all_words(C23, 4)]
    for w in words:
        base, _ = is_torsion(C23, w)
        for c in conjugators[:200]:
            conj, _ = is_torsion(C23, Word(c.letters + w.letters + c.inverse().letters))
            assert conj == base


def test_dihedral_structure():
    # every normal form with <= 8 syllables is (xy)^k or (xy)^k x
    xy = normal_form(C22, Word.from_text("x y"))
    expected = set()
    for k in range(-5, 6):
        p = nf_power(C22, xy, k)
        expected.add(p.syllables)
        expected.add(nf_multiply(C22, p, normal_form(C22, Word.gen("x"))).syllables)
    for w in all_words(C22, 8):
        assert normal_form(C22, w).syllables in expected
    # the normality witness: x (xy) x = (xy)^-1
    assert normal_form(C22, Word.from_text("x x y x")) == nf_invert(C22, xy)


def test_conjugate_separation_c2c2_witness():
    result = conjugate_separation_search(C22, Word.gen("x"), Word.gen("y"), 6, 4)
    assert isinstance(result, SeparationWitness)
    assert result == SeparationWitness(Word.gen("x"), 1, -1)


@pytest.mark.parametrize("spec", [C33, C23])
def test_conjugate_separation_no_witness(spec):
    result = conjugate_separation_search(spec, Word.gen("x"), Word.gen("y"), 6, 4)
    assert isinstance(result, NoWitnessUpToBound)


def test_conjugate_separation_through_an_infinite_factor():
    # t:inf draws its exponents from -2..2, not from 1..order-1
    spec = CyclicFactorSpec.from_text("x:2 t:inf")
    result = conjugate_separation_search(spec, Word.gen("x"), Word.gen("t"), 3, 2)
    assert result == NoWitnessUpToBound(3, 2)


def test_conjugate_separation_preconditions():
    with pytest.raises(FactorError):
        conjugate_separation_search(C22, Word.gen("x"), Word.gen("x"), 4, 2)
    with pytest.raises(FactorError):
        conjugate_separation_search(C22, Word.empty(), Word.gen("y"), 4, 2)
    for bounds in ((-1, 2), (4, -1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            conjugate_separation_search(C22, Word.gen("x"), Word.gen("y"), *bounds)


def test_ping_pong_known_free_pair():
    spec = CyclicFactorSpec.from_text("factors: g:3 x:2")
    u = Word.from_text("g x g")
    v = Word.from_text("x g x g x")
    assert ping_pong_free_check(spec, u, v, 6)


def test_ping_pong_rejects_torsion_pairs():
    assert not ping_pong_free_check(C22, Word.gen("x"), Word.gen("y"), 2)
    u = Word.from_text("x y")
    assert not ping_pong_free_check(C23, u, u, 2)
    # u = x x is trivial when x has order 2, so u and v cannot be free
    assert not ping_pong_free_check(C23, Word.from_text("x x"), Word.gen("y"), 3)


def test_ping_pong_rejects_negative_length():
    # A negative bound used to make the search run until memory ran out.
    with pytest.raises(ValueError, match="max_length must be >= 0"):
        ping_pong_free_check(C23, Word.gen("x"), Word.gen("y"), -1)


def test_conjugates_of_a_freely_generate():
    # b^-1 a b and b^-2 a b^2 generate freely in F_2
    spec = CyclicFactorSpec.from_text("factors: a:inf b:inf")
    u = Word.from_text("b^-1 a b")
    v = Word.from_text("b^-1 b^-1 a b b")
    assert ping_pong_free_check(spec, u, v, 6)


# (p, q, k) with 1/p + 1/q + 1/k > 1: <x, y | x^p, y^q, (x y)^k> is a finite
# triangle group of order 2 / (1/p + 1/q + 1/k - 1), a quotient of C_p * C_q
SPHERICAL = [
    (p, q, k)
    for p, q, k in itertools.product(range(2, 6), repeat=3)
    if q * k + p * k + p * q > p * q * k
]
LETTERS = [("x", 1), ("x", -1), ("y", 1), ("y", -1)]


@st.composite
def triangles_and_words(draw):
    """A triangle (p, q, k), a word u, and a word v that is either u with a
    few p-th powers of x, q-th powers of y and cancelling pairs put in
    (equal to u in C_p * C_q) or drawn on its own."""
    p, q, k = draw(st.sampled_from(SPHERICAL))
    u = draw(st.lists(st.sampled_from(LETTERS), max_size=10))
    derived = draw(st.booleans())
    v = list(u) if derived else draw(st.lists(st.sampled_from(LETTERS), max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=4)) if derived else 0):
        name, sign = draw(st.sampled_from(LETTERS))
        if draw(st.booleans()):
            piece = [(name, sign)] * (p if name == "x" else q)
        else:
            piece = [(name, sign), (name, -sign)]
        pos = draw(st.integers(min_value=0, max_value=len(v)))
        v[pos:pos] = piece
    return (p, q, k), Word(tuple(u)), Word(tuple(v)), derived


@seed(20)
@settings(max_examples=200, deadline=None)
@given(triangles_and_words())
def test_equal_normal_forms_act_equally_on_a_finite_quotient(case):
    (p, q, k), u, v, derived = case
    spec = CyclicFactorSpec((("x", p), ("y", q)))
    form = normal_form(spec, u)
    assert form == normal_form(spec, free_reduce(u))
    assert normal_form(spec, form.to_word(spec)) == form
    quotient = Presentation(
        ("x", "y"), (Word.gen("x", p), Word.gen("y", q), Word.from_text("x y") ** k)
    )
    table = todd_coxeter(quotient)
    assert table.status == "complete"
    assert table.index * (q * k + p * k + p * q - p * q * k) == 2 * p * q * k
    column = {"x": 0, "y": 2}

    def fixes_every_coset(w):
        for coset in range(table.index):
            c = coset
            for name, sign in w.letters:
                c = table.rows[c][column[name] + (sign < 0)]
            if c != coset:
                return False
        return True

    assert fixes_every_coset(u * form.to_word(spec).inverse())
    if derived:
        assert normal_form(spec, v) == form
    if normal_form(spec, v) == form:
        assert fixes_every_coset(u * v.inverse())


# -- frozen search reference --------------------------------------------------
# A frozen copy of the separation search and the torsion classifier with
# their own exponent helpers: every (factor, exponent) list is rebuilt per
# prefix, a torsion word's end syllables are merged by hand, and every j
# is tried in turn.


def reference_normalize_exponent(exponent, order):
    if order is None:
        return exponent
    return exponent % order


def reference_exponent_candidates(spec, factor, max_exponent):
    order = spec.order_of(factor)
    if order is None:
        return [e for k in range(1, max_exponent + 1) for e in (k, -k)]
    return list(range(1, order))


def reference_enumerate_normal_forms(spec, max_syllables, max_exponent):
    yield NormalForm()
    n_factors = len(spec.factors)
    for length in range(1, max_syllables + 1):
        def extend(prefix):
            if len(prefix) == length:
                yield NormalForm(prefix)
                return
            for factor in range(n_factors):
                if prefix and prefix[-1][0] == factor:
                    continue
                for exponent in reference_exponent_candidates(spec, factor, max_exponent):
                    yield from extend(prefix + ((factor, exponent),))

        yield from extend(())


def reference_conjugate_separation_search(spec, a, b, max_syllables, max_exponent):
    if max_syllables < 0 or max_exponent < 0:
        raise ValueError("max_syllables and max_exponent must be >= 0")
    nf_a = normal_form(spec, a)
    nf_b = normal_form(spec, b)
    if not nf_a or not nf_b:
        raise FactorError("a and b must be nontrivial")
    if len(nf_a) != 1 or len(nf_b) != 1 or nf_a.syllables[0][0] == nf_b.syllables[0][0]:
        raise FactorError("a and b must lie in distinct factors")
    ab = nf_multiply(spec, nf_a, nf_b)
    member_bound = max_syllables + 2
    members = {nf_power(spec, ab, m).syllables for m in range(-member_bound, member_bound + 1)}
    signed = [e for k in range(1, max_exponent + 1) for e in (k, -k)]
    powers = {k: nf_power(spec, ab, k) for k in signed}
    for x in reference_enumerate_normal_forms(spec, max_syllables, max_exponent):
        if x.syllables in members:
            continue
        x_inv = nf_invert(spec, x)
        for i in signed:
            lhs = nf_multiply(spec, nf_multiply(spec, x, powers[i]), x_inv)
            for j in signed:
                if lhs == powers[j]:
                    return SeparationWitness(x.to_word(spec), i, j)
    return NoWitnessUpToBound(max_syllables, max_exponent)


def reference_is_torsion(spec, w):
    syl = list(normal_form(spec, w).syllables)
    conj = []
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        first = syl.pop(0)
        conj.append(first)
        factor, exponent = syl.pop()
        merged = reference_normalize_exponent(exponent + first[1], spec.order_of(factor))
        if merged:
            syl.append((factor, merged))
    conj_word = NormalForm(tuple(conj)).to_word(spec)
    if not syl:
        return True, TorsionWitness(conj_word, Word.empty())
    if len(syl) == 1 and spec.order_of(syl[0][0]) is not None:
        i, e = syl[0]
        return True, TorsionWitness(conj_word, Word.gen(spec.generator(i), e))
    return False, None


def outcome(f, *args):
    try:
        return f(*args)
    except (FactorError, ValueError) as e:
        return type(e), str(e)


def random_spec(rng):
    orders = [rng.choice((2, 2, 3, 4, 5, None)) for _ in range(rng.randint(2, 3))]
    return CyclicFactorSpec(tuple(zip("xyz", orders)))


# (spec, a, b, bounds, the witness's x or None): involutions that are
# powers, witnesses outside factor 0, zero bounds and no-witness inputs
SEPARATION_CASES = [
    ("x:4 y:2", "x x", "y", (1, 1), "x x"),  # an involution that is a power
    ("y:2 x:2", "x", "y", (6, 4), "y"),  # the lower-numbered factor's
    ("t:inf x:2 y:2", "x", "y", (2, 2), "x"),  # t^+-1, t^+-2 come first
    ("x:2 y:2", "x", "y", (0, 4), None),
    ("x:2 y:2", "x", "y", (6, 0), None),
    ("x:6 y:4", "x x x", "y y", (6, 4), "x x x"),
    ("x:4 y:2", "x", "y", (6, 4), None),
    ("x:2 y:2 z:3", "z", "y", (6, 4), None),
]


def check_witness(spec, a, b, got):
    """x (ab)^i x^-1 == (ab)^j, and x is no (ab)^m with |m| <= len(x)."""
    ab = normal_form(spec, a * b)
    x = normal_form(spec, got.x)
    lhs = nf_multiply(spec, nf_multiply(spec, x, nf_power(spec, ab, got.i)), nf_invert(spec, x))
    assert lhs == nf_power(spec, ab, got.j)
    assert all(x != nf_power(spec, ab, m) for m in range(-len(got.x), len(got.x) + 1))


def test_separation_search_matches_frozen_reference():
    for spec_text, a, b, bounds, x in SEPARATION_CASES:
        spec = CyclicFactorSpec.from_text(spec_text)
        a, b = Word.from_text(a), Word.from_text(b)
        got = conjugate_separation_search(spec, a, b, *bounds)
        assert got == reference_conjugate_separation_search(spec, a, b, *bounds)
        if x is None:
            assert got == NoWitnessUpToBound(*bounds)
        else:
            assert got == SeparationWitness(Word.from_text(x), 1, -1)
            check_witness(spec, a, b, got)
    rng = random.Random(27)
    witnesses = 0
    for _ in range(100):
        spec = random_spec(rng)
        # distinct factors; an exponent 2 in a factor of order 2 is trivial
        factors = rng.sample(spec.factors, 2)
        a, b = (Word.gen(name, rng.choice((1, -1, 1, 2))) for name, _ in factors)
        bounds = rng.randint(0, 4), rng.randint(0, 3)
        got = outcome(conjugate_separation_search, spec, a, b, *bounds)
        assert got == outcome(reference_conjugate_separation_search, spec, a, b, *bounds)
        if isinstance(got, SeparationWitness):
            check_witness(spec, a, b, got)
            witnesses += 1
    assert witnesses >= 5


def test_is_torsion_matches_frozen_reference():
    rng = random.Random(27)
    for _ in range(8000):
        spec = random_spec(rng)
        letters = [(name, s) for name, _ in spec.factors for s in (1, -1)]
        w = Word(tuple(rng.choice(letters) for _ in range(rng.randint(0, 10))))
        assert is_torsion(spec, w) == reference_is_torsion(spec, w)


def reference_ping_pong_free_check(spec, u, v, max_length):
    """A frozen copy of the ping-pong check that keeps each DFS node's
    whole sequence of abstract letters."""
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    nf_u = normal_form(spec, u)
    nf_v = normal_form(spec, v)
    if not nf_u or not nf_v:
        return False
    basis = {1: nf_u, -1: nf_invert(spec, nf_u), 2: nf_v, -2: nf_invert(spec, nf_v)}
    stack = [((), NormalForm())]
    while stack:
        seq, value = stack.pop()
        if seq and not value:
            return False
        if len(seq) == max_length:
            continue
        for letter in (1, -1, 2, -2):
            if seq and seq[-1] == -letter:
                continue
            stack.append((seq + (letter,), nf_multiply(spec, value, basis[letter])))
    return True


def test_ping_pong_matches_frozen_reference():
    rng = random.Random(30)
    verdicts = set()
    for _ in range(300):
        spec = random_spec(rng)
        letters = [(name, s) for name, _ in spec.factors for s in (1, -1)]
        u, v = (Word(tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))) for _ in "uv")
        length = rng.randint(0, 6)
        got = ping_pong_free_check(spec, u, v, length)
        assert got == reference_ping_pong_free_check(spec, u, v, length)
        verdicts.add(got)
    assert verdicts == {True, False}
