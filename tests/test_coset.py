import json
import math
import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from torlen.cli import main
from torlen.constructions import build_pjkl, build_pn
from torlen.coset import CosetTable, table_error, todd_coxeter
from torlen.presentation import Presentation, abelianization, adjoin_relators
from torlen.stallings import UnionFind, build_subgroup_graph
from torlen.words import Word, cyclic_split_ints, free_reduce, word_to_ints

from test_golden import coxeter_sym, fibonacci, standardize


def P(gens, *relators):
    return Presentation(tuple(gens.split()), tuple(Word.from_text(r) for r in relators))


def trace(table, coset, word):
    """Follow a word through a completed action table."""
    index = {g: i for i, g in enumerate(table.generators)}
    for g, s in word.letters:
        x = index[g] * 2 + (0 if s == 1 else 1)
        coset = table.rows[coset][x]
    return coset


def test_cyclic_groups():
    for k in range(2, 51):
        t = todd_coxeter(P("x", " ".join(["x"] * k)))
        assert t.status == "complete" and t.index == k


def test_pn1_is_c3():
    t = todd_coxeter(build_pn(1))
    assert t.status == "complete" and t.index == 3


def test_pjkl_quotient():
    q = adjoin_relators(build_pjkl(2, 3, 4), [Word.gen("x"), Word.gen("y")])
    t = todd_coxeter(q)
    assert t.status == "complete" and t.index == 4


def test_infinite_dihedral_exceeds_bound():
    t = todd_coxeter(P("x y", "x x", "y y"), max_cosets=500)
    assert t.status == "bound_exceeded" and t.limit == 500


def test_complete_table_satisfies_relators():
    p = P("a b", "a a a", "b b", "a b a b")  # S_3
    t = todd_coxeter(p)
    assert t.status == "complete" and t.index == 6
    for coset in range(t.index):
        for r in p.relators:
            assert trace(t, coset, r) == coset


def test_subgroup_index():
    p = P("a b", "a a a", "b b", "a b a b")
    t = todd_coxeter(p, [Word.gen("b")])
    assert t.status == "complete" and t.index == 3
    assert trace(t, 0, Word.gen("b")) == 0


def test_invariance_under_relator_permutation_and_inversion():
    p = P("a b", "a a a a", "b b", "a b a^-1 b^-1")
    reference = todd_coxeter(p)
    assert reference.status == "complete" and reference.index == 8
    rng = random.Random(6)
    rels = list(p.relators)
    for _ in range(6):
        rng.shuffle(rels)
        variant = tuple(r.inverse() if rng.random() < 0.5 else r for r in rels)
        t = todd_coxeter(Presentation(p.generators, variant))
        assert t.digest() == reference.digest()


def test_invariance_under_subgroup_generator_order():
    p = coxeter_sym(5)
    subgroup = [Word.gen("s2"), Word.from_text("s1 s2"), Word.gen("s4")]  # S_3 x S_2
    reference = todd_coxeter(p, subgroup)
    assert reference.status == "complete" and reference.index == 10
    rng = random.Random(7)
    for _ in range(6):
        rng.shuffle(subgroup)
        assert todd_coxeter(p, subgroup).digest() == reference.digest()


@pytest.mark.parametrize("square", ["b b", "b^-1 b^-1", "a b b a^-1", "a^-1 b^-1 b^-1 a"])
def test_invariance_under_the_form_of_an_involution(square):
    # D_5 with b of order 2; each form makes b one column of the table
    d5, variant = (P("a b", "a a a a a", r, "b a b a") for r in ("b b", square))
    reference = todd_coxeter(d5)
    assert reference.status == "complete" and reference.index == 10
    assert todd_coxeter(variant).digest() == reference.digest()
    t = todd_coxeter(variant, [Word.gen("b")])
    assert t.index == 5 and table_error(t, d5, [Word.gen("b")]) is None


def test_involution_matches_two_column_enumeration():
    # S_4 on two transpositions s, t and a 4-cycle u, which keeps two columns
    p = P("s t u", "s s", "t t", "u u u u", "s t s t s t", "u s u^-1 t", "s u s u s u")
    for subgroup in ([], [Word.gen("s")], [Word.gen("u")], [Word.from_text("s u")]):
        t = todd_coxeter(p, subgroup)
        status, index, _, rows = reference_todd_coxeter(p, subgroup)
        assert t.status == status == "complete"
        assert (t.index, t.rows) == (index, standardize(rows))
        assert table_error(t, p, subgroup) is None


def test_agrees_with_abelianization_on_power_presentations():
    for k in (2, 3, 7, 12, 30):
        p = P("x", " ".join(["x"] * k))
        t = todd_coxeter(p)
        inv = abelianization(p)
        assert t.index == math.prod(inv.torsion_coefficients)


def test_empty_presentation_is_trivial_group():
    t = todd_coxeter(Presentation((), ()))
    assert t.status == "complete" and t.index == 1


def test_free_generator_exceeds_bound():
    t = todd_coxeter(P("x"), max_cosets=100)
    assert t.status == "bound_exceeded"


def test_digest_is_reproducible():
    a = todd_coxeter(build_pn(1))
    b = todd_coxeter(build_pn(1))
    assert a.digest() == b.digest()
    assert a.to_json()["table_digest"] == a.digest()


def test_rejects_undeclared_subgroup_words():
    with pytest.raises(ValueError):
        todd_coxeter(P("x", "x x"), [Word.gen("y")])


@pytest.mark.parametrize("max_cosets", [0, -3])
def test_rejects_budgets_below_one(max_cosets):
    with pytest.raises(ValueError, match="max_cosets must be >= 1"):
        todd_coxeter(P("x", "x x"), max_cosets=max_cosets)


def test_long_relator_completes(tmp_path, capsys):
    # One scan makes 2000 definitions, more than Python's recursion limit.
    path = tmp_path / "a2000.txt"
    path.write_text("gens: a\nrel: " + " ".join(["a"] * 2000) + "\n")
    assert main(["tc", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "complete" and out["index"] == 2000


def test_coincidences_close_completely():
    # b^6 = b a b b a b b = 1 with a = 1 gives b = 1: the trivial group.
    p = P("a b c", "a", "b b b b b b", "c", "b a b b a b b")
    t = todd_coxeter(p)
    assert t.status == "complete" and t.index == 1
    # b = 1, so a^-1 b a a = a and the subgroup is the whole group.
    p = P("a b", "b", "b", "b")
    t = todd_coxeter(p, [Word.from_text("b^-1"), Word.from_text("a^-1 b a a")], max_cosets=50)
    assert t.status == "complete" and t.index == 1


GENERATORS = ("a", "b", "c")


def words(gens, min_size, max_size):
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    return st.lists(letter, min_size=min_size, max_size=max_size).map(
        lambda letters: Word(tuple(letters))
    )


@st.composite
def presentations_with_subgroups(draw):
    gens = GENERATORS[: draw(st.integers(1, 3))]
    powers = [Word(((g, 1),) * draw(st.integers(1, 6))) for g in gens if draw(st.booleans())]
    others = draw(st.lists(words(gens, 1, 8), max_size=3))
    subgroup = draw(st.lists(words(gens, 1, 4), max_size=2))
    return Presentation(gens, tuple(powers + others)), subgroup


@settings(max_examples=60, deadline=None)
@given(presentations_with_subgroups())
def test_complete_tables_are_valid(case):
    p, subgroup = case
    t = todd_coxeter(p, subgroup, max_cosets=2000)
    if t.status == "complete":
        assert table_error(t, p, subgroup) is None


def test_table_error_finds_each_fault():
    p = P("a b", "a a a", "b b", "a b a b")  # S_3
    t = todd_coxeter(p, [Word.gen("b")])
    assert table_error(t, p, [Word.gen("b")]) is None
    rows = [list(row) for row in t.rows]

    def forged(rows):
        return CosetTable("complete", len(rows), None, p.generators, tuple(map(tuple, rows)))

    swapped = [row[:] for row in rows]
    swapped[0][0] = swapped[1][0]
    assert "not a permutation" in table_error(forged(swapped), p)
    # a's column read for a^-1 as well: both permute, but a is a 3-cycle
    doubled = [[row[0], row[0], row[2], row[3]] for row in rows]
    assert "does not invert" in table_error(forged(doubled), p)
    assert "does not close at coset 0" in table_error(t, P("a b", "a"))
    assert "does not fix coset 0" in table_error(t, p, [Word.gen("a")])
    assert "does not fix coset 0" in table_error(t, p, [Word.gen("z")])
    assert "not reached" in table_error(forged([[0, 0, 0, 0], [1, 1, 1, 1]]), P("a b", "a", "b"))
    assert "bound_exceeded" in table_error(todd_coxeter(P("a"), max_cosets=9), P("a"))
    assert table_error(t, P("a c", "a a a", "c c", "a c a c")) == (
        "table shape does not match the presentation"
    )


@pytest.mark.parametrize(
    "p, subgroup, max_cosets",
    [(fibonacci(7), [], 200_000), (coxeter_sym(8), [Word.gen("s1")], 40_000)],
    ids=["F(2,7)", "S_8/<s1>"],
)
def test_table_error_accepts_large_tables(p, subgroup, max_cosets):
    # each coset enters the reachability search once: S_8/<s1> has 20,160
    t = todd_coxeter(p, subgroup, max_cosets=max_cosets)
    assert t.status == "complete" and table_error(t, p, subgroup) is None


@st.composite
def finite_abelian_presentations(draw):
    gens = GENERATORS[: draw(st.integers(1, 3))]
    commutators = [Word.from_text(f"{g} {h} {g}^-1 {h}^-1") for g, h in combinations(gens, 2)]
    powers = [Word(((g, 1),) * draw(st.integers(1, 6))) for g in gens]
    extra = [
        Word(draw(words(gens, 1, 3)).letters * draw(st.integers(1, 4)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return Presentation(gens, tuple(commutators + powers + extra))


@settings(max_examples=40, deadline=None)
@given(finite_abelian_presentations())
def test_index_matches_abelianization_order(p):
    t = todd_coxeter(p)
    inv = abelianization(p)
    assert inv.free_rank == 0
    assert t.status == "complete" and t.index == math.prod(inv.torsion_coefficients)


def reference_todd_coxeter(p, subgroup_generators=(), max_cosets=10_000):
    """A frozen copy of the HLT enumerator as first written on live-only
    table entries: union-find lookups on both ends of every coincidence,
    a nested identify, and the same definition and coincidence order.
    Returns (status, index, limit, rows), with rows in allocation order."""
    n_letters = 2 * len(p.generators)
    index = {g: i for i, g in enumerate(p.generators)}

    def letters(w):
        return tuple(index[g] * 2 + (0 if s == 1 else 1) for g, s in w.letters)

    relators = [r for r in (letters(r) for r in p.relators) if r]
    subgroup = [letters(w) for w in (free_reduce(w) for w in subgroup_generators) if w]
    if not p.generators:
        return "complete", 1, None, ((),)
    parent, table, live = [0], [[None] * n_letters], [1]

    class Exhausted(Exception):
        pass

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def define(a, x):
        if live[0] >= max_cosets:
            raise Exhausted
        b = len(parent)
        parent.append(b)
        table.append([None] * n_letters)
        live[0] += 1
        table[a][x] = b
        table[b][x ^ 1] = a

    def coincidence(a, b):
        queue = []

        def identify(c, d):
            c, d = find(c), find(d)
            if c != d:
                c, d = min(c, d), max(c, d)
                parent[d] = c
                queue.append(d)

        identify(a, b)
        for e in queue:
            for x, f in enumerate(table[e]):
                if f is None:
                    continue
                table[f][x ^ 1] = None
                mu, nu = find(e), find(f)
                if table[mu][x] is not None:
                    identify(nu, table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    identify(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu
            table[e] = None
        live[0] -= len(queue)

    def scan_and_fill(start, word):
        f, fi = start, 0
        b, bi = start, len(word)
        while True:
            while fi < bi and (nxt := table[f][word[fi]]) is not None:
                f, fi = nxt, fi + 1
            while bi > fi and (prev := table[b][word[bi - 1] ^ 1]) is not None:
                b, bi = prev, bi - 1
            if bi == fi:
                if f != b:
                    coincidence(f, b)
                return
            if bi == fi + 1:
                table[f][word[fi]] = b
                table[b][word[fi] ^ 1] = f
                return
            define(f, word[fi])

    try:
        for w in subgroup:
            scan_and_fill(0, w)
        alpha = 0
        while alpha < len(table):
            if parent[alpha] == alpha:
                for rel in relators:
                    scan_and_fill(alpha, rel)
                    if parent[alpha] != alpha:
                        break
                else:
                    for x, entry in enumerate(table[alpha]):
                        if entry is None:
                            define(alpha, x)
            alpha += 1
    except Exhausted:
        return "bound_exceeded", None, max_cosets, ()
    alive = [a for a in range(len(table)) if parent[a] == a]
    number = {a: i for i, a in enumerate(alive)}
    return "complete", len(alive), None, tuple(tuple(number[e] for e in table[a]) for a in alive)


# b^6 = b a b b a b b = 1 with a = 1 collapses to the trivial group: 12
# cosets are allocated, 9 live at the peak, so a budget of 8 runs out
# after coincidences have freed cosets and a budget of 9 completes.
TRIVIAL_BY_COINCIDENCE = P("a b c", "a", "b b b b b b", "c", "b a b b a b b")
# F(2,5), order 11: 165 cosets allocated, 92 live at the peak.
F25 = P("a0 a1 a2 a3 a4", *(f"a{i} a{(i + 1) % 5} a{(i + 2) % 5}^-1" for i in range(5)))


@settings(max_examples=150, deadline=None)
@given(presentations_with_subgroups(), st.booleans(), st.sampled_from((4, 9, 30, 120, 2000)))
@example((TRIVIAL_BY_COINCIDENCE, []), False, 8)
@example((TRIVIAL_BY_COINCIDENCE, []), False, 9)
@example((F25, []), False, 91)
@example((F25, []), False, 92)
# a is killed, so its letters are deleted: b a b a^-1 b is scanned as b^3
@example((P("a b", "a", "b a b a^-1 b"), [Word.from_text("a b")]), True, 4)
# b a b^-1 becomes empty and is dropped
@example((P("a b", "a", "b a b^-1", "b b b"), []), False, 4)
# b is an involution: b^-1 reads as b, and b b cancels in a b b a b
@example((P("a b", "b b", "a b a b^-1 a", "a a a a"), []), False, 9)
@example((P("a b", "b b", "a b b a b", "a a a a"), []), False, 9)
def test_matches_reference_enumerator(case, with_subgroup, max_cosets):
    p, subgroup = case
    subgroup = subgroup if with_subgroup else []
    t = todd_coxeter(p, subgroup, max_cosets=max_cosets)
    status, index, limit, rows = reference_todd_coxeter(p, subgroup, max_cosets)
    if t.status == status:
        assert (t.index, t.limit, t.rows) == (index, limit, standardize(rows))
        return
    # The peak of live cosets depends on the definition order, which is
    # free to differ from the reference's, so a budget near the peak may
    # run out on one side only.  The side that completes must hold a
    # valid table, and both sides must agree at a budget above both peaks.
    # A draw that completes within 2000 cosets on one side has needed up
    # to 5000 on the other.
    done = t if t.status == "complete" else CosetTable(status, index, limit, p.generators, rows)
    assert table_error(done, p, subgroup) is None
    t = todd_coxeter(p, subgroup, max_cosets=10_000)
    status, index, _, rows = reference_todd_coxeter(p, subgroup, 10_000)
    assert (t.status, t.index, t.rows) == (status, index, standardize(rows))


def test_reference_enumerator_runs_out_after_coincidences():
    assert reference_todd_coxeter(TRIVIAL_BY_COINCIDENCE, (), 8)[0] == "bound_exceeded"
    assert reference_todd_coxeter(TRIVIAL_BY_COINCIDENCE, (), 9)[:2] == ("complete", 1)
    assert reference_todd_coxeter(F25, (), 91)[0] == "bound_exceeded"
    assert reference_todd_coxeter(F25, (), 92)[:2] == ("complete", 11)


def test_named_inputs_keep_their_status():
    # The examples above, and perfbench's tc inputs at their budgets, keep
    # their status under any change of definition order: none may turn
    # from complete to bound_exceeded, nor S_8/<s1> or P_{2,2,2} complete.
    assert todd_coxeter(TRIVIAL_BY_COINCIDENCE, max_cosets=4).status == "bound_exceeded"
    assert todd_coxeter(TRIVIAL_BY_COINCIDENCE, max_cosets=5).index == 1
    assert todd_coxeter(F25, max_cosets=58).status == "bound_exceeded"
    assert todd_coxeter(F25, max_cosets=59).index == 11
    assert todd_coxeter(F25, max_cosets=200).index == 11
    assert todd_coxeter(fibonacci(7), max_cosets=100_000).index == 29
    xy = [Word.gen("x"), Word.gen("y")]
    for j, k, l in product(range(2, 6), repeat=3):
        assert todd_coxeter(adjoin_relators(build_pjkl(j, k, l), xy), max_cosets=1000).index == l
    assert todd_coxeter(build_pjkl(2, 2, 2)).status == "bound_exceeded"
    assert todd_coxeter(coxeter_sym(8), [Word.gen("s1")]).status == "bound_exceeded"


def reference_prepare_relators(p, index):
    """A frozen copy of the relator preparation with self-loop columns: a
    generator killed by a one-letter relator gets one column, whose entry
    at each coset is that coset, and its letters are deleted from the
    scanned loops.  Returns (col, inv, loops, words) as
    ``reference_prepared_todd_coxeter`` reads them."""
    cores = [cyclic_split_ints(word_to_ints(r, index))[1] for r in p.relators]
    killed = {abs(w[0]) - 1 for w in cores if len(w) == 1}
    one_column = killed | {abs(w[0]) - 1 for w in cores if len(w) == 2 and w[0] == w[1]}
    col, inv, loops = [], [], []
    for i in range(len(index)):
        c = len(inv)
        if i in one_column:
            col += [c, c]
            inv.append(c)
            if i in killed:
                loops.append(c)
        else:
            col += [c, c + 1]
            inv += [c + 1, c]

    skip = set(loops)
    words = []
    for core in cores:
        stack = []
        for x in core:
            c = col[2 * abs(x) - 2 + (x < 0)]
            if c in skip:
                continue
            if stack and stack[-1] == inv[c]:
                stack.pop()
            else:
                stack.append(c)
        lo, hi = 0, len(stack)
        while hi - lo > 1 and stack[hi - 1] == inv[stack[lo]]:
            lo, hi = lo + 1, hi - 1
        if lo < hi:
            words.append(tuple(stack[lo:hi]))
    words.sort(key=len)

    def inverse(w):
        return tuple(inv[c] for c in reversed(w))

    seen = {*words, *map(inverse, words)}
    conjugates = []
    for w in words:
        for k in range(1, len(w)):
            if (v := w[k:] + w[:k]) not in seen:
                seen.update((v, inverse(v)))
                conjugates.append(v)
    return col, inv, loops, words + conjugates


def reference_prepared_todd_coxeter(p, subgroup_generators=(), max_cosets=10_000):
    """A frozen copy of the enumerator as it stood over
    ``reference_prepare_relators``: an ``_Enumerator`` class with
    ``define``, ``coincidence`` and ``scan_and_fill`` methods, subgroup
    words freely reduced over the columns and scanned at coset 0 before
    the HLT loop starts.  Returns (status, index, limit, rows) with rows
    standardized as ``todd_coxeter`` returns them."""
    index = {g: i for i, g in enumerate(p.generators)}
    subgroup = [free_reduce(w) for w in subgroup_generators]
    if not p.generators:
        return "complete", 1, None, ((),)
    col, inv, loops, words = reference_prepare_relators(p, index)

    class Exhausted(Exception):
        pass

    class Enumerator(UnionFind):
        def __init__(self):
            super().__init__(1)
            row = [None] * len(inv)
            for c in loops:
                row[c] = 0
            self.table = [row]
            self.live_count = 1

        def define(self, a, x):
            if self.live_count >= max_cosets:
                raise Exhausted
            b = self.add()
            row = [None] * len(inv)
            for c in loops:
                row[c] = b
            self.table.append(row)
            self.live_count += 1
            self.table[a][x] = b
            self.table[b][inv[x]] = a

        def coincidence(self, a, b):
            table, parent, find = self.table, self.parent, self.find
            queue = [max(a, b)]
            parent[queue[0]] = min(a, b)
            for e in queue:
                mu = parent[e]
                for x, f in enumerate(table[e]):
                    if f is None:
                        continue
                    ix = inv[x]
                    table[f][ix] = None
                    if parent[mu] != mu:
                        mu = find(mu)
                    nu = parent[f]
                    if parent[nu] != nu:
                        nu = find(nu)
                    if (c := table[mu][x]) is not None:
                        d = nu
                    elif (c := table[nu][ix]) is not None:
                        d = mu
                    else:
                        table[mu][x], table[nu][ix] = nu, mu
                        continue
                    c = parent[c]
                    if parent[c] != c:
                        c = find(c)
                    if c != d:
                        c, d = (c, d) if c < d else (d, c)
                        parent[d] = c
                        queue.append(d)
                table[e] = None
            self.live_count -= len(queue)

        def scan_and_fill(self, start, word, back):
            table = self.table
            f, fi = start, 0
            b, bi = start, len(word)
            while True:
                while fi < bi and (nxt := table[f][word[fi]]) is not None:
                    f, fi = nxt, fi + 1
                while bi > fi and (prev := table[b][back[bi - 1]]) is not None:
                    b, bi = prev, bi - 1
                if bi == fi:
                    if f != b:
                        self.coincidence(f, b)
                    return
                if bi == fi + 1:
                    table[f][word[fi]] = b
                    table[b][back[fi]] = f
                    return
                self.define(f, word[fi])

    def with_back(word):
        return word, tuple(inv[c] for c in word)

    def over_columns(w):
        # freely reduced over the columns, killed-loop columns skipped
        stack = []
        for g, s in w.letters:
            c = col[2 * index[g] + (s < 0)]
            if c in loops:
                continue
            if stack and stack[-1] == inv[c]:
                stack.pop()
            else:
                stack.append(c)
        return tuple(stack)

    relators = [with_back(w) for w in words]
    subgroup_words = [with_back(w) for w in map(over_columns, subgroup) if w]
    enum = Enumerator()
    table, parent = enum.table, enum.parent
    try:
        for w, back in subgroup_words:
            enum.scan_and_fill(0, w, back)
        alpha = 0
        while alpha < len(table):
            if parent[alpha] == alpha:
                for rel, back in relators:
                    enum.scan_and_fill(alpha, rel, back)
                    if parent[alpha] != alpha:
                        break
                else:
                    for x, entry in enumerate(table[alpha]):
                        if entry is None:
                            enum.define(alpha, x)
            alpha += 1
    except Exhausted:
        return "bound_exceeded", None, max_cosets, ()
    number = [-1] * len(table)
    number[0] = 0
    order = [0]
    for a in order:
        for b in table[a]:
            if number[b] < 0:
                number[b] = len(order)
                order.append(b)
    rows = tuple(tuple(number[table[a][c]] for c in col) for a in order)
    return "complete", len(order), None, rows


@settings(max_examples=150, deadline=None)
@given(presentations_with_subgroups(), st.booleans(), st.sampled_from((4, 9, 30, 120, 2000)))
@example((TRIVIAL_BY_COINCIDENCE, []), False, 8)
@example((TRIVIAL_BY_COINCIDENCE, []), False, 9)
@example((F25, []), False, 58)
@example((F25, []), False, 59)
@example((P("a b", "a", "b a b a^-1 b"), [Word.from_text("a b")]), True, 4)
@example((P("a b", "b b", "a b a b^-1 a", "a a a a"), []), False, 9)
# the subgroup word a closes coset 0 before a^5 is scanned there
@example((P("a", "a a a a a"), [Word.gen("a")]), True, 4)
# b (an involution) and c are in no scanned loop, so every coset's
# b and c entries are defined after its relator scans
@example((P("a b c", "a a a", "b b"), [Word.gen("c")]), True, 9)
# a = 1 and b is in no loop: defining b's entries at coset 0 before its
# relator scans runs out of budget
@example((P("a b", "a a a a", "a a a"), [Word.from_text("a^-1 b a")]), True, 4)
# a is killed, and the subgroup words pass through it; a c a c^-1 reduces
# to the empty word once a is deleted, so it now completes at budget 4
@example((P("a b", "a", "b b b"), [Word.from_text("a b a^-1")]), True, 4)
@example(
    (P("a b c", "a", "a b^-1 c a^-1 a^-1", "b c a^-1 c c"), [Word.from_text("a c a c^-1")]),
    True,
    4,
)
@example((Presentation((), ()), []), False, 4)
@example((P("a", "a"), [Word.gen("a")]), True, 4)
def test_matches_prepared_reference_exactly(case, with_subgroup, max_cosets):
    # The definition and coincidence order is the frozen copy's, so the
    # two agree at every budget, including one near the live peak.
    p, subgroup = case
    subgroup = subgroup if with_subgroup else []
    t = todd_coxeter(p, subgroup, max_cosets=max_cosets)
    expected = reference_prepared_todd_coxeter(p, subgroup, max_cosets)
    assert (t.status, t.index, t.limit, t.rows) == expected


# -- contracts between engines and across budgets -----------------------------
# These hold under any definition order, so they keep checking the
# enumerator when a change retires a frozen reference's example.


def random_word(rng, gens, min_len, max_len):
    letters = [(g, s) for g in gens for s in (1, -1)]
    return Word(tuple(rng.choice(letters) for _ in range(rng.randint(min_len, max_len))))


def random_presentation(rng):
    """1-3 generators and 0-4 relators of 1-6 letters."""
    gens = GENERATORS[: rng.randint(1, 3)]
    return Presentation(gens, tuple(random_word(rng, gens, 1, 6) for _ in range(rng.randint(0, 4))))


def stabilizer_generators(perms):
    """The Schreier generators of the stabilizer of point 0 under the
    action of F(a, b) given by the permutations a, b of 0..n-1, or None
    when the action is not transitive."""
    inverse = {g: {v: u for u, v in enumerate(perm)} for g, perm in perms.items()}
    path = {0: Word.empty()}
    for u in list(path):
        for g, s in (("a", 1), ("a", -1), ("b", 1), ("b", -1)):
            v = perms[g][u] if s > 0 else inverse[g][u]
            if v not in path:
                path[v] = path[u] * Word.gen(g, s)
    if len(path) < len(perms["a"]):
        return None
    loops = (path[u] * Word.gen(g) * path[perm[u]].inverse() for g, perm in perms.items() for u in path)
    return [w for w in map(free_reduce, loops) if w]


def folded_rows(graph):
    """The folded graph as a coset table over a, a^-1, b, b^-1, numbered
    breadth-first from the base, or None when some vertex lacks a letter."""
    step = [{} for _ in range(graph.n_vertices)]
    for u, g, v in graph.edges:
        step[u][g, 1], step[v][g, -1] = v, u
    if any(len(s) < 4 for s in step):
        return None
    rows = [tuple(s[x] for x in (("a", 1), ("a", -1), ("b", 1), ("b", -1))) for s in step]
    # put the base first, so standardize numbers from it
    order = [graph.base] + [v for v in range(graph.n_vertices) if v != graph.base]
    number = {v: k for k, v in enumerate(order)}
    return standardize(tuple(tuple(number[c] for c in rows[v]) for v in order))


def test_finite_index_tables_are_folded_graphs():
    # A subgroup of a free group has finite index iff its folded graph has
    # every letter at every vertex, and then that graph is its coset table
    # (Kapovich & Myasnikov 2002).  Some draws keep a random part of the
    # Schreier generators, so some graphs are not complete.
    rng = random.Random(3)
    free = Presentation(("a", "b"), ())
    complete = incomplete = 0
    while complete + incomplete < 900:
        n = rng.randint(1, 12)
        perms = {g: rng.sample(range(n), n) for g in "ab"}
        if (words := stabilizer_generators(perms)) is None:
            continue
        if rng.random() < 0.3:
            words = rng.sample(words, rng.randint(0, len(words)))
        rows = folded_rows(build_subgroup_graph(("a", "b"), words))
        t = todd_coxeter(free, words, max_cosets=2000)
        if rows is None:
            assert t.status == "bound_exceeded"
            incomplete += 1
        else:
            assert t.status == "complete" and t.rows == rows
            complete += 1
    assert complete > 600 and incomplete > 100


def test_abelian_quotients_match_their_smith_normal_form():
    # With every commutator adjoined the group is its abelianization: free
    # rank 0 means order = the product of the torsion coefficients, free
    # rank above 0 an infinite group, which no budget can complete.
    rng = random.Random(4)
    finite = 0
    for _ in range(1200):
        p = random_presentation(rng)
        commutators = [
            Word.from_text(f"{x} {y} {x}^-1 {y}^-1") for x, y in combinations(p.generators, 2)
        ]
        ab = abelianization(p)
        t = todd_coxeter(adjoin_relators(p, commutators), max_cosets=300)
        if ab.free_rank:
            assert t.status == "bound_exceeded"
        else:
            assert t.status == "complete" and t.index == math.prod(ab.torsion_coefficients)
            finite += 1
    assert 300 < finite < 1000


def test_complete_tables_survive_larger_budgets():
    rng = random.Random(5)
    complete = 0
    for _ in range(1200):
        p = random_presentation(rng)
        subgroup = [random_word(rng, p.generators, 1, 4) for _ in range(rng.randint(0, 2))]
        tables = [todd_coxeter(p, subgroup, max_cosets=b) for b in (4, 9, 30, 120, 600)]
        done = [t for t in tables if t.status == "complete"]
        assert tables[len(tables) - len(done) :] == done
        assert all(t.rows == done[0].rows for t in done)
        complete += bool(done)
    assert complete > 500
