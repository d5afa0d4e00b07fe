"""End-to-end acceptance checks.

Each test records a single PASS/FAIL line with its wall time (printed in a
summary section at the end of the run; see conftest.py) and also enforces
the stated time budget.
"""

import math
import random
import time
from itertools import combinations

from conftest import ACCEPTANCE_LINES

from torlen.abelian import AbelianInvariants, smith_normal_form
from torlen.constructions import (
    build_chain,
    build_ln,
    build_pjkl,
    build_pn,
    build_qn,
    build_tgen,
)
from torlen.coset import todd_coxeter
from torlen.freeprod import (
    CyclicFactorSpec,
    NoWitnessUpToBound,
    SeparationWitness,
    conjugate_separation_search,
    nf_invert,
    nf_multiply,
    nf_power,
    normal_form,
    ping_pong_free_check,
)
from torlen.presentation import (
    Presentation,
    abelianization,
    adjoin_relators,
    canonicalize,
    free_product,
    kill_generators,
)
from torlen.stallings import build_subgroup_graph, closure_members, membership
from torlen.torsion import (
    check_certificates,
    torsion_certificate_search,
    torsion_length,
    torsion_quotient_step,
)
from torlen.words import Word, free_reduce, substitute


class criterion:
    """Context manager: times the body, records one PASS/FAIL line, and
    enforces the budget."""

    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        ACCEPTANCE_LINES.append(
            f"[{status}] criterion {self.number:2d}: {self.description}"
            f" ({elapsed:.2f}s / budget {self.budget}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_01_family_shape():
    with criterion(1, "tree family counts and relator lengths", 1):
        for n in range(11):
            p = build_pn(n)
            assert len(p.generators) == 2**n - 1
            assert len(p.relators) == 2**n - 1
            assert all(len(r) in (3, 5) for r in p.relators)


def test_criterion_02_torsion_length_exactness():
    with criterion(2, "torsion-length exactness on both families", 5):
        for n in range(7):
            report = torsion_length(build_pn(n))
            assert report.value == n and report.exact and report.sound
        for j in range(2, 6):
            for k in range(2, 6):
                for l in range(2, 6):
                    report = torsion_length(build_pjkl(j, k, l))
                    assert report.value == 2 and report.exact
        assert torsion_length(build_pjkl(2, 2, 2)).value == 2


def test_criterion_03_quotient_step_isomorphism():
    with criterion(3, "quotient step descends the tree family", 1):
        for n in range(1, 9):
            step = torsion_quotient_step(build_pn(n))
            assert canonicalize(step.presentation) == canonicalize(build_pn(n - 1))


def test_criterion_04_finite_quotient_certification():
    with criterion(4, "coset enumeration certifies finite quotients", 2):
        t = todd_coxeter(build_pn(1))
        assert t.status == "complete" and t.index == 3
        xy = [Word.gen("x"), Word.gen("y")]
        for j in range(2, 7):
            for k in range(2, 7):
                for l in range(2, 7):
                    q = adjoin_relators(build_pjkl(j, k, l), xy)
                    t = todd_coxeter(q)
                    assert t.status == "complete" and t.index == l


def test_criterion_05_conjugate_separation():
    with criterion(5, "conjugate-separation witness and non-witnesses", 5):
        c22 = CyclicFactorSpec.from_text("factors: x:2 y:2")
        result = conjugate_separation_search(c22, Word.gen("x"), Word.gen("y"), 6, 4)
        assert result == SeparationWitness(Word.gen("x"), 1, -1)
        for text in ("factors: x:3 y:3", "factors: x:2 y:3"):
            spec = CyclicFactorSpec.from_text(text)
            result = conjugate_separation_search(spec, Word.gen("x"), Word.gen("y"), 6, 4)
            assert isinstance(result, NoWitnessUpToBound)


def test_criterion_06_free_subgroup_certificate():
    with criterion(6, "ping-pong freeness certificates", 10):
        c32 = CyclicFactorSpec.from_text("factors: g:3 x:2")
        u = Word.from_text("g x g")  # y x z with y = z = g
        v = Word.from_text("x g x g x")  # x y x z x
        assert ping_pong_free_check(c32, u, v, 8)
        c42 = CyclicFactorSpec.from_text("factors: g:4 x:2")
        u = Word.from_text("g x g g")  # y = g, z = g^2
        v = Word.from_text("x g x g g x")
        assert ping_pong_free_check(c42, u, v, 8)


def test_criterion_07_dihedral_structure():
    with criterion(7, "infinite dihedral normal forms", 1):
        c22 = CyclicFactorSpec.from_text("factors: x:2 y:2")
        xy = normal_form(c22, Word.from_text("x y"))
        x = normal_form(c22, Word.gen("x"))
        expected = set()
        for k in range(-5, 6):
            p = nf_power(c22, xy, k)
            expected.add(p.syllables)
            expected.add(nf_multiply(c22, p, x).syllables)
        frontier = [()]
        letters = [("x", 1), ("x", -1), ("y", 1), ("y", -1)]
        for _ in range(8):
            new = []
            for w in frontier:
                for l in letters:
                    nw = w + (l,)
                    new.append(nw)
                    assert normal_form(c22, Word(nw)).syllables in expected
            frontier = new
        assert normal_form(c22, Word.from_text("x x y x")) == nf_invert(c22, xy)


def test_criterion_08_stallings_oracle_equivalence():
    with criterion(8, "folding membership matches closure oracle", 60):
        ambient = ("a", "b")
        rng = random.Random(20260823)

        def random_word():
            while True:
                n = rng.randint(1, 4)
                letters = []
                for _ in range(n):
                    g = rng.choice(ambient)
                    s = rng.choice((1, -1))
                    if letters and letters[-1] == (g, -s):
                        continue
                    letters.append((g, s))
                w = free_reduce(Word(tuple(letters)))
                if w:
                    return w

        test_words = [Word.empty()]
        frontier = [()]
        letters = [(g, s) for g in ambient for s in (1, -1)]
        for _ in range(8):
            new = []
            for w in frontier:
                for l in letters:
                    if w and w[-1] == (l[0], -l[1]):
                        continue
                    nw = w + (l,)
                    new.append(nw)
                    test_words.append(Word(nw))
            frontier = new

        fixed = [
            [Word.from_text("b^-1 a b"), Word.from_text("b^-1 b^-1 a b b")],
            [Word.from_text("a a"), Word.from_text("a a a")],
        ]
        cases = fixed + [
            [random_word() for _ in range(rng.randint(1, 3))] for _ in range(200)
        ]
        for gens in cases:
            graph = build_subgroup_graph(ambient, gens)
            assert graph.rank() == len(graph.edges) - graph.n_vertices + 1
            members = closure_members(gens, 8)
            for w in test_words:
                assert membership(graph, w) == (w.letters in members)


def test_criterion_09_ln_round_trip():
    with criterion(9, "torsion-lift round trip and iterate counts", 5):
        cases = [
            Presentation(("z",), (Word.gen("z", 2),)),
            build_pn(1),
            build_pjkl(2, 2, 2),
        ]
        for p in cases:
            result = build_ln(p)
            added = set(result.presentation.generators) - set(p.generators)
            assert canonicalize(kill_generators(result.presentation, added)) == canonicalize(p)
        for n in (1, 2, 3):
            q = build_qn(n)
            assert len(q.generators) == 2 * n - 1
            assert len(q.relators) <= 2 * n - 1


def test_criterion_10_non_hopf_ladder():
    with criterion(10, "chain quotient reproduces the shorter chain", 2):
        for m in range(1, 6):
            step = torsion_quotient_step(build_chain(m))
            assert canonicalize(step.presentation) == canonicalize(build_chain(m - 1))


def test_criterion_11_tgen_structure_and_commutation():
    with criterion(11, "two-generator embedding structure", 2):
        for p in (build_pn(1), build_pjkl(2, 2, 2)):
            result = build_tgen(p)
            n = len(p.generators)
            assert len(result.intermediate.relators) == len(p.relators) + n + 1
            assert result.presentation.generators == ("a", "t")
            S = [Word.gen(p.generators[0])]
            before = canonicalize(build_tgen(adjoin_relators(p, S)).presentation)
            images_S = [free_reduce(substitute(s, result.images)) for s in S]
            after = canonicalize(adjoin_relators(result.presentation, images_S))
            assert before == after


def test_criterion_12_torsion_certificates():
    with criterion(12, "bounded torsion certificates by level", 30):
        p = build_pjkl(2, 2, 2)
        level1 = torsion_certificate_search(p, level=1)
        words1 = {c.word.to_text() for c in level1.certificates}
        assert "x" in words1 and "y" in words1 and "z" not in words1
        level2 = torsion_certificate_search(p, level=2)
        words2 = {c.word.to_text() for c in level2.certificates}
        assert "z" in words2
        for c in level1.certificates + level2.certificates:
            assert c.verify()
        assert all(check_certificates(p, level1.certificates))
        assert all(check_certificates(p, level2.certificates))


def test_criterion_13_free_product_compatibility():
    with criterion(13, "quotient steps commute with free products", 10):
        rng = random.Random(13)
        family = [build_pn(n) for n in range(4)] + [
            build_pjkl(j, k, l)
            for j, k, l in ((2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 2, 5))
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
            report = torsion_length(combined)
            assert report.exact
            assert report.value == max(
                torsion_length(p).value, torsion_length(q).value
            )


def test_criterion_14_abelianization_oracle():
    with criterion(14, "Smith normal form against minor-gcd oracle", 10):

        def det(sub):
            n = len(sub)
            if n == 1:
                return sub[0][0]
            return sum(
                (-1) ** j
                * sub[0][j]
                * det([row[:j] + row[j + 1 :] for row in sub[1:]])
                for j in range(n)
            )

        def oracle(matrix):
            rows, cols = len(matrix), len(matrix[0])
            n = min(rows, cols)
            diag, prev = [], 1
            for k in range(1, n + 1):
                g = 0
                for rs in combinations(range(rows), k):
                    for cs in combinations(range(cols), k):
                        g = math.gcd(g, det([[matrix[i][j] for j in cs] for i in rs]))
                if g == 0:
                    diag.extend([0] * (n - len(diag)))
                    break
                diag.append(g // prev)
                prev = g
            return diag

        rng = random.Random(14)
        for _ in range(100):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            assert smith_normal_form(m) == oracle(m)
        assert abelianization(build_pn(1)) == AbelianInvariants((3,), 0)
