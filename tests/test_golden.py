"""Golden outputs: every CLI subcommand on fixed inputs, plus digests of
the level-2 torsion certificates, of Nielsen reduction, of Stallings
folding, of coset enumeration (as enumerated and standardized), of Smith
normal form and of the consequence balls behind the certificate search.

The golden file holds stdout (split into lines) and the exit code of
each command; stderr carries wall time and is not compared.  To write
the file afresh after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/cli.json line by line.
"""

import hashlib
import json
import random
from pathlib import Path

from torlen.abelian import smith_normal_form
from torlen.cli import main
from torlen.consequences import closure_ball
from torlen.constructions import build_chain, build_ln, build_pjkl, build_pn
from torlen.coset import todd_coxeter
from torlen.presentation import Presentation, adjoin_relators, serialize_presentation
from torlen.stallings import build_subgroup_graph, free_basis, nielsen_reduce
from torlen.torsion import torsion_certificate_search
from torlen.words import Word, free_reduce, word_to_ints

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

INPUTS = {
    "p222.txt": "gens: x y z\nrel: x x\nrel: y y\nrel: x y z^-1 z^-1\n",
    "at.txt": "gens: a t\nrel: a a\nrel: t t t\nrel: a t a^-1 t^-1 t^-1\n",
    "comm.txt": "gens: a b\nrel: a a\nrel: a b a^-1 b^-1\n",
    "s3.txt": "gens: x y\nrel: x x\nrel: y y y\nrel: x y x y\n",
    "c2c2.txt": "gens: x y\nrel: x x\nrel: y y\n",
    "messy.txt": (
        "gens: c b a\n"
        "rel: b^-1 a b a^-1 c c\n"
        "rel: a b a^-1 b^-1\n"
        "rel: b c c c b^-1\n"
        "rel: a^-1 a^-1 b\n"
        "rel: b a b^-1 a^-1\n"
    ),
    "bad.txt": "rel: y\n",
}

COMMANDS = [
    ["gen", "pn", "--n", "3"],
    ["gen", "pjkl", "2", "3", "4"],
    ["gen", "qn", "--n", "3"],
    ["gen", "chain", "--m", "3"],
    ["tgen", "p222.txt"],
    ["tgen", "at.txt"],
    ["ln", "p222.txt"],
    ["torlen", "p222.txt"],
    ["torlen", "comm.txt"],
    ["torsion-search", "p222.txt", "--level", "1", "--word-bound", "4"],
    ["torsion-search", "p222.txt", "--level", "2", "--word-bound", "4"],
    ["tc", "s3.txt"],
    ["tc", "s3.txt", "--subgroup", "x"],
    ["tc", "c2c2.txt", "--max", "200"],
    ["fold", "--ambient", "a b", "--gens", "a a; b a b^-1"],
    ["fold", "--ambient", "a b c", "--gens", "a b a^-1; a c; b b c^-1"],
    ["nf", "--spec", "factors: x:2 y:3", "x x y y y y x"],
    ["nf", "--spec", "factors: x:2 t:inf", "t x x t^-1 x t"],
    ["conjsep", "--spec", "factors: x:2 y:2", "--a", "x", "--b", "y"],
    ["conjsep", "--spec", "factors: x:2 y:3", "--a", "x", "--b", "y", "--bounds", "2 2"],
    ["conjsep", "--spec", "factors: t:inf y:4 x:2", "--a", "x", "--b", "y y", "--bounds", "1 1"],
    ["conjsep", "--spec", "factors: x:4 y:2", "--a", "x", "--b", "y"],
    ["pingpong", "--spec", "factors: g:3 x:2", "g x g", "x g x g x"],
    ["pingpong", "--spec", "factors: x:2 y:3", "x y", "y^-1 x"],
    ["ab", "p222.txt"],
    ["ab", "messy.txt"],
    ["ab", "bad.txt"],
    ["canon", "p222.txt"],
    ["canon", "messy.txt"],
]


def _run_commands(workdir: Path, capture) -> list[dict]:
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    results = []
    for argv in COMMANDS:
        full = [str(workdir / a) if a in INPUTS else a for a in argv]
        code = main(full)
        results.append({"argv": argv, "exit": code, "stdout": capture().splitlines()})
    return results


def _certificate_payload(cert) -> tuple:
    return (
        cert.word.letters,
        cert.exponent,
        cert.level,
        tuple((c.letters, r.letters, s) for c, r, s in cert.factors),
        tuple(a.letters for a in cert.adjoined),
        tuple(_certificate_payload(s) for s in cert.supporting),
    )


def certificates_digest() -> str:
    report = torsion_certificate_search(build_pjkl(2, 2, 2), level=2, word_bound=4)
    payload = repr([_certificate_payload(c) for c in report.certificates])
    return hashlib.sha256(payload.encode()).hexdigest()


def criterion_8_cases() -> list[list[Word]]:
    """The subgroup generator sets of acceptance criterion 8."""
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

    fixed = [
        [Word.from_text("b^-1 a b"), Word.from_text("b^-1 b^-1 a b b")],
        [Word.from_text("a a"), Word.from_text("a a a")],
    ]
    return fixed + [[random_word() for _ in range(rng.randint(1, 3))] for _ in range(200)]


def nielsen_digest() -> str:
    reduced = [tuple(w.letters for w in nielsen_reduce(gens)) for gens in criterion_8_cases()]
    return hashlib.sha256(repr(reduced).encode()).hexdigest()


def fold_digest() -> str:
    """Folded graphs and free bases of criterion 8's subgroups, plus the
    torsion lift of P_1..P_7 (its basis comes from folding the relators)."""
    folds = []
    for gens in criterion_8_cases():
        graph = build_subgroup_graph(("a", "b"), gens)
        basis = tuple(w.letters for w in free_basis(graph))
        folds.append((graph.n_vertices, graph.edges, basis))
    lifts = [serialize_presentation(build_ln(build_pn(n)).presentation) for n in range(1, 8)]
    return hashlib.sha256(repr((folds, lifts)).encode()).hexdigest()


def fibonacci(n: int) -> Presentation:
    """F(2,n) = < a_i | a_i a_(i+1) = a_(i+2) >, indices mod n."""
    a = [f"a{i}" for i in range(n)]
    rels = [Word.from_text(f"{a[i]} {a[(i + 1) % n]} {a[(i + 2) % n]}^-1") for i in range(n)]
    return Presentation(tuple(a), tuple(rels))


def coxeter_sym(n: int) -> Presentation:
    """Coxeter presentation of S_n on the transpositions s1..s(n-1)."""
    s = [f"s{i}" for i in range(1, n)]
    rels = [Word.from_text(f"{g} {g}") for g in s]
    rels += [Word.from_text(f"{s[i]} {s[i + 1]} " * 3) for i in range(len(s) - 1)]
    rels += [
        Word.from_text(f"{s[i]} {s[j]} " * 2)
        for i in range(len(s))
        for j in range(i + 2, len(s))
    ]
    return Presentation(tuple(s), tuple(rels))


def coset_runs() -> list[tuple[Presentation, tuple[Word, ...], int]]:
    """Criterion 4's P_{j,k,l}+x,y grid, x^k for k = 2..50, F(2,5) and
    F(2,7), S_6 and S_7 over <s1>, and P_{2,2,2}, which stays
    bound_exceeded at the default budget."""
    xy = [Word.gen("x"), Word.gen("y")]
    runs = [(build_pn(1), (), 10_000)]
    for j in range(2, 7):
        for k in range(2, 7):
            for l in range(2, 7):
                runs.append((adjoin_relators(build_pjkl(j, k, l), xy), (), 10_000))
    for k in range(2, 51):
        runs.append((Presentation(("x",), (Word((("x", 1),) * k),)), (), 10_000))
    runs += [(fibonacci(5), (), 10_000), (fibonacci(7), (), 200_000)]
    runs += [(coxeter_sym(n), (Word.gen("s1"),), 10_000) for n in (6, 7)]
    runs.append((build_pjkl(2, 2, 2), (), 10_000))
    return runs


def coset_digest() -> str:
    """Coset enumeration of coset_runs(), by table digest."""
    tables = []
    for p, subgroup, limit in coset_runs():
        t = todd_coxeter(p, subgroup, max_cosets=limit)
        tables.append((t.status, t.index, t.limit, t.digest()))
    return hashlib.sha256(repr(tables).encode()).hexdigest()


def standardize(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Renumber a complete coset table breadth-first from coset 0, taking
    its columns in order: the standardized table of Holt, Eick & O'Brien,
    Handbook of Computational Group Theory (2005), ch. 5.  It depends
    only on the action, not on the order the cosets were defined in."""
    if not rows:
        return rows
    number, order = {0: 0}, [0]
    for c in order:
        for d in rows[c]:
            if d not in number:
                number[d] = len(order)
                order.append(d)
    return tuple(tuple(number[d] for d in rows[c]) for c in order)


def coset_std_tables() -> list[tuple]:
    """(status, index, limit, rows) of coset_runs() plus S_8 over <s1> at
    40,000 cosets, rows as todd_coxeter returns them."""
    runs = coset_runs() + [(coxeter_sym(8), (Word.gen("s1"),), 40_000)]
    tables = [todd_coxeter(p, subgroup, max_cosets=limit) for p, subgroup, limit in runs]
    return [(t.status, t.index, t.limit, t.rows) for t in tables]


def coset_std_digest(tables: list[tuple]) -> str:
    """The tables by standardized rows: this pins the action, not the
    order the enumerator defined its cosets in."""
    payload = [(status, index, limit, standardize(rows)) for status, index, limit, rows in tables]
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def exponent_matrix(p: Presentation) -> list[list[int]]:
    """Relator exponent sums, one row per relator, one column per generator."""
    index = {g: i for i, g in enumerate(p.generators)}
    matrix = []
    for r in p.relators:
        row = [0] * len(p.generators)
        for g, s in r.letters:
            row[index[g]] += s
        matrix.append(row)
    return matrix


def snf_digest() -> str:
    """Smith normal form of the exponent matrices of P_1..P_9, of the
    P_{j,k,l} grid (j, k, l = 2..5) and of chain(1..5), plus 300 random
    matrices up to 6 x 6; half of those have no unit entry."""
    presentations = [build_pn(n) for n in range(1, 10)]
    presentations += [
        build_pjkl(j, k, l) for j in range(2, 6) for k in range(2, 6) for l in range(2, 6)
    ]
    presentations += [build_chain(m) for m in range(1, 6)]
    matrices = [exponent_matrix(p) for p in presentations]
    rng = random.Random(20261018)
    no_unit = (0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9)
    for i in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if i % 2:
            matrices.append([[rng.choice(no_unit) for _ in range(cols)] for _ in range(rows)])
        else:
            matrices.append([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
    diagonals = [smith_normal_form(m) for m in matrices]
    return hashlib.sha256(repr(diagonals).encode()).hexdigest()


def closure_digest() -> str:
    """Consequence balls of the P_{j,k,l} relators (j, k, l = 2..3) at
    max_len 5 and 6, of the level-2 relator set of P_{2,2,2} at word
    bound 5 (its adjoined cores included), and of that set at max_len 6
    with a state budget that runs out mid-ball."""
    runs = []
    for j in range(2, 4):
        for k in range(2, 4):
            for l in range(2, 4):
                p = build_pjkl(j, k, l)
                index = {g: i for i, g in enumerate(p.generators)}
                relators = [word_to_ints(r, index) for r in p.relators]
                runs += [(relators, 3, max_len, 8, 200_000) for max_len in (5, 6)]
    p = build_pjkl(2, 2, 2)
    index = {g: i for i, g in enumerate(p.generators)}
    report = torsion_certificate_search(p, level=2, word_bound=5)
    level2 = [word_to_ints(r, index) for r in p.relators + report.certificates[0].adjoined]
    runs += [(level2, 3, 5, 8, 200_000), (level2, 3, 6, 8, 500)]
    balls = []
    for relators, n_generators, max_len, max_depth, max_states in runs:
        ball = closure_ball(relators, n_generators, max_len, max_depth, max_states)
        balls.append((list(ball.parents.items()), ball.exhausted))
    return hashlib.sha256(repr(balls).encode()).hexdigest()


def test_cli_outputs_match_golden(tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())
    # Two passes: the CLI shares one parser between calls in a process,
    # and the second pass must not see anything the first one parsed.
    for _ in range(2):
        got = _run_commands(tmp_path, lambda: capsys.readouterr().out)
        assert len(got) == len(expected["commands"])
        for want, have in zip(expected["commands"], got):
            assert have == want


def test_certificate_and_nielsen_digests_match_golden():
    expected = json.loads(GOLDEN.read_text())
    assert certificates_digest() == expected["level2_certificates_sha256"]
    assert nielsen_digest() == expected["nielsen_reduce_sha256"]


def test_fold_digest_matches_golden():
    assert fold_digest() == json.loads(GOLDEN.read_text())["fold_sha256"]


def test_coset_digest_matches_golden():
    assert coset_digest() == json.loads(GOLDEN.read_text())["coset_sha256"]


def test_coset_std_digest_matches_golden():
    expected = json.loads(GOLDEN.read_text())["coset_std_sha256"]
    tables = coset_std_tables()
    assert coset_std_digest(tables) == expected
    # todd_coxeter standardizes its rows itself: as they come, they hash the same
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == expected


def test_snf_digest_matches_golden():
    assert snf_digest() == json.loads(GOLDEN.read_text())["snf_sha256"]


def test_closure_digest_matches_golden():
    assert closure_digest() == json.loads(GOLDEN.read_text())["closure_sha256"]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    buffer = io.StringIO()

    def capture() -> str:
        text = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        return text

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buffer), \
            contextlib.redirect_stderr(io.StringIO()):
        commands = _run_commands(Path(tmp), capture)
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {
        "commands": commands,
        "level2_certificates_sha256": certificates_digest(),
        "nielsen_reduce_sha256": nielsen_digest(),
        "fold_sha256": fold_digest(),
        "coset_sha256": coset_digest(),
        "coset_std_sha256": coset_std_digest(coset_std_tables()),
        "snf_sha256": snf_digest(),
        "closure_sha256": closure_digest(),
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
