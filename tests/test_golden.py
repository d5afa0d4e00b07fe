"""Golden outputs: every CLI subcommand on fixed inputs, plus digests of
the level-2 torsion certificates and of Nielsen reduction.

The golden file holds stdout (split into lines) and the exit code of
each command; stderr carries wall time and is not compared.  To write
the file afresh after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/cli.json line by line.
"""

import hashlib
import json
import os
import random
from pathlib import Path

from torlen.cli import main
from torlen.constructions import build_pjkl
from torlen.stallings import nielsen_reduce
from torlen.torsion import torsion_certificate_search
from torlen.words import Word, free_reduce

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


def test_cli_outputs_match_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TORLEN_BUDGET_SCALE", raising=False)
    expected = json.loads(GOLDEN.read_text())
    got = _run_commands(tmp_path, lambda: capsys.readouterr().out)
    assert len(got) == len(expected["commands"])
    for want, have in zip(expected["commands"], got):
        assert have == want


def test_certificate_and_nielsen_digests_match_golden():
    expected = json.loads(GOLDEN.read_text())
    assert certificates_digest() == expected["level2_certificates_sha256"]
    assert nielsen_digest() == expected["nielsen_reduce_sha256"]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    os.environ.pop("TORLEN_BUDGET_SCALE", None)
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
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
