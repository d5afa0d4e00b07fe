import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from torlen import cli
from torlen.cli import main
from torlen.torsion import CertificateSearchReport, TorsionCertificate
from torlen.words import Word

PJKL_222 = "gens: x y z\nrel: x x\nrel: y y\nrel: x y z^-1 z^-1\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_pn(capsys):
    code, out, err = run(capsys, "gen", "pn", "--n", "2")
    assert code == 0
    assert "gens: x_ x_0 x_1" in out
    assert "wall-time" in err


def test_gen_output_is_reproducible(capsys):
    _, first, _ = run(capsys, "gen", "pjkl", "2", "3", "4")
    _, second, _ = run(capsys, "gen", "pjkl", "2", "3", "4")
    assert first == second


def test_roundtrip_through_file(tmp_path, capsys):
    path = tmp_path / "p.txt"
    code, _, _ = run(capsys, "gen", "pn", "--n", "1", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "canon", str(path))
    assert code == 0
    assert "rel: g0 g0 g0" in out


def test_gen_chain_output_parses_back(tmp_path, capsys):
    # chain generators carry a per-factor tag such as f1.x_
    path = tmp_path / "c.txt"
    code, _, _ = run(capsys, "gen", "chain", "--m", "3", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "torlen", str(path))
    assert code == 0
    assert json.loads(out)["exact"] is True


def test_torlen_report(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text(PJKL_222)
    code, out, _ = run(capsys, "torlen", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 2 and report["exact"] is True


def test_torlen_inexact_exit_code(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("gens: a b\nrel: a a\nrel: a b a^-1 b^-1\n")
    code, out, _ = run(capsys, "torlen", str(path))
    assert code == 2
    assert json.loads(out)["exact"] is False


def test_tc_complete_and_bound(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("gens: x\nrel: x x x\n")
    code, out, _ = run(capsys, "tc", str(path))
    assert code == 0
    assert json.loads(out)["index"] == 3
    path.write_text("gens: x y\nrel: x x\nrel: y y\n")
    code, out, _ = run(capsys, "tc", str(path), "--max", "200")
    assert code == 2
    assert json.loads(out)["status"] == "bound_exceeded"


def test_ab(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("gens: x\nrel: x x x\n")
    code, out, _ = run(capsys, "ab", str(path))
    assert code == 0
    assert json.loads(out) == {"torsion": [3], "free_rank": 0}


def test_ab_on_p12(tmp_path, capsys):
    path = tmp_path / "p12.txt"
    assert run(capsys, "gen", "pn", "--n", "12", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "ab", str(path))
    assert code == 0
    torsion = [3**k for k in range(1, 12) for _ in range(2 ** (11 - k))] + [3**12]
    assert json.loads(out) == {"torsion": torsion, "free_rank": 0}


# Runs ``ab`` on the file named by argv[1], then prints the exit code and
# the peak RSS in KiB of this process alone.  That is Linux's VmHWM, not
# ``ru_maxrss``: the latter survives exec, so a child started from the
# test process would report at least the test process's own peak.
AB_RSS_PROBE = """
import sys
from torlen.cli import main

code = main(["ab", sys.argv[1]])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak)
"""


def test_ab_on_p14_stays_small(tmp_path, capsys):
    path = tmp_path / "p14.txt"
    assert run(capsys, "gen", "pn", "--n", "14", "--out", str(path))[0] == 0
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", AB_RSS_PROBE, str(path)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    code, peak_kib = map(int, done.stdout.splitlines()[-1].split())
    assert code == 0
    assert peak_kib < 100 * 1024


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("rel: y\n")
    code, _, err = run(capsys, "ab", str(path))
    assert code == 1
    assert "error" in err


def test_fold(capsys):
    code, out, _ = run(capsys, "fold", "--ambient", "a b", "--gens", "a a; b b")
    assert code == 0
    assert json.loads(out)["rank"] == 2


@pytest.mark.parametrize("ambient", ["a a", "a b^-1"])
def test_fold_rejects_duplicate_or_malformed_ambient_names(capsys, ambient):
    code, out, err = run(capsys, "fold", "--ambient", ambient, "--gens", "a a")
    assert code == 1 and out == ""
    assert "error:" in err


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "--spec", "factors: x:2 y:3", "x x y y y y x")
    assert code == 0
    assert json.loads(out)["word"] == "y x"


def test_conjsep(capsys):
    code, out, _ = run(
        capsys, "conjsep", "--spec", "factors: x:2 y:2", "--a", "x", "--b", "y"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "witness"
    assert report["witness"] == {"x": "x", "i": 1, "j": -1}


def test_pingpong(capsys):
    code, out, _ = run(
        capsys, "pingpong", "--spec", "factors: g:3 x:2", "g x g", "x g x g x"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "free-up-to-bound"


def test_torsion_search(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text(PJKL_222)
    code, out, _ = run(capsys, "torsion-search", str(path), "--level", "1")
    assert code == 0
    report = json.loads(out)
    assert report["exhaustive"] is True
    certified = {c["word"] for c in report["certificates"]}
    assert "x" in certified and "z" not in certified
    assert all(c["verified"] for c in report["certificates"])


def test_tgen_and_ln(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("gens: x1\nrel: x1 x1 x1\n")
    out_path = tmp_path / "out.txt"
    code, out, _ = run(capsys, "tgen", str(path), "--out", str(out_path))
    assert code == 0
    assert json.loads(out)["counts"]["generators"] == 2
    assert out_path.read_text().startswith("gens: a t")
    code, out, _ = run(capsys, "ln", str(path))
    assert code == 0


def test_tampered_supporting_certificate_fails_its_dependents(tmp_path, capsys, monkeypatch):
    real_search = cli.torsion_certificate_search
    dependent = []

    def search_with_one_tampered_support(*args, **kwargs):
        report = real_search(*args, **kwargs)
        assert all(c.verify() for c in report.certificates)  # caches every check
        victim = report.certificates[0].supporting[0]
        bad = replace(victim, exponent=victim.exponent + 1)
        certs = []
        for c in report.certificates:
            dependent.append(victim in c.supporting)
            supporting = tuple(bad if s == victim else s for s in c.supporting)
            certs.append(replace(c, supporting=supporting))
        return replace(report, certificates=tuple(certs))

    monkeypatch.setattr(cli, "torsion_certificate_search", search_with_one_tampered_support)
    path = tmp_path / "p.txt"
    path.write_text(PJKL_222)
    code, out, _ = run(capsys, "torsion-search", str(path), "--level", "2", "--word-bound", "4")
    assert code == 0
    verified = [c["verified"] for c in json.loads(out)["certificates"]]
    assert any(dependent) and len(verified) == len(dependent)
    assert verified == [not d for d in dependent]


def test_forged_certificate_is_reported_unverified(tmp_path, capsys, monkeypatch):
    z, empty = Word.gen("z"), Word.empty()
    forged = TorsionCertificate(z, 1, 1, ((empty, z, 1),))  # z is no relator of P_{2,2,2}

    def search_returning_a_forgery(*args, **kwargs):
        return CertificateSearchReport(1, 6, 6, 8, True, (forged,))

    monkeypatch.setattr(cli, "torsion_certificate_search", search_returning_a_forgery)
    path = tmp_path / "p.txt"
    path.write_text(PJKL_222)
    code, out, _ = run(capsys, "torsion-search", str(path))
    assert code == 0
    (cert,) = json.loads(out)["certificates"]
    assert cert["word"] == "z" and cert["verified"] is False


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_options_do_not_leak_between_calls(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("gens: x y\nrel: x x\nrel: y y\n")
    assert run(capsys, "tc", str(path), "--max", "200")[0] == 2
    code, out, _ = run(capsys, "tc", str(path))
    assert code == 2 and json.loads(out)["limit"] == 10_000
    path.write_text(PJKL_222)
    assert run(capsys, "torsion-search", str(path), "--level", "2", "--word-bound", "3")[0] == 0
    code, out, _ = run(capsys, "torsion-search", str(path), "--word-bound", "3")
    assert code == 0 and json.loads(out)["level"] == 1


def test_usage_errors_exit_1_and_leave_the_parser_usable(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tc"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: torlen tc ")
    assert err.endswith("torlen tc: error: the following arguments are required: file\n")
    with pytest.raises(SystemExit) as exc:
        main(["tc", "x.txt", "--max", "many"])
    assert exc.value.code == 1
    assert "argument --max: invalid int value: 'many'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "torsion-length constructions" in capsys.readouterr().out
    path = tmp_path / "p.txt"
    path.write_text("gens: x\nrel: x x x\n")
    code, out, _ = run(capsys, "tc", str(path))
    assert code == 0 and json.loads(out)["index"] == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tc", "{path}", "--max", "-3"], "max_cosets must be >= 1"),
        (["tc", "{path}", "--max", "0"], "max_cosets must be >= 1"),
        (["torsion-search", "{path}", "--word-bound", "-1"], "word_bound must be >= 0"),
        (["torsion-search", "{path}", "--exponent-bound", "-2"], "exponent_bound must be >= 0"),
        (["torsion-search", "{path}", "--consequence-budget", "-1"], "consequence_budget must be >= 0"),
        (["pingpong", "--spec", "factors: g:3 x:2", "g", "x", "--len", "-1"], "max_length must be >= 0"),
        (
            ["conjsep", "--spec", "factors: x:2 y:2", "--a", "x", "--b", "y", "--bounds", "-1 4"],
            "max_syllables and max_exponent must be >= 0",
        ),
        (["torlen", "{path}", "--max-iter", "-1"], "max_iter must be >= 0"),
        *(
            (
                ["conjsep", "--spec", "factors: x:2 y:2", "--a", "x", "--b", "y", "--bounds", b],
                f"--bounds takes two integers, not {b!r}",
            )
            for b in ("6", "6 4 2", "a 4")
        ),
        (["nf", "--spec", "x:two y:2", "x"], "bad factor token 'x:two'"),
    ],
)
def test_nonsense_budgets_are_usage_errors(tmp_path, capsys, argv, message):
    path = tmp_path / "p.txt"
    path.write_text(PJKL_222)
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 1 and out == ""
    assert f"error: {message}" in err


# Counts the argparse parsers built while torlen.cli is imported.
IMPORT_PROBE = """
import argparse

built = []
init = argparse.ArgumentParser.__init__


def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting_init
import torlen.cli
print(len(built))
"""


def test_import_builds_no_parser():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
