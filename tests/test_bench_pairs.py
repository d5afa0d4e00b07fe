import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_a_failing_run_reports_its_side_seed_and_stderr(tmp_path):
    # tmp_path holds no perfbench/run.py, so the parent's run exits 2
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(tmp_path), "--change", str(ROOT), "--workload", "invariants",
            "--seeds", "3", "--seconds", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    message = str(exc.value)
    assert message.startswith("parent run of invariants at seed 3 exited with 2")
    assert "perfbench/run.py" in message.splitlines()[-1]
    assert not out.exists()


@pytest.mark.parametrize(
    "before, after, better, expected",
    [
        ([1.00, 1.01, 0.99, 1.00], [1.05, 1.04, 1.06, 1.05], "lower", "within bound"),
        ([1.00, 1.01, 0.99, 1.00], [1.20, 1.21, 1.19, 1.20], "lower", "worse"),
        ([1.00, 1.01, 0.99, 1.00], [0.80, 0.81, 0.79, 0.80], "higher", "worse"),
        ([1.0, 1.4, 0.7, 1.2], [1.0, 1.1, 0.9, 1.3], "lower", "unresolved"),
        ([1.0, 1.4, 0.7, 1.2], [0.5, 0.6, 0.4, 0.6], "lower", "within bound"),
    ],
)
def test_verdict_applies_the_bound_and_the_spread(before, after, better, expected):
    assert bench_pairs.verdict(before, after, 0.15, better) == expected


def test_main_prints_a_verdict_per_end_to_end_metric(tmp_path, monkeypatch, capsys):
    # synthetic runs: wall_s is 30% worse on the change, job_p50_ms equal
    def fake_run(side, checkout, workload, seed, seconds):
        wall = 1.0 + seed / 1000 + (0.3 if side == "change" else 0.0)
        metrics = {"wall_s": {"value": wall}, "job_p50_ms": {"value": 0.2}}
        return {"metrics": metrics, "failed": 0, "passes": 10}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.15},
        {"name": "job_p50_ms", "better": "lower", "bound": 0.25},
    ]}))
    bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--workload",
                      "invariants", "--seeds", "1-4", "--out", str(tmp_path / "pairs.json")])
    out = capsys.readouterr().out
    assert "invariants wall_s: worse (bound 15%)" in out
    assert "invariants job_p50_ms: within bound (bound 25%)" in out


@pytest.mark.parametrize(
    "before, after, better, expected",
    [
        # better in 10/10 pairs by more than the parent IQR
        ([1.0, 1.1, 0.9, 1.0] * 2 + [1.0, 1.0], [0.8] * 10, "lower", "gain"),
        ([1.0] * 10, [1.2] * 10, "higher", "gain"),
        # better in 9/10: still a gain; in 8/10 or with ties: not
        ([1.0] * 10, [0.8] * 9 + [1.1], "lower", "gain"),
        ([1.0] * 10, [0.8] * 8 + [1.1] * 2, "lower", "no gain"),
        ([1.0] * 10, [0.8] * 8 + [1.0] * 2, "lower", "no gain"),
        # better in every pair, but by less than the parent IQR
        ([1.0, 1.4, 0.7, 1.2] * 2 + [1.0, 1.0], [0.9, 1.3, 0.6, 1.1] * 2 + [0.9, 0.9], "lower",
         "no gain"),
    ],
)
def test_gain_needs_nine_tenths_of_pairs_and_a_gap_over_the_parent_iqr(
    before, after, better, expected
):
    assert bench_pairs.gain(before, after, better) == expected


def test_main_prints_a_gain_verdict_after_each_median_line(tmp_path, monkeypatch, capsys):
    # synthetic runs: wall_s 20% better on the change in every pair,
    # job_p50_ms better in 8 of 10 pairs, setup_s higher on the change
    def fake_run(side, checkout, workload, seed, seconds):
        change = side == "change"
        wall = 1.0 + seed / 1000 - (0.2 if change else 0.0)
        p50 = 0.2 - (0.05 if change and seed <= 8 else 0.0)
        setup = 0.05 + (0.01 if change else 0.0)
        metrics = {"wall_s": {"value": wall}, "job_p50_ms": {"value": p50},
                   "setup_s": {"value": setup}}
        return {"metrics": metrics, "failed": 0, "passes": 10}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.15},
            {"name": "job_p50_ms", "better": "lower", "bound": 0.25},
        ],
        "per_layer": [{"name": "setup_s", "better": "higher"}],
    }))
    bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--workload",
                      "invariants", "--seeds", "1-10", "--out", str(tmp_path / "pairs.json")])
    lines = capsys.readouterr().out.splitlines()
    for metric, expected in (("wall_s", "gain"), ("job_p50_ms", "no gain"), ("setup_s", "gain")):
        head = f"invariants {metric}: "
        median = next(i for i, line in enumerate(lines) if line.startswith(head + "median"))
        assert lines[median + 1] == head + expected


def test_a_run_reporting_wrong_results_stops_the_tool(tmp_path, monkeypatch):
    # the change's run at the second seed reports "correct": false
    def fake_run(side, checkout, workload, seed, seconds):
        correct = not (side == "change" and seed == 2)
        return {"correct": correct, "failed": 0 if correct else 3, "passes": 10,
                "metrics": {"wall_s": {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--workload",
                          "cert_search", "--seeds", "1-3", "--out", str(out)])
    assert str(exc.value) == (
        'change run of cert_search at seed 2 reported "correct": false with 3 wrong jobs'
    )
    # the pair before it is kept
    assert [p["seed"] for p in json.loads(out.read_text())["pairs"]] == [1]


def test_main_records_each_checkouts_source_line_total(tmp_path, monkeypatch, capsys):
    # two checkouts whose src/torlen/*.py hold 3 + 2 and 4 lines; other
    # files do not count
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout, files in ((parent, {"a.py": "x\ny\nz\n", "b.py": "x\ny\n", "c.txt": "x\n"}),
                            (change, {"a.py": "w\nx\ny\nz\n"})):
        (checkout / "src" / "torlen").mkdir(parents=True)
        for name, text in files.items():
            (checkout / "src" / "torlen" / name).write_text(text)
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))

    def fake_run(side, checkout, workload, seed, seconds):
        return {"metrics": {"wall_s": {"value": 1.0}}, "failed": 0, "passes": 10}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "oracles",
            "--seeds", "1-2", "--out", str(out)]
    bench_pairs.main(argv)
    assert json.loads(out.read_text())["src_lines"] == {"parent": 5, "change": 4}
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if "lines" in line] == ["src/torlen/*.py lines: 5 -> 4"]
