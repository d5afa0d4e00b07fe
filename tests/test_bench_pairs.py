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
