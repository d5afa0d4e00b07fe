import importlib.util
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
