import importlib.util
import os
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "branch_report.py"

MODULE = '''\
def sign(x):
    if x < 0:
        return -1
    return 1


def count_down(n):
    while n > 0:
        n -= 1
    return n


def unused():
    return 0


if __name__ == "__main__":
    print(sign(-1))
'''

TEST = '''\
from branch_report_demo import count_down, sign


def test_demo():
    assert sign(3) == 1
    assert count_down(2) == 0
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("branch_report", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_names_unrun_statements_and_one_way_tests(tmp_path, monkeypatch):
    root, tests = tmp_path / "src", tmp_path / "tests"
    root.mkdir()
    tests.mkdir()
    (root / "branch_report_demo.py").write_text(MODULE)
    (tests / "test_demo.py").write_text(TEST)
    monkeypatch.syspath_prepend(str(root))
    monkeypatch.chdir(tmp_path)
    tool = load_tool()
    before = sys.gettrace()
    try:
        code, arcs = tool.trace_arcs(root, [str(tests), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.modules.pop("branch_report_demo", None)
        sys.modules.pop("test_demo", None)
    assert code == 0
    assert sys.gettrace() is before
    where = os.path.join("src", "branch_report_demo.py")
    # the while test went both ways, unused's def line ran at import, and
    # the __main__ block, which runs only as a script, is not reported
    assert tool.report(root, arcs) == [
        f"{where}:2: always false",
        f"{where}:3: never ran",
        f"{where}:14: never ran",
    ]
