"""Smoke tests: every shipped example runs clean end to end.

Each example is executed in-process (imported and ``main()`` called)
with stdout captured, and a few load-bearing lines of its narrative
output are asserted — enough to catch API drift without being a golden
file.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


def test_every_example_has_main():
    assert ALL_EXAMPLES, "no examples found"
    for name in ALL_EXAMPLES:
        source = (EXAMPLES_DIR / f"{name}.py").read_text()
        assert "def main()" in source, name
        assert '__name__ == "__main__"' in source, name


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_runs(name, capsys, monkeypatch):
    if "from scipy" in (EXAMPLES_DIR / f"{name}.py").read_text():
        pytest.importorskip("scipy")  # the example's own reference
    out = run_example(name, capsys)
    assert out.strip(), f"{name} produced no output"


def test_quickstart_reports_advantage(capsys):
    out = run_example("quickstart", capsys)
    assert "operation-count advantage" in out
    assert "ON UPDATE A" in out


def test_markov_chain_reports_drift(capsys):
    out = run_example("markov_chain", capsys)
    assert "view drift vs recomputation" in out


def test_reachability_verifies_against_reference(capsys):
    out = run_example("reachability_index", capsys)
    assert "0 mismatches" in out


def test_strategy_advisor_validates_prediction(capsys):
    out = run_example("strategy_advisor", capsys)
    assert "HYBRID-LIN" in out
    assert "predicted gain over best re-evaluation" in out
