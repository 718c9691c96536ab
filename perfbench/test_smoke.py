"""Toy-size smoke test of the benchmark itself.

Runs every workload at a few hundred rows and one epoch, once untraced and
once traced, and checks that every metric named in BENCHMARK.json is printed
with its unit and that nothing is missing. Run it with

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    text = "\n".join(lines)
    assert "= missing" not in text
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        line = rf"^{re.escape(m['name'])} = [-+0-9.e]+ {re.escape(m['unit'])} "
        assert re.search(line, text, re.M), f"{m['name']} not printed with {m['unit']}"
    if not trace:
        assert re.search(r"^failed_run_ratio = 0\.0 ratio ", text, re.M)


def test_bare_directory_fails_without_a_result(tmp_path):
    """Without the program next to it the benchmark exits non-zero and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
