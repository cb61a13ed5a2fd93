"""The benchmark's own check; run it from anywhere:

    python3 perfbench/check.py

* a tiny untraced and a tiny traced run of every workload must be correct
  and report exactly the metrics BENCHMARK.json declares, with its units;
* a tiny run that expects a deliberately wrong output for its first item
  must come back `correct: false` with that failure counted, so the
  correctness gate cannot pass silently;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  run.py must fail without printing a result.

Exits 0 when every case passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, out = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny")
            result = last_json(out)
            label = f"{workload} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: not correct: {result['failed']}/{result['attempted']} failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(declared[trace]))}")
        code, out = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--tiny", "--wrong-expected")
        result = last_json(out)
        if code != 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: a wrong expected output was not counted as failed: {result}")
    bare = ROOT / ".perfbench" / "selfcheck" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run(bare, "--workload", "oracle", "--seed", "1", "--seconds", "1")
    if code == 0 or last_json(out) is not None:
        problems.append(f"without the sources run.py exited {code} and printed {out!r}")
    shutil.rmtree(bare.parent)
    for problem in problems:
        print("FAIL", problem)
    print("benchmark self-check:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
