"""The process that runs one workload; started by run.py, never by hand.

It imports diagflag (run.py puts `src` on PYTHONPATH), generates the
workload's inputs from the seed, prints `ready`, and then runs either

* the untraced closed loop: items one at a time, in rounds, until
  `--seconds` have passed and the workload's minimum item count is
  reached, or
* the traced run: the workload's fixed traced item list, once untraced
  and once with the span recorder installed.

The result is written as JSON to `--result`.  With `--setup-only` it exits
right after `ready`, which is how run.py samples set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
from speed import SpeedProbe
from workloads import WORKLOADS, ItemFailure

ROOT = Path(__file__).resolve().parent.parent


def measure(rounds, probe: SpeedProbe, seconds: float | None = None, min_items: int = 0, recorder=None) -> dict:
    """Run rounds of items in a closed loop and time each item.

    With `seconds`, rounds run until that time has passed and `min_items`
    items are done; without, every round runs once.  `busy_s` is the time
    spent inside the items' runs, excluding the benchmark's own checks and
    the speed probes taken between items.  The digest covers the outputs
    of the first `min_items` items (all of them without `seconds`), which
    every run with the same seed completes.
    """
    probe.tick()
    latencies: list[float] = []
    failed = 0
    errors: list[str] = []
    busy = 0.0
    digest = hashlib.sha256()
    digested = 0
    index = -1
    started = perf_counter()
    for items in rounds:
        for item in items:
            index += 1
            run = item.run
            if recorder is not None:
                recorder.item = index
                run = recorder.item_span(run)
            probed = probe.spent
            t0 = perf_counter()
            try:
                result, error = run(), None
            except Exception as exc:  # a raising item is a failed item; the loop goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0 - (probe.spent - probed)
            busy += elapsed
            cases = item.cases() if item.cases is not None else [elapsed]
            bad = len(cases)
            out = b"FAILED"
            if error is None:
                if recorder is not None:
                    recorder.paused = True
                try:
                    out, bad = item.check(result), 0
                except ItemFailure as exc:
                    error = str(exc)
                    bad = exc.failed if exc.failed is not None else len(cases)
                finally:
                    if recorder is not None:
                        recorder.paused = False
            if error is not None:
                failed += bad
                if len(errors) < 5:
                    errors.append(error)
            if seconds is None or digested < min_items:
                digest.update(out)
                digested += len(cases)
            latencies.extend(cases)
            probe.tick()
        if seconds is not None and len(latencies) >= min_items and perf_counter() - started >= seconds:
            break
    return {
        "latencies": latencies,
        "failed": failed,
        "errors": errors,
        "busy_s": busy,
        "wall_s": perf_counter() - started,
        "digest": digest.hexdigest(),
        "digest_items": digested,
        "slowdown": probe.slowdown(),
        "probes": len(probe.samples),
    }


def untraced(workload, seconds: float) -> dict:
    workload.probe = SpeedProbe()
    res = measure(workload.rounds(), workload.probe, seconds, workload.min_items)
    for count, message in workload.finish():
        res["failed"] += count
        res["errors"].append(message)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    res["maxrss_kb"] = resource.getrusage(who).ru_maxrss
    res["tail"] = workload.tail
    return res


def _interpreter_start_seconds(times: int) -> list[float]:
    out = []
    for _ in range(times):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
        out.append(perf_counter() - t0)
    return out


def _import_seconds(times: int) -> list[float]:
    code = "import time; t = time.perf_counter(); import diagflag.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(times):
        proc = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, capture_output=True, text=True)
        out.append(float(proc.stdout))
    return out


def src_lines() -> dict[str, int]:
    """Non-blank, non-comment lines per module of src/diagflag."""
    counts = {}
    for path in sorted((ROOT / "src" / "diagflag").glob("*.py")):
        name = "package_init" if path.stem == "__init__" else path.stem
        counts[name] = sum(
            1 for line in path.read_text().splitlines() if line.strip() and not line.strip().startswith("#")
        )
    return counts


def traced(workload, seed: int) -> dict:
    items = workload.traced_items()
    workload.probe = SpeedProbe()
    plain = measure([items], workload.probe)
    recorder = spans.Recorder()
    workload.recorder = recorder
    workload.probe = SpeedProbe()
    recorder.install()
    try:
        res = measure([items], workload.probe, recorder=recorder)
    finally:
        recorder.uninstall()
        workload.recorder = None
    summary = recorder.summary()
    recorder.write(ROOT / ".perfbench" / "spans" / f"{workload.name}-seed{seed}.bin")
    calls, self_s = summary["calls"], summary["self_s"]
    busy = res["busy_s"]
    n_items = len(res["latencies"])
    layer: dict[str, tuple[float, str]] = {}
    for name in spans.COUNTED:
        layer[f"{name}.calls"] = (calls[name], "count")
    for name in spans.TIMED:
        layer[f"{name}.self_frac"] = (self_s[name] / busy, "ratio")
    counters = recorder.counters
    layer["ratlin.rref.cells"] = (counters["ratlin.rref.cells"], "count")
    layer["ratlin.intersect.contained_frac"] = (
        counters["ratlin.intersect.contained"] / calls["ratlin.intersect"] if calls["ratlin.intersect"] else 0.0,
        "ratio",
    )
    layer["flagcore.classify.evaluate_calls"] = (counters["flagcore.classify.evaluate_calls"], "count")
    layer["diagembed.evaluate.child_sum_calls"] = (summary["child_sums"], "count")
    layer["egraph.validate_egraph.calls_per_item"] = (calls["egraph.validate_egraph"] / n_items, "calls/item")
    layer["cli.import_s"] = (statistics.median(_import_seconds(5)), "s")
    layer["cli.interpreter_start_s"] = (statistics.median(_interpreter_start_seconds(5)), "s")
    # Each pass is scaled by its own speed probes, so that a host slowing
    # down between the passes is not read as tracing overhead.
    overhead = (busy / res["slowdown"]) / (plain["busy_s"] / plain["slowdown"]) - 1.0
    layer["trace.overhead_frac"] = (overhead, "ratio")
    for module, count in src_lines().items():
        layer[f"{module}.src_lines"] = (count, "lines")
    return {
        "per_layer": layer,
        "failed": plain["failed"] + res["failed"],
        "errors": plain["errors"] + res["errors"],
        "attempted": len(plain["latencies"]) + n_items,
        "digest": res["digest"],
        "untraced_busy_s": plain["busy_s"],
        "traced_busy_s": busy,
        "slowdowns": [plain["slowdown"], res["slowdown"]],
        "spans": summary["spans"],
        "self_s": dict(self_s),
        "calls": dict(calls),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--wrong-expected", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed, ROOT, args.tiny, args.wrong_expected)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = traced(workload, args.seed) if args.trace else untraced(workload, args.seconds)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
