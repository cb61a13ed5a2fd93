"""Run one workload of the diagflag benchmark and print its metrics.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 10 --trace 0

Workloads: classify, oracle, flagmaps, cli (see BENCHMARK.json for why
each exists).  The workload runs in its own process (worker.py), built
from `src/` of the checkout this file sits in.  With `--trace 0` the
last line of stdout is a JSON object whose metrics are the end-to-end
ones; with `--trace 1` they are the per-layer ones.  The line before it
holds the details: provenance, item counts, the output digest, failures.
A full record is also written under `.perfbench/results/`.

Every end-to-end timing is scaled to a reference host speed by probes
interleaved with the items (see speed.py); the raw figures are in the
details.  Set-up time is the time from spawning the workload process
until it is ready to start its first item; it is sampled five times per
run (four set-up-only processes and the measured one), and the median is
scaled by probes taken before and after each spawn.  Bytecode is cached
under `.perfbench/pycache`, so only the first sample in a fresh checkout
includes compilation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SETUP_ONLY_SPAWNS = 4
DEADLINE_S = 170.0  # every run must end within 180 s


def child_env() -> dict[str, str]:
    """Workers and CLI processes import diagflag from this checkout's
    `src`, with bytecode cached under .perfbench, as an installed package
    would have it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args: argparse.Namespace, result: Path, setup_only: bool, deadline: float, probes: list[float]) -> float:
    """Start a worker, return the seconds until it reported ready, and
    wait for it to end.  Speed probes are added to `probes` before and
    after."""
    probes.extend(speed.probe() for _ in range(3))
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", str(result),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    t0 = perf_counter()
    # Its own process group, so that a worker stopped at the deadline takes
    # any CLI process it started with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"worker failed (exit {code}): {' '.join(cmd)}")
    probes.extend(speed.probe() for _ in range(3))
    return ready


def percentile(sorted_values: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of items beyond it."""
    rank = math.ceil(p / 100 * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "diagflag").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def end_to_end(res: dict, setup: list[float], setup_slowdown: float) -> tuple[dict, dict]:
    """End-to-end metrics, with every timing scaled to the reference host
    (see speed.py); the raw figures are kept in the details."""
    lat = sorted(res["latencies"])
    slowdown = res["slowdown"]
    p50, _ = percentile(lat, 50)
    p90, beyond90 = percentile(lat, 90)
    tail, beyond_tail = percentile(lat, res["tail"])
    throughput = len(lat) / res["busy_s"]
    metrics = {
        "throughput_per_s": {"value": throughput * slowdown, "unit": "1/s"},
        "latency_p50_ms": {"value": p50 * 1000 / slowdown, "unit": "ms"},
        "latency_p90_ms": {"value": p90 * 1000 / slowdown, "unit": "ms"},
        "latency_tail_ms": {"value": tail * 1000 / slowdown, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup) / setup_slowdown, "unit": "s"},
        "peak_rss_mb": {"value": res["maxrss_kb"] / 1024, "unit": "MiB"},
    }
    detail = {
        "items": len(lat),
        "beyond_p90": beyond90,
        "tail_percentile": res["tail"],
        "beyond_tail": beyond_tail,
        "slowdown": slowdown,
        "probes": res["probes"],
        "raw_throughput_per_s": throughput,
        "raw_latency_p50_ms": p50 * 1000,
        "raw_latency_p90_ms": p90 * 1000,
        "raw_latency_tail_ms": tail * 1000,
        "busy_s": res["busy_s"],
        "wall_s": res["wall_s"],
        "raw_setup_samples_s": setup,
        "setup_slowdown": setup_slowdown,
        "digest_items": res["digest_items"],
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("classify", "oracle", "flagmaps", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs; for the self-check")
    parser.add_argument(
        "--wrong-expected", action="store_true", help="expect a wrong output for the first item; for the self-check"
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "diagflag" / "__init__.py").is_file():
        sys.stderr.write(f"no diagflag sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    # One CPU for this process and everything it starts, so that the speed
    # probes and the items run on the same vCPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + DEADLINE_S
    load_before = os.getloadavg()
    probe_before = statistics.median(speed.probe() for _ in range(5)) * 1000
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    result_path = OUT / "work" / f"{stamp}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        probes: list[float] = []
        setup = [spawn(args, result_path, True, deadline, probes) for _ in range(SETUP_ONLY_SPAWNS)]
        setup.append(spawn(args, result_path, False, deadline, probes))
        res = json.loads(result_path.read_text())
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    finally:
        result_path.unlink(missing_ok=True)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["per_layer"].items()}
        attempted = res["attempted"]
        detail = {k: res[k] for k in ("untraced_busy_s", "traced_busy_s", "slowdowns", "spans", "self_s", "calls")}
    else:
        metrics, detail = end_to_end(res, setup, statistics.fmean(probes) / speed.REFERENCE_S)
        attempted = len(res["latencies"])
    failed = res["failed"]
    detail.update(
        workload=args.workload,
        trace=args.trace,
        failed_frac=failed / attempted,
        errors=res["errors"],
        digest=res["digest"],
        provenance=provenance(args.seed),
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
        probe_ms_before=probe_before,
        probe_ms_after=statistics.median(speed.probe() for _ in range(5)) * 1000,
    )
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = OUT / "results" / f"{stamp}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"summary": summary, "detail": detail}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
