"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload ball-lattice --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds src/ and tests/.  It runs the
workload in a fresh process (single-threaded, closed loop, one client), times
set-up in that process and in fresh ones started in pauses spread across the
run, checks every output against its
reference, prints each metric by name with its unit, writes a run record to
.perfbench_results/ and prints one JSON object as its last line.  With
--trace 0 that object carries the end-to-end metrics of BENCHMARK.json; with
--trace 1 it carries the per-layer metrics of a separate traced round.  Any
output that differs from its reference makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import tail_percentile  # noqa: E402
from workloads import WORKLOADS, describe_inputs  # noqa: E402

SEGMENTS = 10  # parts of the timed phase; set-up is timed once before each and once in the workload process
IMPORT_SAMPLES = 3
SETUP_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 140
RESULTS_DIR = os.path.join(ROOT, ".perfbench_results")
# units of the figures a run prints besides the metrics BENCHMARK.json declares
UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "elements_per_s": "1/s",
    "peak_rss_mb": "MB",
    "op_ms_tail_percentile": "%",
    "ops": "count",
    "rounds": "count",
    "ops_per_s": "1/s",
    "error_rate": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def worker_argv(args, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace), *extra]


def setup_sample(args) -> float:
    """Set-up time of one fresh process that stops once set up."""
    start = time.monotonic()
    proc = subprocess.run(worker_argv(args, "--setup-only"), cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"set-up child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - start


def run_workload(args) -> tuple[list, dict]:
    """Set-up times and the report of one run of the workload in its own process.

    Host speed on a shared machine drifts over seconds, so set-up is timed
    across the whole run: the workload process pauses between SEGMENTS equal
    parts of its timed phase, and a fresh set-up is timed in each pause.
    """
    start = time.monotonic()
    proc = subprocess.Popen(worker_argv(args), cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    killer.start()

    def read_line() -> str:
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise SystemExit(f"workload child exited with code {proc.returncode}")
        return line

    try:
        setups = [json.loads(read_line())["ready"] - start]
        for k in range(1, SEGMENTS + 1):
            setups.append(setup_sample(args))
            proc.stdin.write(f"{k * args.seconds / SEGMENTS}\n")
            proc.stdin.flush()
            read_line()
        proc.stdin.write("end\n")
        proc.stdin.close()
        out = proc.stdout.read()
        if proc.wait() != 0:
            raise SystemExit(f"workload child exited with code {proc.returncode}")
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return setups, json.loads(out.strip().splitlines()[-1])


def import_times() -> dict:
    """Median cumulative import time of numpy and of the package without numpy, in ms.

    `import groupgrowth.cli` is the one top-level entry; the package, numpy
    and the standard modules it pulls in are nested under it.
    """
    numpy_ms, package_ms = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import groupgrowth.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"import of groupgrowth.cli failed:\n{proc.stderr}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1000.0
        numpy = cumulative.get("numpy", 0.0)
        numpy_ms.append(numpy)
        package_ms.append(cumulative["groupgrowth.cli"] - numpy)
    return {"import.numpy_ms": statistics.median(numpy_ms), "import.groupgrowth_ms": statistics.median(package_ms)}


def end_to_end(setups, report) -> tuple[dict, dict]:
    """End-to-end metrics from the timed phase, and extra figures for the record."""
    times = report["times"]
    all_ms = [1000.0 * t for per_op in times for t in per_op]
    pct, tail_ms, n = tail_percentile(all_ms)
    rounds = [sum(r) for r in zip(*times)]
    # per round: ball elements enumerated over the time of the ops that enumerated them
    elements = sum(report["elements"])
    enum_rates = [elements / sum(t for t, e in zip(r, report["elements"]) if e) for r in zip(*times)]
    metrics = {
        "setup_s": statistics.median(setups),
        "round_s": statistics.median(rounds),
        "op_ms_p50": statistics.median(all_ms),
        "op_ms_tail": tail_ms,
        "elements_per_s": statistics.median(enum_rates),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    per_op = {}
    for op_id, t in zip(report["ops"], times):
        per_op.setdefault(op_id, []).extend(t)
    extra = {
        "op_ms_tail_percentile": pct,
        "ops": n,
        "rounds": len(rounds),
        "ops_per_s": n / sum(rounds),
        "error_rate": report["failed"] / report["attempted"],
        "setup_samples_s": setups,
        "op_ms_p50_by_kind": {k: 1000.0 * statistics.median(v) for k, v in per_op.items()},
    }
    return metrics, extra


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git; 'unknown' outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="groupgrowth benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    for needed in ("src/groupgrowth/__init__.py", "tests/oracles.py", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    setups, report = run_workload(args)
    metrics, extra = end_to_end(setups, report)
    if args.trace:
        extra.update({f"untraced.{k}": v for k, v in metrics.items()})
        metrics = dict(report["layers"], **import_times())
    else:
        # the end-to-end figures BENCHMARK.json does not gate stay in the record
        extra.update({k: v for k, v in metrics.items() if k not in {m["name"] for m in declared}})

    missing = sorted({m["name"] for m in declared} - set(metrics))
    if missing:
        raise SystemExit(f"BENCHMARK.json declares metrics this run did not measure: {missing}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": report["python"],
        "numpy": report["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "inputs": describe_inputs(args.workload, args.seed),
        "extra": extra,
        "result": result,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for m in declared:
        print(f"{m['name']:<36} {metrics[m['name']]:>16.6g} {m['unit']}")
    for key, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"{key:<36} {value:>16.6g} {UNITS[key.removeprefix('untraced.')]}")
    print(f"{'op_ms_p50_by_kind':<36} " + json.dumps({k: round(v, 3) for k, v in extra["op_ms_p50_by_kind"].items()}) + " ms")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
