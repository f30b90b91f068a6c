"""Benchmark runner of poroseis.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client, single-threaded: the runner starts one operation
(``op.py``, a fresh process per operation, as every CLI call is) after the
previous one has ended, until S seconds have passed.  Every operation is
checked against its accuracy gate (``gates.py``); one that exits non-zero or
misses its gate counts as failed.  Timings are medians over the operations
that passed; the per-operation samples are in the result file.

With --trace 0 the last line of standard output carries the end-to-end
metrics, with --trace 1 the per-layer ones: each operation then runs once
plain and once wrapped by ``spans.Tracer``, and ``trace.overhead_ratio`` is
the median of traced over plain ``run_s`` of the same operation.  The full
record, with the machine, versions, seed and every sample, is written to
``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

import gates
import workloads
from paths import BENCH, RESULTS, ROOT, SRC, WORK, MissingProgram, git_commit

# A run must end within 180 s; no operation starts that would end past this.
HARD_LIMIT_S = 150.0
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "cagniard.s": "s", "cagniard.xi_zero.s": "s", "cagniard.xi_zero.q": "count",
    "cagniard.window.s": "s", "cagniard.contour.s": "s",
    "cagniard.contour.points": "count", "cagniard.plane_search.calls": "count",
    "cagniard.arrivals.s": "s", "cagniard.arrivals.calls": "count",
    "coefficients.s": "s", "coefficients.assemble.s": "s",
    "coefficients.solve.s": "s", "coefficients.systems": "count",
    "green.s": "s", "green.quadrature.calls": "count",
    "green.nodes_per_live_sample": "nodes/sample",
    "oracle.s": "s", "oracle.grid.s": "s", "oracle.grid.systems": "count",
    "oracle.grid.cache_hit_ratio": "ratio", "oracle.integrate.s": "s",
    "seismogram.s": "s", "cli.s": "s", "cli.write.s": "s",
    "cli.write.bytes": "bytes", "cli.setup.s": "s", "media.setup.s": "s",
    "trace.overhead_ratio": "ratio",
}
# Per-layer metrics the runner derives itself.
RUNNER_LAYER_METRICS = ("cli.write.bytes", "trace.overhead_ratio")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, ops) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "poroseis").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "quadrature": sorted({json.dumps(op["config"]["quadrature"],
                                         sort_keys=True) for op in ops}),
        "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
    }


def run_op(workload: str, op: dict, index: int, traced: bool, reference,
           work_dir: Path, timeout: float) -> dict:
    """Run one operation in a fresh process and judge its output."""
    op_dir = work_dir / f"op{index:03d}"
    out_dir = op_dir / "out"
    op = dict(op, config=copy.deepcopy(op["config"]))
    op["config"]["output"]["directory"] = str(out_dir)
    op_dir.mkdir(parents=True)
    op_file = op_dir / "op.json"
    op_file.write_text(json.dumps(op), encoding="utf-8")
    record = {"index": index, "traced": traced, "ok": False,
              "engine_failure": False, "problems": []}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "op.py"), str(op_file),
             "1" if traced else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None:
            record["engine_failure"] = True
            record["problems"].append(
                f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return record
        record.update({k: result[k] for k in ("rc", "import_s", "setup_s",
                                              "run_s", "peak_rss_mb")})
        record["layers"] = result.get("layers")
        record["absent"] = result.get("absent")
        if result["rc"] != 0:
            record["engine_failure"] = True
            record["problems"].append(result["stderr"].strip()[-400:])
            return record
        record["bytes_written"] = sum(
            f.stat().st_size for f in out_dir.iterdir()) if out_dir.is_dir() else 0
        if workload == "oracle":
            record["work"] = len(result["values"])
            problems = gates.check_oracle(result["values"], reference)
        else:
            record["work"] = op["live_samples"]
            problems = gates.check_fixture(op, out_dir, reference)
        record["problems"] = problems
        record["ok"] = not problems
        return record
    except subprocess.TimeoutExpired:
        record["engine_failure"] = True
        record["problems"].append(f"timed out after {timeout:.0f} s")
        return record
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(records) -> dict:
    plain = [r for r in records if not r["traced"]]
    passed = [r for r in plain if r["ok"]]
    return {
        "run_s": _median(r["run_s"] for r in passed),
        "setup_s": _median(r["setup_s"] for r in plain if "setup_s" in r),
        "work_per_s": _median(r["work"] / r["run_s"] for r in passed),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in passed),
    }


def per_layer(records) -> dict:
    traced = [r for r in records if r["traced"] and r.get("layers")]
    passed = [r for r in traced if r["ok"]]
    plain = {r["index"]: r for r in records if not r["traced"] and r["ok"]}
    out = {name: _median(r["layers"][name] for r in passed)
           for name in LAYER_UNITS if name not in RUNNER_LAYER_METRICS}
    out["cli.write.bytes"] = _median(r["bytes_written"] for r in passed)
    # Each traced operation repeats the plain one just before it.
    out["trace.overhead_ratio"] = _median(
        r["run_s"] / plain[r["index"] - 1]["run_s"]
        for r in passed if r["index"] - 1 in plain)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    try:
        ops = workloads.generate(args.workload)
        reference = gates.load_reference(args.workload)
    except (MissingProgram, OSError) as exc:
        print(f"cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    records = []
    longest = 0.0
    t_begin = perf_counter()
    try:
        while True:
            elapsed = perf_counter() - t_begin
            plain_done = any(not r["traced"] for r in records)
            traced_done = not args.trace or any(r["traced"] for r in records)
            if elapsed >= args.seconds and plain_done and traced_done:
                break
            used = perf_counter() - started
            if records and used + 1.5 * longest > HARD_LIMIT_S:
                break
            index = len(records)
            traced = bool(args.trace) and index % 2 == 1
            op = ops[(index // 2 if args.trace else index) % len(ops)]
            t_op = perf_counter()
            records.append(run_op(args.workload, op, index, traced, reference,
                                  work_dir, timeout=HARD_LIMIT_S + 20.0 - used))
            longest = max(longest, perf_counter() - t_op)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    plain = [r for r in records if not r["traced"]]
    failed = [r for r in plain if not r["ok"]]
    # Every workload has inputs the program handles, so any failed
    # operation, plain or traced, is an error of the program.
    correct = all(r["ok"] for r in records)
    metrics = per_layer(records) if args.trace else end_to_end(records)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    if any(metrics[name] is None for name in units):
        print("no operation passed; nothing to report", file=sys.stderr)
        for r in records:
            print(f"op {r['index']}: {r['problems']}", file=sys.stderr)
        return 1

    detail = {
        "environment": environment(args, ops),
        "attempted": len(plain), "failed": len(failed),
        "failed_share": len(failed) / len(plain),
        "failures": [{"index": r["index"], "problems": r["problems"]}
                     for r in records if not r["ok"]],
        "live_samples_per_s" if args.workload != "oracle"
        else "oracle_values_per_s": metrics.get("work_per_s"),
        "absent": sorted({n for r in records for n in (r.get("absent") or [])}),
        "records": [{k: v for k, v in r.items() if k != "absent"}
                    for r in records],
        "wall_s": perf_counter() - started,
    }
    RESULTS.mkdir(exist_ok=True)
    result_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload}: {len(plain)} operations, {len(failed)} failed, "
          f"record in {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": len(plain), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
