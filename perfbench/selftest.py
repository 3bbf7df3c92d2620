"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit and a traced run every per-layer
metric; that a request made to fail on purpose is counted in ``failed`` and
in ``failed_op_ratio``; and that the benchmark refuses, without a result,
to run where the package source is missing.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def _bench(workload, trace, *extra):
    code, lines, err = _run(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                             "--trace", str(trace), "--tiny", *extra])
    if code != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace={trace} exited {code}:\n{err}")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def check_metrics(workload, trace, problems):
    context, result = _bench(workload, trace)
    where = f"{workload} trace={trace}"
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                        f"units {[n for n in want if n in got and got[n] != want[n]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} = {m['value']!r}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    if context["failed_op_ratio"] != 0.0:
        problems.append(f"{where}: failed_op_ratio {context['failed_op_ratio']}")


def check_injected_failure(workload, problems):
    context, result = _bench(workload, 0, "--inject-failure")
    if result["failed"] < 1 or context["failed_op_ratio"] <= 0.0 or result["correct"]:
        problems.append(f"{workload}: injected failure not counted (failed={result['failed']}, "
                        f"ratio={context['failed_op_ratio']}, correct={result['correct']})")


def check_refuses_without_source(problems):
    bare = HERE / "_work" / f"selftest-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines, _ = _run(["--workload", "detect-short", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"without src/ the benchmark exited {code} and printed {lines[-1:]}")


def main() -> int:
    problems = []
    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            check_metrics(workload, trace, problems)
        check_injected_failure(workload, problems)
    check_refuses_without_source(problems)
    for p in problems:
        print("FAIL", p)
    print(f"selftest: {len(workloads)} workloads, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
