"""Smoke test for the benchmark.

Usage (from the repository root): python3 perfbench/smoke.py

1. Runs every workload at its smallest instance, untraced and traced, each
   in a fresh interpreter, and checks that exactly the metrics named in
   BENCHMARK.json are printed, each with its unit, and that nothing failed.
2. Corrupts the recorded digest of br-wide's smallest instance and checks
   that the run reports that instance as failed.

It also checks that spec.json describes every workload of BENCHMARK.json
and names the same per-layer metrics.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def run(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: run.py {' '.join(args)} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check_names(spec: dict, bench: dict, problems: list) -> None:
    names = [w["name"] for w in spec["workloads"]]
    if not {w["name"] for w in bench["workloads"]} <= set(names):
        problems.append("BENCHMARK.json lists a workload spec.json does not describe")
    spec_layers = [m for group in spec["per_layer"] for m in group["metrics"]]
    if sorted(spec_layers) != sorted(m["name"] for m in bench["per_layer"]):
        problems.append("spec.json and BENCHMARK.json list different per-layer metrics")
    for group in spec["per_layer"]:
        for move in group["moves"]:
            if move["workload"] not in names or move["metric"] not in [
                    m["name"] for m in bench["end_to_end"]]:
                problems.append(f"spec.json: unknown move {move}")


def check_metrics(spec: dict, bench: dict, trace: int, problems: list) -> None:
    wanted = {m["name"]: m["unit"]
              for m in bench["per_layer" if trace else "end_to_end"]}
    lines, result = run("--workload", "all", "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--smoke")
    if not result["correct"] or result["failed"]:
        problems.append(f"trace {trace}: failures at the smallest instances")
    for workload in (w["name"] for w in spec["workloads"]):
        got = {key.split("/", 1)[1]: m["unit"]
               for key, m in result["metrics"].items()
               if key.startswith(workload + "/")}
        if got != wanted:
            problems.append(f"trace {trace}, {workload}: metrics {sorted(got)} "
                            f"differ from {sorted(wanted)}")
        for name, unit in wanted.items():
            pattern = (rf"^{re.escape(workload)}\s+{re.escape(name)}\s+\S+ "
                       rf"{re.escape(unit)}$")
            if not any(re.match(pattern, line) for line in lines):
                problems.append(
                    f"trace {trace}, {workload}: no line for {name} in {unit}")


def check_corrupted_reference(problems: list) -> None:
    recorded = json.loads((HERE / "instances.json").read_text(encoding="utf-8"))
    digests = dict(recorded["br-wide"]["digests"])
    lines, clean = run("--workload", "br-wide", "--seed", "1", "--seconds", "1",
                       "--smoke")
    key = re.search(r"instances \((\S+)\)", lines[0]).group(1)
    digests[key] = "0" * 64
    OUT_DIR.mkdir(exist_ok=True)
    corrupted = OUT_DIR / "corrupted-digests.json"
    corrupted.write_text(json.dumps(digests), encoding="utf-8")
    lines, result = run("--workload", "br-wide", "--seed", "1", "--seconds", "1",
                        "--smoke", "--reference", str(corrupted))
    frac = re.search(r"failed_frac = (\S+)", "\n".join(lines))
    if clean["failed"] or result["correct"] or result["failed"] != result["attempted"] \
            or frac is None or float(frac.group(1)) != 1.0:
        problems.append("a corrupted br-wide digest was not counted in failed_frac")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    check_names(spec, bench, problems)
    for trace in (0, 1):
        check_metrics(spec, bench, trace, problems)
    check_corrupted_reference(problems)
    for p in problems:
        print("FAIL:", p)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
