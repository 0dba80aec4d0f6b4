"""rgpoly benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload br-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one thread.  A run builds the workload's instance list from
``--seed``, then repeats passes over it for about ``--seconds`` seconds: each
instance is timed from its input text to its rendered ``canonical()`` text.
Outputs are checked outside the timed region: the first pass's outputs by
the workload's check, later passes' by equality with the first pass.

Every reported time is scaled to one host speed by a short speed probe that
a timer signal runs every 50 ms (see ``speed.py``): a span's time is scaled
by the mean probe cost during that span, a traced pass's per-layer times by
the mean probe cost during that pass, and a set-up time by the mean probe
cost over the run that follows it.  With ``--trace 0`` the unscaled medians
are printed on a comment line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
passes (medians), the tracing overhead, and writes every span to
``perfbench/out/``.  ``--workload all`` runs every workload in its own fresh
interpreter.  ``--smoke`` shrinks each workload to its smallest instance;
``--reference FILE`` replaces the recorded br-wide digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checkout import ROOT, use_checkout_src
from speed import SpeedProbe
from tracing import LAYER_UNITS, Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
E2E_UNITS = {
    "wall_s": "s",
    "instance_p50_s": "s",
    "instance_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 170


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--reference", type=Path)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def quantile(values: list, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(args) -> list:
    """Seconds from spawning a fresh interpreter to its inputs being ready.

    The speed probe is not running meanwhile, as it would compete with the
    child; ``run_one`` scales these by the speed over the run that follows.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up run failed with exit code {code}")
        times.append(ready - start)
    return times


class Runner:
    """Timed passes over one workload's instances, with output checks."""

    def __init__(self, workload, instances, probe, tracer=None):
        self.workload = workload
        self.instances = instances
        self.probe = probe
        self.tracer = tracer
        self.walls = {False: [], True: []}     # pass spans by traced
        self.samples = []                      # untraced per-instance spans
        self.layers = []                       # (metrics, span) per traced pass
        self.attempted = 0
        self.failed = 0
        self.first = None                      # (rendered texts, verdict) per instance

    def one_pass(self, number: int, traced: bool) -> None:
        tracer, probe = self.tracer, self.probe
        first_span = len(tracer.spans) if traced else 0
        results = []
        spans = []
        if traced:
            tracer.install()
        try:
            start = probe.mark()
            for inst in self.instances:
                if traced:
                    tracer.instance = f"{number}:{inst.key}"
                t0 = probe.mark()
                try:
                    result = self.workload.run(inst)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    result = None
                spans.append(probe.span(t0, probe.mark()))
                results.append(result)
            wall = probe.span(start, probe.mark())
        finally:
            if traced:
                tracer.remove()
        self.walls[traced].append(wall)
        if not traced:
            self.samples.extend(spans)
        failed = self.judge(results)
        if traced:
            layers = tracer.layer_metrics(first_span)
            if self.workload.name == "verify-small":
                layers["verify.instances"] = len(self.instances)
                layers["verify.failed"] = failed
            self.layers.append((layers, wall))

    def judge(self, results) -> int:
        """Count failed instances; the first pass runs the workload checks."""
        verdicts = []
        if self.first is None:
            self.first = []
            for inst, result in zip(self.instances, results):
                ok = False
                if result is not None:
                    try:
                        ok = bool(self.workload.check(inst, result))
                    except Exception:
                        traceback.print_exc(file=sys.stderr)
                self.first.append((rendered(result), ok))
                verdicts.append(ok)
        else:
            for (texts, ok), result in zip(self.first, results):
                verdicts.append(ok and result is not None
                                and rendered(result) == texts)
        failed = verdicts.count(False)
        self.attempted += len(verdicts)
        self.failed += failed
        return failed

    def run(self, seconds: float) -> None:
        """Passes until the next one would end after ``seconds``, and at
        least two: untraced and traced passes alternate when tracing, and
        with a single untraced pass the 90th percentile would fall between a
        small and the large instance (see ``workloads._picks``)."""
        deadline = time.perf_counter() + seconds
        number = 0
        while True:
            traced = self.tracer is not None and number % 2 == 1
            self.one_pass(number, traced)
            number += 1
            if number < 2:
                continue
            typical = statistics.median(
                span[0] for span in self.walls[False] + self.walls[True])
            if time.perf_counter() + typical > deadline:
                return


def rendered(result) -> tuple:
    if result is None:
        return ()
    return tuple(v for _, v in sorted(result.items()) if isinstance(v, str))


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled_layers(runner, probe) -> dict:
    """Median over traced passes of each layer metric, times scaled by the
    speed during their pass."""
    passes = []
    for layers, wall in runner.layers:
        factor = probe.factor(wall)
        passes.append({key: value * factor if LAYER_UNITS[key] in ("s", "us")
                       else value for key, value in layers.items()})
    return {key: statistics.median(p[key] for p in passes)
            for key in LAYER_UNITS if not key.startswith("trace.")}


def run_one(args, workloads) -> int:
    recorded = workloads.load_instances()
    if args.reference is not None:
        with open(args.reference, encoding="utf-8") as fh:
            recorded["br-wide"]["digests"] = json.load(fh)
    workload = workloads.WORKLOADS[args.workload]()
    instances = workload.setup(args.seed, args.smoke, recorded)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    setup_times = [] if args.trace else measure_setup(args)
    probe = SpeedProbe()
    probe.start()
    try:
        tracer = Tracer(clock=probe.clock) if args.trace else None
        runner = Runner(workload, instances, probe, tracer)
        runner.run(args.seconds)
    finally:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    name = args.workload
    keys = [i.key for i in instances]
    print(f"# {name} seed={args.seed}: {len(keys)} instances "
          f"({', '.join(keys[:3])}{', ...' if len(keys) > 3 else ''})")
    print(f"# passes: {len(runner.walls[False])} untraced, "
          f"{len(runner.walls[True])} traced; failed_frac = "
          f"{runner.failed / runner.attempted:.4g} "
          f"({runner.failed} of {runner.attempted} instances)")
    costs = statistics.quantiles(probe.cost, n=20) if len(probe.cost) > 1 \
        else probe.cost * 19
    print(f"# speed probe: {len(probe.cost)} probes, cost 5th percentile "
          f"{costs[0] * 1e3:.4g} ms, median {costs[9] * 1e3:.4g} ms, "
          f"95th percentile {costs[18] * 1e3:.4g} ms")
    if tracer is None:
        samples = [probe.scaled(s) for s in runner.samples]
        values = {
            "wall_s": statistics.median(
                probe.scaled(s) for s in runner.walls[False]),
            "instance_p50_s": statistics.median(samples),
            "instance_p90_s": quantile(samples, 90),
            "setup_s": statistics.median(setup_times) * probe.run_factor(),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {key: metric(values[key], unit)
                   for key, unit in E2E_UNITS.items()}
        unscaled = [s[0] for s in runner.samples]
        print(f"# unscaled medians: wall_s "
              f"{statistics.median(s[0] for s in runner.walls[False]):.6g}, "
              f"instance_p50_s {statistics.median(unscaled):.6g}, "
              f"instance_p90_s {quantile(unscaled, 90):.6g}, setup_s "
              f"{statistics.median(setup_times):.6g}")
        print(f"# instance percentiles over {len(runner.samples)} samples; "
              f"setup_s is the median of {len(setup_times)} fresh interpreters")
    else:
        untraced = statistics.median(probe.scaled(s) for s in runner.walls[False])
        traced = statistics.median(probe.scaled(s) for s in runner.walls[True])
        values = scaled_layers(runner, probe)
        values["trace.untraced_wall_s"] = untraced
        values["trace.traced_wall_s"] = traced
        values["trace.overhead_frac"] = traced / untraced - 1
        metrics = {key: metric(values[key], unit)
                   for key, unit in LAYER_UNITS.items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{name}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        print(f"# {len(tracer.spans)} spans written to "
              f"{spans_file.relative_to(ROOT)}")
    for key, m in metrics.items():
        print(f"{name:13} {key:34} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


def run_all(args, workload_names) -> int:
    """Every workload in a fresh interpreter, so that neither peak memory nor
    variable registration order carries over from one workload to the next."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workload_names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--smoke"] if args.smoke else []
        cmd += ["--reference", str(args.reference.resolve())] if args.reference else []
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S * 4)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    use_checkout_src()
    import workloads        # imports rgpoly, so only once src/ is on the path
    names = tuple(workloads.WORKLOADS)
    args = parse_args(argv, names)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
