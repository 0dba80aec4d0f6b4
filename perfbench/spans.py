"""Self time per instance and span name, from a traced run's span file.

Usage: python3 perfbench/spans.py perfbench/out/spans-link-tait-seed1.jsonl

Prints, for every instance key, the mean over traced passes of each traced
function's self time (its duration minus that of its child spans).
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

from tracing import self_times


def instance_self_times(path: str) -> dict:
    """{instance key: {span name: mean self seconds over passes}}."""
    with open(path, encoding="utf-8") as fh:
        spans = [[r["name"], r["start"], r["end"], r["parent"], r["instance"]]
                 for r in map(json.loads, fh)]
    totals = defaultdict(lambda: defaultdict(float))
    passes = defaultdict(set)
    for s, self_s in zip(spans, self_times(spans)):
        number, key = s[4].split(":", 1)
        passes[key].add(number)
        totals[key][s[0]] += self_s
    return {key: {name: t / len(passes[key]) for name, t in by_name.items()}
            for key, by_name in totals.items()}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    for key, by_name in instance_self_times(argv[0]).items():
        print(key)
        for name, t in sorted(by_name.items(), key=lambda kv: -kv[1]):
            print(f"  {name:34} {t:10.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
