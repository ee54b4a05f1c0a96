"""Layer-share table: where the median request's time goes, per workload.

Runs ``run.py`` traced and untraced once per workload on one seed (or
``--pairs`` times, alternating which runs first), and writes
``perfbench/LAYER_SHARES.json``: each layer's share of the median request
(from the first traced run), the share of that request the named layers
and measured waits account for, the tracing overhead on ``throughput_rps``
(1 - traced/untraced medians), and whether each prediction the benchmark
was defined with held. From the repository root::

    python3 perfbench/shares.py --seed 101
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "LAYER_SHARES.json")


def bench(workload: str, seed: int, seconds: int, trace: int) -> List[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()


def predictions(table: Dict) -> List[Dict]:
    """The predictions the benchmark was defined with, each marked held
    or missed."""
    def group(workload: str, name: str) -> float:
        return table[workload]["by_group"].get(name, 0.0)

    fabric_layers = {
        name: share
        for name, share in table["vqe-model-fabric"]["by_layer"].items()
        if not name.startswith("wait.")
    }
    largest = max(fabric_layers, key=fabric_layers.get)
    checks = [
        ("front end >= 50% of the median request on suite-warm-read",
         group("suite-warm-read", "front_end") >= 0.5,
         group("suite-warm-read", "front_end")),
        ("front end <= 5% on vqe-grape-cold",
         group("vqe-grape-cold", "front_end") <= 0.05,
         group("vqe-grape-cold", "front_end")),
        ("qoc >= 80% on vqe-grape-cold",
         group("vqe-grape-cold", "qoc") >= 0.8,
         group("vqe-grape-cold", "qoc")),
        ("qoc absent on vqe-model-fabric and suite-warm-read",
         group("vqe-model-fabric", "qoc") == 0 and group("suite-warm-read", "qoc") == 0,
         group("vqe-model-fabric", "qoc") + group("suite-warm-read", "qoc")),
        ("service.store.snapshot is the largest single layer on vqe-model-fabric",
         largest == "service.store.snapshot", largest),
        ("layers and measured waits account for >= 90% of the median request "
         "on every workload",
         all(w["accounted_ratio"] >= 0.9 for w in table.values()),
         {name: round(w["accounted_ratio"], 4) for name, w in table.items()}),
    ]
    return [
        {"prediction": text, "held": bool(held),
         "measured": round(value, 4) if isinstance(value, float) else value}
        for text, held, value in checks
    ]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    table: Dict[str, Dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        plain: List[float] = []
        traced: List[float] = []
        shares = None
        for pair in range(args.pairs):
            for trace in ((0, 1) if pair % 2 == 0 else (1, 0)):
                lines = bench(workload, args.seed + pair, args.seconds, trace)
                metrics = json.loads(lines[-1])["metrics"]
                if trace:
                    traced.append(metrics["trace.throughput_rps"]["value"])
                    if shares is None:
                        shares = json.loads(next(
                            line[len("shares "):] for line in lines
                            if line.startswith("shares ")
                        ))
                        shares["accounted_ratio"] = (
                            metrics["trace.accounted_ratio"]["value"]
                        )
                else:
                    plain.append(metrics["throughput_rps"]["value"])
        shares["tracing_overhead"] = {
            "untraced_throughput_rps": statistics.median(plain),
            "traced_throughput_rps": statistics.median(traced),
            "overhead": 1.0 - statistics.median(traced) / statistics.median(plain),
            "pairs": args.pairs,
        }
        table[workload] = shares
        print(workload, json.dumps(shares["by_group"]), flush=True)
    result = {
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": table,
        "predictions": predictions(table),
    }
    with open(OUT, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for row in result["predictions"]:
        print(("HELD  " if row["held"] else "MISSED") + " " + row["prediction"]
              + f"  ({row['measured']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
