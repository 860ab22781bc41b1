#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs ``run.py`` once per (seed, workload), seed by seed so that slow
drift of the machine reaches every workload alike, and prints for each
end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median, as ``statistics.quantiles(values, n=4)`` gives them,
beside the metric's bound from ``BENCHMARK.json``.  ``--out`` also writes
the numbers as JSON (the committed baseline is made this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    provenance = None
    for seed in args.seeds:
        for workload in workloads:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            provenance = provenance or next(
                (json.loads(line[len("provenance: "):]) for line in lines
                 if line.startswith("provenance: ")), None)
            if proc.returncode != 0 or not result["correct"]:
                sys.stderr.write(proc.stdout)
                sys.exit(f"spread: {workload} seed {seed} failed")
            for name, entry in result["metrics"].items():
                values[workload].setdefault(name, []).append(entry["value"])
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    report = {}
    print(f"\n{'workload':<18} {'metric':<20} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound/3':>7}")
    for workload, metrics in values.items():
        report[workload] = {}
        for name, vals in metrics.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            report[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                      "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  <-- not below a third of the bound"
            print(f"{workload:<18} {name:<20} {median:>10.5g} {q1:>10.5g} {q3:>10.5g} "
                  f"{spread:>7.3f} {bounds[name] / 3:>7.3f}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                        "provenance": provenance, "workloads": report},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
