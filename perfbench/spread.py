"""Run-to-run spread of the end-to-end metrics, raw and speed-normalised.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30

Runs the benchmark once per (workload, seed) for every workload, one process
at a time, and prints for every end-to-end metric the median of the runs and
the distance between the first and third quartiles as a share of the median,
both for the normalised value in the JSON line and for the raw value printed
beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("localize", "train", "retrieval")
RAW_ROWS = ("setup_s", "items_per_s", "op_ms")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q[2] - q[0]) / med


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    args = ap.parse_args()
    for workload in WORKLOADS:
        norm, raw, failed_share = {}, {}, set()
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false")
                return 1
            failed_share.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                norm.setdefault(name, []).append(m["value"])
            for line in lines:
                parts = line.split()
                if len(parts) >= 4 and parts[0] == "#" and parts[1] in RAW_ROWS \
                        and parts[2] != "tail":
                    raw.setdefault(parts[1], []).append(float(parts[3]))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v[-1]:.6g}" for k, v in norm.items()), flush=True)
        print(f"{workload}: failed share {sorted(failed_share)}")
        for name, values in norm.items():
            med, iqr = spread(values)
            line = f"{workload:10s} {name:12s} median {med:12.6g}  IQR/median {iqr:7.2%}"
            if name in raw:
                rmed, riqr = spread(raw[name])
                line += f"   raw median {rmed:12.6g}  IQR/median {riqr:7.2%}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
