"""Run one benchmark workload for one seed in this process and print its metrics.

    python3 perfbench/run.py --workload localize --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's `src/`. One set-up and one warm-up round come first, then rounds
run until `--seconds` have passed, with the remaining set-ups paced evenly
over that time. Peak memory is read when the rounds are over; only then are
the outputs checked and the negative controls run. Every timing is
speed-normalised by the interleaved probe (see probe.py). Comment lines
starting with '#' describe the run; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics. --trace 1 spends half the time
untraced and half traced, and reports the per-layer metrics plus the
tracing overhead between the two halves.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("localize", "train", "retrieval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def header_lines(args, np_mod) -> list[str]:
    blas = np_mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "lgcn").glob("*.py"))
    return [
        f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"# nproc {os.cpu_count()} (affinity {len(os.sched_getaffinity(0))})  "
        f"python {sys.version.split()[0]}  numpy {np_mod.__version__}  "
        f"blas {blas.get('name')} {blas.get('version')}",
        f"# git {git_sha()}  src/lgcn {lines} lines",
    ]


def run_rounds(wl, seconds: float, setups=None) -> list:
    """Rounds until `seconds` have passed. With `setups`, set-ups run between
    rounds at an even pace: once a share f of the time has passed, a share f
    of the workload's n_setups is done. Their median then samples the host's
    speed over the whole run rather than its start or its end."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(wl.round())
        elapsed = time.perf_counter() - start
        if setups is not None:
            due = 1 + math.ceil((wl.n_setups - 1) * min(1.0, elapsed / seconds))
            while len(setups) < due:
                setups.append(one_setup(wl))
        if elapsed >= seconds:
            break
    return rounds


def one_setup(wl) -> list:
    calls = []
    wl.setup(calls)
    return calls


def tail(values):
    """(percentile, value, samples beyond) for the highest percentile with ten beyond."""
    import numpy as np

    n = len(values)
    for p in TAIL_PERCENTILES:
        beyond = int(n - np.ceil(n * p / 100.0))
        if beyond >= 10:
            return p, float(np.percentile(values, p)), beyond
    return None


def summarise(clock, rounds):
    """Work time, items/s (median over rounds) and per-op latencies, raw and normalised."""
    per_round = [(r.items, *clock.measure(r.work)) for r in rounds if r.items]
    ops = [clock.measure([op]) for r in rounds for op in r.ops]
    return {
        "items": sum(p[0] for p in per_round),
        "work_raw_s": sum(p[1] for p in per_round),
        "work_norm_s": sum(p[2] for p in per_round),
        "items_per_s": (statistics.median(n / norm for n, _, norm in per_round),
                        statistics.median(n / raw for n, raw, _ in per_round)),
        "op_s_norm": [o[1] for o in ops],
        "op_s_raw": [o[0] for o in ops],
    }


def setup_times(clock, setups):
    per = [clock.measure(calls) for calls in setups]
    return statistics.median(p[1] for p in per), statistics.median(p[0] for p in per)


def run(args, workdir: Path, out) -> dict:
    import numpy as np

    import probe
    from tracer import SETUP_SPANS, SPANS, Tracer
    from workloads import WORKLOADS

    for line in header_lines(args, np):
        print(line, file=out)
    clock = probe.SpeedClock()
    wl = WORKLOADS[args.workload](args.seed, str(workdir), clock)

    clock.probe()
    setups = [one_setup(wl)]
    wl.prepare()
    warm = wl.round()
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds = run_rounds(wl, seconds, setups)
    tracer = None
    if args.trace:
        tracer = Tracer()
        clock.on_probe = tracer.add_child_time
        tracer.install()
        try:
            tracer.phase = "setup"
            traced_setups = [one_setup(wl) for _ in range(wl.n_setups)]
            tracer.phase = "timed"
            traced_rounds = run_rounds(wl, seconds)
        finally:
            tracer.phase = None
            tracer.uninstall()
            clock.on_probe = None
    clock.probe()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_rounds = [warm] + rounds + (traced_rounds if tracer else [])
    check_errors, notes = wl.check_all()
    errors = list(wl.setup_errors) + check_errors
    controls = wl.controls()
    missed = [name for name, caught in controls if not caught]
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    correct = not errors and not missed

    factors = [clock.nominal_s / r for r in clock.readings]
    print(f"# probe nominal {clock.nominal_s * 1e3:.4f} ms  readings {len(factors)}  speed factor "
          f"median {statistics.median(factors):.4f} (min {min(factors):.4f}, "
          f"max {max(factors):.4f})", file=out)
    print(f"# rounds {len(rounds)} untraced + 1 warm-up"
          + (f" + {len(traced_rounds)} traced" if tracer else "")
          + f"  attempted {attempted}  failed {failed}", file=out)
    print(f"# checks on {len(wl.kept)} distinct round outputs "
          f"{'all passed' if not errors else f'{len(errors)} failed'}  negative controls "
          f"{len(controls) - len(missed)}/{len(controls)} caught", file=out)
    if notes:
        print(f"# near-ties ordered against ascending id, accepted: "
              f"{len(notes)} (first: {notes[0]})", file=out)
    for e in errors[:5]:
        print(f"# CHECK FAILED: {e}", file=out)
    for name in missed:
        print(f"# CONTROL NOT CAUGHT: {name}", file=out)

    untraced = summarise(clock, rounds)
    metrics = {}
    if not tracer:
        setup_norm, setup_raw = setup_times(clock, setups)
        ips_norm, ips_raw = untraced["items_per_s"]
        op_norm = statistics.median(untraced["op_s_norm"]) * 1e3
        op_raw = statistics.median(untraced["op_s_raw"]) * 1e3
        print("# metric        normalised       raw", file=out)
        print(f"# setup_s       {setup_norm:<16.6f} {setup_raw:.6f}  "
              f"(median of {len(setups)} set-ups)", file=out)
        print(f"# items_per_s   {ips_norm:<16.4f} {ips_raw:.4f}  "
              f"(median over {len(rounds)} rounds, {untraced['items']} items)", file=out)
        print(f"# op_ms         {op_norm:<16.4f} {op_raw:.4f}  "
              f"(median of {len(untraced['op_s_norm'])} ops)", file=out)
        t = tail(untraced["op_s_norm"])
        print("# op_ms tail    " + (f"p{t[0]:g} {t[1] * 1e3:.4f} ms normalised, {t[2]} of "
                                     f"{len(untraced['op_s_norm'])} samples beyond" if t else
                                     f"none: {len(untraced['op_s_norm'])} samples, "
                                     f"fewer than ten beyond any percentile"), file=out)
        rss_checked = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"# peak_rss_mb   {rss:.3f}  (read before the checks; {rss_checked:.3f} after "
              f"them)", file=out)
        metrics = {
            "setup_s": (setup_norm, "s"),
            "items_per_s": (ips_norm, "1/s"),
            "op_ms": (op_norm, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        traced = summarise(clock, traced_rounds)
        per_item_u = untraced["work_norm_s"] / untraced["items"]
        per_item_t = traced["work_norm_s"] / traced["items"]
        f_timed = traced["work_norm_s"] / traced["work_raw_s"]
        set_raw = [clock.measure(calls) for calls in traced_setups]
        f_setup = sum(s[1] for s in set_raw) / sum(s[0] for s in set_raw)
        n_set = len(traced_setups)
        self_s = tracer.self_s
        timed_self = sum(v for (ph, _), v in self_s.items() if ph == "timed")
        setup_self = sum(v for (ph, _), v in self_s.items() if ph == "setup")
        print(f"# tracing overhead {100.0 * (per_item_t / per_item_u - 1.0):+.2f}%  "
              f"(traced {per_item_t * 1e3:.4f} ms/item vs untraced {per_item_u * 1e3:.4f} "
              f"ms/item, normalised)", file=out)
        print(f"# timed: per-layer self times sum to {timed_self * f_timed / traced['items'] * 1e3:.4f}"
              f" ms/item of {per_item_t * 1e3:.4f} ms/item traced", file=out)
        print(f"# set-up: per-layer self times sum to {setup_self * f_setup / n_set * 1e3:.4f} ms of "
              f"{sum(s[1] for s in set_raw) / n_set * 1e3:.4f} ms per traced set-up", file=out)
        for span in SPANS:
            if span in SETUP_SPANS:
                value, scale = self_s[("setup", span)], f_setup / n_set
            else:
                value, scale = self_s[("timed", span)], f_timed / traced["items"]
            metrics[f"{span}_ms"] = (value * scale * 1e3, "ms")
        for span in SPANS:
            extra = self_s[("setup", span)]
            if span not in SETUP_SPANS and extra:
                print(f"# set-up also ran {span}: {extra * f_setup / n_set * 1e3:.4f} ms per set-up",
                      file=out)
        counts = tracer.counts
        metrics["model.images_encoded"] = (counts[("timed", "images_encoded")] / traced["items"], "1")
        metrics["model.grad_useful_share"] = (_share(counts, "grad_useful", "grad_elems"), "1")
        metrics["trainer.active_share"] = (_share(counts, "hinge_active", "hinge_rows"), "1")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def _share(counts, part, whole):
    total = counts[("timed", whole)]
    return counts[("timed", part)] / total if total else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lgcn" / "__init__.py").is_file():
        print(f"perfbench: no lgcn package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir, sys.stdout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
