"""Host-speed probe and the speed-normalised clock built on it.

The host's speed drifts by tens of percent over minutes, so raw times taken
minutes apart are not comparable. The probe is a fixed piece of work that
runs interleaved with the workload: numpy element-wise arithmetic on
preallocated arrays plus Python set-membership and string scanning. It uses
no BLAS, runs on one thread, allocates no arrays in its timed loop and calls
no `lgcn` code. A timing taken next to a probe reading is multiplied by
(nominal probe time / measured probe time), which cancels the drift both
share.

Re-measure the nominal time on a quiet host with

    python3 perfbench/probe.py --seconds 60

and copy the printed median into NOMINAL_PROBE_S.
"""

from __future__ import annotations

import argparse
import bisect
import statistics
import time

import numpy as np

# Median probe time on the reference host (2-core Intel Xeon virtual machine,
# numpy 2.4.6, OpenBLAS 0.3.31), rounded from `python3 perfbench/probe.py`.
# It only sets the scale: runs compare only under the same constant.
NOMINAL_PROBE_S = 0.00185

# A probe reading is the median of this many kernel repetitions.
PROBE_REPS = 7
# Seconds of work allowed between two probe readings.
PROBE_EVERY_S = 0.5
# A stretch of work is scaled by the median of the readings taken within this
# many seconds of it: single readings are noisy, the drift is slow.
WINDOW_S = 2.0

_N = 1 << 14
_rng = np.random.default_rng(20250612)
_A = _rng.random(_N) + 0.5
_B = _rng.random(_N) + 0.5
_OUT = np.empty(_N)
_WORDS = [f"tile{(i * 7919) % 50021:05d}" for i in range(20000)]
_VOCAB = frozenset(_WORDS[::3])
_TEXT = " ".join(_WORDS)


def _kernel() -> int:
    """One repetition: element-wise numpy, then set and string work."""
    for _ in range(8):
        np.multiply(_A, _B, out=_OUT)
        np.add(_OUT, _A, out=_OUT)
        np.tanh(_OUT, out=_OUT)
        np.sqrt(_OUT, out=_OUT)
    hits = sum(map(_VOCAB.__contains__, _WORDS))
    hits += _TEXT.count("tile01")
    return hits


def probe_seconds(reps: int = PROBE_REPS) -> float:
    """Median wall time of one kernel repetition, in seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedClock:
    """A timeline of probe readings that turns raw intervals into normalised ones.

    Work intervals are recorded as raw perf_counter pairs. The stretch
    between two consecutive readings is scaled by nominal / (median of the
    readings taken within WINDOW_S of it, the two bounding ones included);
    work before the first or after the last reading by the same rule. Time
    spent inside the probe itself is never counted as work.
    """

    def __init__(self, nominal_s: float = NOMINAL_PROBE_S):
        self.nominal_s = nominal_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.readings: list[float] = []
        self.on_probe = None  # called with the probe's wall duration
        self._last = -float("inf")

    def probe(self) -> None:
        t0 = time.perf_counter()
        reading = probe_seconds()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.readings.append(reading)
        self._last = t1
        if self.on_probe is not None:
            self.on_probe(t1 - t0)

    def tick(self) -> None:
        """Probe if more than PROBE_EVERY_S seconds passed since the last reading."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def _factor(self, lo: float, hi: float) -> float:
        near = [r for t0, t1, r in zip(self.starts, self.ends, self.readings)
                if t1 >= lo - WINDOW_S and t0 <= hi + WINDOW_S]
        return self.nominal_s / statistics.median(near)

    def _gaps(self):
        """(start, end, factor) of the stretches between probe readings."""
        edges = [-float("inf")] + [x for pair in zip(self.starts, self.ends) for x in pair]
        edges.append(float("inf"))
        gaps = []
        for lo, hi in zip(edges[::2], edges[1::2]):
            gaps.append((lo, hi, self._factor(max(lo, self.starts[0]), min(hi, self.ends[-1]))))
        return gaps

    def measure(self, intervals) -> tuple[float, float]:
        """Sum (raw seconds, normalised seconds) over (t0, t1) intervals."""
        if not self.readings:
            raise RuntimeError("SpeedClock.measure: no probe reading was taken")
        gaps = self._gaps()
        gap_ends = [g[1] for g in gaps]
        raw = norm = 0.0
        for t0, t1 in intervals:
            i = bisect.bisect_right(gap_ends, t0)
            while i < len(gaps) and gaps[i][0] < t1:
                lo, hi, factor = gaps[i]
                overlap = min(t1, hi) - max(t0, lo)
                if overlap > 0:
                    raw += overlap
                    norm += overlap * factor
                i += 1
        return raw, norm

    def factor(self) -> float:
        """Median speed factor over all readings so far."""
        return statistics.median(self.nominal_s / r for r in self.readings)


def main() -> None:
    ap = argparse.ArgumentParser(description="Measure the nominal probe time on this host.")
    ap.add_argument("--seconds", type=float, default=60.0)
    args = ap.parse_args()
    readings = []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        readings.append(probe_seconds())
        time.sleep(PROBE_EVERY_S / 10)
    q = statistics.quantiles(readings, n=4)
    print(f"readings {len(readings)}  median {statistics.median(readings):.6f} s  "
          f"quartiles {q[0]:.6f} .. {q[2]:.6f} s")


if __name__ == "__main__":
    main()
