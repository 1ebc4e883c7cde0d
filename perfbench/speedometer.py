"""How fast the CPU ran while a sample was being timed.

On a shared host a vCPU's speed moves between regimes a few seconds long:
a fixed pure-Python loop runs about 1.45 times slower in the slow regime
than in the fast one, and both the wall and the CPU time of a sweep move
with it.  Neither a longer run nor a median over samples averages that
out, so the end-to-end times are scaled by the speed the CPU delivered
during each sample.

A probe is a small process pinned to one CPU.  Every `PERIOD_S` it times
one fixed unit of work (`probe_work`) in its own thread CPU time and
records when it did so.  While a sample runs on that CPU the probe takes
turns with it, so its readings follow the same regime.  The speed over a
window is the mean of `NOMINAL_S / duration` over the probes inside it:
1.0 at the nominal speed, less on a slower CPU.  A time multiplied by it
is the time the sample would have taken at the nominal speed.

    python3 perfbench/speedometer.py CPU    # one probe; stops when stdin closes

The probe costs the measured process about 1 % of its CPU, the same on
every run.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from fractions import Fraction

PERIOD_S = 0.02
# Typical `probe_work` time, taking turns with a sweep on one CPU, on the
# host the benchmark was tuned on (Intel Xeon, 2 vCPUs, Python 3.11), so
# scaled times there read close to raw ones.  Any constant would do: both
# sides of a comparison are scaled by the same one.
NOMINAL_S = 3.2e-4


def probe_work() -> Fraction:
    """Fixed work in the style of the program: small Fractions, int keys."""
    terms: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for k in range(1, 25):
        total += Fraction(k, k * k + 1)
        key = (k & 7, k & 3)
        terms[key] = terms.get(key, 0) + total * k
    return sum(terms.values(), total)


def probe_main(cpu: int) -> None:
    """Probe loop: one reading per period until stdin reaches end of file,
    then every reading as `<monotonic end time> <duration>` lines."""
    os.sched_setaffinity(0, {cpu})
    for _ in range(50):
        probe_work()
    readings = []
    clock = time.thread_time
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = clock()
        probe_work()
        duration = clock() - start
        readings.append(f"{time.monotonic()!r} {duration!r}\n")
    sys.stdout.write("".join(readings))


class Probes:
    """One probe per CPU in `cpus` for the life of the `with` block."""

    def __init__(self, cpus: set[int]):
        self.cpus = sorted(cpus)
        self.readings: list[tuple[float, float]] = []

    def __enter__(self) -> Probes:
        self._procs = []
        try:
            for cpu in self.cpus:
                self._procs.append(
                    subprocess.Popen(
                        [sys.executable, __file__, str(cpu)],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                    )
                )
        except BaseException:
            self._stop()
            raise
        time.sleep(0.1)  # past the probes' start-up and warm-up
        return self

    def __exit__(self, *exc) -> None:
        for text in self._stop():
            for line in text.splitlines():
                end, duration = line.split()
                self.readings.append((float(end), float(duration)))
        self.readings.sort()

    def _stop(self) -> list[str]:
        outputs = []
        for proc in self._procs:
            try:
                outputs.append(proc.communicate(timeout=10)[0])
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        return outputs

    def speed(self, start: float, end: float) -> float:
        """Mean speed relative to nominal over the window [start, end] of
        `time.monotonic()`; from the two nearest readings if fewer fall inside."""
        inside = [d for t, d in self.readings if start <= t <= end]
        if len(inside) < 2:
            middle = (start + end) / 2
            nearest = sorted(self.readings, key=lambda r: abs(r[0] - middle))[:2]
            inside = [d for _, d in nearest]
        return sum(NOMINAL_S / d for d in inside) / len(inside)


if __name__ == "__main__":
    probe_main(int(sys.argv[1]))
