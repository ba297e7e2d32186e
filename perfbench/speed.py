"""The host's speed while a repetition runs, for contention-corrected times.

The benchmark runs on a few cores of a shared host. Other tenants slow those
cores down by up to half, in bursts of tens of milliseconds whose share
drifts over minutes, so raw times of the same work can differ by 1.8x from
one minute to the next. A ``Sampler`` thread inside the repetition runs a fixed
interpreter loop (``probe_loop``) every ``PERIOD_S`` and times it. The loop's
time against ``REF_LOOP_S``, its time on an uncontended core, gives the
speed the process had at that moment, and the mean speed over an interval
turns its raw duration into the duration it would have had at the reference
speed. The loop touches no ridesim code, so a faster ridesim moves
the corrected times exactly as it moves the raw ones; the sampler adds about
2% of work to the repetition.
"""

import threading
import time

perf = time.perf_counter

PERIOD_S = 0.02
MIN_SAMPLES = 5
LOOP_N = 1000
# Time of probe_loop(LOOP_N) on an uncontended core of the reference machine
# (2-vCPU KVM guest, Intel Xeon family 6 model 207, Python 3.11): the unit
# the corrected times are expressed in. Any constant would do; this one makes
# corrected times read as seconds on that machine at full speed.
REF_LOOP_S = 0.32e-3


def probe_loop(n: int) -> int:
    """Dictionary, tuple, list and sort work typical of the interpreter."""
    table = {}
    acc = 0
    pending = []
    for i in range(n):
        key = (i * 7919) % 10007
        table[key] = table.get(key, 0) + i
        pending.append((key, i))
        if len(pending) > 128:
            pending.sort()
            acc += pending[0][0]
            pending.clear()
    return acc + len(table)


class Sampler:
    """Times ``probe_loop`` every ``PERIOD_S`` on a daemon thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (end time, loop time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self):
        samples = self.samples
        while not self._stop.wait(PERIOD_S):
            t0 = perf()
            probe_loop(LOOP_N)
            t1 = perf()
            samples.append((t1, t1 - t0))

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def speed(self, start: float, end: float) -> float:
        """Mean speed against the reference in [start, end], or in the
        ``MIN_SAMPLES`` samples nearest to it when it holds fewer."""
        used = [dt for t, dt in self.samples if start <= t <= end]
        if len(used) < MIN_SAMPLES:
            nearest = sorted(self.samples, key=lambda s: max(start - s[0], s[0] - end))
            used = [dt for _, dt in nearest[:MIN_SAMPLES]]
        if not used:
            return 1.0
        return sum(REF_LOOP_S / dt for dt in used) / len(used)

    def at_reference(self, start: float, end: float) -> float:
        """The interval [start, end] as it would have lasted at the reference speed."""
        return (end - start) * self.speed(start, end)

    def wait_for(self, n: int) -> None:
        """Block until at least ``n`` samples have been taken."""
        while len(self.samples) < n:
            time.sleep(PERIOD_S)
