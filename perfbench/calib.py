"""Host-speed calibration: a fixed probe kernel timed many times a second
while a chain runs.

The benchmark runs on shared hosts whose speed for this kind of code jumps
between states 1.5-2x apart within a fraction of a second, as other tenants
load the machine (a fixed 9 ms loop of small numpy operations ran 8.7 ms in
one pass and 15 ms a few passes later on a 2-vCPU Xeon VM, with CPU time
equal to wall time).  Raw chain wall time then spreads wider between runs
than any useful regression bound, and a probe timed only now and then says
little about the seconds around it.  So `HostClock` interrupts the chain
every `period` seconds (a SIGALRM handler, which Python runs between
bytecodes of the chain, or as soon as a long C call returns) and times one
short pass of a probe: a fixed miniature of the workload's dominant kernel
(perfbench/probes.py) that uses numpy and scipy only, never slowlight, or,
while the chain process sets up, `python_kernel`.  Each stretch of chain work
between two probes is scaled by the probe's nominal time over the mean of
those two probe times; the sum is the chain's calibrated time, in seconds at
the host speed the nominal probe time was measured at.  A change to
slowlight moves the stretches and not the probes, so the calibrated time
keeps its full effect; host contention slows both and cancels to first
order.  Probe time is never counted as chain time.

This module uses the standard library only, so that the set-up clock can
start before numpy is imported.
"""

from __future__ import annotations

import signal
import time

# python_kernel's time in the fast state of a 2-vCPU Xeon VM
PYTHON_PROBE_S = 0.8e-3


def python_kernel(n: int = 1200) -> int:
    """Pure-Python probe (string, dict and hash work, no imports) for the
    chain's set-up, which is mostly the interpreter importing modules."""
    names = {}
    total = 0
    for i in range(n):
        key = f"mod{i % 61}.attr{i % 7}"
        names[key] = names.get(key, 0) + len(key.split("."))
        total += hash(key) & 0xFF
    return total + sum(names.values())


class HostClock:
    """Times a chain and samples host speed with a probe every `period` s.

    `start()` times a first probe and arms the timer; each alarm times one
    probe pass and re-arms it, so a probe never interrupts another one;
    `stop()` disarms it and times a last probe.  `now()` is a clock that
    stands still while a probe runs, for spans that should not count probe
    time.  `nominal_s` is the probe's time on an uncontended host.
    """

    def __init__(self, kernel, nominal_s: float, period: float):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.period = period
        self.probes = []        # (start, end) of each probe, perf_counter
        self.probe_total_s = 0.0
        self.probe_cpu_s = 0.0

    def _probe(self, *_) -> None:
        cpu = time.process_time()
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.probe_cpu_s += time.process_time() - cpu
        self.probe_total_s += end - start
        self.probes.append((start, end))

    def _on_alarm(self, *_) -> None:
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def now(self) -> float:
        return time.perf_counter() - self.probe_total_s

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def _stretches(self):
        """(work seconds, mean probe seconds around it) between probes."""
        for (s0, e0), (s1, e1) in zip(self.probes, self.probes[1:]):
            yield s1 - e0, 0.5 * ((e0 - s0) + (e1 - s1))

    def wall_s(self) -> float:
        """Chain wall time without the probes."""
        return sum(work for work, _ in self._stretches())

    def calibrated_s(self) -> float:
        return sum(work * self.nominal_s / probe for work, probe in self._stretches())

    def host_factor(self) -> float:
        """Median probe time over the nominal: the host's slowdown."""
        durations = sorted(e - s for s, e in self.probes)
        return durations[len(durations) // 2] / self.nominal_s
