"""The CPU's throughput while the benchmark runs, sampled from a thread.

On a shared host the core this process runs on delivers anywhere from
full to about half its throughput, switching within tens of milliseconds
as other tenants load the host.  Host CPU time tracks
wall time through it (nothing is reported as steal), so the same read set
takes 4 s or 7 s, and the share of slow time drifts over minutes.

:class:`SpeedSampler` runs a tiny fixed probe every ``SAMPLE_INTERVAL_S``
on its own thread and records the probe's thread CPU time.  The probe
only needs the GIL for a fraction of a millisecond, and its thread time
is not charged while another thread runs, so it measures how fast the
core executes, not how busy the program keeps it.  A window's
*full-speed seconds* are its wall seconds times the mean of
``FULL_SPEED_PROBE_S / probe`` over the samples taken inside it.  Host
times reported that way follow the program, not the neighbours.

``FULL_SPEED_PROBE_S`` is a constant, not each run's fastest probe: the
fastest probe of a 40 s run ranged over 0.168-0.191 ms, since some runs
never see the core uncontended.  Dividing by it widened the five-seed
spread of ``deep-io-p2``'s ``serial_s`` from 3.2% to 9.0%.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Optional, Tuple

#: The probe's thread CPU time on an uncontended core: the median of the
#: fastest probe of eight 40 s runs on a 2.1 GHz Xeon (Sapphire Rapids
#: class) KVM guest.  Full-speed seconds are seconds on such a core.
FULL_SPEED_PROBE_S = 0.18e-3
#: Probe period: about 1% of the core, and a few hundred samples in each
#: timed call of a few seconds.
SAMPLE_INTERVAL_S = 0.02


def _probe() -> int:
    """A fixed interpreter-bound kernel of about 0.2 ms with a
    cache-resident footprint."""
    d: dict = {}
    for i in range(2000):
        d[i & 63] = d.get(i & 63, 0) + i
    return len(d)


class SpeedSampler:
    """Samples the core's throughput between :meth:`start` and :meth:`stop`.

    ``full_speed_probe_s`` is there for tests to fake a core's speed."""

    def __init__(self, full_speed_probe_s: float = FULL_SPEED_PROBE_S) -> None:
        self.full_speed_probe_s = full_speed_probe_s
        #: (perf_counter at the probe's end, probe thread-CPU seconds)
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "SpeedSampler":
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _run(self) -> None:
        tt, pc = time.thread_time, time.perf_counter
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            c0 = tt()
            _probe()
            self.samples.append((pc(), tt() - c0))

    def speed(self, t0: float, t1: float) -> float:
        """Mean share of full speed over the samples in [t0, t1]; over the
        whole run when the window holds none.  Valid after :meth:`stop`."""
        assert self._stop.is_set(), "speed() needs stop() first"
        inside = [p for t, p in self.samples if t0 <= t <= t1]
        if not inside:
            inside = [p for _, p in self.samples]
        if not inside:
            raise RuntimeError("speed sampler took no samples")
        return statistics.fmean(self.full_speed_probe_s / p for p in inside)

    def summary(self) -> str:
        """One printable line: sample count and probe-time percentiles."""
        probes = sorted(p for _, p in self.samples)
        q = statistics.quantiles(probes, n=50) if len(probes) > 1 else probes * 49
        return (f"host speed: {len(probes)} probes against full speed "
                f"{self.full_speed_probe_s * 1e3:.4f} ms; fastest {probes[0] * 1e3:.4f} ms, "
                f"2nd/50th/90th percentile {q[0] * 1e3:.4f}/{q[24] * 1e3:.4f}/"
                f"{q[44] * 1e3:.4f} ms")

    def full_speed_s(self, t0: float, t1: float) -> float:
        """The window's wall seconds at the core's full speed."""
        return (t1 - t0) * self.speed(t0, t1)
