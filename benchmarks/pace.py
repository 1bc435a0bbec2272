"""Pass times in reference seconds, steady on a machine whose speed drifts.

On a shared host the same single-threaded pass can take a third longer
from one minute to the next, for two reasons.  The host takes the core
away for a while (steal time), and other tenants' load slows the core
while it runs (shared caches, memory bandwidth, clock).  A pace counts
the pass in CPU seconds of its own process, which on a kernel with
paravirtual steal accounting leave stolen time out, and corrects them
for the core's speed at that moment: a timer signal interrupts the pass
every `INTERVAL_S` seconds to time one `probe()`, a fixed reference
loop that slows by nearly the same factor as the pass.  Each stretch of
the pass between two probes is scaled by `NOMINAL_PROBE_S / (the probe's
CPU time at that moment)`; the sum is the pass's time on a core that
runs the probe in `NOMINAL_PROBE_S` and is never taken away.  Time spent
in probes is left out of both the wall and the reference seconds.

The pass is single-threaded (one BLAS thread, `--jobs 1`), so its CPU
seconds are its running time; any thread it starts is counted in full.
The probe is pure Python with a working set of a few hundred bytes, so
the program's own memory traffic barely moves it, and it does not depend
on the package, so no change to the package can change it.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
PROBE_LOOPS = 4000
# about what PROBE_LOOPS take on an unloaded 2.1 GHz Xeon core; the
# constant only sets the scale, since both commits use the same one
NOMINAL_PROBE_S = 0.00045
# probes per side in the moving median that smooths the probe times
SMOOTH = 4


def probe() -> int:
    acc, table = 0, [0] * 64
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] ^= acc
    return acc


def speed_now(probes: int = 15) -> float:
    """The factor that turns CPU seconds spent at this moment into
    reference seconds: `NOMINAL_PROBE_S` over the median CPU time of
    `probes` probes run now."""
    took = []
    for _ in range(probes):
        began = time.process_time()
        probe()
        took.append(time.process_time() - began)
    return NOMINAL_PROBE_S / statistics.median(took)


class Pace:
    """`with Pace() as pace:` probes the block's process while it runs;
    afterwards `pace.wall_s` and `pace.reference_s` give its time."""

    def __enter__(self) -> "Pace":
        # (wall start, wall end, cpu start, cpu end) of every probe
        self.probes: list[tuple[float, float, float, float]] = []
        self._old = signal.signal(signal.SIGALRM, self._probe)
        self.start = time.perf_counter()
        self.cpu_start = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.cpu_end = time.process_time()
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._old)

    def _probe(self, signum, frame) -> None:
        began, cpu_began = time.perf_counter(), time.process_time()
        probe()
        self.probes.append((began, time.perf_counter(),
                            cpu_began, time.process_time()))

    @property
    def wall_s(self) -> float:
        return self.end - self.start - sum(b - a for a, b, _, _ in self.probes)

    @property
    def cpu_s(self) -> float:
        return (self.cpu_end - self.cpu_start
                - sum(d - c for _, _, c, d in self.probes))

    @property
    def reference_s(self) -> float:
        if not self.probes:
            return self.cpu_s
        took = [d - c for _, _, c, d in self.probes]
        total, last = 0.0, self.cpu_start
        for i, (_, _, began, ended) in enumerate(self.probes):
            local = statistics.median(took[max(0, i - SMOOTH):i + SMOOTH + 1])
            total += (began - last) * NOMINAL_PROBE_S / local
            last = ended
        local = statistics.median(took[-SMOOTH - 1:])
        return total + (self.cpu_end - last) * NOMINAL_PROBE_S / local
