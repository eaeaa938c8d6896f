"""Machine-speed calibration sampled during the run.

The host this benchmark runs on is shared, and its speed drifts by a
quarter or more within minutes, which moves every timing of a run
together.  So the process runs a small fixed kernel of the same kinds of
work as the program (an interpreted loop over sets and tuples, metric
evaluations over small numpy arrays, a scan of a table larger than the
private caches) that touches nothing in the package, and records how
long each run took: back to back in warm_up(), once per sample() call,
and every INTERVAL_S seconds from a SIGALRM handler.  The handler runs
in the main thread between bytecodes, so it samples the same core at
the same time as the work it calibrates.

clock() is perf_counter() minus the time spent in the kernel, so
intervals measured with it exclude the kernel.  A time sample over a
wall window is scaled by NOMINAL_S / (median kernel time in that window),
which expresses it at the speed of a host on which the kernel takes
NOMINAL_S.
"""

import bisect
import signal
import time
from statistics import median

import numpy as np

INTERVAL_S = 0.25
MIN_SAMPLES = 7
# median kernel time on the host the baseline was recorded on
# (2-core Xeon VM, Python 3.11, numpy 2.4.6, one BLAS thread)
NOMINAL_S = 0.005


class Sampler:
    def __init__(self):
        rng = np.random.default_rng(20100813)
        self.mats = (rng.standard_normal((16, 4, 4)) +
                     1j * rng.standard_normal((16, 4, 4)))
        self.table = rng.standard_normal((1024, 16))
        self.scan = rng.standard_normal((65536, 16))   # 8 MiB
        self.points = np.linspace(-1.5, 1.5, 4)
        self.starts, self.kernel_s = [], []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _kernel(self):
        # interpreted part: set and tuple work like a plan walk
        acc = 0.0
        units = [tuple(range(k, k + 2)) for k in range(0, 16, 2)]
        for i in range(200):
            want = set(units[i % 8]) | set(units[(i + 3) % 8])
            picked = [u for u in units if set(u) <= want]
            acc += sum(i for u in picked for i in u) / (1 + len(want))
        for i in range(24):
            A = self.mats[i % 16]
            G = np.real(np.einsum("iab,jab->ij", self.mats[:4].conj(),
                                  self.mats[:4] @ A))
            b = self.table[i] @ self.table[:16].T
            m = -2.0 * (self.table @ b) + np.einsum(
                "ni,ij,nj->n", self.table[:, :4], G, self.table[:, :4])
            k = int(np.argmin(m))
            acc += float(np.searchsorted(self.points, m[k] % 1.0)) + k
        return acc + float(np.einsum("ni,ni->", self.scan, self.scan))

    def sample(self):
        """Run the kernel once and record its time."""
        self._busy = True
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.kernel_s.append(dt)
        self.spent += dt
        self._busy = False

    def warm_up(self, seconds):
        """Run the kernel back to back, so that the host's clock speed has
        settled and set-up has kernel samples next to it."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.sample()

    def _tick(self, _signum, _frame):
        if not self._busy:
            self.sample()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def clock(self):
        """perf_counter() without the time spent in the kernel."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def scale(self, t0, t1):
        """NOMINAL_S / median kernel time over [t0, t1] in perf_counter
        time, widened to the MIN_SAMPLES samples nearest its middle."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2,
                            len(self.starts) - MIN_SAMPLES))
            hi = min(len(self.starts), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("no calibration samples were taken")
        return NOMINAL_S / median(self.kernel_s[lo:hi])
