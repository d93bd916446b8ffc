"""Host-speed probe: how fast the measured process runs Python right now.

The baseline host is shared.  Its speed changes by up to 1.7x, both
within seconds and for minutes at a time, and its two vCPUs change
independently.  A calibration in another process, or at another moment,
therefore does not track the speed a repetition saw.  This probe runs
inside the measured process: every ``INTERVAL_S`` of wall time a SIGALRM
handler times a fixed task that uses no gefp_lab code.  The task does
rational arithmetic with Fraction and 128-bit float arithmetic with
mpmath, the two kinds of work the engines do.  Samples are evenly spaced
in time, so the mean probe time over a window is the host's average
slowness over that window.  ``run.py`` reports a raw time as
``raw * ref / mean probe time``, in reference seconds: seconds on the
baseline host when it runs fast.  ``ref`` is ``SETUP_REF_S`` for set-up
and ``OPS_REF_S`` for the operation list, because the probe runs slower
while modules load than while the engines run.

Import this module before anything heavy, so that set-up is sampled too.
"""

import signal
import statistics
import time
from fractions import Fraction

import mpmath

INTERVAL_S = 0.02
CLIP = 3
# Mean probe times on the baseline host in a fast period (see README):
# during set-up, and while the operations run.
SETUP_REF_S = 2.2e-4
OPS_REF_S = 1.6e-4


_CTX = mpmath.mp.clone()
_CTX.prec = 128
_THIRD = _CTX.mpf(1) / 3


def _task():
    s = Fraction(0)
    for i in range(1, 30):
        s += Fraction(3, i * i + 1)
    x = _CTX.mpf(0)
    for i in range(1, 16):
        x += _THIRD * _THIRD - _THIRD / i
    return s, x


class Probe:
    def __init__(self):
        self.samples = []
        self.busy_s = 0.0          # total time spent in the probe

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        _task()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.busy_s += elapsed

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mean_since(self, index):
        """Mean probe time from sample ``index`` on, plus one sample taken now.

        Samples are clipped at ``CLIP`` times their median first.  A sample
        that the scheduler interrupted is many times longer than its
        neighbours, and unclipped it would count once per probe for a pause
        that the measured work paid once.
        """
        self.sample()
        window = self.samples[index:]
        cap = CLIP * statistics.median(window)
        return statistics.fmean(min(x, cap) for x in window)
