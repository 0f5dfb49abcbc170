"""A speed probe that converts measured times to seconds at a fixed speed.

On a shared machine the processor runs the same loop at speeds up to 1.7x
apart, in stretches of seconds to minutes, with CPU time equal to wall time;
a whole 35-second run can fall inside one slow stretch.  The benchmark
therefore runs a fixed probe, which uses no evenrev code, between its jobs
and scales every time it reports by ``REFERENCE_S / (mean probe time
nearby)``: a time measured while the probe ran 1.3x slower than its
reference is divided by 1.3.  The probe does what evenrev's transforms do
to a signal: zero-upsampling, a short convolution and an FFT pair, on numpy
arrays of 2^14 samples.  A probe of Python float formatting and parsing was
tried beside it and dropped: it swung by more than every workload between
fast and slow stretches (even `cli_files`, whose time is mostly such
formatting), and the numpy probe tracked all three more closely.  A change to evenrev
cannot change the probe, so a faster program still reads faster; only the
machine's speed is taken out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time on the reference machine when it ran at its faster speed
#: (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6); reported times are seconds
#: at that speed.  Only ratios between runs matter, not this value.
REFERENCE_S = 0.0065

_rng = np.random.default_rng(12345)
_SIGNAL = _rng.standard_normal(1 << 13)
_TAPS = _rng.standard_normal(9)


def probe() -> float:
    """Wall time of one fixed piece of work, in seconds."""
    start = time.perf_counter()
    up = np.zeros(2 * _SIGNAL.size)
    for _ in range(24):
        up[::2] = _SIGNAL
        np.convolve(up, _TAPS)
        np.fft.irfft(np.fft.rfft(up))
    return time.perf_counter() - start


def factor(probe_times) -> float:
    """Scale that turns times measured among ``probe_times`` into reference seconds."""
    return REFERENCE_S / statistics.fmean(probe_times)
