"""Machine-speed sampling, so that timings from a shared host compare.

On a few cores of a shared host the same code runs up to 1.6 times slower
while a neighbour is busy, in phases of seconds to minutes.  A median over
one run cannot remove a phase that covers the run.  So every timed command
runs under a `Sampler`: a timer signal interrupts the command every
INTERVAL seconds and times a fixed calibration kernel (a loop over small
Python objects, numpy call chains on 500 x 3 and 256 x 32 arrays: the mix
of the 3-D and 16-D training steps).  The kernel is the benchmark's own
code and never changes with the program, so its time measures only the
machine.

Command times move less than in proportion to the kernel's time: over
repeated commands, regressions of log command time on log kernel time gave
slopes of 0.6 to 1.0.  So a command's scaled time is its wall time, less
the time spent in the handler, times speed ** ELASTICITY, where speed is
the mean of REFERENCE_S / kernel time over the command's samples.  With
that exponent the spread of repeated `train`, `train` with zero steps and
`eval` timings fell by about half (coefficient of variation 0.09 to 0.04
on multiscale16, 0.14 to 0.08 on linear3d `train`), and no exponent did
clearly better on both workloads.  A scaled time is the wall time when the
machine runs at reference speed throughout.

`sweep` does its work in worker processes, which are not sampled; its
scaled time uses the speed seen by the waiting parent.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Time between samples inside a command.
INTERVAL = 0.05
# Kernel time, in seconds, that scaled times refer to: about its time on an
# idle core of a 2-vCPU VM (Python 3.11, numpy 2.4, OpenBLAS on one thread).
REFERENCE_S = 2.3e-4
# Exponent of the speed in a scaled time (see above).
ELASTICITY = 0.75

_rng = np.random.default_rng(20060877)
_SMALL = _rng.random((500, 3))
_SMALL_W = _rng.random((3, 3)) * 0.5
_WIDE = _rng.random((256, 32))
_WIDE_W = _rng.random((32, 32)) * 0.1


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents


def kernel() -> float:
    """The fixed calibration work: about 0.23 ms on an idle core."""
    total, nodes = 0, {}
    for i in range(300):
        node = _Node(i, (total,))
        nodes[i & 15] = node
        total += node.value
    x = _SMALL
    for _ in range(3):
        x = np.tanh(x @ _SMALL_W) * 0.5 + x.sum(axis=0)
    y = _WIDE
    for _ in range(2):
        y = np.tanh(y @ _WIDE_W)
    return total + float(x[0, 0] + y[0, 0])


def sample() -> float:
    """Seconds the kernel takes now; a first untimed pass warms the caches
    that the interrupted command has just used."""
    kernel()
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class Sampler:
    """Times the block it wraps and samples the machine's speed, before,
    during (every INTERVAL seconds, from a SIGALRM handler) and after it.

        with Sampler() as s:
            work()
        s.scaled  # seconds at reference speed
        s.wall    # plain wall time, handler included
    """

    def __enter__(self) -> "Sampler":
        self.samples = [sample()]
        self.overhead = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall = time.perf_counter() - self._started
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())
        return False

    def _handler(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(sample())
        self.overhead += time.perf_counter() - started

    def scale(self, seconds: float) -> float:
        """`seconds` of work done during the block, at reference speed."""
        speed = statistics.fmean(REFERENCE_S / s for s in self.samples)
        return seconds * speed ** ELASTICITY

    @property
    def scaled(self) -> float:
        return self.scale(self.wall - self.overhead)
