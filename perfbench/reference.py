"""A fixed reference computation that tracks the host's speed during a run.

The CPU share this benchmark gets from a shared host changes by up to 2x
within seconds and drifts over minutes, so wall times of the same code
spread more from run to run than the changes they are meant to show.  The
workloads therefore time this kernel during each untraced pass, and the
gated pass time is the pass's own wall time (the kernel's time taken out)
over the median kernel time of that pass: a ratio in which most of the
host's swings cancel.  In-process passes run it from a timer signal, so
long calls are sampled too; `cli-k10` runs it between its stage
subprocesses.  The run is held to one CPU: a kernel timed on the other CPU
while a stage ran did not see that stage's slowdowns.

The kernel is memory-bound numpy work: elementwise passes over a 16000x20
array, like the M1 solver's.  It followed an M1 solve's swings closely and
the CLI stages' partly; kernels of interpreter work or small-array numpy
did no better on the stages and worse on M1.  Its buffers are allocated
once, so its time does not depend on how the allocator last grew or
trimmed the heap.  It depends on numpy alone, never on `gla`, so a change
to the program cannot move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

_SCORES = np.exp(np.linspace(-3.0, 3.0, 16000 * 20).reshape(16000, 20))
_PICK = np.arange(16000) * 20 + np.arange(16000) % 20  # flat index of each row's label
_WEIGHTED = np.empty_like(_SCORES)
_PROBS = np.empty_like(_SCORES)
_NORMS = np.empty(16000)
_PICKED = np.empty(16000)


def kernel() -> float:
    """One fixed unit of work (about 20 ms on a 2-CPU cloud host)."""
    q = np.full(20, 0.05)
    loss = 0.0
    for _ in range(8):
        np.divide(_SCORES, q, out=_WEIGHTED)
        np.sum(_WEIGHTED, axis=1, out=_NORMS)
        np.divide(_WEIGHTED, _NORMS[:, None], out=_PROBS)
        np.take(_PROBS, _PICK, out=_PICKED)
        np.log(_PICKED, out=_PICKED)
        loss -= float(_PICKED.mean())
        q = np.maximum(q - 0.001 * (0.05 - _PROBS.mean(axis=0)) / q, 1e-6)
    return loss


class Reference:
    """Times of the kernel, taken during a pass."""

    INTERVAL_S = 0.4  # timer period: a 20-30 ms sample costs the pass 5-8%

    def __init__(self):
        self.samples = []

    def sample(self, *_signal_args):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def start_timer(self):
        """Sample every INTERVAL_S of wall time, in this thread, between bytecodes."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> list:
        """The samples since the last call, and start afresh."""
        samples, self.samples = self.samples, []
        return samples
