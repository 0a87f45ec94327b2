"""Machine-speed calibration for the end-to-end throughput.

On a small shared host the speed of a core drifts with its neighbours' load:
a fixed gdakit call runs up to 1.7x slower for seconds and by +-20% for
minutes, so runs of the same code minutes apart disagree by more than the
benchmark's bound. The benchmark therefore times this fixed loop just before
and just after each command call and reports that call's throughput scaled
to a machine that runs the loop in REF_S seconds:

    scaled = raw * (mean of the two loop seconds) / REF_S

The loop imports nothing from gdakit, so a change to the program leaves it
alone and moves the scaled value in the same proportion as the raw one. Its
work mixes what the workloads do: small-array numpy arithmetic driven from a
Python loop (the optimizers' per-step work) and dense matrix products (the
MLP's forward and backward passes). A pass splits that work over as many
threads as the workload's call runs its seeds on, because threads that hand
the GIL to each other slow down more under load than one thread does: on
the 8-seed workload a one-thread loop left twice the drift a matching
8-thread loop leaves. Seeds that run numpy code in parallel, with the GIL
released, also depend on a second core, which the loop does not track; so
the other workloads run one seed, on the calling thread.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# nominal loop time the scaled throughput refers to; only its fixed value
# matters, since parent and change are measured with the same constant
REF_S = 0.04
_STEPS = 2400
_MATMULS = 240
_A = np.array([[1.0, 0.4], [0.4, -1.0]])
_W = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) / 64.0
_X = np.linspace(-1.0, 1.0, 50 * 64).reshape(50, 64)


def _share(threads: int) -> float:
    x = np.zeros(2)
    acc = 0.0
    for i in range(_STEPS // threads):
        g = np.array([np.sin(i), np.cos(i)])
        x = x - 0.01 * (_A @ x + g)
        acc += float(np.dot(x, x)) + sum(k * 0.5 for k in range(8))
    h = _X
    for _ in range(_MATMULS // threads):
        h = np.tanh(h @ _W)
        acc += float(h.sum())
    return acc


def loop_seconds(threads: int = 1) -> float:
    """Wall seconds of one pass of the fixed calibration loop, its work
    split evenly over `threads` pool threads (1: the calling thread)."""
    t0 = time.perf_counter()
    if threads == 1:
        accs = [_share(1)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            accs = list(ex.map(_share, [threads] * threads))
    wall = time.perf_counter() - t0
    if not np.isfinite(sum(accs)):
        raise RuntimeError("calibration loop diverged")
    return wall
