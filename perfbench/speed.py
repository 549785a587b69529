"""Machine-speed probe: scales wall times to one reference machine speed.

On a shared host the same core runs this code at clearly different speeds
from one second to the next (neighbours contend for the physical core):
a fixed kernel takes either about 1.2 ms or about 1.9 ms, and pass times
swing with it by up to 1.7x within minutes. The harness runs this probe
around every timed step and scales the step by the probe, so the reported
times describe the program at the reference speed instead of the machine's
load at that moment. The probe is plain numpy and Python with the engine's
shape of work (a small distance matrix, argmin, per-cluster norms and an
interpreter loop) and calls no package code, so a change to the package
cannot change the probe.
"""

from __future__ import annotations

import time

import numpy as np

# best-of-two probe time on an uncontended core of the 2-vCPU Xeon VM the
# benchmark was defined on; scaled times read as wall times at that speed
PROBE_REF_S = 1.25e-3

_rng = np.random.default_rng(0)
_POINTS = _rng.normal(size=(100, 16))
_PROTOS = _rng.normal(size=(8, 16))


def _kernel() -> float:
    acc = 0.0
    for _ in range(10):
        d2 = ((_POINTS[:, None, :] - _PROTOS[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        for k in range(len(_PROTOS)):
            mask = labels == k
            if mask.any():
                acc += float(np.linalg.norm(_POINTS[mask] - _PROTOS[k], axis=1).sum())
        acc += sum(x * x for x in range(200))
    return acc


def probe() -> float:
    """Slowdown of the machine right now against the reference speed."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best / PROBE_REF_S
