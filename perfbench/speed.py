"""Speed probe: a fixed piece of work whose time tracks the machine's current speed.

On the shared 2-core virtual machine the benchmark was sized on, identical
work ran up to 1.8 times slower in spells lasting from a second to minutes,
in CPU time as much as in wall time, and the spells differed between the two
cores. A run therefore times this probe in its own process around every timed
unit and scales the unit to a reference speed:

    scaled_ms = measured_ms * REFERENCE_PROBE_MS / probe_ms

The probe mixes what the library spends its time on: a Python loop over small
numpy arrays (nearest-centroid fits on a few dozen rows, sorts, dict
building) and one pass over a 1,500-row array. It uses only numpy and its
own fixed data, so no change to ``hcdval`` changes what it measures.
"""

import time

import numpy as np

REFERENCE_PROBE_MS = 20.0  # about the probe's time on the sizing machine at its usual speed
ROUNDS = 10

_rng = np.random.default_rng(0)
_XS = _rng.standard_normal((48, 8))
_YS = (_XS[:, 0] > 0).astype(np.int64)
_XL = _rng.standard_normal((1500, 8))
_YL = (_XL[:, 0] > 0).astype(np.int64)


def _nearest_centroid(X, y) -> float:
    centroids = np.stack([X[y == k].mean(axis=0) for k in (0, 1)])
    d2 = ((X[:, None, :] - centroids[None]) ** 2).sum(-1)
    return float(np.argmin(d2, axis=1).sum())


def _round() -> float:
    acc = 0.0
    for i in range(20):
        acc += _nearest_centroid(_XS, _YS)
        acc += float(np.argsort(_XS[:, i % 8], kind="mergesort")[0])
        acc += sum({j: 2 * j for j in range(20)}.values())
    acc += _nearest_centroid(_XL, _YL)
    return acc + float(np.argsort(_XL[:, 1], kind="mergesort")[0])


def probe_ms() -> float:
    """Wall time of one probe, in ms."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _round()
    return (time.perf_counter() - start) * 1000.0


def scale(measured_ms: float, probe: float) -> float:
    """``measured_ms`` expressed at the reference speed, given the probe time around it."""
    return measured_ms * REFERENCE_PROBE_MS / probe
