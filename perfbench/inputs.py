"""Seeded inputs: planted pairs and open-loop request traces.

Everything here uses numpy only, so the program under test receives
generated arrays and nothing else of the benchmark.  A pair is a
standard-normal plane ``x`` with one spike of ``SPIKE * sqrt(M*N)`` at a
seeded position, and ``y = x (*) k`` for a random kernel ``k``, computed
with ``numpy.fft``.  Occluding the block that holds the spike must
change ``y`` the most, which is the planted top-1 the checks look for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPIKE = 5.0


@dataclass(frozen=True, eq=False)
class PlantedPair:
    x: np.ndarray
    y: np.ndarray
    spike: tuple[int, int]
    source: int  # index of the first pair with these arrays


def planted_pair(rng: np.random.Generator, shape, source: int) -> PlantedPair:
    m, n = shape
    x = rng.standard_normal(shape)
    spike = (int(rng.integers(m)), int(rng.integers(n)))
    x[spike] += SPIKE * float(m * n) ** 0.5
    kernel = rng.standard_normal(shape)
    y = np.real(np.fft.ifft2(np.fft.fft2(x) * np.fft.fft2(kernel)))
    return PlantedPair(x=x, y=y, spike=spike, source=source)


def planted_pairs(rng: np.random.Generator, count: int, shape) -> list[PlantedPair]:
    return [planted_pair(rng, shape, index) for index in range(count)]


@dataclass(frozen=True, eq=False)
class TracedRequest:
    arrival: float
    pair: PlantedPair
    precision: str


def poisson_trace(
    rng: np.random.Generator,
    count: int,
    rate: float,
    shape,
    repeat_fraction: float,
    precisions,
) -> list[TracedRequest]:
    """Open-loop arrivals at ``rate``/s; a share repeats an earlier pair.

    Arrival times are fixed here, on the simulated clock, before the
    service sees any request: the generator can never run late.
    """
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=count))
    pairs: list[PlantedPair] = []
    trace = []
    for index in range(count):
        if index and rng.random() < repeat_fraction:
            pair = pairs[int(rng.integers(index))]
        else:
            pair = planted_pair(rng, shape, index)
        pairs.append(pair)
        precision = precisions[int(rng.integers(len(precisions)))]
        trace.append(TracedRequest(float(arrivals[index]), pair, precision))
    return trace
