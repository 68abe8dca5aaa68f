"""A fixed unit of work, timed beside the ops, that times are scaled by.

This sandbox does not run at one speed.  For seconds to minutes at a time
everything — CPU time included, so wall/CPU does not show it — runs 1.1x to
1.8x slower, and then recovers; a whole run can fall inside such a phase,
so no statistic over the run's own rounds can undo it.  What does undo most
of it is a yardstick timed in the same moments.  The probe below is a few
milliseconds of what the engine's hot paths are made of: wide integer masks
and-ed and or-ed into a small dict (cache-resident), the same into a large
one (a few MB, as filter cells are), and comparisons over numpy columns of
hosting-arc length.  Measured against filter builds and plan patches over
five-minute stretches that included slow phases, the three together track
an op's slowdown to within about 2.5 % per second of work (any one alone:
4 %), against 15 to 80 % unscaled.

The runner times the probe between ops and reports every duration divided
by the local slowdown, ``probe time / NOMINAL_SECONDS``: times are in
seconds of a machine on which the probe takes ``NOMINAL_SECONDS``.  The
probe imports nothing from ``src/repro`` and must never change: it is the
unit the benchmark's numbers are expressed in.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The probe's duration on an undisturbed core of the sandbox the benchmark
#: was defined on; scaled times equal measured times there.
NOMINAL_SECONDS = 0.0040
#: Probes either side of a stretch of work whose median is its local speed.
WINDOW = 3

_MASK = (1 << 296) - 1
_CELLS: dict = {}
_LOW = np.linspace(0.0, 1.0, 60000)
_HIGH = _LOW[::-1].copy()


def probe() -> float:
    """Seconds the fixed unit of work took just now."""
    started = time.perf_counter()
    mask = 0
    near = {}
    far = _CELLS
    for i in range(7000):
        mask = (mask | (1 << (i % 296))) & _MASK
        near[i % 500] = mask
    for i in range(7000):
        mask = (mask | (1 << (i % 296))) & _MASK
        far[(i * 7919) % 60000] = mask
    for _ in range(14):
        ((_LOW >= _HIGH * 0.7) & (_LOW <= _HIGH * 1.3)).sum()
    return time.perf_counter() - started


def slowdowns(probes):
    """The local slowdown of each stretch between consecutive probes:
    the median of the ``2 * WINDOW`` probes around it over the nominal."""
    return [statistics.median(probes[max(0, stretch + 1 - WINDOW):
                                     stretch + 1 + WINDOW]) / NOMINAL_SECONDS
            for stretch in range(len(probes) - 1)]
