"""A fixed reference workload that gauges how fast the host runs right now.

On a shared host the same xyreg case can take 1.5 times as long from one
second to the next, and the share of slow seconds changes over minutes: raw
run medians of the same code spread by 25-70 % (first to third quartile over
the median).  ``run.py`` therefore runs ``reference()`` after every case, in
proportion to the case's time, and reports each time as

    case seconds * REFERENCE_S / reference seconds

with both sides summed over the whole run: seconds at the speed at which the
reference takes ``REFERENCE_S``.  The reference does what xyreg's hot paths
do (tuple keys, dict and set look-ups, sorts, small allocations), so host
contention slows it by about the same factor; a pure arithmetic loop does
not track xyreg and was not used.  The raw seconds are printed and saved
next to the normalised ones.

This code is part of the benchmark, not of xyreg: a change to xyreg cannot
move it, and it must not be edited together with a change it is meant to
measure.
"""

import random

# Seconds the reference takes at nominal speed: its typical time on an idle
# core of a 2-vCPU Intel Xeon VM.  Only a scale; the ratios carry the result.
REFERENCE_S = 0.03


def reference():
    """The same few tens of milliseconds of dict/tuple/sort work on every
    call; returns a checksum."""
    rng = random.Random(1)
    counts = {}
    keys = [tuple(rng.randrange(6) for _ in range(8)) for _ in range(3000)]
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    acc = 0
    for _ in range(6):
        keys.sort()
        acc += sum(counts.get(k, 0) for k in keys)
        acc += len(set(keys))
        keys = [tuple(x + 1 for x in k) for k in keys]
    return acc

