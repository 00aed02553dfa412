"""Host-speed reference for timing on a shared machine.

On a shared host the speed of one CPU drifts by 20-30% within seconds, and
every piece of pure-Python code slows down together.  The bench therefore
times a fixed piece of reference work next to the program and reports each
time scaled to a nominal reference speed::

    normalized = measured * REF_NOMINAL_S / (time of reference_work nearby)

That is the time the operation would take on a host where
:func:`reference_work` takes exactly ``REF_NOMINAL_S`` seconds.  A change
that makes the program faster or slower moves the normalized time by the
same factor, because the reference work does not depend on the program.

This module imports nothing but :mod:`time`, so that ``import_probe.py`` can
use it before timing the program's import without preloading any module the
program needs.
"""

import time

#: Seconds :func:`reference_work` takes at the nominal speed: about its
#: median on a shared 2-vCPU Linux VM with Python 3.11.
REF_NOMINAL_S = 0.0025


def reference_work() -> int:
    """A fixed mix of integer arithmetic, calls, tuple and dict churn."""
    acc = 0
    table = {}
    for i in range(10000):
        acc = (acc * 31 + i) & 0xFFFFFFFFFFFF
        table[i & 63] = (i, acc)
    return acc


def time_reference() -> float:
    """Seconds one call of :func:`reference_work` takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
