"""Time ``import aztecdimers.cli`` in a fresh interpreter, next to the reference work.

Usage: ``python3 bench/import_probe.py`` from the repository root, with
``src`` on ``PYTHONPATH``.  Prints two numbers: the seconds the import took
and the median seconds of ``speed.reference_work`` around it.  Nothing but
:mod:`time` and :mod:`speed` is imported before the timed import.
"""

import time

import speed


def main() -> None:
    refs = [speed.time_reference() for _ in range(5)]
    start = time.perf_counter()
    import aztecdimers.cli  # noqa: F401 - the import is what is timed

    elapsed = time.perf_counter() - start
    refs += [speed.time_reference() for _ in range(5)]
    print(elapsed, sorted(refs)[len(refs) // 2])


if __name__ == "__main__":
    main()
