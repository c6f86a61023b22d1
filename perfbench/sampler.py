"""Host-speed sampler, run as its own process by ``common.SpeedSampler``.

    python3 perfbench/sampler.py < /dev/null

One thread per CPU, pinned to it, runs a fixed calibration unit every
``PERIOD_S`` and times it in its own CPU time, so no other thread or process
delays the measurement.  When standard input closes, it prints one
``<perf_counter time> <cpu> <speed>`` line per sample and exits; speed is the
reference host's unit time over this one (above 1: faster).  It runs in a
separate process so that it never holds the benchmark's GIL.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np

#: CPU seconds of one unit on the reference host (2-CPU x86-64 VM,
#: Python 3.11, numpy 2.4).
REFERENCE_S = 0.0012
PERIOD_S = 0.05


def unit(array: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """Fixed work in the mix the program does: Python-level loops over dicts
    and ints, elementwise numpy and an unbuffered scatter."""
    table: dict[int, int] = {}
    total = 0
    for i in range(5000):
        table[i & 255] = table.get(i & 255, 0) + i
        total += i * i
    for _ in range(3):
        array = np.tanh(array * 1.01 + 0.1)
    np.add.at(np.zeros(256), index, values)


def sample(cpu: int, stop: threading.Event, out: list) -> None:
    os.sched_setaffinity(0, {cpu})
    rng = np.random.default_rng(0)
    inputs = (rng.normal(size=2048), rng.integers(0, 256, 1024), rng.normal(size=1024))
    while not stop.is_set():
        start = time.thread_time()
        unit(*inputs)
        seconds = time.thread_time() - start
        out.append((time.perf_counter(), cpu, REFERENCE_S / seconds))
        stop.wait(PERIOD_S)


def main() -> int:
    stop = threading.Event()
    samples: list = []
    threads = [
        threading.Thread(target=sample, args=(cpu, stop, samples), daemon=True)
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    for thread in threads:
        thread.start()
    sys.stdin.read()
    stop.set()
    for thread in threads:
        thread.join()
    sys.stdout.write("".join(f"{at!r} {cpu} {speed!r}\n" for at, cpu, speed in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
