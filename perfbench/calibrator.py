"""Host-speed probe of the benchmark, in a process of its own.

    python3 perfbench/calibrator.py

For each line ``<token>`` read from stdin, runs one fixed task and writes
``<token> <seconds>``; ``Calibrator`` is the asking end. The task is the
benchmark's own reference label search on one small grid: work like the
solvers' (tuples, heaps, dicts).
This process never imports ordpareto, so no change to the program alters
its state; only the speed of the host moves its times. On a shared host
that speed drifts by a third within minutes, and ``run.py`` scales the
end-to-end times of a run by the median of these samples.
"""

from __future__ import annotations

import os
import sys
import time


class Calibrator:
    """Asks the probe process, over the pipe ends ``to_fd`` and ``from_fd``,
    for one sample at a time. A reply left in the pipe by an asker that
    died is skipped by its token."""

    def __init__(self, to_fd: int, from_fd: int):
        self._to = os.fdopen(to_fd, "w", closefd=False)
        self._from = os.fdopen(from_fd, "r", closefd=False)
        self._asked = 0

    def sample(self) -> float:
        self._asked += 1
        token = f"{os.getpid()}-{self._asked}"
        self._to.write(token + "\n")
        self._to.flush()
        while True:
            reply = self._from.readline().split()
            if not reply:
                raise RuntimeError("calibrator ended")
            if reply[0] == token:
                return float(reply[1])


def main() -> int:
    import random

    import gen
    import reference

    grid = gen.bidirected_grid(random.Random(0), 3, 4, 6)
    reference.path_frontier(grid, "mixed")  # warm-up
    for line in sys.stdin:
        start = time.perf_counter()
        reference.path_frontier(grid, "mixed")
        print(line.strip(), time.perf_counter() - start, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
