"""How much a second thread adds to float32 GEMM throughput on this machine.

    python3 tools/gemm_scaling.py [--repeats 5] [--gemms 100]

Runs ``--gemms`` (256, 256) float32 products with one BLAS thread twice on
the calling thread, then once on it while a worker thread runs the same
number, and reports each repeat's speed-up: the serial time over the
threaded one. 2.0 means a second CPU ran as fast as the first; 1.0 or below
means it delivered nothing, so that a change that spreads work over
threads cannot gain there. Run it beside a set of timings whose gains rest
on a second CPU. The last line is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as perfbench/run.py: one BLAS thread

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402

import numpy as np  # noqa: E402


def speedups(repeats: int, gemms: int) -> list:
    a = np.random.default_rng(0).standard_normal((256, 256)).astype(np.float32)

    def work():
        for _ in range(gemms):
            a @ a

    work()
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        work()
        serial = time.perf_counter() - start
        start = time.perf_counter()
        with ThreadPoolExecutor(1) as pool:
            other = pool.submit(work)
            work()
            other.result()
        out.append(round(serial / (time.perf_counter() - start), 3))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--gemms", type=int, default=100)
    args = ap.parse_args(argv)
    print(json.dumps({"cpus": len(os.sched_getaffinity(0)),
                      "two_thread_gemm_speedup": speedups(args.repeats, args.gemms)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
