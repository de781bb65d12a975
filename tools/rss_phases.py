"""Which phase of a benchmark run sets its peak resident memory.

    python3 tools/rss_phases.py --workload long --seed 1 [--seconds 15] [--root DIR]

Runs one untraced benchmark conversation, the workload, plan and sessions of
``perfbench/workloads.py``, from the checkout at ``--root`` (default: the one
holding this script). It prints the process's ``ru_maxrss`` in MB, a
high-water mark, at three points: after the imports, after set-up (both twins
provisioned in parallel and the sessions open) and after the message phase.
The first phase that reaches the final value sets the benchmark's
``peak_rss_mb``. The last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("chat", "long"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(args.root).resolve()))
    # perfbench.run pins one BLAS thread per party before numpy is imported
    from perfbench import run as R
    R.import_program()
    from perfbench import workloads as B

    wl = B.WORKLOADS[args.workload]
    conv = B.Conversation(wl, B.Plan(args.seed, wl))
    rss = {"after_imports": R.peak_rss_mb()}
    try:
        setup_s = conv.setup()
        rss["after_setup"] = R.peak_rss_mb()
        phase = conv.run_phase(args.seconds * wl.blocks_per_s)
        rss["after_messages"] = R.peak_rss_mb()
        conv.finish()
    finally:
        conv.shutdown()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
                      "attempted": phase.attempted, "failed": phase.failed,
                      "ru_maxrss_mb": rss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
