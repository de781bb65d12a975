"""Which phase of a benchmark run sets its peak resident memory, and what one
party's set-up holds.

    python3 tools/rss_phases.py --workload long --seed 1 [--seconds 15] [--root DIR]
    python3 tools/rss_phases.py --one-party [--root DIR]

Both modes import the program from the checkout at ``--root`` (default: the
one holding this script), with ``perfbench/run.py``'s one BLAS thread, and
print one JSON object as the last line.

With ``--workload``, runs one untraced benchmark conversation, the workload,
plan and sessions of ``perfbench/workloads.py``. It prints the process's
``ru_maxrss`` in MB, a high-water mark, at three points: after the imports,
after set-up (both twins provisioned in parallel and the sessions open) and
after the message phase. The first phase that reaches the final value sets
the benchmark's ``peak_rss_mb``. Each phase's minor page faults and system
time (``getrusage`` deltas) are printed beside it.

With ``--one-party``, the process runs one ``provision`` at the benchmark's
``TrainConfig()`` and ``ModelConfig()`` (key 1..16, registry seed 5, base
seed 2506) and reports its ``ru_maxrss`` increase, minor faults, system time
and twin fingerprint, and the quartiles of its SGD steps' ``loss_and_grads``
time and minor faults, with the share of the provision's faults taken
inside the steps. The same thread then encodes and decodes four 32-byte
messages with the twin and reports each decode's minor faults, counted
process-wide (``RUSAGE_SELF``: the draft's slices fault on threads of their
own, and nothing else runs then), and its wall time over the blocks its
frames tap (ms per tapped block): a decode that runs where the fine-tune ran reuses
the heap it left, so a heap state that slows it shows in both. Last, for
one ``loss_and_grads`` step over the fine-tune's first batch
(``wrt=ADAPTED_FIELDS``), it reports the step's tracemalloc peak and the
bytes that the teacher-forced pass keeps for the backward, per array name
summed over the blocks, and where the step reaches its peak: the source line
running then, with the calls above it, and the largest allocations alive
just before, by file:line (``_peak_site``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

KEY = bytes(range(1, 17))
REGISTRY_SEED = 5
BASE_SEED = 2506
MESSAGES = 4
MESSAGE_LEN = 32


def _usage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"ru_maxrss_mb": ru.ru_maxrss / 1024.0, "minflt": ru.ru_minflt, "stime_s": ru.ru_stime}


def _delta(before: dict, after: dict) -> dict:
    return {"ru_maxrss_mb": round(after["ru_maxrss_mb"], 1),
            "ru_maxrss_added_mb": round(after["ru_maxrss_mb"] - before["ru_maxrss_mb"], 1),
            "minflt": after["minflt"] - before["minflt"],
            "stime_s": round(after["stime_s"] - before["stime_s"], 3)}


def workload_phases(args) -> dict:
    from perfbench import workloads as B

    wl = B.WORKLOADS[args.workload]
    conv = B.Conversation(wl, B.Plan(args.seed, wl))
    start = _usage()
    try:
        setup_s = conv.setup()
        after_setup = _usage()
        phase = conv.run_phase(args.seconds * wl.blocks_per_s)
        after_messages = _usage()
        conv.finish()
    finally:
        conv.shutdown()
    return {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
            "attempted": phase.attempted, "failed": phase.failed,
            "ru_maxrss_mb": {"after_imports": round(start["ru_maxrss_mb"], 1),
                             "after_setup": round(after_setup["ru_maxrss_mb"], 1),
                             "after_messages": round(after_messages["ru_maxrss_mb"], 1)},
            "setup": _delta(start, after_setup),
            "messages": _delta(after_setup, after_messages)}


def _kept_bytes(saved) -> dict:
    """Bytes per array name over every block's saved dict, each buffer
    counted once, under the first name that holds it."""
    import numpy as np  # after perfbench.run has pinned the BLAS threads

    seen, kept = set(), {}
    for block in saved:
        for name, value in block.items():
            arrays = value if isinstance(value, tuple) else (value,)
            for i, a in enumerate(arrays):
                root = a
                while isinstance(root.base, np.ndarray):
                    root = root.base
                if id(root) in seen:
                    continue
                seen.add(id(root))
                label = f"{name}[{i}]" if isinstance(value, tuple) else name
                kept[label] = kept.get(label, 0) + root.nbytes
    return {"per_name": kept, "total": sum(kept.values())}


def _location(frame) -> str:
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno} {frame.f_code.co_name}"


def _peak_site(run, frames: int = 6, top: int = 8) -> dict:
    """Where run() reaches its tracemalloc peak, from two identical runs
    under a line tracer. The first reads, at every trace event, the peak
    since the event before and resets it, so each peak is charged to the
    source line that ran between the two events; the highest names the line
    (with the ``frames`` calls above it; numpy's own frames are skipped, so
    a line inside numpy is charged to the program line that called it). The
    second run takes a snapshot at the event before that peak (a line's
    start, or a return into it) and reports its ``top`` largest allocations
    by file:line. This tool's own frames and allocations are left out."""
    count, running, best = 0, None, (-1, 0, [])

    def find(frame, event, arg):
        nonlocal count, running, best
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        if running is not None and peak > best[0]:
            best = (peak, *running)
        count += 1
        # after a return, the caller's line runs on
        frame = frame.f_back if event == "return" and frame.f_back else frame
        stack = []
        while frame is not None and frame.f_code.co_filename != __file__ and len(stack) < frames:
            if f"{os.sep}numpy{os.sep}" not in frame.f_code.co_filename:
                stack.append(_location(frame))
            frame = frame.f_back
        running = (count, stack)
        return find

    snapshot = None

    def snap(frame, event, arg):
        nonlocal count, snapshot
        count += 1
        if count == best[1]:
            snapshot = tracemalloc.take_snapshot()
        return snap

    tracemalloc.start()
    try:
        for tracer in (find, snap):
            count = 0
            sys.settrace(tracer)
            try:
                run()
            finally:
                sys.settrace(None)
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces([tracemalloc.Filter(False, __file__)]).statistics("lineno")
    return {"peak_mb": round(best[0] / 2**20, 1), "line": best[2][0], "calls_above": best[2][1:],
            "alive_before_mb": round(sum(s.size for s in stats) / 2**20, 1),
            "largest_alive_mb": {
                f"{os.path.basename(s.traceback[0].filename)}:{s.traceback[0].lineno}":
                round(s.size / 2**20, 2) for s in stats[:top]}}


def one_party() -> dict:
    from ciphermind import codec as C
    from ciphermind import model as M
    from ciphermind import provisioning as P
    from ciphermind import trainer as T

    cfg = M.ModelConfig()
    base = M.init_parameters(cfg, BASE_SEED)
    registry = P.generate_registry(REGISTRY_SEED)
    batches, step_ms, step_faults = [], [], []
    step = T.loss_and_grads

    def timed(params, cfg, tokens, mask, wrt=None):
        if not batches:
            batches.append((tokens.copy(), mask.copy(), wrt))
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        try:
            return step(params, cfg, tokens, mask, wrt=wrt)
        finally:
            step_ms.append((time.perf_counter() - start) * 1e3)
            step_faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)

    T.loss_and_grads = timed
    before = _usage()
    start = time.perf_counter()
    try:
        twin, _, _ = P.provision(base, P.SessionKey(KEY), registry, T.TrainConfig())
    finally:
        T.loss_and_grads = step
    provision_s = time.perf_counter() - start
    provision = {**_delta(before, _usage()), "wall_s": round(provision_s, 2),
                 "twin_fingerprint": M.fingerprint(twin).hex()}

    def quartiles(xs):
        return dict(zip(("q1", "median", "q3"), (
            round(q, 2) for q in statistics.quantiles(xs, n=4, method="inclusive"))))

    report = {"provision": provision, "sgd_steps": len(step_ms),
              "loss_and_grads_ms": quartiles(step_ms),
              "loss_and_grads_minflt": {**quartiles(step_faults), "first": step_faults[0],
                                        "share_of_provision": round(
                                            sum(step_faults) / provision["minflt"], 3)}}

    faults, ms_per_block = [], []
    for seq in range(MESSAGES):
        plaintext = bytes((7 * seq + 3 * i) % 256 for i in range(MESSAGE_LEN))
        frames = C.encode_message_incremental(twin, cfg, KEY, 0xC0FFEE, seq, plaintext)
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        dec = C.IncrementalDecoder(twin, cfg, KEY, 0xC0FFEE, seq, C.CodecParams(delta=1e-6))
        for frame in frames:
            dec.feed(frame)
        ms = (time.perf_counter() - start) * 1e3
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
        ms_per_block.append(round(ms / sum(dec.layers_used), 3))
        if dec.plaintext != plaintext:
            raise SystemExit(f"message {seq} decoded wrong")
    report["decode_minflt_per_message"] = faults
    report["decode_ms_per_tapped_block"] = ms_per_block

    tokens, mask, wrt = batches[0]
    tracemalloc.start()
    T.loss_and_grads(base, cfg, tokens, mask, wrt=wrt)
    report["loss_and_grads_step"] = {"batch": list(tokens.shape), "wrt": list(wrt),
                                     "tracemalloc_peak_mb": round(
                                         tracemalloc.get_traced_memory()[1] / 2**20, 1)}
    tracemalloc.stop()
    _, saved, _ = M._forward(base, cfg, tokens, need_aux=tuple(wrt))
    kept = _kept_bytes(saved)
    del saved
    report["loss_and_grads_step"]["kept_mb"] = {
        name: round(n / 2**20, 2) for name, n in sorted(kept["per_name"].items())}
    report["loss_and_grads_step"]["kept_total_mb"] = round(kept["total"] / 2**20, 1)
    report["loss_and_grads_step"]["peak_site"] = _peak_site(
        lambda: T.loss_and_grads(base, cfg, tokens, mask, wrt=wrt))
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=("chat", "long"))
    mode.add_argument("--one-party", action="store_true")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    args = ap.parse_args(argv)
    if args.workload and args.seed is None:
        ap.error("--workload needs --seed")

    sys.path.insert(0, str(Path(args.root).resolve()))
    # perfbench.run pins one BLAS thread per party before numpy is imported
    from perfbench import run as R
    R.import_program()
    print(json.dumps(workload_phases(args) if args.workload else one_party()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
