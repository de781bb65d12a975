"""Frame-by-frame decode time of two checkouts, in one process, in alternation.

    python3 tools/decode_ab.py --old DIR [--new DIR] [--rounds 10] [--length 32]
                               [--free-mib 0]

Loads the ``ciphermind`` package of each checkout's ``src/`` under its own
name, encodes one message of ``--length`` seeded bytes with the new tree at
the shipped ``ModelConfig()`` (untrained base, seed 11) and decodes it once a
round with a decoder of each tree. Frame t of the old decoder and frame t of
the new one are fed one after the other, the order alternating by frame and
round, so both trees see the same machine state. With ``--free-mib`` the
process first allocates and frees that many MiB, which raises glibc's
dynamic mmap threshold as a party's fine-tune does, so that the decodes
reuse freed pages instead of faulting in fresh ones. Each decoder gates with
its tree's shipped ``CodecParams()``, so both trees must ship δ = 1e-6: the
earlier δ = 0.01 rejects every frame. A frame's time is its
``IncrementalDecoder.feed``; per block is that time over its tap layer. A
separate untimed pass counts the block and ``_head`` calls of each feed by
the entry point that made them: the draft's 257-item batch (its own
``_draft_block`` from whichever thread runs it, or, in a tree without one,
``_block``), the exact verify (every ``hypothesis_taps`` call of a decode),
and the cache catch-up over the committed prefix, with its rows; the verify
calls a frame and their items; and the slices a draft call runs in. The
frames of both trees must be bitwise equal. The last line is one JSON
object.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as perfbench/run.py: one BLAS thread

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

KEY = bytes(range(1, 17))
NONCE = 0x5EED


def load(root: Path, name: str):
    """The ciphermind package under root/src, imported as `name`."""
    pkg = root / "src" / "ciphermind"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}") for m in ("codec", "model")}


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 3), "median": round(q2, 3), "q3": round(q3, 3)}


def count_calls(tree, params, cfg, frames) -> dict:
    """Per-frame means of one decode's engine calls: the block calls of
    each entry point that makes them (the draft, draft_taps, whose
    _draft_block calls may run on other threads; the verify,
    hypothesis_taps; the cache's catch_up, with its rows a call), the
    verify calls and the items each holds, and the _head calls; and the
    slices a draft call runs in, its block calls over its tap layer."""
    M, C = tree["model"], tree["codec"]
    calls = []  # (kind, items, rows) of every block and _head call of the current feed,
    # (kind_call, items, layer) of every draft and verify call
    open_entries = []
    entries = [name for name in ("catch_up", "draft_taps", "hypothesis_taps") if hasattr(M, name)]
    blocks = [name for name in ("_block", "_draft_block", "_head") if hasattr(M, name)]
    originals = {name: getattr(M, name) for name in entries + blocks}

    def entry(name):
        def wrapper(*args, **kwargs):
            kind = {"catch_up": "cache", "draft_taps": "draft", "hypothesis_taps": "verify"}[name]
            if kind != "cache":
                calls.append((f"{kind}_call", len(args[3]), args[4]))
            open_entries.append(kind)
            try:
                return originals[name](*args, **kwargs)
            finally:
                open_entries.pop()
        return wrapper

    def counting(name):
        def wrapper(*args, **kwargs):
            kind = {"_draft_block": "draft", "_head": "head"}.get(name) or open_entries[-1]
            x = args[2]
            calls.append((kind, x.shape[0], x.shape[1]))
            return originals[name](*args, **kwargs)
        return wrapper

    dec = C.IncrementalDecoder(params, cfg, KEY, NONCE, 0)
    per_frame = []
    try:
        for name in originals:
            setattr(M, name, entry(name) if name in entries else counting(name))
        for frame in frames:
            calls.clear()
            dec.feed(frame)
            per_frame.append(list(calls))
    finally:
        for name, fn in originals.items():
            setattr(M, name, fn)
    n = len(per_frame)

    def per(kind):
        return [(b, r) for c in per_frame for k, b, r in c if k == kind]

    cache, verify = per("cache"), per("verify_call")
    draft_layers = sum(layer for _, layer in per("draft_call"))
    return {**{f"{kind}_block_calls": round(len(per(kind)) / n, 3)
               for kind in ("draft", "verify", "cache")},
            "slices_per_draft_call": round(len(per("draft")) / draft_layers, 3) if draft_layers else 0,
            "rows_per_cache_block_call": round(statistics.mean(r for _, r in cache), 3) if cache else 0,
            "verify_calls": round(len(verify) / n, 3),
            "items_per_verify": round(statistics.mean(b for b, _ in verify), 3) if verify else 0,
            "head_calls": round(len(per("head")) / n, 3)}


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--old", required=True)
    ap.add_argument("--new", default=str(here))
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--length", type=int, default=32)
    ap.add_argument("--free-mib", type=int, default=0)
    args = ap.parse_args(argv)
    if args.free_mib:
        block = np.ones(args.free_mib << 18, dtype=np.float32)
        del block

    trees = {"old": load(Path(args.old).resolve(), "ciphermind_old"),
             "new": load(Path(args.new).resolve(), "ciphermind_new")}
    params, cfg, frames = {}, None, {}
    rng = np.random.default_rng(args.length)
    plaintext = bytes(rng.integers(0, 256, size=args.length).tolist())
    for side, tree in trees.items():
        M, C = tree["model"], tree["codec"]
        cfg = M.ModelConfig()
        params[side] = M.init_parameters(cfg, 11)
        frames[side] = C.encode_message_incremental(params[side], cfg, KEY, NONCE, 0, plaintext)
    assert all((a.payload == b.payload).all() for a, b in zip(frames["old"], frames["new"]))

    per_block = {side: [] for side in trees}
    for r in range(args.rounds):
        decs = {side: tree["codec"].IncrementalDecoder(params[side], cfg, KEY, NONCE, 0)
                for side, tree in trees.items()}
        for t in range(len(frames["new"])):
            order = ("old", "new") if (r + t) % 2 == 0 else ("new", "old")
            for side in order:
                start = time.perf_counter()
                decs[side].feed(frames[side][t])
                ms = (time.perf_counter() - start) * 1e3
                per_block[side].append(ms / decs[side].layers_used[-1])
        assert decs["old"].plaintext == decs["new"].plaintext == plaintext

    calls = {side: count_calls(tree, params[side], cfg, frames[side])
             for side, tree in trees.items()}
    report = {
        "message_bytes": args.length, "frames": len(frames["new"]), "rounds": args.rounds,
        "free_mib": args.free_mib,
        "decode_ms_per_block": {side: quartiles(v) for side, v in per_block.items()},
        "median_change_pct": round(100 * (statistics.median(per_block["new"])
                                          / statistics.median(per_block["old"]) - 1), 2),
        "mean_tap_layer": round(statistics.mean(decs["new"].layers_used), 3),
        "calls_per_frame": calls,
    }
    for side in trees:
        print(f"{side}: decode ms/block {report['decode_ms_per_block'][side]}, "
              f"calls a frame {calls[side]}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
