"""Draft-and-verify decoding against a verify of every candidate, frame by frame.

    python3 tools/draft_check.py [--frames 1000] [--configs default,test,wide]

For each config that ``--configs`` names (``default``: the shipped
``ModelConfig()`` with base seed 11; ``test``: the unit tests' 4 x 32 model
with seed 77; ``wide``: 3 x 256 with head dim 64 and seed 11; the first two
unless named otherwise), feeds messages until at least ``--frames`` frames
were fed, to two decoders each: one as shipped, one whose draft is
replaced by NaN rows, so that the same code verifies all 257 candidates on
every frame. The messages rotate through five cases: the right key, the key
with bit 127 flipped, one flipped payload bit a frame, random payloads, and
the right key under delta = 0.5. Every
``DecodeResult`` and every typed error of the two decoders must be equal.
Reported per config: the frames fed, the largest difference between a
draft and an exact cosine on the right key's frames (with its quantiles),
the histogram of the shipped decoder's verify set sizes |V|, and per case
the frames and typed errors. Then the minor page faults of one (257, 2)
draft_taps call and of one exact hypothesis_taps call at layer 4, fresh
and after a 12 MiB free, each measured in its own fresh process, so that
no call is measured after another has shaped the heap. The last line is
one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as perfbench/run.py: one BLAS thread

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ciphermind import codec as C  # noqa: E402
from ciphermind import model as M  # noqa: E402

KEY = bytes(range(1, 17))
WRONG_KEY = KEY[:15] + bytes([KEY[15] ^ 0x80])
NONCE = 0x5EED
CP = C.CodecParams(delta=1e-6)
CONFIGS = {
    "default": (M.ModelConfig(), 11),
    "test": (M.ModelConfig(n_blocks=4, d_model=32, n_heads=2, d_ff=64, vocab_size=260,
                           max_seq=256), 77),
    "wide": (M.ModelConfig(n_blocks=3, d_model=256, n_heads=4, d_ff=1024), 11),
}
CASES = ("right_key", "wrong_key", "flipped_bit", "random_payloads", "delta_0.5")


def feed(params, cfg, key, msg_seq, frames, cp, nan_draft, record):
    """(results, (error type, text) or None, frames fed) of one decoder;
    record gets each scored frame's draft taps and exact taps. With
    nan_draft the decoder sees NaN drafts, so its V holds all 257
    candidates."""
    draft_taps, hypothesis_taps = M.draft_taps, M.hypothesis_taps

    def draft(*args):
        record.append([draft_taps(*args)])
        return np.full_like(record[-1][0], np.nan) if nan_draft else record[-1][0]

    def exact(*args):
        out = hypothesis_taps(*args)
        record[-1].append(out[0])
        return out

    dec = C.IncrementalDecoder(params, cfg, key, NONCE, msg_seq, cp)
    results = []
    M.draft_taps, M.hypothesis_taps = draft, exact
    try:
        for frame in frames:
            results.append(dec.feed(frame))
    except C.CodecError as e:
        return results, (type(e).__name__, str(e)), len(results) + 1
    finally:
        M.draft_taps, M.hypothesis_taps = draft_taps, hypothesis_taps
    return results, None, len(results)


def check(name: str, want_frames: int) -> dict:
    cfg, seed = CONFIGS[name]
    params = M.init_parameters(cfg, seed)
    rng = np.random.default_rng(seed)
    by_case = {case: {"messages": 0, "frames_fed": 0, "results_or_errors_differing": 0,
                      "typed_errors": {}} for case in CASES}
    devs, v_sizes = [], []
    msg_seq = 0
    while sum(row["frames_fed"] for row in by_case.values()) < want_frames:
        case = CASES[msg_seq % len(CASES)]
        plaintext = bytes(rng.integers(0, 256, size=int(rng.integers(0, 33))).tolist())
        frames = C.encode_message_incremental(params, cfg, KEY, NONCE, msg_seq, plaintext)
        key, cp = (WRONG_KEY if case == "wrong_key" else KEY), CP
        if case == "flipped_bit":
            for f in frames:
                f.payload = f.payload.copy()
                f.payload.view(np.uint32)[int(rng.integers(0, cfg.d_model))] ^= 1
        elif case == "random_payloads":
            for f in frames:
                f.payload = rng.standard_normal(cfg.d_model).astype(np.float32)
        elif case == "delta_0.5":
            cp = C.CodecParams(delta=0.5)
        shipped: list = []
        got = feed(params, cfg, key, msg_seq, frames, cp, nan_draft=False, record=shipped)
        record: list = []
        want = feed(params, cfg, key, msg_seq, frames, cp, nan_draft=True, record=record)
        row = by_case[case]
        row["messages"] += 1
        row["results_or_errors_differing"] += got != want
        row["frames_fed"] += got[2]
        if got[1]:
            row["typed_errors"][got[1][0]] = row["typed_errors"].get(got[1][0], 0) + 1
        v_sizes += [len(exact) for _, exact in shipped]
        if case == "right_key":
            for frame, (draft, exact) in zip(frames, record):
                d = C.cosine(draft, frame.payload).astype(np.float64)
                devs.append(float(np.abs(d - C.cosine(exact, frame.payload)).max()))
        msg_seq += 1
    sizes = np.asarray(v_sizes)
    fed = sum(row["frames_fed"] for row in by_case.values())
    return {
        "config": name, "messages": msg_seq, "frames_fed": fed,
        "results_or_errors_differing": sum(row["results_or_errors_differing"]
                                           for row in by_case.values()),
        "by_case": by_case,
        "draft_cosine_deviation": {
            "max": max(devs), "p50": float(np.median(devs)), "p99": float(np.percentile(devs, 99)),
            "zero_frames": sum(d == 0 for d in devs), "eta": C.DRAFT_ETA},
        "verify_set_size_all_frames": {
            "max": int(sizes.max()), "p50": float(np.median(sizes)),
            "histogram": {str(k): int(v) for k, v in zip(*np.unique(sizes, return_counts=True))}},
    }


MINFLT_CALLS = ("draft_taps", "hypothesis_taps")


def minflt_child(name: str, free_mib: int) -> float:
    """Minor faults of one (257, 2) call of model.<name> (a MINFLT_CALLS
    entry) at layer 4 over a 24-byte message, the mean of 10 after one
    warm-up, in this process, after allocating and freeing free_mib MiB
    first."""
    if free_mib:
        block = np.ones(free_mib << 18, dtype=np.float32)
        del block
    cfg = M.ModelConfig()
    params = M.init_parameters(cfg, 11)
    cache = M.KVCache(cfg)
    M.append_tokens(params, cfg, cache, C.template_tokens() + list(range(65, 89)))
    M.catch_up(params, cfg, cache, 4)
    suffixes = np.array([C.frame_step(c) for c in C.CANDIDATES])
    call = getattr(M, name)
    call(params, cfg, cache, suffixes, 4)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        call(params, cfg, cache, suffixes, 4)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--frames", type=int, default=1000)
    ap.add_argument("--configs", default="default,test")
    ap.add_argument("--minflt-child", nargs=2, metavar=("CALL", "MIB"), default=None,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.minflt_child is not None:
        name, mib = args.minflt_child
        print(json.dumps(minflt_child(name, int(mib))))
        return 0
    report = {"equivalence": [check(name, args.frames) for name in args.configs.split(",")]}
    report["minflt_per_call"] = {
        f"after_{mib}_mib_free" if mib else "fresh_process": {
            name: json.loads(subprocess.run(
                [sys.executable, __file__, "--minflt-child", name, str(mib)], check=True,
                capture_output=True, text=True).stdout)
            for name in MINFLT_CALLS}
        for mib in (0, 12)}
    for row in report["equivalence"]:
        print(f"{row['config']}: {row['frames_fed']} frames, "
              f"{row['results_or_errors_differing']} messages differing, "
              f"verify set sizes up to {row['verify_set_size_all_frames']['max']}, "
              f"max draft deviation {row['draft_cosine_deviation']['max']:.3g}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
