"""Run one ciphermind benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chat --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
The output is a report, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run
also writes its spans under ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per party: the two parties already fill the two cores.
# This must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("chat", "long"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import ciphermind from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import ciphermind
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import ciphermind from {SRC}: {e}")
    if not Path(ciphermind.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: ciphermind was imported from {ciphermind.__file__}, "
                         f"not from {SRC}")
    from ciphermind import codec, detmath, model, provisioning, scheduler, trainer, transport
    return {"codec": codec, "detmath": detmath, "model": model,
            "provisioning": provisioning, "scheduler": scheduler,
            "trainer": trainer, "transport": transport}


def git_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, plan, wl) -> dict:
    import numpy as np
    from perfbench import workloads as B

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "model_config": asdict(B.CFG),
        "train_config": asdict(B.TRAIN),
        "codec": {"theta": B.CODEC.theta, "delta": B.CODEC.delta},
        "seeds": {"workload": args.seed, "base": plan.base_seed,
                  "registry": plan.registry_seed},
        "workload": asdict(wl),
        "seconds": args.seconds,
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    modules = import_program()

    from perfbench import metrics as X
    from perfbench import tracing
    from perfbench import workloads as B

    wl = B.WORKLOADS[args.workload]
    plan = B.Plan(args.seed, wl)
    budget = args.seconds * wl.blocks_per_s
    tracer = tracing.Tracer() if args.trace else None
    conv = B.Conversation(wl, plan, tracer)
    try:
        if tracer:
            tracer.install(tracing.targets(modules))
        setup_s = conv.setup()
        if tracer:
            tracer.restore()
        twins_equal = (modules["model"].fingerprint(conv.a.twin)
                       == modules["model"].fingerprint(conv.b.twin))
        phase = conv.run_phase(budget)
        conv.finish()
        traced_phase = None
        if tracer:
            conv.restart()
            tracer.install(tracing.targets(modules))
            try:
                traced_phase = conv.run_phase(budget)
            finally:
                tracer.restore()
            conv.finish()
    finally:
        if tracer:
            tracer.restore()
        conv.shutdown()

    gated, everything, tail_p = X.end_to_end(setup_s, phase, peak_rss_mb())
    correct = twins_equal and phase.mismatches == 0
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"messages attempted={phase.attempted} failed={phase.failed} "
          f"mismatched={phase.mismatches} reconnects={phase.reconnects} "
          f"twins_equal={twins_equal}")
    for m in phase.messages:
        if not m.ok:
            print(f"  failed {m.direction} epoch={m.epoch} seq={m.seq} "
                  f"len={m.length}: {m.error}")
    print_metrics("end to end (untraced)", everything)
    print(f"  the *_tail metrics are the p{tail_p:g} of {everything['decode_ms_per_frame_p50']['n']} frames")
    print(f"digest {phase.digest}")

    result_metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in gated.items()}
    if tracer:
        _, traced_all, _ = X.end_to_end(setup_s, traced_phase, peak_rss_mb())
        layers = X.per_layer(tracer.spans, traced_phase, B.CFG.n_blocks)
        layers.update(X.overhead(everything, traced_all))
        same = traced_phase.digest == phase.digest
        correct = correct and same and traced_phase.mismatches == 0
        print_metrics("per layer (traced)", layers)
        print(f"digest traced {traced_phase.digest} equal_to_untraced={same}")
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.to_records()))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        result_metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in layers.items()}
    print(f"env {json.dumps(environment(args, plan, wl), sort_keys=True)}")
    print(json.dumps({"correct": bool(correct), "attempted": phase.attempted,
                      "failed": phase.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
