"""Turn phase results and spans into the named metrics.

Every metric is reported as {"value", "unit", "n"}, where n is the number
of samples behind the value.
"""

from __future__ import annotations

import statistics

import numpy as np

from .tracing import self_times

MS = 1e3
TAIL_LADDER = (50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 99, 99.9)


def metric(value, unit: str, n: int) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n)}


def pct(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples above it.

    With fewer than twenty samples no percentile qualifies and the tail
    falls back to the median.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 1000.0 - 1e-6:
            best = p
    return best


def live_entries(prefix: int, batch: int, suffix: int, layer: int, heads: int) -> int:
    """Unmasked score entries of real query rows in one hypothesis_taps call.

    Blocks before the tapped one run every suffix row; row i sits at absolute
    position prefix + i and sees keys 0..prefix + i. The tapped block runs
    only the last row, which sees all prefix + suffix keys.
    """
    full_block = suffix * prefix + suffix * (suffix + 1) // 2
    return batch * heads * ((layer - 1) * full_block + prefix + suffix)


# ------------------------------------------------------------ end to end

def end_to_end(setup_s, phase, peak_rss_mb: float) -> tuple[dict, dict, float]:
    """(gated metrics, all metrics, tail percentile) of one message phase."""
    ok = [m for m in phase.messages if m.ok]
    if not ok:
        raise RuntimeError("no message was delivered; nothing to measure")
    frames_s = [d for m in ok for d in m.decode_s]
    blocks_ms = [d * MS / layer for m in ok for d, layer in zip(m.decode_s, m.layers)]
    tapped = sum(sum(m.layers) for m in ok)
    latency = [m.latency_s for m in ok]
    encode = [m.encode_s_per_frame * MS for m in ok]
    delivered = sum(m.length for m in ok)
    tail_p = tail_percentile(len(frames_s))
    gated = {
        "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
        "goodput_Bps": metric(delivered / phase.wall_s, "B/s", len(ok)),
        "decode_ms_per_block_p50": metric(pct(blocks_ms, 50), "ms", len(blocks_ms)),
        "decode_ms_per_block_tail": metric(pct(blocks_ms, tail_p), "ms", len(blocks_ms)),
        "peak_rss_mb": metric(peak_rss_mb, "MB", 1),
    }
    extra = {
        "decode_ms_per_block_mean": metric(sum(frames_s) * MS / tapped, "ms", len(frames_s)),
        "encode_ms_per_frame_p50": metric(pct(encode, 50), "ms", len(encode)),
        "msg_latency_s_p50": metric(pct(latency, 50), "s", len(latency)),
        "decode_ms_per_frame_p50": metric(pct(frames_s, 50) * MS, "ms", len(frames_s)),
        "decode_ms_per_frame_tail": metric(pct(frames_s, tail_p) * MS, "ms", len(frames_s)),
        "msg_fail_ratio": metric(phase.failed / phase.attempted, "ratio", phase.attempted),
        "message_phase_s": metric(phase.wall_s, "s", 1),
        "delivered_bytes": metric(delivered, "B", len(ok)),
    }
    return gated, {**gated, **extra}, tail_p


# ------------------------------------------------------------- per layer

def _p50(values) -> float:
    return pct(values, 50) if values else 0.0


def per_layer(spans, phase, n_blocks: int) -> dict:
    """Layer metrics of one traced run: setup spans plus one message phase."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    setup = [s for s in spans if s.request and s.request[0] == "setup"]
    msgs = [s for s in spans if s.request and s.request[0] == "msg"]

    def named(group, name):
        return [s for s in group if s.name == name]

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p is not None else None

    out = {}
    taps = named(msgs, "model.hypothesis_taps")
    # times over the 256-byte batches; the one-row end-of-message call that
    # follows each of them would otherwise be half the sample
    batches = [s for s in taps if s.note[1] > 1]
    out["model.hypothesis_taps_ms_p50"] = metric(
        _p50([s.dur_ns / 1e6 for s in batches]), "ms", len(batches))
    out["model.hypothesis_taps_ms_per_block_p50"] = metric(
        _p50([s.dur_ns / 1e6 / s.note[3] for s in batches]), "ms", len(batches))
    out["model.hypothesis_taps_calls"] = metric(len(taps), "count", len(taps))
    out["model.hypothesis_taps_rows"] = metric(sum(s.note[1] * s.note[2] for s in taps), "count", len(taps))

    exps = named(msgs, "detmath.exp")
    attn = [s for s in exps if (parent_name(s) or "").startswith("model.")]
    under_taps = [s for s in exps if parent_name(s) == "model.hypothesis_taps"]
    gelu = [s for s in exps if parent_name(s) == "detmath.tanh"]
    taps_elems = sum(s.note for s in under_taps)
    all_elems = sum(s.note for s in exps)
    out["detmath.exp_attn_elems"] = metric(taps_elems, "count", len(under_taps))
    out["detmath.exp_attn_self_s"] = metric(sum(selfs[s.id] for s in attn) / 1e9, "s", len(attn))
    out["detmath.exp_gelu_self_s"] = metric(sum(selfs[s.id] for s in gelu) / 1e9, "s", len(gelu))
    out["detmath.exp_ns_per_elem"] = metric(
        sum(selfs[s.id] for s in exps) / max(all_elems, 1), "ns", len(exps))
    live = sum(live_entries(*s.note) for s in taps)
    out["model.attn_exp_live_ratio"] = metric(live / max(taps_elems, 1), "ratio", len(taps))

    for name, key in (("model.forward_full", "model.forward_full_ms_p50"),
                      ("model.extend_cache", "model.extend_cache_ms_p50"),
                      ("codec.feed", "codec.feed_ms_p50")):
        group = named(msgs, name)
        out[key] = metric(_p50([s.dur_ns / 1e6 for s in group]), "ms", len(group))
    scores = named(msgs, "codec.score_frame")
    out["codec.score_frame_self_ms_p50"] = metric(
        _p50([selfs[s.id] / 1e6 for s in scores]), "ms", len(scores))
    decode_s = sum(d for m in phase.messages if m.ok for d in m.decode_s)
    out["codec.score_frame_share_of_decode"] = metric(
        sum(s.dur_ns for s in scores) / 1e9 / decode_s if decode_s else 0.0,
        "ratio", len(scores))

    steps = named(setup, "trainer.loss_and_grads")
    out["trainer.loss_and_grads_ms_p50"] = metric(_p50([s.dur_ns / 1e6 for s in steps]), "ms", len(steps))
    for name, key, scale, unit in (("trainer.finetune", "trainer.finetune_s", 1e9, "s"),
                                   ("trainer.merge", "trainer.merge_ms", 1e6, "ms"),
                                   ("model.fingerprint", "model.fingerprint_ms", 1e6, "ms"),
                                   ("provisioning.provision", "provisioning.provision_s", 1e9, "s")):
        group = named(setup, name)
        out[key] = metric(_p50([s.dur_ns / scale for s in group]), unit, len(group))

    feeds = {s.id for s in named(msgs, "codec.feed")}
    layers = [s.note for s in named(msgs, "scheduler.layer_of") if s.parent in feeds]
    for layer in range(1, n_blocks):
        out[f"scheduler.layer_hist.L{layer}"] = metric(layers.count(layer), "count", len(layers))

    ser = named(msgs, "transport.serialize")
    par = named(msgs, "transport.parse")
    reads = named(msgs, "transport.read_message")
    frames = [s.note[1] for s in ser if s.note[0] == 3]  # TYPE_FRAME
    out["transport.serialize_us_p50"] = metric(_p50([s.dur_ns / 1e3 for s in ser]), "us", len(ser))
    out["transport.parse_us_p50"] = metric(_p50([s.dur_ns / 1e3 for s in par]), "us", len(par))
    out["transport.read_message_wait_ms"] = metric(
        _p50([selfs[s.id] / 1e6 for s in reads]), "ms", len(reads))
    out["transport.wire_bytes_per_frame"] = metric(
        sum(frames) / len(frames) if frames else 0.0, "B", len(frames))
    out["trace.spans"] = metric(len(spans), "count", len(spans))
    return out


def overhead(untraced: dict, traced: dict) -> dict:
    """Traced minus untraced, in percent of the untraced value."""
    out = {}
    for name in ("goodput_Bps", "decode_ms_per_block_p50", "msg_latency_s_p50",
                 "encode_ms_per_frame_p50", "message_phase_s"):
        base = untraced[name]["value"]
        out[f"trace.overhead.{name}_pct"] = metric(
            100.0 * (traced[name]["value"] - base) / base, "%", traced[name]["n"])
    return out
