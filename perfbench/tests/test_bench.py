"""Tests of the benchmark's own arithmetic, wrappers and failure accounting.

Run with: python3 -m pytest -q perfbench/tests
"""

import numpy as np
import pytest

from ciphermind import codec, detmath, model, provisioning, scheduler, trainer, transport
from perfbench import metrics, tracing
from perfbench import workloads as B

MODULES = {"codec": codec, "detmath": detmath, "model": model,
           "provisioning": provisioning, "scheduler": scheduler,
           "trainer": trainer, "transport": transport}
TINY = model.ModelConfig(n_blocks=4, d_model=16, n_heads=2, d_ff=32, max_seq=512)


def _attention_exp_outputs(cfg, prefix_len, suffixes, layer):
    """Every 3-D (attention) exp output of one hypothesis_taps call, in order."""
    params = model.init_parameters(cfg, 5)
    cache = model.KVCache(cfg)
    model.extend_cache(params, cfg, cache, [65 + i % 26 for i in range(prefix_len)])
    outputs = []
    original = detmath.exp

    def recording(x):
        out = original(x)
        if out.ndim == 3:
            outputs.append(out)
        return out

    detmath.exp = recording
    try:
        model.hypothesis_taps(params, cfg, cache, suffixes, layer)
    finally:
        detmath.exp = original
    return outputs


@pytest.mark.parametrize("prefix_len,suffix_len,layer", [
    (9, 1, 1), (9, 2, 3), (12, 7, 4), (9, 40, 2), (80, 33, 3), (100, 35, 4),
])
def test_live_entries_formula_matches_engine(prefix_len, suffix_len, layer):
    """Masked entries come out of exp as exact zeros; live ones do not.

    Counting the non-zero exp outputs in real query rows enumerates the live
    entries the engine actually computed.
    """
    batch = 3
    rng = np.random.default_rng(prefix_len + suffix_len)
    suffixes = rng.integers(0, 256, size=(batch, suffix_len))
    outs = _attention_exp_outputs(TINY, prefix_len, suffixes, layer)
    n_seg = len(outs) // layer
    assert n_seg * layer == len(outs)
    counted = 0
    for i, out in enumerate(outs):
        real_rows = suffix_len if i < (layer - 1) * n_seg else 1
        counted += int(np.count_nonzero(out[:, :real_rows, :]))
    assert counted == metrics.live_entries(prefix_len, batch, suffix_len, layer,
                                           TINY.n_heads)


def test_self_time_subtracts_direct_children_only():
    S = tracing.Span
    spans = [
        S(1, None, "root", 0, 100, None),
        S(2, 1, "a", 10, 40, None),
        S(3, 2, "a.child", 20, 30, None),
        S(4, 1, "b", 50, 70, None),
        S(5, None, "other", 200, 230, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 50, 2: 20, 3: 10, 4: 20, 5: 30}
    assert sum(selfs[i] for i in (1, 2, 3, 4)) == spans[0].dur_ns


def test_wrappers_record_spans_and_restore_originals():
    targets = tracing.targets(MODULES)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        for owner, attr, fn in originals:
            assert owner.__dict__[attr] is not fn
        with pytest.raises(RuntimeError):
            tracer.install(targets)
        tracer.set_request(("msg", "A->B", 0, 0))
        detmath.gelu(np.ones(4, dtype=np.float32))
    finally:
        tracer.restore()
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn
    names = [s.name for s in tracer.spans]
    assert names == ["detmath.exp", "detmath.tanh", "detmath.gelu"]
    exp, tanh, gelu = tracer.spans
    assert exp.parent == tanh.id and tanh.parent == gelu.id and gelu.parent is None
    assert exp.note == 4 and exp.request == ("msg", "A->B", 0, 0)


@pytest.mark.parametrize("n,p", [(1, 50), (19, 50), (20, 50), (33, 65),
                                 (40, 75), (100, 90), (1000, 99), (20000, 99.9)])
def test_tail_percentile_keeps_ten_samples_above(n, p):
    assert metrics.tail_percentile(n) == p


def test_schedule_matches_the_decoder():
    plan = B.Plan(3, B.WORKLOADS["chat"])
    text = b"schedule"
    layers = B.schedule(plan.key.value, 11, 2, text)
    state = scheduler.init_chain(plan.key.value, 11, 2)
    for t, byte in enumerate(text):
        assert layers[t] == scheduler.layer_of(state, B.CFG.n_blocks)
        state = scheduler.advance(state, byte)
    assert len(layers) == len(text) + 1


def test_plan_is_a_function_of_the_seed():
    a, b, c = (B.Plan(s, B.WORKLOADS["chat"]) for s in (4, 4, 5))
    take = lambda gen, k: [next(gen) for _ in range(k)]  # noqa: E731
    assert a.key == b.key and a.key != c.key
    assert take(a.messages(), 5) == take(b.messages(), 5) != take(c.messages(), 5)
    assert take(a.nonces(), 3) == take(b.nonces(), 3)
    assert all(1 <= len(m) <= 16 for m in take(a.messages(), 50))


# ----------------------------------------------------- whole conversations

@pytest.fixture
def tiny_world(monkeypatch):
    """The workload machinery on an untrained tiny model."""
    cfg = model.ModelConfig(n_blocks=4, d_model=32, n_heads=2, d_ff=64,
                            vocab_size=260, max_seq=256)
    monkeypatch.setattr(B, "CFG", cfg)
    monkeypatch.setattr(B, "TRAIN", trainer.TrainConfig(steps=0))
    monkeypatch.setattr(B, "MIN_FRAMES", 0)
    return monkeypatch


def _converse(workload, seed, budget):
    conv = B.Conversation(workload, B.Plan(seed, workload))
    try:
        setup_s = conv.setup()
        phase = conv.run_phase(budget)
        conv.finish()
    finally:
        conv.shutdown()
    return setup_s, phase


@pytest.mark.parametrize("transport_kind", ["tcp", "loopback"])
def test_conversation_delivers_and_digest_repeats(tiny_world, transport_kind):
    tiny_world.setattr(B, "MIN_FRAMES", 12)
    wl = B.Workload("t", transport_kind, True, 1, 3, 1.0)
    setup_s, phase = _converse(wl, 7, budget=4)
    _, again = _converse(wl, 7, budget=4)
    assert len(setup_s) == 2 and min(setup_s) > 0
    assert sum(len(m.layers) for m in phase.messages) >= 12
    assert phase.failed == 0 and phase.mismatches == 0 and phase.attempted >= 2
    assert [m.direction for m in phase.messages][:2] == ["A->B", "B->A"]
    assert phase.digest == again.digest
    for m in phase.messages:
        assert len(m.decode_s) == len(m.layers) == m.length + 1
        assert 2 * sum(m.layers) == B.CFG.n_blocks * len(m.layers)
        assert m.latency_s > 0 and m.encode_s_per_frame > 0


def test_typed_decode_failures_are_counted_and_sessions_reopened(tiny_world):
    # delta above any reachable margin: every message ends in AmbiguousDecode
    tiny_world.setattr(B, "CODEC", codec.CodecParams(delta=0.5))
    wl = B.Workload("t", "tcp", True, 1, 2, 1.0)
    _, phase = _converse(wl, 8, budget=15)
    assert phase.attempted >= 2
    assert phase.failed == phase.attempted == phase.reconnects
    assert {m.error for m in phase.messages} == {"AmbiguousDecode"}
    assert phase.mismatches == 0
    assert {m.epoch for m in phase.messages} == set(range(phase.attempted))


def test_traced_phase_reports_every_layer_metric(tiny_world):
    wl = B.Workload("t", "loopback", False, 2, 2, 1.0)
    tracer = tracing.Tracer()
    conv = B.Conversation(wl, B.Plan(9, wl), tracer)
    try:
        tracer.install(tracing.targets(MODULES))
        setup_s = conv.setup()
        phase = conv.run_phase(4)
        tracer.restore()
        conv.finish()
    finally:
        tracer.restore()
        conv.shutdown()
    layer = metrics.per_layer(tracer.spans, phase, B.CFG.n_blocks)
    frames = sum(len(m.layers) for m in phase.messages)
    assert sum(layer[f"scheduler.layer_hist.L{i}"]["value"] for i in (1, 2, 3)) == frames
    assert layer["model.hypothesis_taps_calls"]["value"] == 2 * frames
    assert layer["transport.wire_bytes_per_frame"]["value"] == 10 + 13 + 4 * 32 + 4
    assert 0 < layer["model.attn_exp_live_ratio"]["value"] < 1
    assert layer["provisioning.provision_s"]["n"] == 2
    assert 0.5 < layer["codec.score_frame_share_of_decode"]["value"] <= 1.0
    gated, _, _ = metrics.end_to_end(setup_s, phase, 1.0)
    assert set(gated) == {"setup_s", "goodput_Bps", "decode_ms_per_block_p50",
                          "decode_ms_per_block_tail", "peak_rss_mb"}
