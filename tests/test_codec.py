import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciphermind import codec as C
from ciphermind import model as M
from ciphermind import scheduler

CFG = M.ModelConfig(n_blocks=4, d_model=32, n_heads=2, d_ff=64,
                    vocab_size=260, max_seq=256)
KEY = bytes(range(16))
NONCE = 0xDEADBEEF

# Untrained models leave thin margins between the exact hypothesis (1.0) and
# wrong ones (~0.9997 at this scale), so unit tests pin a tiny delta: the
# shipped default's value, named here so that the gate tested stays fixed.
CP = C.CodecParams(delta=1e-6)


@pytest.fixture(scope="module")
def params():
    return M.init_parameters(CFG, seed=77)


def oracle_frame(params, cfg, decoded, payload, layer):
    """(token, score, margin) of one frame after the bytes decoded: bytes
    0..255 and then END, one forward_full over frame_context per hypothesis
    with no cache (257 full passes)."""
    hypotheses = [*range(256), C.EOS]
    contexts = [C.frame_context(list(decoded) + [h]) for h in hypotheses]
    taps = np.stack([M.forward_full(params, cfg, ctx)[0][layer - 1, -1] for ctx in contexts])
    scores = C.cosine(taps, payload).astype(np.float64)
    best = int(np.argmax(scores))
    return hypotheses[best], scores[best], scores[best] - np.delete(scores, best).max()


def decode_oracle(params, cfg, key, nonce, msg_seq, frames, cp=CP) -> bytes:
    """Reference decoder for the frame layout: oracle_frame on every frame,
    behind the same gates as IncrementalDecoder."""
    state = scheduler.init_chain(key, nonce, msg_seq)
    decoded = []
    for frame in frames:
        payload = C._checked_payload(frame)
        layer = scheduler.layer_of(state, cfg.n_blocks)
        token, score, margin = oracle_frame(params, cfg, decoded, payload, layer)
        if not score >= cp.theta:
            raise C.DecodeFailure("below theta", score=score)
        if not margin >= cp.delta:
            raise C.AmbiguousDecode(margin)
        if (token == C.EOS) != frame.is_final:
            raise C.DecodeFailure("END and the final frame disagree")
        if frame.is_final:
            return bytes(decoded)
        decoded.append(token)
        state = scheduler.advance(state, token, cfg.vocab_size)
    raise C.DecodeFailure("frames ended without a final frame")


def encode_oracle(params, cfg, key, nonce, msg_seq, plaintext):
    """Reference encoder for the frame layout: a cache over the template
    that grows by one extend_cache per byte, each frame tapped against the
    cache as it stands before its byte joins."""
    cache = M.KVCache(cfg)
    M.extend_cache(params, cfg, cache, C.template_tokens())
    state = scheduler.init_chain(key, nonce, msg_seq)
    frames = []
    for t, tok in enumerate(list(plaintext) + [C.EOS]):
        layer = scheduler.layer_of(state, cfg.n_blocks)
        payload = M.hypothesis_taps(params, cfg, cache, [C.frame_step(tok)], layer)[0][0]
        frames.append(C.TokenFrame(seq=t, payload=payload, is_final=tok == C.EOS))
        if tok != C.EOS:
            M.extend_cache(params, cfg, cache, [tok])
            state = scheduler.advance(state, tok, cfg.vocab_size)
    return frames


# ---------------------------------------------------------------- tokenizer

def test_tokenizer_constants():
    assert (C.BOS, C.EOS, C.SEP, C.PAD) == (256, 257, 258, 259)
    assert C.VOCAB_SIZE == 260


def test_template_tokens():
    t = C.template_tokens()
    assert t[0] == C.BOS
    assert bytes(t[1:]) == b"repeat: "


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=80))
def test_tokenizer_roundtrip(data):
    toks = C.encode_bytes(data)
    assert all(0 <= t <= 255 for t in toks)  # specials never produced
    assert bytes(toks) == data


# ------------------------------------------------------------------- cosine

def test_cosine_self_is_exactly_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(32).astype(np.float32)
        assert C.cosine(x, x) == np.float32(1.0)
        assert C.cosine(x, -x) == np.float32(-1.0)


def test_cosine_orthogonal():
    assert C.cosine(np.float32([1, 0]), np.float32([0, 1])) == 0.0


def test_cosine_zero_vector_rejected():
    with pytest.raises(C.CodecError):
        C.cosine(np.zeros(4, dtype=np.float32), np.ones(4, dtype=np.float32))


@pytest.mark.parametrize("taps, payload", [(np.ones(3), np.ones(4)),
                                           (np.ones((2, 4)), np.ones((1, 4)))],
                         ids=["shorter taps", "2-d payload"])
def test_cosine_of_unequal_lengths_rejected(taps, payload):
    with pytest.raises(C.CodecError, match="equal length"):
        C.cosine(taps, payload)


# ----------------------------------------------------------------- encoding

def test_empty_message_single_final_frame(params):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 0, b"")
    assert len(frames) == 1
    assert frames[0].is_final and frames[0].seq == 0


def test_hello_has_six_frames(params):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 0, b"hello")
    assert [f.seq for f in frames] == [0, 1, 2, 3, 4, 5]
    assert [f.is_final for f in frames] == [False] * 5 + [True]


def test_frame_context_layout():
    assert C.frame_context([7]) == C.template_tokens() + [7, C.SEP]
    assert C.frame_context([7, 8, C.EOS]) == C.template_tokens() + [7, 8, C.EOS, C.SEP]


def test_every_frame_payload_matches_its_own_context(params):
    # the longest message the codec sends, so every context length it builds
    plaintext = bytes(np.random.default_rng(4).integers(0, 256, size=C.MAX_MESSAGE_LEN).tolist())
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 13, plaintext)
    tokens = list(plaintext) + [C.EOS]
    state = scheduler.init_chain(KEY, NONCE, 13)
    scorer = C.HypothesisScorer(params, CFG)
    for t, (frame, tok) in enumerate(zip(frames, tokens)):
        layer = scheduler.layer_of(state, CFG.n_blocks)
        hid, _ = M.forward_full(params, CFG, C.frame_context(tokens[:t + 1]))
        assert (frame.payload == hid[layer - 1, -1]).all(), f"frame {t}"
        M.catch_up(params, CFG, scorer.cache, layer)
        taps, _ = M.hypothesis_taps(params, CFG, scorer.cache, scorer.suffixes, layer)
        assert (taps[C.CANDIDATES.index(tok)] == frame.payload).all(), f"frame {t}"
        assert frame.is_final == (tok == C.EOS)
        assert scorer.score_frame(frame.payload, layer)[:2] == (tok, 1.0), f"frame {t}"
        if tok != C.EOS:
            scorer.push()
        state = scheduler.advance(state, tok, CFG.vocab_size)


def test_frame_payload_matches_forward_oracle(params):
    plaintext = b"abc"
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 3, plaintext)
    state = scheduler.init_chain(KEY, NONCE, 3)
    ctx0 = C.template_tokens() + [plaintext[0], C.SEP]
    hid, _ = M.forward_full(params, CFG, ctx0)
    layer0 = scheduler.layer_of(state, CFG.n_blocks)
    assert (frames[0].payload == hid[layer0 - 1, -1]).all()


@pytest.mark.parametrize("n_bytes", [0, 1, 33, C.MAX_MESSAGE_LEN])
def test_encoder_agrees_with_per_byte_oracle(params, n_bytes):
    plaintext = bytes(np.random.default_rng(n_bytes).integers(0, 256, size=n_bytes).tolist())
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 21, plaintext)
    want = encode_oracle(params, CFG, KEY, NONCE, 21, plaintext)
    assert len(frames) == len(want) == n_bytes + 1
    for got, ref in zip(frames, want):
        assert (got.seq, got.is_final) == (ref.seq, ref.is_final)
        assert (got.payload.view(np.uint32) == ref.payload.view(np.uint32)).all(), got.seq


def test_oversize_message_rejected(params):
    with pytest.raises(C.MessageTooLong):
        C.encode_message_incremental(params, CFG, KEY, NONCE, 0, b"x" * 65)


# ----------------------------------------------------------------- decoding

def test_roundtrip_exact_small_messages(params):
    rng = np.random.default_rng(1)
    for msg_seq, n in enumerate([0, 1, 2, 5, 17, 33]):
        plaintext = bytes(rng.integers(0, 256, size=n).tolist())
        frames = C.encode_message_incremental(params, CFG, KEY, NONCE, msg_seq, plaintext)
        out = C.decode_message_incremental(params, CFG, KEY, NONCE, msg_seq, frames, CP)
        assert out == plaintext, f"roundtrip failed for length {n}"


def test_roundtrip_includes_specials_adjacent_bytes(params):
    plaintext = bytes([0, 255, 254, 1, 127, 128])
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 9, plaintext)
    assert C.decode_message_incremental(params, CFG, KEY, NONCE, 9, frames, CP) == plaintext


def test_true_hypothesis_scores_exactly_one(params):
    plaintext = b"ok"
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 2, plaintext)
    dec = C.IncrementalDecoder(params, CFG, KEY, NONCE, 2, CP)
    for frame in frames:
        res = dec.feed(frame)
        assert res.score == 1.0
        assert res.margin > 0.0
    assert dec.plaintext == plaintext


def test_end_hypothesis_wins_final_frame(params):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 4, b"a")
    dec = C.IncrementalDecoder(params, CFG, KEY, NONCE, 4, CP)
    r0 = dec.feed(frames[0])
    assert r0.token == ord("a")
    r1 = dec.feed(frames[1])
    assert r1.token == C.EOS
    assert dec.plaintext == b"a"


def test_a_decoder_is_fed_up_to_its_end_frame_and_read_after_it(params):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 4, b"a")
    dec = C.IncrementalDecoder(params, CFG, KEY, NONCE, 4, CP)
    dec.feed(frames[0])
    with pytest.raises(C.CodecError, match="not complete"):
        dec.plaintext
    dec.feed(frames[1])
    with pytest.raises(C.CodecError, match="already complete"):
        dec.feed(frames[1])
    assert dec.plaintext == b"a" and dec.next_seq == 2


def test_zero_payload_decode_failure(params):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 5, b"q")
    frames[0].payload = np.zeros_like(frames[0].payload)
    dec = C.IncrementalDecoder(params, CFG, KEY, NONCE, 5)
    with pytest.raises(C.DecodeFailure):
        dec.feed(frames[0])


def _non_finite_payloads(d_model):
    one_inf = np.ones(d_model, dtype=np.float32)
    one_inf[3] = np.inf
    return [np.full(d_model, np.nan, dtype=np.float32), one_inf]


def test_non_finite_payload_fails_closed(params):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 11, b"q")
    for payload in _non_finite_payloads(CFG.d_model):
        frame = C.TokenFrame(seq=0, payload=payload)
        dec = C.IncrementalDecoder(params, CFG, KEY, NONCE, 11, CP)
        with pytest.raises(C.DecodeFailure, match="non-finite"):
            dec.feed(frame)
        assert dec.next_seq == 0 and dec.scorer.prefix == b""
        with pytest.raises(C.DecodeFailure, match="non-finite"):
            decode_oracle(params, CFG, KEY, NONCE, 11, [frame] + frames[1:])


def test_decoders_reject_a_context_past_max_seq(params):
    # the same weights at max_seq 16 carry messages of at most 5 bytes, so a
    # non-final frame 5 implies a message the sender would have refused
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 14, b"0123456789")
    short = dataclasses.replace(CFG, max_seq=16)
    dec = C.IncrementalDecoder(params, short, KEY, NONCE, 14, CP)
    for frame in frames[:5]:
        dec.feed(frame)
    with pytest.raises(C.DecodeFailure, match="frame 5: .*max_seq"):
        dec.feed(frames[5])


def test_both_ends_reject_a_one_block_config():
    # the key schedule taps blocks 1..n_blocks-1, so one block leaves none
    one = dataclasses.replace(CFG, n_blocks=1)
    params1 = M.init_parameters(one, seed=3)
    with pytest.raises(C.CodecError, match="at least 2 blocks"):
        C.encode_message_incremental(params1, one, KEY, NONCE, 0, b"a")
    frame = C.TokenFrame(seq=0, payload=np.ones(one.d_model, dtype=np.float32))
    with pytest.raises(C.CodecError, match="at least 2 blocks"):
        C.decode_message_incremental(params1, one, KEY, NONCE, 0, [frame], CP)


@pytest.mark.parametrize("field, value", [("vocab_size", 100), ("max_seq", 8), ("max_seq", 10)])
def test_both_ends_reject_a_config_the_frames_do_not_fit(field, value):
    # without the check the template's ids, or the empty message's END frame
    # (template, <eos>, <sep>: 11 positions), fail inside the model instead
    bad = dataclasses.replace(CFG, **{field: value})
    params_bad = M.init_parameters(bad, seed=3)
    with pytest.raises(C.CodecError, match=f"{field} >= "):
        C.encode_message_incremental(params_bad, bad, KEY, NONCE, 0, b"")
    frame = C.TokenFrame(seq=0, payload=np.ones(bad.d_model, dtype=np.float32), is_final=True)
    with pytest.raises(C.CodecError, match=f"{field} >= "):
        C.decode_message_incremental(params_bad, bad, KEY, NONCE, 0, [frame], CP)


def test_the_empty_message_fits_the_smallest_max_seq(params):
    small = dataclasses.replace(CFG, max_seq=len(C.frame_context([C.EOS])))
    frames = C.encode_message_incremental(params, small, KEY, NONCE, 0, b"")
    assert C.decode_message_incremental(params, small, KEY, NONCE, 0, frames, CP) == b""


def test_nan_score_and_margin_fail_the_gates(params, monkeypatch):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 12, b"q")
    nan = float("nan")
    for score, margin, error in ((nan, 1.0, C.DecodeFailure),
                                 (1.0, nan, C.AmbiguousDecode)):
        monkeypatch.setattr(C.HypothesisScorer, "score_frame",
                            lambda self, payload, layer: (ord("q"), score, margin))
        dec = C.IncrementalDecoder(params, CFG, KEY, NONCE, 12, CP)
        with pytest.raises(error):
            dec.feed(frames[0])
        assert dec.scorer.prefix == b""


def test_wrong_key_decode_fails(params):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 6, b"hi")
    # One flipped bit: the key's halves XOR to another value than KEY's, so
    # the chain draws another layer for the first frame. (A key whose halves
    # XOR to KEY's, such as KEY reversed, draws KEY's schedule and decodes.)
    wrong = KEY[:15] + bytes([KEY[15] ^ 0x80])
    first_layer = [scheduler.layer_of(scheduler.init_chain(k, NONCE, 6), CFG.n_blocks)
                   for k in (KEY, wrong)]
    assert first_layer[0] != first_layer[1]
    with pytest.raises((C.DecodeFailure, C.AmbiguousDecode)):
        C.decode_message_incremental(params, CFG, wrong, NONCE, 6, frames, CP)


def test_layer_lockstep(params):
    plaintext = b"lockstep"
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 7, plaintext)
    dec = C.IncrementalDecoder(params, CFG, KEY, NONCE, 7, CP)
    for f in frames:
        dec.feed(f)
    state = scheduler.init_chain(KEY, NONCE, 7)
    expected = []
    for b in plaintext:
        expected.append(scheduler.layer_of(state, CFG.n_blocks))
        state = scheduler.advance(state, b, CFG.vocab_size)
    expected.append(scheduler.layer_of(state, CFG.n_blocks))
    assert dec.layers_used == expected


def test_messages_use_distinct_layer_schedules(params):
    f0 = C.encode_message_incremental(params, CFG, KEY, NONCE, 0, b"same")
    f1 = C.encode_message_incremental(params, CFG, KEY, NONCE, 1, b"same")
    d0 = C.IncrementalDecoder(params, CFG, KEY, NONCE, 0, CP)
    d1 = C.IncrementalDecoder(params, CFG, KEY, NONCE, 1, CP)
    for a, b in zip(f0, f1):
        d0.feed(a)
        d1.feed(b)
    assert d0.layers_used != d1.layers_used


def test_naive_decoder_agrees_with_fast(params):
    plaintext = b"nv"
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 8, plaintext)
    fast = C.decode_message_incremental(params, CFG, KEY, NONCE, 8, frames, CP)
    slow = decode_oracle(params, CFG, KEY, NONCE, 8, frames)
    assert fast == slow == plaintext


# the shipped head dim (32); 4 blocks, so a frame can tap above a long run of
# bytes that lack every block but the first
CFG_HEAD_DIM_32 = M.ModelConfig(n_blocks=4, d_model=64, n_heads=2, d_ff=128,
                                vocab_size=260, max_seq=256)


@pytest.mark.parametrize("cfg", [CFG, CFG_HEAD_DIM_32], ids=["head_dim_16", "head_dim_32"])
def test_catch_up_under_a_scripted_tap_schedule(cfg):
    # a run of layer-1 frames commits each byte at depth 0 and catches only
    # block 1 up; the frame at n_blocks - 1 then catches blocks 2.. up over
    # the whole run in one call each, more than M_MIN rows; the frames after
    # it leave positions at depths 2, 0 and 1 for the last to catch up
    params = M.init_parameters(cfg, seed=31)
    run = M.M_MIN + 1
    deep = cfg.n_blocks - 1
    schedule = [1] * run + [deep, 1, 2, deep]
    text = np.random.default_rng(31).integers(0, 256, size=len(schedule)).tolist()
    scorer = C.HypothesisScorer(params, cfg)
    for t, (tok, layer) in enumerate(zip(text, schedule)):
        want = M.KVCache(cfg)
        M.extend_cache(params, cfg, want, C.template_tokens() + text[:t])
        payload = M.hypothesis_taps(params, cfg, want, [C.frame_step(tok)], layer)[0][0]
        if t == run:
            assert scorer.cache.length - scorer.cache.rows[1] > M.M_MIN
        assert scorer.score_frame(payload, layer)[:2] == (tok, 1.0), f"frame {t}"
        got = scorer.cache
        assert got.length == want.length
        for bi in range(layer):
            assert (got.keys(bi).view(np.uint32) == want.keys(bi).view(np.uint32)).all(), (t, bi)
            assert (got.values(bi).view(np.uint32) == want.values(bi).view(np.uint32)).all(), (t, bi)
        scorer.push()


def test_codec_never_runs_the_last_block_or_the_head(params, monkeypatch):
    # no frame taps block n_blocks, and nothing reads the logits; nor does
    # an encoder's or a decoder's cache allocate that block's keys and values
    block = M._block
    caches = []

    class RecordedCache(M.KVCache):
        def __init__(self, config):
            super().__init__(config)
            caches.append(self)

    def guarded_block(bp, *args, **kwargs):
        if bp is params.blocks[-1]:
            raise AssertionError("the last block ran")
        return block(bp, *args, **kwargs)

    def no_head(*args, **kwargs):
        raise AssertionError("the head ran")

    monkeypatch.setattr(M, "_block", guarded_block)
    monkeypatch.setattr(M, "_head", no_head)
    monkeypatch.setattr(M, "KVCache", RecordedCache)
    plaintext = bytes(np.random.default_rng(5).integers(0, 256, size=C.MAX_MESSAGE_LEN).tolist())
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 21, plaintext)
    assert C.decode_message_incremental(params, CFG, KEY, NONCE, 21, frames, CP) == plaintext
    assert len(caches) == 2  # the encoder's and the decoder's
    for cache in caches:
        assert [k.shape[0] for k in cache._k] == [CFG.max_seq] * (CFG.n_blocks - 1) + [0]
        assert [v.shape[0] for v in cache._v] == [CFG.max_seq] * (CFG.n_blocks - 1) + [0]


def _scorer_state(scorer):
    cache = scorer.cache
    return (cache.length, tuple(cache.rows), cache._x.tobytes(),
            [k.tobytes() for k in cache._k], [v.tobytes() for v in cache._v], scorer.prefix)


def _push_fails(scorer):
    before = _scorer_state(scorer)
    with pytest.raises(C.CodecError, match="no accepted byte frame"):
        scorer.push()
    assert _scorer_state(scorer) == before


def test_push_needs_a_scored_frame(params, monkeypatch):
    # push() commits the rows of the byte that score_frame accepted, once;
    # with no frame scored, after a failed frame and after an accepted END
    # frame it raises and leaves the cache and the prefix as they were
    scorer = C.HypothesisScorer(params, CFG)
    _push_fails(scorer)
    byte_frame, end_frame = C.encode_message_incremental(params, CFG, KEY, NONCE, 0, b"\xff")
    state = scheduler.init_chain(KEY, NONCE, 0)
    layer = scheduler.layer_of(state, CFG.n_blocks)
    verified = []
    monkeypatch.setattr(M, "hypothesis_taps", lambda *args, call=M.hypothesis_taps:
                        verified.append(args[3][:, 0].tolist()) or call(*args))
    assert scorer.score_frame(byte_frame.payload, layer)[0] == 0xFF
    # the true byte is not the verify set's first item, so a commit of
    # another item's rows would show
    assert 0xFF in verified[0] and verified[0][0] != 0xFF
    _, (keys, values, x) = M.hypothesis_taps(params, CFG, scorer.cache,
                                             np.array([C.frame_step(0xFF)]), layer)
    scorer.push()
    cache, n = scorer.cache, len(C.template_tokens()) + 1
    assert scorer.prefix == b"\xff" and cache.length == n
    assert cache.rows[:layer - 1] == [n] * (layer - 1) and len(keys) == layer - 1
    assert cache._x[n - 1].tobytes() == x[0].tobytes()
    for bi in range(layer - 1):
        assert cache.keys(bi)[-1].tobytes() == keys[bi][0].tobytes(), bi
        assert cache.values(bi)[-1].tobytes() == values[bi][0].tobytes(), bi
    _push_fails(scorer)
    layer = scheduler.layer_of(scheduler.advance(state, 0xFF, CFG.vocab_size), CFG.n_blocks)
    [flipped] = _flip_low_bit([dataclasses.replace(end_frame)])
    with pytest.raises(C.DecodeFailure):
        scorer.score_frame(flipped.payload, layer)
    _push_fails(scorer)
    assert scorer.score_frame(end_frame.payload, layer)[0] == C.EOS
    _push_fails(scorer)


def test_score_frame_runs_one_hypothesis_batch_per_frame(params, monkeypatch):
    shapes = []
    taps = M.hypothesis_taps

    def counting(params, cfg, cache, suffixes, layer):
        shapes.append(np.shape(suffixes))
        return taps(params, cfg, cache, suffixes, layer)

    # the draft ranks the 257 candidates; one exact call verifies some of
    # them, the draft's winner and runner-up among them
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 16, b"one")
    monkeypatch.setattr(M, "hypothesis_taps", counting)
    assert C.decode_message_incremental(params, CFG, KEY, NONCE, 16, frames, CP) == b"one"
    assert len(shapes) == len(frames)
    assert all(2 <= b <= len(C.CANDIDATES) and s == 2 for b, s in shapes)


def test_a_crowded_frame_runs_one_call_of_its_verify_set(params, monkeypatch):
    # thin tap-layer-1 margins late in a 64-byte message put more than 16
    # candidates within 2 * DRAFT_ETA of the draft's runner-up on some
    # frames: each still takes one exact call of its V, and gives the
    # result of the 257 full passes of the oracle
    plaintext = bytes(np.random.default_rng(3).integers(0, 256, size=C.MAX_MESSAGE_LEN).tolist())
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 3, plaintext)
    sizes = []
    taps = M.hypothesis_taps

    def counting(params, cfg, cache, suffixes, layer):
        sizes.append(len(suffixes))
        return taps(params, cfg, cache, suffixes, layer)

    monkeypatch.setattr(M, "hypothesis_taps", counting)
    results, error, _ = _feed(params, CFG, KEY, 3, frames)
    assert error is None and len(sizes) == len(frames)
    crowded = [t for t, n in enumerate(sizes) if n > 16]
    assert crowded and max(sizes) < len(C.CANDIDATES)
    state = scheduler.init_chain(KEY, NONCE, 3)
    for t, tok in enumerate(plaintext[:max(crowded) + 1]):
        if t in crowded:
            layer = scheduler.layer_of(state, CFG.n_blocks)
            want = oracle_frame(params, CFG, plaintext[:t], frames[t].payload, layer)
            assert (results[t].token, results[t].score, results[t].margin) == want, t
        state = scheduler.advance(state, tok, CFG.vocab_size)


def test_a_flipped_bit_fails_its_frame_after_one_draft_and_one_exact_call(params, monkeypatch):
    frame = C.encode_message_incremental(params, CFG, KEY, NONCE, 20, b"f")[0]
    layer = scheduler.layer_of(scheduler.init_chain(KEY, NONCE, 20), CFG.n_blocks)
    scorer = C.HypothesisScorer(params, CFG)
    assert scorer.score_frame(frame.payload, layer)[0] == ord("f")
    calls = []
    for name in ("draft_taps", "hypothesis_taps"):
        monkeypatch.setattr(M, name, lambda *args, name=name, call=getattr(M, name):
                            calls.append(name) or call(*args))
    [flipped] = _flip_low_bit([frame])
    with pytest.raises(C.DecodeFailure, match="no candidate re-creates the payload"):
        scorer.score_frame(flipped.payload, layer)
    assert calls == ["draft_taps", "hypothesis_taps"]
    # the accepted frame before it gave up its rows to the failed one
    _push_fails(scorer)
    assert scorer.prefix == b""


def _feed(params, cfg, key, msg_seq, frames, cp=CP):
    """Every DecodeResult of one decoder fed the frames in order, then the
    type and text of the typed error that stopped it, or None, and the
    decoder's scorer."""
    dec = C.IncrementalDecoder(params, cfg, key, NONCE, msg_seq, cp)
    results = []
    try:
        for frame in frames:
            results.append(dec.feed(frame))
    except C.CodecError as e:
        return results, (type(e), str(e)), dec.scorer
    return results, None, dec.scorer


def _flip_low_bit(frames):
    for frame in frames:
        frame.payload = frame.payload.copy()
        frame.payload.view(np.uint32)[0] ^= 1
    return frames


# KEY with bit 127 flipped
WRONG_KEY = KEY[:15] + bytes([KEY[15] ^ 0x80])


@pytest.mark.parametrize("cfg, seed, lengths", [
    (CFG, 77, (0, 5, 33, C.MAX_MESSAGE_LEN)),
    (M.ModelConfig(), 11, (8, 24)),
], ids=["4x32", "default"])
def test_draft_ranks_the_true_byte_first_within_a_tenth_of_eta(cfg, seed, lengths):
    # on every frame the draft's winner is the true byte, and no draft cosine
    # is further than DRAFT_ETA / 10 from the exact one; so V, all within
    # 2 * DRAFT_ETA of the draft's runner-up, holds the exact winner and
    # runner-up
    params = M.init_parameters(cfg, seed)
    rng = np.random.default_rng(seed)
    for msg_seq, n in enumerate(lengths):
        plaintext = bytes(rng.integers(0, 256, size=n).tolist())
        frames = C.encode_message_incremental(params, cfg, KEY, NONCE, msg_seq, plaintext)
        scorer = C.HypothesisScorer(params, cfg)
        state = scheduler.init_chain(KEY, NONCE, msg_seq)
        for t, (frame, tok) in enumerate(zip(frames, list(plaintext) + [C.EOS])):
            layer = scheduler.layer_of(state, cfg.n_blocks)
            M.catch_up(params, cfg, scorer.cache, layer)
            exact, _ = M.hypothesis_taps(params, cfg, scorer.cache, scorer.suffixes, layer)
            draft = M.draft_taps(params, cfg, scorer.cache, scorer.suffixes, layer)
            d = C.cosine(draft, frame.payload).astype(np.float64)
            e = C.cosine(exact, frame.payload).astype(np.float64)
            assert int(np.argmax(d)) == C.CANDIDATES.index(tok), (n, t)
            assert np.abs(d - e).max() <= C.DRAFT_ETA / 10, (n, t)
            assert scorer.score_frame(frame.payload, layer)[0] == tok
            if tok != C.EOS:
                scorer.push()
                state = scheduler.advance(state, tok, cfg.vocab_size)


def test_every_frame_the_verify_cannot_decide_fails_typed(params):
    plaintext = b"fail typed"
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 17, plaintext)
    results, error, _ = _feed(params, CFG, KEY, 17, frames)
    assert error is None and len(results) == len(frames)
    # a wrong key draws its own layers: at the first that differs from the
    # sender's, no candidate re-creates the payload
    scorer = C.HypothesisScorer(params, CFG)
    wrong, right = (scheduler.init_chain(k, NONCE, 17) for k in (WRONG_KEY, KEY))
    for t, (frame, tok) in enumerate(zip(frames, plaintext)):
        layer = scheduler.layer_of(wrong, CFG.n_blocks)
        if layer != scheduler.layer_of(right, CFG.n_blocks):
            with pytest.raises(C.DecodeFailure, match="no candidate re-creates the payload"):
                scorer.score_frame(frame.payload, layer)
            break
        assert scorer.score_frame(frame.payload, layer)[0] == tok
        scorer.push()
        wrong, right = (scheduler.advance(s, tok, CFG.vocab_size) for s in (wrong, right))
    else:
        pytest.fail("the wrong key drew the sender's layer for every byte frame")
    # a flipped payload bit fails its first frame
    got, error, _ = _feed(params, CFG, KEY, 17, _flip_low_bit(frames))
    assert got == [] and error[0] is C.DecodeFailure


@pytest.mark.parametrize("sabotage", ["reversed", "noise", "noise_but_the_winner", "one_nan",
                                      "all_equal"])
def test_a_sabotaged_draft_falls_back_to_the_same_results(params, monkeypatch, sabotage):
    # a draft error can make a frame fail typed, never decode another byte:
    # a draft that holds a NaN or ranks all 257 alike (V then holds every
    # candidate) gives the same results; noise but for the true byte's row
    # (V then holds the winner and a runner-up the exact batch does not
    # rank second) the same tokens with wider margins; and a draft whose
    # rows are the wrong candidates' (reversed), or noise, leaves the true
    # byte out of V, and the first frame fails
    plaintext = b"sabotage"
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 18, plaintext)
    want, error, _ = _feed(params, CFG, KEY, 18, frames)
    assert error is None
    draft_taps = M.draft_taps
    rng = np.random.default_rng(18)
    tokens = iter(list(plaintext) + [C.EOS])

    def sabotaged(*args):
        taps = draft_taps(*args)
        if sabotage == "reversed":
            return taps[::-1]
        if sabotage.startswith("noise"):
            noise = rng.standard_normal(taps.shape).astype(np.float32)
            if sabotage == "noise_but_the_winner":
                winner = C.CANDIDATES.index(next(tokens))
                noise[winner] = taps[winner]
            return noise
        if sabotage == "one_nan":
            taps[3, 0] = np.nan
            return taps
        return np.repeat(taps[:1], len(taps), axis=0)

    monkeypatch.setattr(M, "draft_taps", sabotaged)
    got, error, scorer = _feed(params, CFG, KEY, 18, frames)
    assert [r.token for r in got] == [r.token for r in want][:len(got)]
    if sabotage in ("one_nan", "all_equal"):
        assert error is None and got == want
    elif sabotage == "noise_but_the_winner":
        assert error is None and scorer.prefix == plaintext
    else:
        assert got == [] and error[0] is C.DecodeFailure


def test_draft_and_verify_give_the_full_batch_results_and_errors(params, monkeypatch):
    # the right key, random payloads, a flipped payload bit, a wrong key and
    # a delta no margin reaches: results and typed errors as the full batch's
    rng = np.random.default_rng(19)
    cases = []
    for msg_seq, n in enumerate((1, 7, 20)):
        plaintext = bytes(rng.integers(0, 256, size=n).tolist())
        frames = C.encode_message_incremental(params, CFG, KEY, NONCE, msg_seq, plaintext)
        noise = [C.TokenFrame(f.seq, rng.standard_normal(CFG.d_model).astype(np.float32),
                              f.is_final) for f in frames]
        cases += [(KEY, msg_seq, frames, CP), (KEY, msg_seq, noise, CP),
                  (KEY, msg_seq, _flip_low_bit([dataclasses.replace(f) for f in frames]), CP),
                  (WRONG_KEY, msg_seq, frames, CP),
                  (KEY, msg_seq, frames, C.CodecParams(delta=0.5))]
    fast = [_feed(params, CFG, key, seq, frames, cp)[:2] for key, seq, frames, cp in cases]
    # NaN drafts: every frame's V holds all 257 candidates
    monkeypatch.setattr(M, "draft_taps", lambda params, cfg, cache, suffixes, layer:
                        np.full((len(suffixes), cfg.d_model), np.nan, dtype=np.float32))
    full = [_feed(params, CFG, key, seq, frames, cp)[:2] for key, seq, frames, cp in cases]
    assert fast == full
    assert {error[0] for _, error in full if error} == {C.DecodeFailure, C.AmbiguousDecode}


def test_a_decode_gives_the_same_results_on_one_cpu_and_on_four(params, monkeypatch):
    # draft_taps slices its 257 candidates across the CPUs model sees: on 4
    # each frame's draft runs on 4 threads, switching often, with the same
    # results as on 1, and no worker outlives its call
    plaintext = b"sliced drafts"
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 23, plaintext)
    block, threads = M._draft_block, set()

    def recorded(*args, **kwargs):
        threads.add(threading.get_ident())
        return block(*args, **kwargs)

    monkeypatch.setattr(M, "_draft_block", recorded)
    runs = {}
    interval = sys.getswitchinterval()
    for cpus in (1, 4):
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        threads.clear()
        before = threading.active_count()
        sys.setswitchinterval(1e-5)
        try:
            got, error, scorer = _feed(params, CFG, KEY, 23, frames)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert error is None and scorer.prefix == plaintext
        assert len(threads) >= cpus and (cpus > 1 or threads == {threading.get_ident()})
        runs[cpus] = got
    assert runs[1] == runs[4]


def _blas_picks_its_kernel_at_load() -> bool:
    try:  # numpy < 1.26 has no mode="dicts"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return (blas.get("name") == "scipy-openblas"
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


_DECODE_IN_CHILD = """
import json, sys
import numpy as np
from ciphermind import codec as C, model as M
params = M.load_parameters(sys.argv[1])
payloads = np.load(sys.argv[2])
frames = [C.TokenFrame(t, p, t == len(payloads) - 1) for t, p in enumerate(payloads)]
try:
    out = C.decode_message_incremental(params, params.config, bytes(range(16)), 0xDEADBEEF,
                                       22, frames, C.CodecParams(delta=1e-6))
    print(json.dumps({"plaintext": out.hex()}))
except C.CodecError as e:
    print(json.dumps({"error": type(e).__name__}))
"""


@pytest.mark.skipif(not _blas_picks_its_kernel_at_load(),
                    reason="OPENBLAS_CORETYPE needs a DYNAMIC_ARCH scipy-openblas")
def test_a_decode_on_another_blas_kernel_gives_the_plaintext_or_fails_typed(params, tmp_path):
    # Haswell's kernels break model rules 1-2 (ROADMAP item 12), so no
    # candidate need re-create a payload encoded on this process's kernel:
    # the decode may fail, but only with a CodecError, and never give
    # another plaintext
    plaintext = b"portable"
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 22, plaintext)
    M.save_parameters(tmp_path / "params.cmwt", params)
    np.save(tmp_path / "payloads.npy", np.stack([f.payload for f in frames]))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-c", _DECODE_IN_CHILD, str(tmp_path / "params.cmwt"),
                          str(tmp_path / "payloads.npy")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert out.get("plaintext", plaintext.hex()) == plaintext.hex(), out


@pytest.mark.parametrize("n_blocks", [2, 3])
def test_a_legal_two_block_config_decodes_a_64_byte_message(n_blocks):
    # at d_ff 512 the tapped block's w2 GEMM runs one row a verify item, and
    # a whole GEMM of 62 or more rows takes another kernel than 32-61 rows:
    # at 2 blocks this message's frame 57, whose verify holds 87 items,
    # decodes only with model rule 1's M_MIN-row tiles
    cfg = M.ModelConfig(n_blocks=n_blocks, d_model=32, n_heads=2, d_ff=512)
    params = M.init_parameters(cfg, 77)
    rng = np.random.default_rng(5)
    plaintext, key = rng.bytes(64), rng.bytes(16)
    frames = C.encode_message_incremental(params, cfg, key, 1, 0, plaintext)
    assert C.decode_message_incremental(params, cfg, key, 1, 0, frames,
                                        C.CodecParams(delta=0)) == plaintext


@pytest.mark.parametrize("frame, error", [
    (0, "byte hypothesis won the final frame"),
    (1, "end hypothesis won a non-final frame"),
], ids=["byte frame flagged final", "end frame not flagged final"])
def test_a_frame_whose_final_flag_lies_fails_typed(params, frame, error):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 16, b"a")
    frames[frame].is_final = not frames[frame].is_final
    results, failure, _ = _feed(params, CFG, KEY, 16, frames)
    assert len(results) == frame
    assert failure == (C.DecodeFailure, error)


def test_decoder_rejects_out_of_order_frames(params):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 15, b"ab")
    for frame, seq in zip(frames, (9, 9, 0)):
        frame.seq = seq
    with pytest.raises(C.DecodeFailure, match="out-of-order frame 9, expected 0"):
        C.decode_message_incremental(params, CFG, KEY, NONCE, 15, frames, CP)
