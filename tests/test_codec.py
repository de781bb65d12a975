import dataclasses

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
# wrong ones (~0.9997 at this scale), far below the shipped delta default,
# so unit tests pin a tiny one.
CP = C.CodecParams(delta=1e-6)


@pytest.fixture(scope="module")
def params():
    return M.init_parameters(CFG, seed=77)


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
    assert C.decode_bytes(toks) == data


def test_decode_bytes_rejects_specials():
    with pytest.raises(C.CodecError):
        C.decode_bytes([C.BOS])


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


# ----------------------------------------------------------------- encoding

def test_empty_message_single_final_frame(params):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 0, b"")
    assert len(frames) == 1
    assert frames[0].is_final and frames[0].seq == 0


def test_hello_has_six_frames(params):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 0, b"hello")
    assert [f.seq for f in frames] == [0, 1, 2, 3, 4, 5]
    assert [f.is_final for f in frames] == [False] * 5 + [True]


def test_frame_payload_matches_forward_oracle(params):
    plaintext = b"abc"
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 3, plaintext)
    state = scheduler.init_chain(KEY, NONCE, 3)
    ctx0 = C.template_tokens() + [plaintext[0], C.SEP]
    hid, _ = M.forward_full(params, CFG, ctx0)
    layer0 = scheduler.layer_of(state, CFG.n_blocks)
    assert (frames[0].payload == hid[layer0 - 1, -1]).all()


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
    assert r1.token == C.END_HYPOTHESIS
    assert dec.plaintext == b"a"


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
            C.decode_message_incremental_naive(params, CFG, KEY, NONCE, 11,
                                               [frame] + frames[1:], CP)


def test_decoders_reject_a_context_past_max_seq(params):
    # the same weights at max_seq 21 carry messages of at most 5 bytes, so a
    # non-final frame 5 implies a message the sender would have refused
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 14, b"0123456789")
    short = dataclasses.replace(CFG, max_seq=21)
    dec = C.IncrementalDecoder(params, short, KEY, NONCE, 14, CP)
    for frame in frames[:5]:
        dec.feed(frame)
    with pytest.raises(C.DecodeFailure, match="frame 5: .*max_seq"):
        dec.feed(frames[5])


def test_nan_score_and_margin_fail_the_gates(params, monkeypatch):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 12, b"q")
    nan = float("nan")
    for score, margin, error in ((nan, 1.0, C.DecodeFailure),
                                 (1.0, nan, C.AmbiguousDecode)):
        monkeypatch.setattr(C.HypothesisScorer, "score_frame",
                            lambda self, payload, layer: (ord("q"), score, margin, None))
        dec = C.IncrementalDecoder(params, CFG, KEY, NONCE, 12, CP)
        with pytest.raises(error):
            dec.feed(frames[0])
        assert dec.scorer.prefix == b""


def test_wrong_key_decode_fails(params):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 6, b"hi")
    wrong = bytes(reversed(KEY))
    with pytest.raises((C.DecodeFailure, C.AmbiguousDecode)):
        C.decode_message_incremental(params, CFG, wrong, NONCE, 6, frames)


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
    slow = C.decode_message_incremental_naive(params, CFG, KEY, NONCE, 8, frames, CP)
    assert fast == slow == plaintext


def test_decoder_rejects_out_of_order_frames(params):
    frames = C.encode_message_incremental(params, CFG, KEY, NONCE, 15, b"ab")
    for frame, seq in zip(frames, (9, 9, 0)):
        frame.seq = seq
    with pytest.raises(C.DecodeFailure, match="out-of-order frame 9, expected 0"):
        C.decode_message_incremental(params, CFG, KEY, NONCE, 15, frames, CP)
