"""Plaintext <-> hidden-state frame codec built on the twin model.

Byte-level tokenizer: ids 0..255 are raw bytes, then <bos>=256, <eos>=257,
<sep>=258, <pad>=259. Every message is wrapped in the fixed repeat prompt
("<bos>repeat: " ... "<sep>"), mirroring the objective the twins were
tuned on.

One frame per plaintext byte, then a final end-marker frame. Frame t taps
the scheduled layer at the last position of a teacher-forced context that
holds only the already-shared prefix plus the new byte. The receiver
re-creates each candidate context bit-for-bit, so the true candidate scores
cosine 1.0 and decoding is exact regardless of model quality; the theta and
delta gates reject anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as M
from . import scheduler

BOS = 256
EOS = 257
SEP = 258
PAD = 259
VOCAB_SIZE = 260

TEMPLATE_TEXT = b"repeat: "
TEMPLATE_VERSION = 1
MAX_MESSAGE_LEN = 64

END_HYPOTHESIS = EOS  # reported token id when the end-of-message wins

DEFAULT_THETA = 0.9999
DEFAULT_DELTA = 0.01


class CodecError(Exception):
    pass


class MessageTooLong(CodecError):
    pass


class DecodeFailure(CodecError):
    def __init__(self, msg: str, score: float = float("nan")):
        super().__init__(msg)
        self.score = score


class AmbiguousDecode(CodecError):
    def __init__(self, margin: float):
        super().__init__(f"ambiguous decode: margin {margin:.6f}")
        self.margin = margin


def encode_bytes(data: bytes) -> list[int]:
    return list(data)


def decode_bytes(tokens) -> bytes:
    out = bytearray()
    for t in tokens:
        if not 0 <= t <= 255:
            raise CodecError(f"token {t} is not a payload byte")
        out.append(t)
    return bytes(out)


def template_tokens() -> list[int]:
    return [BOS] + encode_bytes(TEMPLATE_TEXT)


def cosine(taps, payload) -> np.ndarray:
    """Cosine of each row of taps (..., d) with payload (d,), accumulated in
    float64, clamped to [-1, 1] and returned in binary32 (a scalar when
    taps is 1-D).

    Bitwise-equal inputs score exactly 1.0. A zero vector on either side
    raises CodecError.
    """
    t = np.asarray(taps, dtype=np.float64)
    p = np.asarray(payload, dtype=np.float64)
    if p.ndim != 1 or t.shape[-1:] != p.shape:
        raise CodecError("cosine operands must have equal length")
    nt = np.sqrt(np.sum(t * t, axis=-1))
    npay = np.sqrt(np.sum(p * p))
    if npay == 0.0 or np.any(nt == 0.0):
        raise CodecError("cosine of zero vector")
    return np.clip(np.sum(t * p, axis=-1) / (nt * npay), -1.0, 1.0).astype(np.float32)


@dataclass
class TokenFrame:
    seq: int
    payload: np.ndarray  # d_model float32
    is_final: bool = False


@dataclass
class DecodeResult:
    token: int          # byte value, or END_HYPOTHESIS for the final frame
    score: float
    margin: float


@dataclass
class CodecParams:
    theta: float = DEFAULT_THETA
    delta: float = DEFAULT_DELTA


# --------------------------------------------------------------- encoding

def _check_length(n_bytes: int, cfg: M.ModelConfig) -> None:
    """The bounds on a message of n_bytes: the byte cap, and the longest
    context encoding or decoding it builds fitting max_seq."""
    if n_bytes > MAX_MESSAGE_LEN:
        raise MessageTooLong(f"message is {n_bytes} bytes; cap is {MAX_MESSAGE_LEN}")
    need = len(template_tokens()) + 2 * n_bytes + 2
    if need > cfg.max_seq:
        raise MessageTooLong("message does not fit max_seq")


def _check_message(plaintext: bytes, cfg: M.ModelConfig) -> None:
    _check_length(len(plaintext), cfg)
    if cfg.n_blocks < 2:
        raise CodecError("codec needs at least 2 blocks")


def encode_message_incremental(params: M.ParameterSet, cfg: M.ModelConfig,
                               key: bytes, nonce: int, msg_seq: int,
                               plaintext: bytes):
    """One tapped frame per plaintext byte plus the final end-marker frame.

    Context for frame t: template ++ P[:t+1] ++ <sep> ++ P[:t]; the tap is
    the scheduled layer's output at the last position.
    """
    _check_message(plaintext, cfg)
    topen = template_tokens()
    state = scheduler.init_chain(key, nonce, msg_seq)
    frames = []
    n = len(plaintext)
    for t in range(n + 1):
        prompt_part = plaintext[: t + 1] if t < n else plaintext
        done_part = plaintext[:t] if t < n else plaintext
        ctx = topen + encode_bytes(prompt_part) + [SEP] + encode_bytes(done_part)
        hid, _ = M.forward_full(params, cfg, ctx)
        layer = scheduler.layer_of(state, cfg.n_blocks)
        frames.append(TokenFrame(seq=t, payload=hid[layer - 1, -1].copy(),
                                 is_final=t == n))
        if t < n:
            state = scheduler.advance(state, plaintext[t], cfg.vocab_size)
    return frames


# --------------------------------------------------------------- decoding

class HypothesisScorer:
    """Shared-prefix candidate evaluation against intercepted frames.

    Maintains a KV cache over template ++ accepted-prefix. For a frame with
    t accepted bytes, candidate byte c is scored on the context
    template ++ D ++ c ++ <sep> ++ D and the end-of-message hypothesis on
    template ++ D ++ <sep> ++ D, tapping the supplied layer at the last
    position. Candidate order is bytes 0..255 then END; ties resolve to the
    lowest index.
    """

    def __init__(self, params: M.ParameterSet, cfg: M.ModelConfig):
        self.params = params
        self.cfg = cfg
        self.cache = M.KVCache(cfg)
        M.extend_cache(params, cfg, self.cache, template_tokens())
        self.decoded = bytearray()

    @property
    def prefix(self) -> bytes:
        return bytes(self.decoded)

    def score_frame(self, payload: np.ndarray, layer: int):
        """Returns (token, score, margin, scores[257]) for one frame."""
        d = list(self.decoded)
        t = len(d)
        sufs = np.empty((256, t + 2), dtype=np.int64)
        sufs[:, 0] = np.arange(256)
        sufs[:, 1] = SEP
        if t:
            sufs[:, 2:] = d
        taps = M.hypothesis_taps(self.params, self.cfg, self.cache, sufs, layer)
        end_suf = np.array([[SEP] + d], dtype=np.int64)
        end_tap = M.hypothesis_taps(self.params, self.cfg, self.cache, end_suf, layer)
        scores = np.concatenate([cosine(taps, payload),
                                 cosine(end_tap, payload)]).astype(np.float64)
        best = int(np.argmax(scores))
        best_score = float(scores[best])
        margin = best_score - float(np.delete(scores, best).max())
        token = END_HYPOTHESIS if best == 256 else best
        return token, best_score, margin, scores

    def push(self, byte_val: int) -> None:
        """Commit one accepted byte into the shared prefix."""
        self.decoded.append(byte_val)
        M.extend_cache(self.params, self.cfg, self.cache, [byte_val])


def _check_frame_index(t: int, frame: TokenFrame, cfg: M.ModelConfig) -> None:
    """Frame t of a message implies t bytes before it, plus its own unless it
    is final; a message the sender would refuse fails the decode."""
    try:
        _check_length(t + (not frame.is_final), cfg)
    except MessageTooLong as e:
        raise DecodeFailure(f"frame {t}: {e}") from None


def _checked_payload(frame: TokenFrame) -> np.ndarray:
    payload = np.asarray(frame.payload, dtype=np.float32)
    if not np.all(np.isfinite(payload)):
        raise DecodeFailure("non-finite payload")
    if not np.any(payload):
        raise DecodeFailure("zero payload", score=0.0)
    return payload


class IncrementalDecoder:
    """Exact, theta/delta-gated decoder fed one frame at a time. Each frame
    passes the order, length-cap and payload checks, is scored at the layer
    the chain draws for it, and must yield a byte on a non-final frame and
    END on the final one."""

    def __init__(self, params, cfg, key: bytes, nonce: int, msg_seq: int,
                 codec_params: CodecParams | None = None):
        self.cfg = cfg
        self.cp = codec_params or CodecParams()
        self.scorer = HypothesisScorer(params, cfg)
        self.state = scheduler.init_chain(key, nonce, msg_seq)
        self.next_seq = 0
        self.done = False
        self.layers_used: list[int] = []

    def feed(self, frame: TokenFrame) -> DecodeResult:
        if self.done:
            raise CodecError("message already complete")
        if frame.seq != self.next_seq:
            raise DecodeFailure(f"out-of-order frame {frame.seq}, expected {self.next_seq}")
        _check_frame_index(frame.seq, frame, self.cfg)
        payload = _checked_payload(frame)
        layer = scheduler.layer_of(self.state, self.cfg.n_blocks)
        self.layers_used.append(layer)
        token, score, margin, _ = self.scorer.score_frame(payload, layer)
        # written so that a NaN score or margin fails the gate
        if not score >= self.cp.theta:
            raise DecodeFailure(
                f"no hypothesis reached theta={self.cp.theta}: best {score:.6f}",
                score=score)
        if not margin >= self.cp.delta:
            raise AmbiguousDecode(margin)
        if token == END_HYPOTHESIS and not frame.is_final:
            raise DecodeFailure("end hypothesis won a non-final frame", score=score)
        if token != END_HYPOTHESIS and frame.is_final:
            raise DecodeFailure("byte hypothesis won the final frame", score=score)
        if frame.is_final:
            self.done = True
        else:
            self.scorer.push(token)
            self.state = scheduler.advance(self.state, token, self.cfg.vocab_size)
        self.next_seq += 1
        return DecodeResult(token=token, score=score, margin=margin)

    @property
    def plaintext(self) -> bytes:
        if not self.done:
            raise CodecError("message not complete")
        return self.scorer.prefix


def decode_message_incremental(params, cfg, key: bytes, nonce: int,
                               msg_seq: int, frames,
                               codec_params: CodecParams | None = None) -> bytes:
    dec = IncrementalDecoder(params, cfg, key, nonce, msg_seq, codec_params)
    for frame in frames:
        dec.feed(frame)
    return dec.plaintext


def decode_message_incremental_naive(params, cfg, key: bytes, nonce: int,
                                     msg_seq: int, frames,
                                     codec_params: CodecParams | None = None) -> bytes:
    """Reference decoder: one full forward pass per hypothesis, no caching.

    Semantically identical to decode_message_incremental; it is the
    cross-check oracle for the cached decoder (257 full passes per frame, so
    no session uses it).
    """
    cp = codec_params or CodecParams()
    topen = template_tokens()
    state = scheduler.init_chain(key, nonce, msg_seq)
    decoded = bytearray()
    for frame in frames:
        payload = _checked_payload(frame)
        layer = scheduler.layer_of(state, cfg.n_blocks)
        d = list(decoded)
        taps = np.empty((257, cfg.d_model), dtype=np.float32)
        for c in range(256):
            ctx = topen + d + [c, SEP] + d
            hid, _ = M.forward_full(params, cfg, ctx)
            taps[c] = hid[layer - 1, -1]
        ctx = topen + d + [SEP] + d
        hid, _ = M.forward_full(params, cfg, ctx)
        taps[256] = hid[layer - 1, -1]
        scores = cosine(taps, payload).astype(np.float64)
        best = int(np.argmax(scores))
        best_score = float(scores[best])
        margin = best_score - float(np.delete(scores, best).max())
        if not best_score >= cp.theta:
            raise DecodeFailure("below theta", score=best_score)
        if not margin >= cp.delta:
            raise AmbiguousDecode(margin)
        if best == 256:
            if not frame.is_final:
                raise DecodeFailure("end hypothesis won a non-final frame")
            return bytes(decoded)
        if frame.is_final:
            raise DecodeFailure("byte hypothesis won the final frame")
        decoded.append(best)
        state = scheduler.advance(state, best, cfg.vocab_size)
    raise DecodeFailure("frames ended without a final frame")
