"""Plaintext <-> hidden-state frame codec built on the twin model.

Byte-level tokenizer: ids 0..255 are raw bytes, then <bos>=256, <eos>=257,
<sep>=258, <pad>=259. The twins are fine-tuned on their key's shard
examples alone; the wire context below is a fixed layout of its own, and
decoding needs no match between it and any training prompt.

Frame layout (``TEMPLATE_VERSION`` 2). A message of n bytes P0 .. P[n-1]
is sent as n byte frames and a final END frame. Frame t's context is the
committed prefix ``template ++ P[:t]`` followed by its step ``[P[t], <sep>]``
(``[<eos>, <sep>]`` for END); the payload is the output of the layer the key
schedule draws for the frame, tapped at that ``<sep>``. ``frame_step`` and
``frame_context`` hold this layout. The receiver's KV cache over the prefix
grows one byte per frame. Each frame's 257 steps against it, ``[c, <sep>]``
for c in 0..255 and then ``[<eos>, <sep>]``, run first as a draft, a pass
that is close to the exact model but not bit-pinned and ranks them by
cosine; one exact call then re-creates every candidate the draft cannot
rule out, and the frame is accepted only if the best of them equals the
payload bit for bit (see ``HypothesisScorer``). A draft error can so make a
frame fail typed, but never make a wrong byte pass. An accepted byte joins
the cache at the depth its frame's exact call reached, with the rows the
winning hypothesis computed, and gains the blocks above only when a later
frame taps them; no cache runs block n_blocks or the head, which no frame
reads. A position has the same bits in a full pass, a cache extension and
a hypothesis batch of any size (rules 1-3 of :mod:`ciphermind.model`), so
the true candidate re-creates the payload bit for bit and scores cosine 1.0
whatever the model's quality; the delta gate rejects a frame whose
runner-up comes too close.

No <sep> is kept between bytes. Interleaving them would let one forward
pass encode a message, but it doubles the context, and a wrong byte's tap
differs from the true one only through attention, which a longer context
dilutes: on the untrained 4 x 32 test model, tap-layer-1 margins of
33-byte messages fell below v1's and under 1e-6. The compact prefix keeps
every layer's margins above v1's.

Why layout v1 went. v1 tapped the last position of
``template ++ P[:t+1] ++ <sep> ++ P[:t]``, whose own token is P[t-1]: the
payload minus its positional row was closest in cosine to the public
embedding row of P[t-1], so a reader without the key recovered that byte
from the frame alone (280 of 280 frames in a probe at the shipped
defaults). v2 taps a public ``<sep>``; whether attention still carries the
byte to it is a separate measurement. v1's hypotheses also grew with the
frame (t + 2 tokens), so decoding ran O(n^2) block rows, where v2 runs 2
per hypothesis and frame. A v1 peer fails the handshake on the template
version byte in the twin profile's config summary.
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
TEMPLATE_VERSION = 2
MAX_MESSAGE_LEN = 64

# every frame's hypotheses in scoring order: bytes 0..255, then END (EOS)
CANDIDATES = (*range(256), EOS)

DEFAULT_THETA = 0.9999
# Right-key margins on 99 frames of twins provisioned at ModelConfig() and
# TrainConfig() ran 3.0e-5 to 1.1e-3: 0.01 rejected them all. On the untrained
# 4 x 32 test model, 2 of 780 frames fall below 1e-6 (least 6.0e-7).
DEFAULT_DELTA = 1e-6

# The draft's cosines (model.draft_taps: its own block, its candidates in
# slices across the CPUs) differed from the exact ones by at most 5.96e-8,
# one float32 ulp below 1, on every candidate of the right key's frames:
# 796 at ModelConfig(), 796 on the 4 x 32 test model and 782 at 3 x 256
# (head dim 64, d_ff 1024). Over 1015, 1000 and 1000 frames of five cases,
# no result or typed error differed from a verify of all 257
# (tools/draft_check.py --frames 1000 --configs default,test,wide). While no
# draft score is off by more than DRAFT_ETA, the candidates the exact batch
# of all 257 would rank first and second lie within 2 * DRAFT_ETA of the
# draft's runner-up.
DRAFT_ETA = 1e-6


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


def template_tokens() -> list[int]:
    return [BOS] + encode_bytes(TEMPLATE_TEXT)


def check_config(cfg: M.ModelConfig) -> None:
    """Raises CodecError on a config the codec cannot frame with: the key
    schedule taps blocks 1..n_blocks-1, every frame's tokens are ids below
    VOCAB_SIZE, and the shortest message, the empty one, needs its END
    frame's context to fit max_seq."""
    if cfg.n_blocks < 2:
        raise CodecError("codec needs at least 2 blocks")
    if cfg.vocab_size < VOCAB_SIZE:
        raise CodecError(f"codec needs vocab_size >= {VOCAB_SIZE}, got {cfg.vocab_size}")
    shortest = len(frame_context([EOS]))
    if cfg.max_seq < shortest:
        raise CodecError(f"codec needs max_seq >= {shortest}, got {cfg.max_seq}")


def _template_cache(params: M.ParameterSet, cfg: M.ModelConfig, message=b"") -> M.KVCache:
    """A KV cache over the template followed by the message bytes, caught
    up to block n_blocks - 1, the deepest a frame taps; the decoder starts
    from the template alone, the encoder from its whole plaintext. A bad
    config or a message too long for it fails here, before any model work."""
    check_config(cfg)
    _check_length(len(message), cfg)
    cache = M.KVCache(cfg)
    M.append_tokens(params, cfg, cache, template_tokens() + encode_bytes(message))
    M.catch_up(params, cfg, cache, cfg.n_blocks - 1)
    return cache


def frame_step(token: int) -> list[int]:
    """What the frame carrying `token` (a byte, or EOS for the END frame)
    appends to the committed prefix: the token, then the tapped <sep>."""
    return [token, SEP]


def frame_context(tokens) -> list[int]:
    """Context of the frame that carries tokens[-1], given every token
    before it in the message: template ++ t0 t1 ... <sep>. Its tap is at
    the last position."""
    *before, last = tokens
    return template_tokens() + list(before) + frame_step(last)


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
    token: int          # byte value, or EOS for the final frame
    score: float
    margin: float


@dataclass
class CodecParams:
    theta: float = DEFAULT_THETA
    delta: float = DEFAULT_DELTA


# --------------------------------------------------------------- encoding

def _check_length(n_bytes: int, cfg: M.ModelConfig) -> None:
    """The bounds on a message of n_bytes: the byte cap, and its END
    frame's context, the longest it builds, fitting max_seq."""
    if n_bytes > MAX_MESSAGE_LEN:
        raise MessageTooLong(f"message is {n_bytes} bytes; cap is {MAX_MESSAGE_LEN}")
    if len(frame_context(bytes(n_bytes + 1))) > cfg.max_seq:
        raise MessageTooLong("message does not fit max_seq")


def encode_message_incremental(params: M.ParameterSet, cfg: M.ModelConfig,
                               key: bytes, nonce: int, msg_seq: int,
                               plaintext: bytes):
    """One tapped frame per plaintext byte plus the final END frame.

    Fills one KV cache over template ++ plaintext, then taps frame t with a
    one-item hypothesis_taps call of frame_step(plaintext[t]) against its
    read-only prefix template ++ plaintext[:t]: the cache the receiver holds
    when it scores that frame.
    """
    cache = _template_cache(params, cfg, plaintext)
    committed = len(template_tokens())
    state = scheduler.init_chain(key, nonce, msg_seq)
    frames = []
    for t, tok in enumerate(encode_bytes(plaintext) + [EOS]):
        layer = scheduler.layer_of(state, cfg.n_blocks)
        step = np.array([frame_step(tok)], dtype=np.int64)
        taps, _ = M.hypothesis_taps(params, cfg, cache.prefix(committed + t), step, layer)
        frames.append(TokenFrame(seq=t, payload=taps[0], is_final=tok == EOS))
        if tok != EOS:
            state = scheduler.advance(state, tok, cfg.vocab_size)
    return frames


# --------------------------------------------------------------- decoding

class HypothesisScorer:
    """Shared-prefix candidate evaluation against intercepted frames.

    Keeps a KV cache over the committed prefix, template ++ accepted
    bytes, each position at its committed depth (see model.KVCache): the
    template at n_blocks - 1, an accepted byte at the depth its frame's
    exact call reached. A frame tapped at layer L first catches the cache
    up through block L, one block call per block that some position lacks.
    Its 257 two-token suffixes, each candidate's frame_step ([c, <sep>] for
    bytes c = 0..255, then [<eos>, <sep>] for END), then run as a draft
    (model.draft_taps), ranked by cosine against the payload. One exact
    hypothesis_taps call, whatever its size, re-creates V: every candidate
    the draft cannot rule out, that is its winner, every candidate whose
    draft score lies within 2 * DRAFT_ETA of its runner-up, and every
    candidate whose draft score is not finite. The frame is accepted only
    if V's best exact tap equals the payload bit for bit; V's exact cosines
    then give the token, score and margin. They are the exact batch of
    257's while no draft score is more than DRAFT_ETA from its exact one,
    for then V holds every candidate that batch could rank first or
    second; that bound is measured (DRAFT_ETA's comment), not checked. Any
    other frame (a wrong key, a damaged payload, a BLAS kernel off model
    rules 1-2, or a draft that ranks the true candidate out of V) raises
    DecodeFailure after the draft and that one call. Candidates are scored
    in CANDIDATES order; ties resolve to the lowest index.
    """

    def __init__(self, params: M.ParameterSet, cfg: M.ModelConfig):
        self.params = params
        self.cfg = cfg
        self.cache = _template_cache(params, cfg)
        self.suffixes = np.array([frame_step(c) for c in CANDIDATES], dtype=np.int64)
        self.decoded = bytearray()
        # the last accepted frame's token and its first-position rows, until push
        self._accepted = None

    @property
    def prefix(self) -> bytes:
        return bytes(self.decoded)

    def score_frame(self, payload: np.ndarray, layer: int):
        """Returns (token, score, margin) for one frame, or raises
        DecodeFailure when no candidate in V re-creates the payload."""
        payload = np.asarray(payload, dtype=np.float32)
        self._accepted = None
        M.catch_up(self.params, self.cfg, self.cache, layer)
        draft = cosine(M.draft_taps(self.params, self.cfg, self.cache, self.suffixes, layer),
                       payload).astype(np.float64)
        finite = np.isfinite(draft)
        runner_up = np.partition(np.where(finite, draft, -np.inf), -2)[-2]
        rows = np.flatnonzero(~finite | (draft >= runner_up - 2 * DRAFT_ETA))
        taps, (keys, values, x) = M.hypothesis_taps(self.params, self.cfg, self.cache,
                                                    self.suffixes[rows], layer)
        scores = cosine(taps, payload).astype(np.float64)
        best = int(np.argmax(scores))
        if not np.array_equal(taps[best].view(np.uint32), payload.view(np.uint32)):
            raise DecodeFailure(f"no candidate re-creates the payload: best {scores[best]:.6f}",
                                score=float(scores[best]))
        token = CANDIDATES[rows[best]]
        self._accepted = (token, x[best:best + 1], [k[best:best + 1] for k in keys],
                          [v[best:best + 1] for v in values])
        margin = scores[best] - np.delete(scores, best).max()
        return token, float(scores[best]), float(margin)

    def push(self) -> None:
        """Commit the byte of the last frame score_frame accepted into the
        shared prefix, at the depth that frame's exact call reached: its
        winning hypothesis computed the byte's keys and values below the
        tapped block and its residual entering it. No block runs. Raises
        CodecError, with the cache and prefix untouched, unless that frame
        was accepted and won by a byte, and at most once per frame."""
        if self._accepted is None or self._accepted[0] == EOS:
            raise CodecError("no accepted byte frame to commit")
        token, x, keys, values = self._accepted
        self.cache.commit(x, keys, values)
        self._accepted = None
        self.decoded.append(token)


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
    """Exact decoder fed one frame at a time. Each frame passes the order,
    length-cap and payload checks, is scored at the layer the chain draws
    for it, must be re-created bit for bit by one candidate and clear the
    theta and delta gates, and must yield a byte on a non-final frame and
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
        token, score, margin = self.scorer.score_frame(payload, layer)
        # written so that a NaN score or margin fails the gate
        if not score >= self.cp.theta:
            raise DecodeFailure(
                f"no hypothesis reached theta={self.cp.theta}: best {score:.6f}",
                score=score)
        if not margin >= self.cp.delta:
            raise AmbiguousDecode(margin)
        if token == EOS and not frame.is_final:
            raise DecodeFailure("end hypothesis won a non-final frame", score=score)
        if token != EOS and frame.is_final:
            raise DecodeFailure("byte hypothesis won the final frame", score=score)
        if frame.is_final:
            self.done = True
        else:
            self.scorer.push()
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
