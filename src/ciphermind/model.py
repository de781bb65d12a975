"""Deterministic decoder-only transformer with per-layer hidden-state taps.

Everything downstream (twin provisioning and the hidden-state codec)
depends on this module's bit-reproducibility, which rests on three pinned
implementation rules:

1. Every GEMM runs with a row count of at least ``M_MIN`` (smaller inputs
   are zero-padded). The BLAS picks different microkernels for very small
   row counts, and those kernels reduce in a different order; at >= M_MIN
   rows an output row's bits depend only on that row's content and the
   other operand. That is what lets attention stack the query rows of all
   batch items into one GEMM per head and key segment against the prefix
   keys the batch shares, instead of padding each item's rows and copying
   the prefix into every item. Column counts are fixed by the architecture
   except in attention, where they follow the sequence: the score GEMMs
   against an item's own keys zero-pad those keys to a multiple of M_MIN
   and to at least 2 * M_MIN, and V is zero-padded to a multiple of M_MIN
   columns. Measured on OpenBLAS 0.3.31: at M_MIN rows by M_MIN columns a
   score GEMM that reduces over 32 or more terms takes a kernel with other
   bits, an AV GEMM whose N is not a multiple of 16 loses row-independent
   bits, and an N of 1 turns a GEMM into a GEMV. Within these limits a
   score's bits depend neither on N nor on its column.

2. Attention reduces over keys in fixed ``KEY_SEG``-wide segments combined
   in ascending order: per item and head, one AV GEMM with K = KEY_SEG per
   segment, the key axis zero-padded to a segment multiple and masked.
   ``M_MIN`` ones-columns appended to V make the same GEMM yield the
   softmax denominators. A position's attention output therefore has
   identical bits whether it is computed inside a long teacher-forced pass,
   an incremental step against a KV cache, or a batched hypothesis
   evaluation. The softmax numerator ``exp`` runs only on live entries
   (real query rows, keys below the sequence end); masked, padded-row and
   padded-column entries enter the fixed-shape GEMMs as exact zeros, which
   is what ``exp`` of a masked score yields anyway, so only the work
   shrinks, never the shapes.

3. Every path is a short loop over one per-block function, ``_block``,
   between ``_embed`` and ``_head``: ``forward_full`` with no prefix,
   ``extend_cache`` against the cache (it writes each block's keys and
   values after the block runs; ``_attention`` reads only the first
   ``cache.length`` rows), ``forward_step`` as ``extend_cache`` of one token,
   ``hypothesis_taps`` with ``last_only`` in the tapped block, and the
   training pass in :mod:`ciphermind.trainer` with ``need_aux``. The first
   three never call one another, so a wrapper around one sees only its own
   calls. By rules 1 and 2 an item's bits never depend on the other items
   of its batch, so ``hypothesis_taps`` may split a batch into chunks of at
   least M_MIN items, run them on several threads and concatenate the
   results.

Elementwise transcendentals come from :mod:`ciphermind.detmath`; add, mul,
div and sqrt are IEEE-exact and need no pinning.

The "hidden state at layer l" is the residual stream after block l's final
residual addition (1-indexed), before the next block's first layer norm.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import detmath
from .scheduler import Stream

F32 = np.float32

M_MIN = 32
KEY_SEG = 128
MASK_FILL = -1e30

# Bytes of padded e and V that one chunk of batch items may span in the
# attention's AV GEMMs, so that they stay in cache from the copy to the GEMM.
# 512 KiB .. 2 MiB ran alike on a 2-core Xeon (2 MiB L2); without chunks the
# same hypothesis batches ran 10-35 % slower.
_AV_CHUNK_BYTES = 1 << 20

PARAM_MAGIC = b"CMWT"
PARAM_VERSION = 1


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters shared verbatim by both twins."""

    n_blocks: int = 8
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 512
    vocab_size: int = 260
    max_seq: int = 512
    ln_epsilon: float = 1e-5

    def __post_init__(self):
        # single-block configs exist for gradient probes; anything that taps
        # a middle layer (codec, scheduler) separately demands >= 2 blocks
        if self.n_blocks < 1:
            raise ModelError("need at least 1 block")
        for name in ("d_model", "n_heads", "d_ff", "vocab_size", "max_seq"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ModelError("d_model must be divisible by n_heads")
        if self.ln_epsilon <= 0:
            raise ModelError("ln_epsilon must be positive")
        # the epsilon lives in binary32 arithmetic; canonicalize so that a
        # config survives its own 28-byte wire encoding exactly
        object.__setattr__(self, "ln_epsilon", float(np.float32(self.ln_epsilon)))

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def weight_count(self) -> int:
        """Total serialized float32 weights (the tied head contributes none)."""
        per_block = 4 * self.d_model * self.d_model
        per_block += 2 * self.d_model * self.d_ff
        per_block += 4 * self.d_model  # two LN gain/bias pairs
        return self.vocab_size * self.d_model + self.n_blocks * per_block + 2 * self.d_model

    def pack(self) -> bytes:
        """Fixed 28-byte config block (ln_epsilon stored as its f32 bits)."""
        eps_bits = struct.unpack("<I", struct.pack("<f", self.ln_epsilon))[0]
        return struct.pack("<7I", self.n_blocks, self.d_model, self.n_heads,
                           self.d_ff, self.vocab_size, self.max_seq, eps_bits)

    @classmethod
    def unpack(cls, blob: bytes) -> "ModelConfig":
        vals = struct.unpack("<7I", blob)
        eps = struct.unpack("<f", struct.pack("<I", vals[6]))[0]
        return cls(*vals[:6], ln_epsilon=eps)


@dataclass
class BlockParams:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    g1: np.ndarray
    b1: np.ndarray
    g2: np.ndarray
    b2: np.ndarray

    FIELD_ORDER = ("wq", "wk", "wv", "wo", "w1", "w2", "g1", "b1", "g2", "b2")

    def fields(self):
        return tuple(getattr(self, name) for name in self.FIELD_ORDER)


@dataclass
class ParameterSet:
    """Full weights. Arrays are frozen after construction; the output head
    is tied to the embedding, so the canonical serialization covers the
    embedding, the blocks in field order, and the final norm only."""

    config: ModelConfig
    emb: np.ndarray
    blocks: list
    gf: np.ndarray
    bf: np.ndarray
    head_w: np.ndarray = field(default=None, repr=False)  # derived: emb.T contiguous

    def __post_init__(self):
        if self.head_w is None:
            self.head_w = np.ascontiguousarray(self.emb.T)
        for arr in self.iter_arrays():
            arr.flags.writeable = False
        self.head_w.flags.writeable = False

    def iter_arrays(self):
        yield self.emb
        for bp in self.blocks:
            yield from bp.fields()
        yield self.gf
        yield self.bf

    @property
    def dtype(self):
        return self.emb.dtype

    def astype(self, dtype) -> "ParameterSet":
        blocks = [BlockParams(*(a.astype(dtype) for a in bp.fields())) for bp in self.blocks]
        return ParameterSet(self.config, self.emb.astype(dtype), blocks,
                            self.gf.astype(dtype), self.bf.astype(dtype))

    def replace_weights(self, updates: dict) -> "ParameterSet":
        """New ParameterSet with some block matrices swapped (adapter merge).

        updates: {block_index: {field_name: new_array}}
        """
        blocks = []
        for i, bp in enumerate(self.blocks):
            fields_ = dict(zip(BlockParams.FIELD_ORDER, bp.fields()))
            for name, arr in updates.get(i, {}).items():
                fields_[name] = arr
            blocks.append(BlockParams(**fields_))
        return ParameterSet(self.config, self.emb, blocks, self.gf, self.bf)


def draw_uniform(stream: Stream, shape, d_model: int) -> np.ndarray:
    """float32 weights uniform in [-a, a], a = 1/sqrt(d_model): each u64 of
    the stream maps through its top 24 bits, in row-major order."""
    scale = F32(1.0) / np.sqrt(F32(d_model))
    u = (stream.next_u64s(int(np.prod(shape))) >> np.uint64(40)).astype(np.float32)
    u *= F32(2.0 ** -24)
    return ((u * F32(2.0) - F32(1.0)) * scale).reshape(shape)


def init_parameters(config: ModelConfig, seed: int) -> ParameterSet:
    """Draw all matrix weights from the SplitMix64 stream of ``seed``
    through draw_uniform; layer-norm gains start at one, biases at zero. The
    draw order equals the serialization order, so (seed, config) pins every
    bit.
    """
    stream = Stream(seed)
    d, dff, v = config.d_model, config.d_ff, config.vocab_size

    def draw(shape):
        return draw_uniform(stream, shape, d)

    emb = draw((v, d))
    blocks = []
    for _ in range(config.n_blocks):
        blocks.append(BlockParams(
            wq=draw((d, d)), wk=draw((d, d)), wv=draw((d, d)), wo=draw((d, d)),
            w1=draw((d, dff)), w2=draw((dff, d)),
            g1=np.ones(d, dtype=np.float32), b1=np.zeros(d, dtype=np.float32),
            g2=np.ones(d, dtype=np.float32), b2=np.zeros(d, dtype=np.float32),
        ))
    return ParameterSet(config, emb, blocks,
                        np.ones(d, dtype=np.float32), np.zeros(d, dtype=np.float32))


def fingerprint(params: ParameterSet) -> bytes:
    """SHA-256 over the canonical little-endian float32 serialization."""
    h = hashlib.sha256()
    for arr in params.iter_arrays():
        h.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return h.digest()


def save_parameters(path, params: ParameterSet) -> None:
    with open(path, "wb") as f:
        f.write(PARAM_MAGIC)
        f.write(bytes([PARAM_VERSION]))
        f.write(params.config.pack())
        for arr in params.iter_arrays():
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_parameters(path) -> ParameterSet:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != PARAM_MAGIC:
        raise ModelError("not a parameter file (bad magic)")
    if len(blob) < 33:
        raise ModelError("parameter file cut inside its 33-byte header")
    if blob[4] != PARAM_VERSION:
        raise ModelError(f"unsupported parameter file version {blob[4]}")
    config = ModelConfig.unpack(blob[5:33])
    payload = blob[33:]
    want = config.weight_count() * 4
    if len(payload) != want:
        raise ModelError(f"parameter payload is {len(payload)} bytes, expected {want}")
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float32)
    if not np.all(np.isfinite(flat)):
        raise ModelError("parameter file contains non-finite weights")

    pos = 0

    def take(shape):
        nonlocal pos
        n = int(np.prod(shape))
        out = flat[pos:pos + n].reshape(shape).copy()
        pos += n
        return out

    d, dff, v = config.d_model, config.d_ff, config.vocab_size
    emb = take((v, d))
    blocks = []
    for _ in range(config.n_blocks):
        blocks.append(BlockParams(
            wq=take((d, d)), wk=take((d, d)), wv=take((d, d)), wo=take((d, d)),
            w1=take((d, dff)), w2=take((dff, d)),
            g1=take((d,)), b1=take((d,)), g2=take((d,)), b2=take((d,)),
        ))
    return ParameterSet(config, emb, blocks, take((d,)), take((d,)))


_PE_CACHE: dict = {}


def positional_table(config: ModelConfig, dtype=np.float32) -> np.ndarray:
    """Fixed sinusoidal position table, built once per (d_model, max_seq)."""
    key = (config.d_model, config.max_seq, np.dtype(dtype).str)
    if key not in _PE_CACHE:
        d = config.d_model
        pos = np.arange(config.max_seq, dtype=np.float64)[:, None]
        i = np.arange(0, d, 2, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, i / d)
        table = np.zeros((config.max_seq, d), dtype=np.float64)
        table[:, 0::2] = np.sin(angle)
        table[:, 1::2] = np.cos(angle)
        out = table.astype(dtype)
        out.flags.writeable = False
        _PE_CACHE[key] = out
    return _PE_CACHE[key]


def _mm(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """2-D GEMM with the M_MIN row floor."""
    a = np.ascontiguousarray(a)
    m = a.shape[0]
    if m >= M_MIN:
        return a @ w
    buf = np.zeros((M_MIN, a.shape[1]), dtype=a.dtype)
    buf[:m] = a
    return (buf @ w)[:m]


def _round_up(n: int, step: int) -> int:
    return -(-n // step) * step


def _layer_norm(x, g, b, eps):
    mu = np.mean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xn = xc * inv
    return xn * g + b, xn, inv


class KVCache:
    """Grow-only per-block key/value store for one decode stream.

    Appending never mutates earlier positions. A cache is single-owner:
    one cache must not serve two concurrent decode streams.
    """

    def __init__(self, config: ModelConfig, dtype=np.float32):
        self.config = config
        self.length = 0
        self._k = [np.zeros((config.max_seq, config.d_model), dtype=dtype)
                   for _ in range(config.n_blocks)]
        self._v = [np.zeros((config.max_seq, config.d_model), dtype=dtype)
                   for _ in range(config.n_blocks)]

    def keys(self, block: int) -> np.ndarray:
        return self._k[block][: self.length]

    def values(self, block: int) -> np.ndarray:
        return self._v[block][: self.length]

    def write(self, block: int, k: np.ndarray, v: np.ndarray) -> None:
        new_len = self.length + k.shape[0]
        if new_len > self.config.max_seq:
            raise ModelError("KV cache overflow")
        self._k[block][self.length:new_len] = k
        self._v[block][self.length:new_len] = v

    def commit(self, n_new: int) -> None:
        self.length += n_new


def _split_heads(x, n_heads):
    # (B, S, d) -> (B, H, S, hd)
    b, s, d = x.shape
    return np.ascontiguousarray(x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3))


def _attention(q, k_pref, v_pref, k_new, v_new, base, cfg, need_aux=False):
    """Segmented causal attention (rules 1 and 2 of the module docstring).

    q: (B, S, d) queries; k_new, v_new: (B, Sk, d) each item's own keys and
    values; k_pref/v_pref: (P, d) prefix shared by the whole batch (may be
    empty). Query row i sits at absolute position base + i and attends keys
    0 .. base + i. Returns (merged, aux) with merged (B, S, d).

    With need_aux (training passes, which have no prefix), aux = (e, den,
    qf, kf, vf, s_pad, t_pad) for the backward pass: e (B*H, s_pad, t_pad)
    holds exp(score - rowmax) on live entries and exact zeros elsewhere, den
    (B*H, s_pad, 1) its row sums (1 in padded query rows), and qf/kf/vf the
    scaled, padded per-head Q, K and V. Otherwise aux is None.
    """
    dtype = q.dtype
    B, S, d = q.shape
    Sk = k_new.shape[1]
    H, hd = cfg.n_heads, cfg.head_dim
    P = k_pref.shape[0]
    T = P + Sk
    if need_aux and P:
        raise ModelError("a training pass takes no cache prefix")
    BH = B * H
    s_pad = max(S, M_MIN)
    t_pad = _round_up(T, KEY_SEG)
    qh = _split_heads(q * (dtype.type(1.0) / np.sqrt(dtype.type(hd))), H)
    live = np.empty((B, H, S, T), dtype=dtype)

    # Prefix keys are shared: one GEMM per head and key segment over all B*S
    # query rows, N = KEY_SEG with the segment zero-padded.
    if P:
        kp = np.zeros((H, _round_up(P, KEY_SEG), hd), dtype=dtype)
        kp[:, :P] = k_pref.reshape(P, H, hd).transpose(1, 0, 2)
        for h in range(H):
            q_rows = qh[:, h].reshape(B * S, hd)
            for lo in range(0, P, KEY_SEG):
                n = min(P - lo, KEY_SEG)
                part = _mm(q_rows, kp[h, lo:lo + KEY_SEG].T)
                live[:, h, :, lo:lo + n] = part[:, :n].reshape(B, S, n)

    # Own keys differ per item: per-item GEMMs with query rows padded to
    # M_MIN and the keys zero-padded as rule 1 says.
    qf = np.zeros((B, H, s_pad, hd), dtype=dtype)
    qf[:, :, :S] = qh
    qf = qf.reshape(BH, s_pad, hd)
    kf = np.zeros((B, H, max(_round_up(Sk, M_MIN), 2 * M_MIN), hd), dtype=dtype)
    kf[:, :, :Sk] = _split_heads(k_new, H)
    kf = kf.reshape(BH, -1, hd)
    own = np.matmul(qf, kf.transpose(0, 2, 1)).reshape(B, H, s_pad, -1)
    live[..., P:] = own[:, :, :S, :Sk]

    # Mask, row max and exp over the live region only: real query rows and
    # keys below T. Padded rows and keys from T on enter the AV GEMMs as
    # exact zeros.
    live = live.reshape(BH, S, T)
    blocked = np.arange(T)[None, :] > (base + np.arange(S))[:, None]
    live[:, blocked] = dtype.type(MASK_FILL)
    ex = detmath.exp(live - np.max(live, axis=-1, keepdims=True)).reshape(B, H, S, T)

    # AV: per-item GEMMs over each KEY_SEG segment, added in ascending order.
    # V is zero-padded to a multiple of M_MIN columns and then gains M_MIN
    # ones-columns, so the same GEMMs yield the softmax denominators in
    # column den_col. Items run in chunks whose padded e and V stay in
    # cache; the prefix rows of V are written once into the chunk buffer.
    den_col = _round_up(hd, M_MIN)
    item_bytes = dtype.itemsize * H * t_pad * (s_pad + den_col + M_MIN)
    g = min(B, max(1, _AV_CHUNK_BYTES // item_bytes))
    e_c = np.zeros((g, H, s_pad, t_pad), dtype=dtype)
    v_c = np.zeros((g, H, t_pad, den_col + M_MIN), dtype=dtype)
    v_c[:, :, :P, :hd] = v_pref.reshape(P, H, hd).transpose(1, 0, 2)
    v_c[..., den_col:] = dtype.type(1.0)
    acc = np.empty((g, H, s_pad, den_col + M_MIN), dtype=dtype)
    vh = _split_heads(v_new, H)
    den = np.ones((B, H, s_pad, 1), dtype=dtype)  # padded rows: 0 / 1, never 0 / 0
    attn = np.empty((B, H, S, hd), dtype=dtype)
    for b0 in range(0, B, g):
        n = min(g, B - b0)
        items = slice(b0, b0 + n)
        e_c[:n, :, :S, :T] = ex[items]
        v_c[:n, :, P:T, :hd] = vh[items]
        acc[:n] = dtype.type(0.0)
        for lo in range(0, t_pad, KEY_SEG):
            acc[:n] += np.matmul(e_c[:n, :, :, lo:lo + KEY_SEG], v_c[:n, :, lo:lo + KEY_SEG])
        den[items, :, :S] = acc[:n, :, :S, den_col:den_col + 1]
        attn[items] = acc[:n, :, :S, :hd] / den[items, :, :S]

    merged = np.ascontiguousarray(attn.transpose(0, 2, 1, 3)).reshape(B, S, d)
    aux = None
    if need_aux:
        e = np.zeros((BH, s_pad, t_pad), dtype=dtype)
        e[:, :S, :T] = ex.reshape(BH, S, T)
        k_aux = np.zeros((BH, t_pad, hd), dtype=dtype)
        k_aux[:, :Sk] = kf[:, :Sk]
        v_aux = np.zeros((BH, t_pad, hd), dtype=dtype)
        v_aux[:, :Sk] = vh.reshape(BH, Sk, hd)
        aux = (e, den.reshape(BH, s_pad, 1), qf, k_aux, v_aux, s_pad, t_pad)
    return merged, aux


def _embed(params: ParameterSet, cfg: ModelConfig, tokens: np.ndarray,
           base: int) -> np.ndarray:
    """Residual stream (B, S, d) entering block 1 for token ids (B, S) at
    positions base .. base + S - 1."""
    dtype = params.dtype
    S = tokens.shape[1]
    if base + S > cfg.max_seq:
        raise ModelError(f"sequence length {base + S} exceeds max_seq {cfg.max_seq}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise ModelError("token id out of range")
    pe = positional_table(cfg, dtype)
    emb_scale = np.sqrt(dtype.type(cfg.d_model))
    return np.ascontiguousarray(params.emb[tokens] * emb_scale + pe[base:base + S][None])


def _block(bp: BlockParams, cfg: ModelConfig, x, k_pref, v_pref, base, *,
           last_only=False, need_aux=False):
    """One block on the residual stream x (B, S, d) at positions base .. :
    layer norm, Q/K/V, _attention against the shared prefix k_pref/v_pref
    (P, d) and the items' own keys, O, layer norm, MLP.

    Returns (x, k_new, v_new, saved). k_new/v_new (B, S, d) are the
    positions' keys and values, for the caller's cache. With last_only only
    the last position's query runs and x comes back (B, 1, d): the tapped
    block of hypothesis_taps. With need_aux (training) saved holds what
    trainer.loss_and_grads needs for the backward pass; otherwise None.
    """
    B, S, d = x.shape
    a, xn1, inv1 = _layer_norm(x, bp.g1, bp.b1, cfg.ln_epsilon)
    a2 = a.reshape(B * S, d)
    k_new = _mm(a2, bp.wk).reshape(B, S, d)
    v_new = _mm(a2, bp.wv).reshape(B, S, d)
    if last_only:
        q = _mm(a[:, -1, :], bp.wq).reshape(B, 1, d)
        x = x[:, -1:, :]
        base += S - 1
    else:
        q = _mm(a2, bp.wq).reshape(B, S, d)
    n = B * q.shape[1]
    attn, aux = _attention(q, k_pref, v_pref, k_new, v_new, base, cfg, need_aux)
    x = x + _mm(attn.reshape(n, d), bp.wo).reshape(x.shape)
    f, xn2, inv2 = _layer_norm(x, bp.g2, bp.b2, cfg.ln_epsilon)
    u = _mm(f.reshape(n, d), bp.w1)
    g = detmath.gelu(u)
    x = x + _mm(g, bp.w2).reshape(x.shape)
    saved = None
    if need_aux:
        saved = {"xn1": xn1, "inv1": inv1, "a": a, "att": aux, "attn_merged": attn,
                 "xn2": xn2, "inv2": inv2, "u": u, "g": g}
    return x, k_new, v_new, saved


def _head(params: ParameterSet, cfg: ModelConfig, x):
    """Final layer norm and the tied output head. Returns (logits (B, S, V),
    the layer norm's (out, normalized, inverse std))."""
    ln = _layer_norm(x, params.gf, params.bf, cfg.ln_epsilon)
    logits = _mm(ln[0].reshape(-1, cfg.d_model), params.head_w)
    return logits.reshape(x.shape[0], x.shape[1], cfg.vocab_size), ln


def _sequence(tokens) -> np.ndarray:
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ModelError("tokens must be a non-empty 1-D sequence")
    return tokens


def forward_full(params: ParameterSet, config: ModelConfig, tokens):
    """Teacher-forced pass over one sequence.

    Returns (hidden, logits): hidden[l-1][p] is the residual-stream output
    of block l at position p; logits[p] spans the vocabulary.
    """
    x = _embed(params, config, _sequence(tokens)[None], 0)
    empty = np.zeros((0, config.d_model), dtype=params.dtype)
    hidden = []
    for bp in params.blocks:
        x, _, _, _ = _block(bp, config, x, empty, empty, 0)
        hidden.append(x[0])
    logits, _ = _head(params, config, x)
    return np.stack(hidden), logits[0]


def extend_cache(params: ParameterSet, config: ModelConfig, cache: KVCache,
                 tokens):
    """Teacher-forced multi-token cache extension: appends the tokens' keys
    and values and returns (hidden (L, S, d), logits (S, V)) for them,
    bitwise equal to the matching forward_full columns."""
    tokens = _sequence(tokens)
    base = cache.length
    x = _embed(params, config, tokens[None], base)
    hidden = []
    for bi, bp in enumerate(params.blocks):
        x, k_new, v_new, _ = _block(bp, config, x, cache.keys(bi), cache.values(bi), base)
        cache.write(bi, k_new[0], v_new[0])
        hidden.append(x[0])
    cache.commit(tokens.size)
    logits, _ = _head(params, config, x)
    return np.stack(hidden), logits[0]


def forward_step(params: ParameterSet, config: ModelConfig, cache: KVCache,
                 token: int):
    """extend_cache of one token. Returns (per-layer hidden (L, d),
    logits (V,))."""
    hidden, logits = extend_cache(params, config, cache, [token])
    return hidden[:, 0], logits[0]


def hypothesis_taps(params: ParameterSet, config: ModelConfig, cache: KVCache,
                    suffixes, layer: int) -> np.ndarray:
    """Residual-stream tap of block `layer` at the last position of
    prefix+suffix for a batch of equal-length suffixes. The cache is read
    but never modified. Returns (B, d_model).

    The batch is split into contiguous chunks, one per available CPU and
    each of at least M_MIN suffixes; the calling thread runs the first and
    one worker thread each of the others (rule 3 of the module docstring).
    The workers live for one call: starting them costs ~0.1 ms, against
    tens of ms per tapped block for a 256-suffix batch.
    """
    suffixes = np.asarray(suffixes, dtype=np.int64)
    if suffixes.ndim != 2 or suffixes.shape[1] == 0:
        raise ModelError("suffixes must be (B, S) with S >= 1")
    if not 1 <= layer <= config.n_blocks:
        raise ModelError("tap layer out of range")

    def taps(chunk):
        x = _embed(params, config, chunk, cache.length)
        for bi in range(layer):
            x, _, _, _ = _block(params.blocks[bi], config, x, cache.keys(bi),
                                cache.values(bi), cache.length,
                                last_only=bi == layer - 1)
        return x[:, 0, :]

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_chunks = min(cpus or 1, suffixes.shape[0] // M_MIN)
    if n_chunks < 2:
        return taps(suffixes)
    first, *rest = np.array_split(suffixes, n_chunks)
    with concurrent.futures.ThreadPoolExecutor(
            len(rest), thread_name_prefix="ciphermind-taps") as pool:
        futures = [pool.submit(taps, chunk) for chunk in rest]
        try:
            head = taps(first)
        finally:
            tails = [f.result() for f in futures]
    return np.concatenate([head] + tails)

