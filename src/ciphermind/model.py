"""Deterministic decoder-only transformer with per-layer hidden-state taps.

Everything downstream (twin provisioning and the hidden-state codec)
depends on this module's bit-reproducibility, which rests on three pinned
implementation rules:

1. Every GEMM runs with a row count of at least ``M_MIN`` (smaller inputs
   are zero-padded). The BLAS picks different microkernels for very small
   row counts, and those kernels reduce in a different order; at >= M_MIN
   rows an output row's bits depend only on that row's content and the
   other operand. Column counts are fixed by the architecture except in
   attention, where they follow the sequence: a score GEMM zero-pads its
   keys to a multiple of M_MIN and to at least 2 * M_MIN columns, and V is
   zero-padded to a multiple of M_MIN columns. Measured on OpenBLAS 0.3.31:
   at M_MIN rows by M_MIN columns a score GEMM that reduces over 32 or more
   terms takes a kernel with other bits, an AV GEMM whose N is not a
   multiple of 16 loses row-independent bits, and an N of 1 turns a GEMM
   into a GEMV. Within these limits a score's bits depend neither on N nor
   on its column, so every score comes from one GEMM form, ``_scores``: per
   head, a stack of c = max(1, 2 * M_MIN // max(S, Sk)) items of S query
   rows and Sk own keys, capped at the batch size, against a key buffer
   that holds the P prefix keys the batch shares, then the c items' own
   keys. Each item keeps its rows' first P columns and its own diagonal
   block, so the prefix is never copied into every item. c = 1 is one GEMM
   per item: a cache extension (one item) and a training pass over more
   than M_MIN positions (no prefix) run that.
   One exception to the row floor: the per-item AV GEMMs (K = KEY_SEG,
   N = den_col + M_MIN) run at max(S, 2) rows, since at that shape every
   row count from 2 to M_MIN gives the M_MIN-row bits. One row does not
   (a 1-row GEMM is a GEMV), nor do other projections at few rows (w2
   below 16 rows, the head below 31), so ``_mm`` keeps the floor.

2. Attention's AV reduction runs over keys in fixed ``KEY_SEG``-wide
   segments combined in ascending order: per item and head, one AV GEMM
   with K = KEY_SEG per segment, the key axis zero-padded to a segment
   multiple and masked. The scores need no segments, since a score reduces
   over the head dim, not over keys. ``M_MIN`` ones-columns appended to V
   make the same GEMM yield the softmax denominators. A position's
   attention output therefore has identical bits whether it is computed
   inside a long teacher-forced pass, an incremental step against a KV
   cache, or a batched hypothesis evaluation. The softmax numerator ``exp``
   runs only on live entries (real query rows, keys below the sequence
   end); masked, padded-row and padded-column entries enter the fixed-shape
   GEMMs as exact zeros, which is what ``exp`` of a masked score yields
   anyway, so only the work shrinks, never the shapes.

3. Every path is a short loop over one per-block function, ``_block``,
   between ``_embed`` and ``_head``: ``forward_full`` with no prefix,
   ``extend_cache`` against the cache (it writes each block's keys and
   values after the block runs; ``_attention`` reads only the first
   ``cache.length`` rows; a one-token extension is a decoding step),
   ``hypothesis_taps`` with ``last_only`` in the tapped block, and the
   training pass in :mod:`ciphermind.trainer` with ``need_aux``. Of the
   attention, the training pass saves the unpadded arrays ``_attention``
   computes on every call; the backward pass pads them to the shapes of its
   own GEMMs, which only :mod:`ciphermind.trainer` knows. Of the MLP, it
   saves the GELU input u and the tanh ``detmath.gelu`` computed for it, t,
   not the GELU output g: the backward pass takes t for the GELU derivative
   and rebuilds g from u and t with gelu's own operations when it needs g.
   The first three never call one another, so a wrapper around one sees
   only its own calls. Each runs on the calling thread alone: with the
   padding gone from a hypothesis batch, splitting it over worker threads
   ran no faster on 2 CPUs.

Elementwise transcendentals come from :mod:`ciphermind.detmath`; add, mul,
div and sqrt are IEEE-exact and need no pinning.

The "hidden state at layer l" is the residual stream after block l's final
residual addition (1-indexed), before the next block's first layer norm.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

from . import detmath
from .scheduler import Stream

F32 = np.float32

M_MIN = 32
KEY_SEG = 128
MASK_FILL = -1e30

# Bytes of padded arrays that one chunk of batch items may span in each of
# attention's two GEMM loops, so that they stay in cache from the copy to the
# GEMM: Q rows, keys and their product in the score GEMMs (_scores), e and V
# in the AV GEMMs.
# 512 KiB .. 2 MiB ran alike on a 2-core Xeon (2 MiB L2); without chunks the
# same hypothesis batches ran 10-35 % slower.
_CHUNK_BYTES = 1 << 20

PARAM_MAGIC = b"CMWT"
PARAM_VERSION = 1


class ModelError(Exception):
    pass


U32_MAX = 2**32 - 1


def check_int_fields(obj, bounds: dict, error: type) -> None:
    """Raise error unless every field of obj that bounds names is an integer
    in its inclusive (lo, hi) range, the range its slot in a fixed-width
    config block holds."""
    for name, (lo, hi) in bounds.items():
        value = getattr(obj, name)
        if not (isinstance(value, numbers.Integral) and lo <= value <= hi):
            raise error(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


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
        # each field fills a u32 of the packed block; single-block configs
        # exist for gradient probes, and anything that taps a middle layer
        # (codec, scheduler) separately demands >= 2 blocks
        check_int_fields(self, dict.fromkeys(
            ("n_blocks", "d_model", "n_heads", "d_ff", "vocab_size", "max_seq"),
            (1, U32_MAX)), ModelError)
        if self.d_model % self.n_heads != 0:
            raise ModelError("d_model must be divisible by n_heads")
        # canonicalize to binary32, the precision the epsilon is used in, so a config
        # survives its 28-byte encoding; a float64 may overflow or flush to zero there
        with np.errstate(over="ignore"):
            eps = float(np.float32(self.ln_epsilon))
        if not (math.isfinite(eps) and eps > 0):
            raise ModelError(f"ln_epsilon must be finite and positive, got {self.ln_epsilon}")
        object.__setattr__(self, "ln_epsilon", eps)

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def weight_count(self) -> int:
        """Total serialized float32 weights (the tied head contributes none)."""
        return layout_size(weight_layout(self))

    def pack(self) -> bytes:
        """Fixed 28-byte config block: the fields in order, ln_epsilon as
        binary32."""
        return struct.pack("<6If", self.n_blocks, self.d_model, self.n_heads,
                           self.d_ff, self.vocab_size, self.max_seq, self.ln_epsilon)

    @classmethod
    def unpack(cls, blob: bytes) -> "ModelConfig":
        return cls(*struct.unpack("<6If", blob))


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


def layout_size(layout) -> int:
    """Float count of a weight layout, a list of (repeat, group) pairs whose
    group is a tuple of (name, shape), in closed form."""
    return sum(n * sum(math.prod(shape) for _, shape in group) for n, group in layout)


def layout_entries(layout):
    """(name, shape) of every array of a layout, in order: the file, digest
    and draw order."""
    return itertools.chain.from_iterable(
        itertools.chain.from_iterable(itertools.repeat(group, n)) for n, group in layout)


def weight_layout(config: ModelConfig) -> list:
    """The one parameter layout: the embedding, each block's arrays in
    BlockParams.FIELD_ORDER, then the final norm."""
    d, dff = config.d_model, config.d_ff
    block = zip(BlockParams.FIELD_ORDER, [(d, d)] * 4 + [(d, dff), (dff, d)] + [(d,)] * 4)
    return [(1, (("emb", (config.vocab_size, d)),)), (config.n_blocks, tuple(block)),
            (1, (("gf", (d,)), ("bf", (d,))))]


@dataclass
class ParameterSet:
    """Full weights, or their gradients. Arrays are frozen after construction;
    the output head is tied to the embedding, so the canonical serialization
    covers only the arrays of ``weight_layout``, which ``iter_arrays``
    yields in layout order: the file, digest and draw order."""

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

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays) -> "ParameterSet":
        """The inverse of iter_arrays: takes the arrays in layout order."""
        emb, *body, gf, bf = arrays
        n = len(BlockParams.FIELD_ORDER)
        blocks = [BlockParams(*body[i:i + n]) for i in range(0, len(body), n)]
        return cls(config, emb, blocks, gf, bf)

    def iter_arrays(self):
        yield self.emb
        for bp in self.blocks:
            yield from (getattr(bp, name) for name in BlockParams.FIELD_ORDER)
        yield self.gf
        yield self.bf

    @property
    def dtype(self):
        return self.emb.dtype

    def astype(self, dtype) -> "ParameterSet":
        return ParameterSet.from_arrays(self.config,
                                        (a.astype(dtype) for a in self.iter_arrays()))


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
    draw order is the layout order, so (seed, config) pins every bit.
    """
    stream = Stream(seed)

    def init(name, shape):
        if len(shape) == 2:
            return draw_uniform(stream, shape, config.d_model)
        return (np.ones if name[0] == "g" else np.zeros)(shape, dtype=np.float32)

    return ParameterSet.from_arrays(config, (init(name, shape) for name, shape
                                             in layout_entries(weight_layout(config))))


def digest(arrays) -> bytes:
    """SHA-256 over the arrays as little-endian float32, in the order given:
    the bytes a weight file holds after its header."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return h.digest()


def fingerprint(params: ParameterSet) -> bytes:
    """SHA-256 over the canonical little-endian float32 serialization."""
    return digest(params.iter_arrays())


def write_weight_file(path, magic: bytes, version: int, header: bytes, arrays) -> None:
    """The one weight-file format: 4-byte magic, version byte, fixed header,
    then the arrays, in layout order, as little-endian float32."""
    with open(path, "wb") as f:
        f.write(magic + bytes([version]) + header)
        for arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_weight_file(path, magic: bytes, version: int, header_len: int, parse_header, error):
    """(parsed header, arrays) of a write_weight_file file, where
    ``parse_header(header bytes)`` returns (parsed header, layout). A bad
    magic, a cut header, another version, a payload of another size (checked
    before any per-array work) or a non-finite weight raises ``error``."""
    with open(path, "rb") as f:
        blob = f.read()
    kind, start = magic.decode(), 5 + header_len
    if blob[:4] != magic:
        raise error(f"not a {kind} file (bad magic)")
    if len(blob) < start:
        raise error(f"{kind} file cut inside its {start}-byte header")
    if blob[4] != version:
        raise error(f"unsupported {kind} file version {blob[4]}")
    header, layout = parse_header(blob[5:start])
    want = 4 * layout_size(layout)
    if len(blob) - start != want:
        raise error(f"{kind} payload is {len(blob) - start} bytes, expected {want}")
    flat = np.frombuffer(blob, dtype="<f4", offset=start).astype(np.float32)
    if not np.all(np.isfinite(flat)):
        raise error(f"{kind} file contains non-finite weights")
    shapes = [shape for _, shape in layout_entries(layout)]
    parts = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
    return header, [part.reshape(shape).copy() for part, shape in zip(parts, shapes)]


def save_parameters(path, params: ParameterSet) -> None:
    write_weight_file(path, PARAM_MAGIC, PARAM_VERSION, params.config.pack(),
                      params.iter_arrays())


def load_parameters(path) -> ParameterSet:
    def parse(header):
        config = ModelConfig.unpack(header)
        return config, weight_layout(config)

    config, arrays = read_weight_file(path, PARAM_MAGIC, PARAM_VERSION, 28, parse, ModelError)
    return ParameterSet.from_arrays(config, arrays)


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
    """2-D GEMM with the M_MIN row floor: the projections and the head."""
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

    Appending never mutates earlier positions, so ``prefix(n)`` can share
    the arrays. A cache is single-owner: one cache must not serve two
    concurrent decode streams.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.length = 0
        self.read_only = False
        self._k = [np.zeros((config.max_seq, config.d_model), dtype=F32)
                   for _ in range(config.n_blocks)]
        self._v = [np.zeros((config.max_seq, config.d_model), dtype=F32)
                   for _ in range(config.n_blocks)]

    def prefix(self, n: int) -> "KVCache":
        """Read-only view of the first n positions: the cache as it stood
        at length n, without a copy."""
        if not 0 <= n <= self.length:
            raise ModelError(f"prefix length {n} outside 0..{self.length}")
        view = copy.copy(self)
        view.length, view.read_only = n, True
        return view

    def keys(self, block: int) -> np.ndarray:
        return self._k[block][: self.length]

    def values(self, block: int) -> np.ndarray:
        return self._v[block][: self.length]

    def write(self, block: int, k: np.ndarray, v: np.ndarray) -> None:
        if self.read_only:
            raise ModelError("a KV cache prefix view is read-only")
        new_len = self.length + k.shape[0]
        if new_len > self.config.max_seq:
            raise ModelError("KV cache overflow")
        self._k[block][self.length:new_len] = k
        self._v[block][self.length:new_len] = v

    def commit(self, n_new: int) -> None:
        if self.read_only:
            raise ModelError("a KV cache prefix view is read-only")
        self.length += n_new


def _split_heads(x, n_heads):
    # (B, S, d) -> (B, H, S, hd)
    b, s, d = x.shape
    return np.ascontiguousarray(x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3))


def _scores(qh, kp, kh, out) -> None:
    """Every attention score (rule 1): each item's query rows qh (B, H, S, hd)
    against the prefix keys kp (H, P, hd) the batch shares and against its
    own keys kh (B, H, Sk, hd), written into out (B, H, S, P + Sk). One GEMM
    per head and stack of c items; a stack's key buffer holds the prefix
    keys, then the c items' own keys. Each item keeps its rows' first P
    columns and its own diagonal block. Stacks run in chunks whose padded
    operands and product span at most _CHUNK_BYTES, in buffers filled in
    place: arrays of a few MiB, or one fresh product per chunk, would be
    fresh mmap pages, faulted in on every call, whenever glibc's dynamic
    mmap threshold sits below their size.
    """
    B, H, S, hd = qh.shape
    P, Sk = kp.shape[1], kh.shape[2]
    dtype = qh.dtype
    c = min(B, max(1, 2 * M_MIN // max(S, Sk)))
    n_stacks = -(-B // c)
    if n_stacks * c > B:  # the last stack is filled up with zero items
        qh, kh = (np.concatenate([x, np.zeros((n_stacks * c - B, *x.shape[1:]), dtype)])
                  for x in (qh, kh))
    rows, cols = max(c * S, M_MIN), max(_round_up(P + c * Sk, M_MIN), 2 * M_MIN)
    stack_bytes = dtype.itemsize * H * ((rows + cols) * hd + rows * cols)
    g = min(n_stacks, max(1, _CHUNK_BYTES // stack_bytes))
    q_c = np.zeros((g, H, rows, hd), dtype=dtype)
    k_c = np.zeros((g, H, cols, hd), dtype=dtype)
    sc_c = np.empty((g, H, rows, cols), dtype=dtype)
    k_c[:, :, :P] = kp
    # (stack, item, head, row, hd) views of the buffers' live rows
    q_items = q_c[:, :, :c * S].reshape(g, H, c, S, hd).transpose(0, 2, 1, 3, 4)
    k_items = k_c[:, :, P:P + c * Sk].reshape(g, H, c, Sk, hd).transpose(0, 2, 1, 3, 4)
    for s0 in range(0, n_stacks, g):
        n = min(g, n_stacks - s0)
        b0, b1 = s0 * c, min(B, (s0 + n) * c)
        q_items[:n] = qh[b0:b0 + n * c].reshape(n, c, H, S, hd)
        k_items[:n] = kh[b0:b0 + n * c].reshape(n, c, H, Sk, hd)
        sc = np.matmul(q_c[:n], k_c[:n].transpose(0, 1, 3, 2), out=sc_c[:n])[:, :, :c * S]
        sc = sc.reshape(n, H, c, S, cols).transpose(0, 2, 1, 3, 4)  # (stack, item, ...)
        out[b0:b1, :, :, :P] = sc[..., :P].reshape(n * c, H, S, P)[:b1 - b0]
        own = sc[..., P:P + c * Sk].reshape(n, c, H, S, c, Sk)
        diag = np.diagonal(own, axis1=1, axis2=4).transpose(0, 4, 1, 2, 3)
        out[b0:b1, :, :, P:] = diag.reshape(n * c, H, S, Sk)[:b1 - b0]


def _attention(q, k_pref, v_pref, k_new, v_new, base, cfg):
    """Causal attention (rules 1 and 2 of the module docstring): every score
    from one _scores call, the AV reduction in KEY_SEG segments.

    q: (B, S, d) queries; k_new, v_new: (B, Sk, d) each item's own keys and
    values; k_pref/v_pref: (P, d) prefix shared by the whole batch (may be
    empty). Query row i sits at absolute position base + i and attends keys
    0 .. base + i. Returns (merged, (ex, den, qh, kh, vh)) with merged
    (B, S, d) and the arrays it was computed from, unpadded: ex (B, H, S, T)
    holds exp(score - rowmax), exactly zero on masked keys, den (B, H, S, 1)
    its row sums, and qh, kh, vh the per-head Q (scaled by 1/sqrt(hd)), K
    and V of the batch's own positions, (B, H, S or Sk, hd).
    """
    dtype = q.dtype
    B, S, d = q.shape
    Sk = k_new.shape[1]
    H, hd = cfg.n_heads, cfg.head_dim
    P = k_pref.shape[0]
    T = P + Sk
    t_pad = _round_up(T, KEY_SEG)
    qh = _split_heads(q * (dtype.type(1.0) / np.sqrt(dtype.type(hd))), H)
    kh = _split_heads(k_new, H)
    live = np.empty((B, H, S, T), dtype=dtype)
    _scores(qh, k_pref.reshape(P, H, hd).transpose(1, 0, 2), kh, live)

    # Mask, row max and exp over the live region only: real query rows and
    # keys below T. Padded rows and keys from T on enter the AV GEMMs as
    # exact zeros.
    live = live.reshape(B * H, S, T)
    blocked = np.arange(T)[None, :] > (base + np.arange(S))[:, None]
    live[:, blocked] = dtype.type(MASK_FILL)
    ex = detmath.exp(live - np.max(live, axis=-1, keepdims=True)).reshape(B, H, S, T)

    # AV: per-item GEMMs over each KEY_SEG segment, added in ascending order,
    # at max(S, 2) rows (rule 1). V is zero-padded to a multiple of M_MIN
    # columns and then gains M_MIN ones-columns, so the same GEMMs yield the
    # softmax denominators in column den_col. Items run in chunks whose
    # padded e and V stay in cache; the prefix rows of V are written once
    # into the chunk buffer.
    den_col = _round_up(hd, M_MIN)
    av_rows = max(S, 2)
    item_bytes = dtype.itemsize * H * t_pad * (av_rows + den_col + M_MIN)
    g = min(B, max(1, _CHUNK_BYTES // item_bytes))
    e_c = np.zeros((g, H, av_rows, t_pad), dtype=dtype)
    v_c = np.zeros((g, H, t_pad, den_col + M_MIN), dtype=dtype)
    v_c[:, :, :P, :hd] = v_pref.reshape(P, H, hd).transpose(1, 0, 2)
    v_c[..., den_col:] = dtype.type(1.0)
    acc = np.empty((g, H, av_rows, den_col + M_MIN), dtype=dtype)
    vh = _split_heads(v_new, H)
    den = np.empty((B, H, S, 1), dtype=dtype)
    attn = np.empty((B, H, S, hd), dtype=dtype)
    for b0 in range(0, B, g):
        n = min(g, B - b0)
        items = slice(b0, b0 + n)
        e_c[:n, :, :S, :T] = ex[items]
        v_c[:n, :, P:T, :hd] = vh[items]
        acc[:n] = dtype.type(0.0)
        for lo in range(0, t_pad, KEY_SEG):
            acc[:n] += np.matmul(e_c[:n, :, :, lo:lo + KEY_SEG], v_c[:n, :, lo:lo + KEY_SEG])
        den[items] = acc[:n, :, :S, den_col:den_col + 1]
        attn[items] = acc[:n, :, :S, :hd] / den[items]

    merged = np.ascontiguousarray(attn.transpose(0, 2, 1, 3)).reshape(B, S, d)
    return merged, (ex, den, qh, kh, vh)


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
    trainer.loss_and_grads needs for the backward pass: the layer norms'
    intermediates, _attention's unpadded arrays ("att") and output, and the
    GELU input u with its tanh t; otherwise None.
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
    attn, att = _attention(q, k_pref, v_pref, k_new, v_new, base, cfg)
    if not need_aux:
        att = None  # freed now, not held through the MLP
    x = x + _mm(attn.reshape(n, d), bp.wo).reshape(x.shape)
    f, xn2, inv2 = _layer_norm(x, bp.g2, bp.b2, cfg.ln_epsilon)
    u = _mm(f.reshape(n, d), bp.w1)
    if need_aux:
        g, t = detmath.gelu(u, return_tanh=True)
    else:
        g = detmath.gelu(u)
    x = x + _mm(g, bp.w2).reshape(x.shape)
    saved = None
    if need_aux:
        saved = {"xn1": xn1, "inv1": inv1, "a": a, "att": att, "attn_merged": attn,
                 "xn2": xn2, "inv2": inv2, "u": u, "t": t}
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


def hypothesis_taps(params: ParameterSet, config: ModelConfig, cache: KVCache,
                    suffixes, layer: int) -> np.ndarray:
    """Residual-stream tap of block `layer` at the last position of
    prefix+suffix for a batch of equal-length suffixes, on the calling
    thread. The cache is read but never modified. Returns (B, d_model).
    """
    suffixes = np.asarray(suffixes, dtype=np.int64)
    if suffixes.ndim != 2 or suffixes.shape[1] == 0:
        raise ModelError("suffixes must be (B, S) with S >= 1")
    if not 1 <= layer <= config.n_blocks:
        raise ModelError("tap layer out of range")
    x = _embed(params, config, suffixes, cache.length)
    for bi in range(layer):
        x, _, _, _ = _block(params.blocks[bi], config, x, cache.keys(bi), cache.values(bi),
                            cache.length, last_only=bi == layer - 1)
    return x[:, 0, :]
