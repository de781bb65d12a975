"""Deterministic decoder-only transformer with per-layer hidden-state taps.

Everything downstream (twin provisioning and the hidden-state codec)
depends on this module's bit-reproducibility, which rests on three pinned
implementation rules:

1. Every projection GEMM (Q, K, V, O, w1, w2 and the tied head: ``_mm``)
   runs its rows in zero-padded tiles of exactly ``M_MIN`` rows, one GEMM a
   tile, so a row meets the same kernel, and has the same bits, whatever its
   batch. The BLAS picks its kernel by the whole shape: OpenBLAS 0.3.31
   switches where M * N * K passes 10^6, so a whole w2 GEMM at K 512, N 32
   gives a row other bits from 62 rows on, and a whole head GEMM at d 32
   (K 32, N 260) from 121 rows on. Column counts are fixed by the
   architecture except in attention, where they follow the sequence.
   Attention has one geometry: an item of S query rows against T keys runs
   its score GEMM, its numerators and its AV GEMMs (K = KEY_SEG,
   N = den_col + M_MIN, rule 2) in one buffer of max(S, M_MIN) rows by
   t_pad = T rounded up to KEY_SEG columns, and V is zero-padded to a
   multiple of M_MIN columns. Measured on OpenBLAS 0.3.31: at M_MIN rows by
   M_MIN columns a score GEMM that reduces over 32 or more terms takes a
   kernel with other bits, which t_pad >= KEY_SEG = 4 * M_MIN keeps clear
   of; an AV GEMM whose N is not a multiple of 16 loses row-independent
   bits, and an N of 1 turns a GEMM into a GEMV. Within these limits a
   score's bits depend neither on N nor on its column, and the engine
   relies on it: past 128 positions one path scores a query row at t_pad
   128 and another at 256.

2. Attention runs both of its GEMMs once per item and head. An item of S
   query rows and Sk own keys runs against one key axis that holds the P
   prefix keys (or values) the batch shares, then its own; the prefix keys
   are written into the score GEMMs' buffer once a chunk of items, and the
   prefix values into the AV GEMMs' once a call, not once an item. The AV
   reduction runs over keys in fixed ``KEY_SEG``-wide segments combined in
   ascending order, one GEMM with K = KEY_SEG per segment, the key axis
   zero-padded to a segment multiple and masked; the scores need none,
   since a score reduces over the head dim. A key thus meets a query row in
   the same segment and column, and its product is added in the same order,
   however the keys split between prefix and own. ``M_MIN`` ones-columns
   appended to V make the same GEMM yield the softmax denominators. A
   position's attention output therefore has identical bits whether it is
   computed inside a long teacher-forced pass, an incremental step against
   a KV cache, or a batched hypothesis evaluation. The softmax numerator
   ``exp`` runs only on live entries (real query rows, keys below the
   sequence end); masked, padded-row and padded-column entries enter the
   fixed-shape GEMMs as exact zeros, which is what ``exp`` of a masked
   score yields anyway, so only the work shrinks, never the shapes. One
   routine, ``_numerators``, runs the score GEMMs and forms the numerators
   on every exact path, in the buffer that the AV GEMMs then read. A causal
   square (as many query rows as keys: a training pass, ``forward_full``, a
   catch-up from an empty cache) takes the row max and runs ``exp`` on its
   causal triangle (key <= query) alone and writes the result into the
   zeroed buffer. Every other call, hypothesis batches among them, sets its
   masked scores to -inf, as the draft does, and runs ``exp`` on the whole
   live rectangle. A max is exact, the fill never wins it (every query row
   has a live key) and ``exp`` of it is +0.0, so both give the same bits.
   An item's query rows are the last S of its P + Sk positions, so the
   shapes alone place the causal mask.

3. Every exact path is a short loop over one per-block function, ``_block``,
   between ``_embed`` and ``_head``: ``_forward``, the teacher-forced pass
   with no prefix that ``forward_full`` and, with ``need_aux``, the
   training pass in :mod:`ciphermind.trainer` run; ``catch_up`` against the
   cache, which runs each block once over the
   positions that lack its keys and values (a contiguous suffix, see
   ``KVCache``) and writes them after the block runs, against the keys of
   the positions before (``extend_cache`` is ``append_tokens``, then a
   catch_up through every block, then the head; a one-token extension is a
   decoding step); and ``hypothesis_taps`` with ``last_only`` in the
   tapped block. A hypothesis batch also hands back each item's first
   position as the cache would hold it: its keys and values in the blocks
   below the tapped one and its residual entering that block. Those rows
   have the bits a catch_up would compute for the same token, so a decoder
   commits the accepted byte with them (``KVCache.commit``) and runs no
   block for it; the blocks above run only when a later frame taps them.
   The training pass keeps only what its backward pass reads for the
   gradients it builds (``need_aux``) and cannot rebuild cheaply. Of the
   attention, it keeps the softmax row sums alone. The backward pass
   rebuilds Q, K and V from the first layer norm's output with the
   forward's own GEMMs and scaling, so they have the same bits, and from Q
   and K the causal numerators with the forward's own ``_numerators`` and
   no prefix, so at the forward's GEMM shapes and with its bits, then
   divides them by the kept row sums. Its weight gradients take
   ``_exact_mm``, whose bits no BLAS thread count moves. Of the MLP, it
   keeps the GELU derivative at the GELU input u,
   which ``detmath.gelu(u, grad=True)`` forms in the forward beside the
   GELU output, from its tanh, and neither u nor that tanh; it keeps the
   GELU output g only when w2's gradient is wanted, and the attention
   output only when wo's is. It lets go of the keys, values and attention
   output before the MLP, which reads none of them. The layer norms'
   outputs are not kept: the backward pass recomputes them from the
   normalized inputs with the same two operations, so they have the same
   bits. What is not kept runs in chunks of ``_CHUNK_BYTES``, so that a
   step peaks close to what it keeps: the MLP in row chunks
   (``_training_mlp``), each running w1, one GELU call for the output and
   its derivative, and w2, so that no whole u, GELU output or tanh is
   built, and the trainer's attention backward in item chunks. Every GEMM
   keeps its shape in any chunk (rule 1's tiles, or one per item and head)
   and every reduction stays within its row, so the chunks move no bit.
   One adapter step at ModelConfig() on the fine-tune's (16, 80) batch
   keeps 30.2 MiB for its backward and peaks at 38.7 MiB under
   tracemalloc, in the top block's MLP. ``forward_full``, ``extend_cache``,
   ``hypothesis_taps`` and ``draft_taps`` never call one another, so a
   wrapper around one sees only its own calls. The exact paths run on the
   calling thread alone: splitting a hypothesis batch over worker threads
   ran no faster on 2 CPUs.
   The draft is the one path that is not bit-pinned. Its block function,
   ``_draft_block``, reads a block's BlockParams as ``_block`` does and
   runs the K and V GEMMs over every row and the Q GEMM over the rows that
   query: all of them, and in the tapped block the last. Its layer norms take their statistics as
   matrix-vector products, the softmax and GELU use numpy's exp and tanh,
   the GELU's factor 1/2 applied after w2, attention is one masked product
   per head with no row floor or segments, and nothing in
   :mod:`ciphermind.detmath` is called. A draft block is a few large numpy
   calls, which release the interpreter lock, so ``draft_taps`` cuts its
   items into contiguous slices of at least M_MIN, one per CPU the process
   may run on, and runs every slice but the first on a thread that lives
   for the call; the slices read the cache and the weights at once and
   never write them. On 2 CPUs whose second added to GEMM throughput, two
   slices cut decode per tapped block by 27-35 % (BENCH_29.json); where the
   second adds nothing, they ran about 10 % slower than one. Its taps stay
   within a few float32 ulps of the exact ones and only rank a decoder's
   candidates, which an exact ``hypothesis_taps`` call then verifies: a
   draft value never reaches a frame, a cache or a twin.

Elementwise transcendentals come from :mod:`ciphermind.detmath`, except
the draft's; add, mul, div and sqrt are IEEE-exact and need no pinning.

The "hidden state at layer l" is the residual stream after block l's final
residual addition (1-indexed), before the next block's first layer norm.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import math
import numbers
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import detmath
from .scheduler import Stream

F32 = np.float32

M_MIN = 32
KEY_SEG = 128

# Bytes of padded arrays that one chunk of items may span in attention's GEMM
# loop, so that they stay in cache from the copy to the GEMM: the numerators'
# buffer, which the score GEMMs fill and the AV GEMMs read, and V. The
# buffers of one chunk, and the AV GEMMs' product, are filled in place for
# the next, so a call faults in at most one chunk's pages: arrays of a few
# MiB, or a fresh product per chunk, would be fresh mmap pages on every call
# whenever glibc's dynamic mmap threshold sits below their size. At
# ModelConfig() a chunk holds 5 two-token hypotheses while the sequence fits
# one KEY_SEG, so a verify of up to 5 items runs as one chunk; the bound acts
# on the larger verifies, on crowded frames (all 257 items where no draft
# score is finite) and on the fine-tune's batches of 16 items of 74 to 82
# positions, 3 items a chunk. On a 2-core Xeon (2 MiB L2), one BLAS thread, a
# (257, 2) hypothesis batch at layer 4 took 98 ms at 512 KiB chunks, 78 ms at
# 1 MiB and 2 MiB, and 186 ms without chunks (medians of 21). The
# training pass takes the same bound for its batch-sized temporaries (rule
# 3): its MLP runs in chunks of rows whose u and GELU output span it, 256 of
# the fine-tune's 1280 rows at ModelConfig(), and the trainer's attention
# backward in chunks of items whose probabilities and their gradient span
# it, 4 or 5 of 16. One block's MLP took 11.5 ms at 256 rows a chunk,
# 12.3-12.6 ms at 64 or 128, 14.2 at 512 and 15.3 unchunked (same machine,
# one thread). The draft takes no chunks: its largest arrays, the MLP's
# hidden rows of a slice, span 1 MiB at ModelConfig() for all 257 two-token
# items on one CPU and half that a slice on two.
_CHUNK_BYTES = 1 << 20

PARAM_MAGIC = b"CMWT"
PARAM_VERSION = 1


class ModelError(Exception):
    pass


U32_MAX = 2**32 - 1
# 8x the shipped 512 (the codec's longest context is 75): 4 MiB of positions at d 128
MAX_SEQ_CAP = 4096


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
        # each field fills a u32 of the packed block, max_seq sizes every KV
        # cache; single-block configs exist for gradient probes, and anything
        # that taps a middle layer (codec, scheduler) demands >= 2 blocks
        check_int_fields(self, dict.fromkeys(
            ("n_blocks", "d_model", "n_heads", "d_ff", "vocab_size"), (1, U32_MAX))
            | {"max_seq": (1, MAX_SEQ_CAP)}, ModelError)
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


def f32_bytes(arr) -> bytes:
    """arr as little-endian float32: what a weight file and a digest hold."""
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def digest(arrays) -> bytes:
    """SHA-256 over the arrays as little-endian float32, in the order given:
    the bytes a weight file holds after its header."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(f32_bytes(arr))
    return h.digest()


def fingerprint(params: ParameterSet) -> bytes:
    """SHA-256 over the canonical little-endian float32 serialization."""
    return digest(params.iter_arrays())


def write_file(path, magic: bytes, version: int, header: bytes, payload) -> None:
    """The one file format of parameters, adapters and the shard registry:
    4-byte magic, version byte, fixed header, then the payload, an iterable
    of byte strings written in order."""
    with open(path, "wb") as f:
        f.write(magic + bytes([version]) + header)
        f.writelines(payload)


def read_file(path, magic: bytes, version: int, header_len: int, parse_header, error):
    """(parsed header, payload bytes) of a write_file file, where
    ``parse_header(header bytes)`` returns (parsed header, payload size). A
    bad magic, a cut header, another version, a payload of another size or a
    file that cannot be read raises ``error``. Only the header is read before
    the file's size is checked against the size it names, so a foreign or
    oversized file is refused without buffering it."""
    kind, start = magic.decode(), 5 + header_len
    try:
        with open(path, "rb") as f:
            head = f.read(start)
            if head[:4] != magic:
                raise error(f"not a {kind} file (bad magic)")
            if len(head) < start:
                raise error(f"{kind} file cut inside its {start}-byte header")
            if head[4] != version:
                raise error(f"unsupported {kind} file version {head[4]}")
            header, want = parse_header(head[5:])
            size = os.fstat(f.fileno()).st_size - start
            if size == want:
                payload = f.read(want)
                size = len(payload)
    except OSError as e:
        raise error(f"{kind} file {path} cannot be read: {e.strerror}") from None
    if size != want:
        raise error(f"{kind} payload is {size} bytes, expected {want}")
    return header, payload


def weight_arrays(payload: bytes, layout, error) -> list:
    """layout's arrays from a weight file's payload; a non-finite one raises error."""
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float32)
    if not np.all(np.isfinite(flat)):
        raise error("weight file contains non-finite weights")
    shapes = [shape for _, shape in layout_entries(layout)]
    parts = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
    return [part.reshape(shape).copy() for part, shape in zip(parts, shapes)]


def save_parameters(path, params: ParameterSet) -> None:
    write_file(path, PARAM_MAGIC, PARAM_VERSION, params.config.pack(),
               map(f32_bytes, params.iter_arrays()))


def load_parameters(path) -> ParameterSet:
    def parse(header):
        config = ModelConfig.unpack(header)
        return config, 4 * config.weight_count()

    config, payload = read_file(path, PARAM_MAGIC, PARAM_VERSION, 28, parse, ModelError)
    return ParameterSet.from_arrays(config, weight_arrays(payload, weight_layout(config),
                                                          ModelError))


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
    """A projection's GEMM, in zero-padded tiles of M_MIN rows (rule 1)."""
    m, k = a.shape
    if m % M_MIN:
        a, rows = np.zeros((_round_up(m, M_MIN), k), dtype=a.dtype), a
        a[:m] = rows
    tiles = np.ascontiguousarray(a).reshape(-1, M_MIN, k)
    return np.matmul(tiles, w).reshape(-1, w.shape[1])[:m]


def _exact_mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b from error-free products (Ozaki, Ogita, Oishi & Rump 2012), its
    bits a function of a and b alone: not of the BLAS kernel, its thread
    count or the shapes around them. Each row of a and each column of b is
    scaled by a power of two and rounded to integers of
    s = min(24, (53 - ceil(log2 K)) // 2) bits, so every product and partial
    sum of their float64 GEMM is an integer of at most 53 bits, exact in any
    order; the sum is scaled back and rounded once to a's dtype. An input thus keeps
    its bits down to 2^-s of the largest magnitude in its row or column: s
    is 21 at the fine-tune's K of 1280 rows and 24 at K <= 32."""
    s = min(24, (53 - (a.shape[1] - 1).bit_length()) // 2)
    _, ea = np.frexp(np.max(np.abs(a), axis=1, keepdims=True))
    _, eb = np.frexp(np.max(np.abs(b), axis=0, keepdims=True))
    ai, bi = (np.ldexp(x, s - e, dtype=np.float64) for x, e in ((a, ea), (b, eb)))
    product = np.rint(ai, out=ai) @ np.rint(bi, out=bi)
    return np.ldexp(product, ea + eb - 2 * s).astype(a.dtype)


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

    ``length`` positions are committed, each at a depth: position p holds
    its keys and values in blocks 0 .. depth(p) - 1 and its residual stream
    entering block depth(p). Depths never increase along the positions, so
    block b's keys cover the first ``rows[b]`` positions and the positions
    that lack block b are the contiguous suffix from there, which
    ``catch_up`` runs the block over. A position's keys and values never
    change once written, so ``prefix(n)`` can share the arrays. A block's
    arrays are allocated when the block is first written: a codec cache never
    runs the last block. A cache is single-owner: one cache must not serve
    two concurrent decode streams. A draft's slices read one cache from
    several threads at once, read-only, while its owner waits for them.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.length = 0
        self.rows = [0] * config.n_blocks
        self.read_only = False
        self._x = np.zeros((config.max_seq, config.d_model), dtype=F32)
        empty = np.zeros((0, config.d_model), dtype=F32)  # until _put writes the block
        self._k = [empty] * config.n_blocks
        self._v = [empty] * config.n_blocks

    def prefix(self, n: int) -> "KVCache":
        """Read-only view of the first n positions: the cache as it stood
        at length n, without a copy."""
        if not 0 <= n <= self.length:
            raise ModelError(f"prefix length {n} outside 0..{self.length}")
        view = copy.copy(self)
        view.length, view.read_only = n, True
        view.rows = [min(r, n) for r in self.rows]
        return view

    @property
    def depth(self) -> int:
        """Blocks whose keys and values every position holds."""
        return sum(r == self.length for r in self.rows)

    def keys(self, block: int) -> np.ndarray:
        return self._k[block][: self.rows[block]]

    def values(self, block: int) -> np.ndarray:
        return self._v[block][: self.rows[block]]

    def residual(self, block: int) -> np.ndarray:
        """Residual stream entering block of the positions that lack it."""
        return self._x[self.rows[block]: self.length]

    def _check_writable(self) -> None:
        if self.read_only:
            raise ModelError("a KV cache prefix view is read-only")

    def _put(self, block: int, lo: int, hi: int, k, v) -> None:
        if not self._k[block].size:
            self._k[block] = np.zeros_like(self._x)
            self._v[block] = np.zeros_like(self._x)
        self._k[block][lo:hi], self._v[block][lo:hi] = k, v
        self.rows[block] = hi

    def commit(self, x: np.ndarray, keys=(), values=()) -> None:
        """Appends x.shape[0] positions at depth len(keys): x (n, d) is their
        residual entering that block, keys[b] and values[b] (n, d) their keys
        and values in block b. They may be no deeper than the positions before."""
        self._check_writable()
        lo, hi = self.length, self.length + x.shape[0]
        if hi > self.config.max_seq:
            raise ModelError("KV cache overflow")
        if len(keys) > self.depth:
            raise ModelError("a position cannot be committed deeper than the one before it")
        for bi, (k, v) in enumerate(zip(keys, values)):
            self._put(bi, lo, hi, k, v)
        self._x[lo:hi] = x
        self.length = hi

    def write(self, block: int, k: np.ndarray, v: np.ndarray, x: np.ndarray) -> None:
        """Gives the positions that lack block its keys k and values v, and
        moves their residual to x, the block's output."""
        self._check_writable()
        lo = self.rows[block]
        self._x[lo:self.length] = x
        self._put(block, lo, self.length, k, v)


def _split_heads(x, n_heads):
    # (B, S, d) -> (B, H, S, hd)
    b, s, d = x.shape
    return np.ascontiguousarray(x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3))


def _chunks(B: int, item_bytes: int):
    """(g, chunks) for a batch of B items: g items a chunk, so that a
    chunk's buffers span at most _CHUNK_BYTES at item_bytes an item, and the
    item slice of each chunk in order."""
    g = min(B, max(1, _CHUNK_BYTES // item_bytes))
    return g, [slice(lo, min(B, lo + g)) for lo in range(0, B, g)]


@functools.lru_cache
def _tril_rows(S: int) -> tuple:
    """(i, slice) of each query row i of a causal triangle, its keys 0 .. i,
    in np.tril_indices(S) order."""
    return tuple((i, slice(i * (i + 1) // 2, (i + 1) * (i + 2) // 2)) for i in range(S))


def _padded_buffers(n: int, H: int, S: int, T: int, hd: int, dtype) -> tuple:
    """Buffers of n items for _numerators: zeroed query rows
    (n, H, max(S, M_MIN), hd) and keys (n, H, hd, t_pad), and their product
    (n, H, max(S, M_MIN), t_pad), t_pad = T rounded up to KEY_SEG. The keys
    are stored transposed: on OpenBLAS 0.3.31 the score GEMMs then took a
    third (two-token hypotheses) to two thirds (the fine-tune) of their time
    on a transposed view of (t_pad, hd) keys, with the same bits at head
    dims 8 to 192, 32 to 257 rows and 128 to 512 keys."""
    rows, t_pad = max(S, M_MIN), _round_up(T, KEY_SEG)
    return (np.zeros((n, H, rows, hd), dtype=dtype), np.zeros((n, H, hd, t_pad), dtype=dtype),
            np.empty((n, H, rows, t_pad), dtype=dtype))


def _numerators(qh, kp, kh, bufs=None) -> np.ndarray:
    """The softmax numerators exp(score - row max) of query rows qh
    (n, H, S, hd) against the prefix keys kp (H, P, hd) and each item's own
    keys kh (n, H, Sk, hd), T = P + Sk, query row i at key T - S + i (rules
    1 and 2), in a buffer (n, H, max(S, M_MIN), t_pad) that holds +0.0 at
    every masked key and outside the live region [:, :, :S, :T], where a
    score is a product with zero padding.

    One score GEMM per item and head, of the query rows zero-padded to
    max(S, M_MIN) rows against the prefix keys, then the item's own,
    zero-padded to t_pad. A causal square (S == T) takes the row max and
    runs exp on its triangle alone, gathered row by row; any other shape
    sets its masked scores to -inf and runs exp on the whole live region.
    bufs holds _padded_buffers of at least n items for this S and T, which
    _attention reuses across its chunks; None allocates them."""
    n, H, S, hd = qh.shape
    P, T = kp.shape[1], kp.shape[1] + kh.shape[2]
    q_c, k_c, e = (b[:n] for b in bufs or _padded_buffers(n, H, S, T, hd, qh.dtype))
    q_c[:, :, :S] = qh
    k_c[..., :P] = kp.transpose(0, 2, 1)
    k_c[..., P:T] = kh.transpose(0, 1, 3, 2)
    np.matmul(q_c, k_c, out=e)
    sc = e.reshape(n * H, *e.shape[2:])
    live = sc[:, :S, :T]
    if S != T:
        live[:, np.arange(T)[None, :] > np.arange(T - S, T)[:, None]] = -np.inf
        live -= np.max(live, axis=-1, keepdims=True)
        live[...] = detmath.exp(live)
        return e
    rows = _tril_rows(S)
    tri = np.empty((n * H, S * (S + 1) // 2), dtype=e.dtype)
    for i, keys in rows:
        tri[:, keys] = live[:, i, :i + 1]
    row_max = np.maximum.reduceat(tri, [keys.start for _, keys in rows], axis=1)
    tri -= np.repeat(row_max, np.arange(1, S + 1), axis=1)
    tri = detmath.exp(tri)
    live.fill(0.0)
    for i, keys in rows:
        live[:, i, :i + 1] = tri[:, keys]
    return e


def _attention(q, k_pref, v_pref, k_new, v_new, cfg):
    """Causal attention (rules 1 and 2 of the module docstring): the items
    in chunks of _CHUNK_BYTES, each chunk's numerators from one _numerators
    call, then the AV reduction on that buffer in KEY_SEG segments, every
    GEMM one per item and head.

    q: (B, S, d) queries; k_new, v_new: (B, Sk, d) each item's own keys and
    values; k_pref/v_pref: (P, d) prefix shared by the whole batch (may be
    empty). The queries are the last S of the T = P + Sk keys' positions:
    query row i sits at key T - S + i and attends keys 0 .. T - S + i.
    Returns (merged, den): merged (B, S, d) and den (B, H, S, 1), the
    softmax row sums.
    """
    dtype = q.dtype
    B, S, d = q.shape
    H, hd = cfg.n_heads, cfg.head_dim
    P = k_pref.shape[0]
    T = P + k_new.shape[1]
    qh = _split_heads(q * (dtype.type(1.0) / np.sqrt(dtype.type(hd))), H)
    kh, vh = _split_heads(k_new, H), _split_heads(v_new, H)
    kp = k_pref.reshape(P, H, hd).transpose(1, 0, 2)

    # AV (rule 2): one GEMM per item, head and KEY_SEG segment of the
    # numerators' buffer, added in ascending segment order, at its
    # max(S, M_MIN) rows (rule 1); V's ones-columns from den_col on yield
    # the softmax denominators.
    den_col = _round_up(hd, M_MIN)
    rows, t_pad, cols = max(S, M_MIN), _round_up(T, KEY_SEG), den_col + M_MIN
    g, chunks = _chunks(B, dtype.itemsize * H * t_pad * (rows + cols))
    bufs = _padded_buffers(g, H, S, T, hd, dtype)
    v_c = np.zeros((g, H, t_pad, cols), dtype=dtype)
    v_c[:, :, :P, :hd] = v_pref.reshape(P, H, hd).transpose(1, 0, 2)
    v_c[..., den_col:] = dtype.type(1.0)
    acc = np.empty((g, H, rows, cols), dtype=dtype)
    prod = np.empty_like(acc)
    den = np.empty((B, H, S, 1), dtype=dtype)
    attn = np.empty((B, H, S, hd), dtype=dtype)
    for items in chunks:
        n = items.stop - items.start
        e = _numerators(qh[items], kp, kh[items], bufs)
        v_c[:n, :, P:T, :hd] = vh[items]
        acc[:n] = dtype.type(0.0)
        for lo in range(0, t_pad, KEY_SEG):
            acc[:n] += np.matmul(e[..., lo:lo + KEY_SEG], v_c[:n, :, lo:lo + KEY_SEG],
                                 out=prod[:n])
        attn[items] = acc[:n, :, :S, :hd]
        den[items] = acc[:n, :, :S, den_col:den_col + 1]
    attn /= den

    merged = np.ascontiguousarray(attn.transpose(0, 2, 1, 3)).reshape(B, S, d)
    return merged, den


def _draft_norm(x, g, b, eps):
    """The draft's layer norm of rows x (n, d), gain g and bias b. The row
    means and variances are products with a column of 1/d."""
    mean = np.full(x.shape[1], 1.0 / x.shape[1], dtype=x.dtype)
    xc = x - (x @ mean)[:, None]
    var = np.square(xc) @ mean
    var += x.dtype.type(eps)
    xc /= np.sqrt(var)[:, None]
    xc *= g
    xc += b
    return xc


def _draft_block(bp: BlockParams, cfg: ModelConfig, x, k_pref, v_pref, last_only: bool):
    """One block of the draft (rule 3) on the residual stream x (B, S, d) of
    items that follow the prefix k_pref/v_pref (P, d): numpy's exp and tanh,
    attention with one product per head against the prefix and one masked
    batched product against each item's own keys, and no row floor, segments
    or pinned math. Returns the block's output, (B, 1, d) for the last
    position alone with last_only: the tapped block, whose Q is projected for
    that position alone."""
    dtype = x.dtype
    B, S, d = x.shape
    H, hd = cfg.n_heads, cfg.head_dim
    P = k_pref.shape[0]
    a = _draft_norm(x.reshape(B * S, d), bp.g1, bp.b1, cfg.ln_epsilon)
    k, v = ((a @ w).reshape(B, S, H, hd).transpose(2, 0, 1, 3) for w in (bp.wk, bp.wv))
    if last_only:
        x = x[:, -1:]
    Sq = x.shape[1]
    q = a.reshape(B, S, d)[:, S - Sq:].reshape(B * Sq, d) @ bp.wq
    q *= dtype.type(1.0) / np.sqrt(dtype.type(hd))
    q = q.reshape(B, Sq, H, hd).transpose(2, 0, 1, 3)

    # scores with the keys before the query rows, (H, P + S, B, Sq), so
    # that the softmax reduces across rows: the prefix keys, then each
    # item's own, key j masked for its query rows before j
    sc = np.empty((H, P + S, B, Sq), dtype=dtype)
    np.matmul(k_pref.reshape(P, H, hd).transpose(1, 0, 2),
              q.reshape(H, B * Sq, hd).transpose(0, 2, 1), out=sc[:, :P].reshape(H, P, B * Sq))
    own = sc[:, P:].transpose(0, 2, 3, 1)  # (H, B, Sq, S)
    np.matmul(q, k.transpose(0, 1, 3, 2), out=own)
    own[..., np.arange(S)[None, :] > np.arange(S - Sq, S)[:, None]] = -np.inf
    sc -= sc.max(axis=1, keepdims=True)
    np.exp(sc, out=sc)
    attn = np.empty((B, Sq, H, hd), dtype=dtype)
    heads = attn.transpose(2, 0, 1, 3)  # (H, B, Sq, hd)
    np.matmul(sc[:, :P].reshape(H, P, B * Sq).transpose(0, 2, 1),
              v_pref.reshape(P, H, hd).transpose(1, 0, 2),
              out=attn.reshape(B * Sq, H, hd).transpose(1, 0, 2))
    heads += np.matmul(own, v)
    heads /= sc.sum(axis=1)[..., None]

    h = attn.reshape(B * Sq, d) @ bp.wo
    h += x.reshape(B * Sq, d)
    # tanh-form GELU, its factor 1/2 applied after w2
    u = _draft_norm(h, bp.g2, bp.b2, cfg.ln_epsilon) @ bp.w1
    g = np.square(u)
    g *= dtype.type(detmath._GELU_C0 * detmath._GELU_C1)
    g += dtype.type(detmath._GELU_C0)
    g *= u
    np.tanh(g, out=g)
    g += dtype.type(1.0)
    g *= u
    out = g @ bp.w2
    out *= dtype.type(0.5)
    out += h
    return out.reshape(B, Sq, d)


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


def _training_mlp(f, bp: BlockParams, keep_g: bool):
    """The MLP of a training pass on the second layer norm's output f (n, d),
    in row chunks of _CHUNK_BYTES (rule 3): each chunk runs its w1 GEMM,
    GELU, GELU derivative and w2 GEMM, each GEMM in rule 1's tiles, so a row
    has the bits of an unchunked pass. Returns (the MLP's output (n, d), the
    GELU derivative at u (n, d_ff), the GELU output (n, d_ff) if keep_g else
    None)."""
    n, dff = f.shape[0], bp.w1.shape[1]
    _, chunks = _chunks(n, 2 * dff * f.dtype.itemsize)  # u and g
    out = np.empty((n, bp.w2.shape[1]), dtype=f.dtype)
    gelu_grad = np.empty((n, dff), dtype=f.dtype)
    g_all = np.empty_like(gelu_grad) if keep_g else None
    for rows in chunks:
        g, gelu_grad[rows] = detmath.gelu(_mm(f[rows], bp.w1), grad=True)
        out[rows] = _mm(g, bp.w2)
        if keep_g:
            g_all[rows] = g
    return out, gelu_grad, g_all


def _block(bp: BlockParams, cfg: ModelConfig, x, k_pref, v_pref, *,
           last_only=False, need_aux=()):
    """One block on the residual stream x (B, S, d) at the S positions after
    the shared prefix k_pref/v_pref (P, d): layer norm, Q/K/V, _attention
    against that prefix and the items' own keys, O, layer norm, MLP.

    Returns (x, k_new, v_new, saved). k_new/v_new (B, S, d) are the
    positions' keys and values, for the caller's cache. With last_only only
    the last position's query runs and x comes back (B, 1, d): the tapped
    block of hypothesis_taps. need_aux (training, no prefix) names the
    BlockParams fields whose gradients trainer.loss_and_grads builds; saved
    then holds what that backward pass reads: the layer norms' normalized
    inputs and inverse stds, the GELU derivative at u, "att" (the softmax
    row sums, (B, H, S, 1), from which and the rebuilt Q and K the backward
    rebuilds the probabilities), and only for "wo" the attention output,
    only for "w2" the GELU output; k_new and v_new are then None, let go
    before the MLP. Empty need_aux saves nothing (None).
    """
    B, S, d = x.shape
    a, xn1, inv1 = _layer_norm(x, bp.g1, bp.b1, cfg.ln_epsilon)
    a2 = a.reshape(B * S, d)
    k_new = _mm(a2, bp.wk).reshape(B, S, d)
    v_new = _mm(a2, bp.wv).reshape(B, S, d)
    if last_only:
        q = _mm(a[:, -1, :], bp.wq).reshape(B, 1, d)
        x = x[:, -1:, :]
    else:
        q = _mm(a2, bp.wq).reshape(B, S, d)
    n = B * q.shape[1]
    attn, den = _attention(q, k_pref, v_pref, k_new, v_new, cfg)
    del a, a2, q  # not held through the MLP, where a training pass peaks
    x = x + _mm(attn.reshape(n, d), bp.wo).reshape(x.shape)
    f, xn2, inv2 = _layer_norm(x, bp.g2, bp.b2, cfg.ln_epsilon)
    saved = None
    if need_aux:
        saved = {"xn1": xn1, "inv1": inv1, "att": den, "xn2": xn2, "inv2": inv2}
        if "wo" in need_aux:
            saved["attn_merged"] = attn
        attn = k_new = v_new = None  # the MLP reads none of them
        mlp, saved["gelu_grad"], g = _training_mlp(f.reshape(n, d), bp, "w2" in need_aux)
        if "w2" in need_aux:
            saved["g"] = g
    else:
        mlp = _mm(detmath.gelu(_mm(f.reshape(n, d), bp.w1)), bp.w2)
    x = x + mlp.reshape(x.shape)
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


def _forward(params: ParameterSet, cfg: ModelConfig, tokens: np.ndarray,
             need_aux=()):
    """Teacher-forced pass over a batch (B, T) from position 0. Returns
    (logits, per_block, head_ln): per_block[i] is block i's output (B, T, d),
    or, when need_aux names the block weights a backward pass takes
    gradients of, what that pass reads of block i (see _block); head_ln is
    the final layer norm's (out, normalized, inverse std)."""
    x = _embed(params, cfg, tokens, 0)
    empty = np.zeros((0, cfg.d_model), dtype=params.dtype)
    per_block = []
    for bp in params.blocks:
        x, _, _, saved = _block(bp, cfg, x, empty, empty, need_aux=need_aux)
        per_block.append(saved if need_aux else x)
    logits, head_ln = _head(params, cfg, x)
    return logits, per_block, head_ln


def forward_full(params: ParameterSet, config: ModelConfig, tokens):
    """Teacher-forced pass over one sequence.

    Returns (hidden, logits): hidden[l-1][p] is the residual-stream output
    of block l at position p; logits[p] spans the vocabulary.
    """
    logits, hidden, _ = _forward(params, config, _sequence(tokens)[None])
    return np.stack([x[0] for x in hidden]), logits[0]


def append_tokens(params: ParameterSet, config: ModelConfig, cache: KVCache,
                  tokens) -> None:
    """Commits the tokens at depth 0: their embeddings join the cache, and
    no block runs until catch_up."""
    tokens = _sequence(tokens)
    cache.commit(_embed(params, config, tokens[None], cache.length)[0])


def catch_up(params: ParameterSet, config: ModelConfig, cache: KVCache,
             depth: int) -> list:
    """Gives every position the keys and values of blocks 0 .. depth - 1:
    each block runs once over the positions that lack it, against the keys
    of those that hold it. Returns the output rows (n_b, d) of each block
    that ran, in block order."""
    outputs = []
    for bi in range(depth):
        if cache.rows[bi] == cache.length:
            continue
        x, k_new, v_new, _ = _block(params.blocks[bi], config, cache.residual(bi)[None],
                                    cache.keys(bi), cache.values(bi))
        cache.write(bi, k_new[0], v_new[0], x[0])
        outputs.append(x[0])
    return outputs


def extend_cache(params: ParameterSet, config: ModelConfig, cache: KVCache,
                 tokens):
    """Teacher-forced multi-token cache extension: append_tokens, then a
    catch_up through every block. Returns (hidden (L, S, d), logits (S, V))
    for the tokens, bitwise equal to the matching forward_full columns."""
    tokens = _sequence(tokens)
    append_tokens(params, config, cache, tokens)
    hidden = np.stack([x[-tokens.size:] for x in catch_up(params, config, cache,
                                                          config.n_blocks)])
    logits, _ = _head(params, config, hidden[-1:])
    return hidden, logits[0]


def _checked_embed(params: ParameterSet, config: ModelConfig, cache: KVCache, suffixes,
                   layer: int) -> np.ndarray:
    """The residual stream entering block 1 of a hypothesis batch of
    suffixes (B, S) after the cache, once the batch and the tap layer pass
    their checks."""
    suffixes = np.asarray(suffixes, dtype=np.int64)
    if suffixes.ndim != 2 or 0 in suffixes.shape:
        raise ModelError("suffixes must be (B, S) with B >= 1 and S >= 1")
    if not 1 <= layer <= config.n_blocks:
        raise ModelError("tap layer out of range")
    if cache.depth < layer:
        raise ModelError(f"tap layer {layer} is above the cache's depth {cache.depth}")
    return _embed(params, config, suffixes, cache.length)


def hypothesis_taps(params: ParameterSet, config: ModelConfig, cache: KVCache,
                    suffixes, layer: int):
    """Residual-stream tap of block `layer` at the last position of
    prefix+suffix for a batch of equal-length suffixes, on the calling
    thread, against a cache that holds blocks 1 .. layer at every position.
    The cache is read but never modified.

    Returns (taps (B, d), first). first = (keys, values, x) holds what a
    KVCache.commit of each item's first position takes: its keys and values
    in each block below the tapped one (layer - 1 arrays of (B, d)) and its
    residual entering the tapped block (B, d).
    """
    x = _checked_embed(params, config, cache, suffixes, layer)
    keys, values = [], []
    for bi in range(layer - 1):
        x, k_new, v_new, _ = _block(params.blocks[bi], config, x, cache.keys(bi),
                                    cache.values(bi))
        keys.append(k_new[:, 0].copy())
        values.append(v_new[:, 0].copy())
    first = (keys, values, x[:, 0].copy())
    x, _, _, _ = _block(params.blocks[layer - 1], config, x, cache.keys(layer - 1),
                        cache.values(layer - 1), last_only=True)
    return x[:, 0, :], first


def draft_taps(params: ParameterSet, config: ModelConfig, cache: KVCache,
               suffixes, layer: int) -> np.ndarray:
    """hypothesis_taps' taps (B, d) as the draft computes them (rule 3):
    close to the exact taps, not bit-pinned, for ranking candidates only.
    It reads the cache and params and writes neither. The items run in
    contiguous slices of at least M_MIN, one per CPU that the process may
    run on; the calling thread runs the first, and a thread that lives for
    this call runs each other one."""
    x = _checked_embed(params, config, cache, suffixes, layer)

    def run(x):
        for bi in range(layer):
            x = _draft_block(params.blocks[bi], config, x, cache.keys(bi), cache.values(bi),
                             last_only=bi == layer - 1)
        return x[:, 0]

    B = x.shape[0]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = max(1, min(cpus, B // M_MIN))
    if n == 1:
        return run(x)
    bounds = [B * i // n for i in range(n + 1)]
    # a pool a slice: a shared pool hands a second slice to an idle worker
    pools = [ThreadPoolExecutor(1) for _ in range(n - 1)]
    try:
        rest = [p.submit(run, x[lo:hi]) for p, lo, hi in zip(pools, bounds[1:-1], bounds[2:])]
        return np.concatenate([run(x[:bounds[1]])] + [f.result() for f in rest])
    finally:
        for p in pools:
            p.shutdown()
