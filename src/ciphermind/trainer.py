"""Deterministic base training and low-rank adapter fine-tuning.

Plain SGD, single-threaded, fixed batch order from the SplitMix64 stream,
forward/backward entirely in float32 numpy: two runs of the same build on
the same inputs produce byte-identical weights, which is the property the
whole twinning scheme stands on.

Adapters follow the usual low-rank recipe on the Q and V projections of
every block: W' = W + A @ B with A drawn from the seeded generator and B
zero, so zero training steps are exactly a no-op. A twin's fine-tune sees
only the examples of the shards its key selects; the repeat-task examples
belong to the public pretraining corpus alone. Its step differentiates only
the adapted projections: the base weights are frozen, so the backward pass
builds no other weight's gradient and stops at block 1's projections.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import codec, detmath
from . import model as M
from .scheduler import Stream, mix64

F32 = np.float32

ADAPTED_FIELDS = ("wq", "wv")  # protocol constant; both twins must agree

ADAPTER_MAGIC = b"CMAD"
ADAPTER_VERSION = 1


class TrainerError(Exception):
    pass


class NonFiniteLoss(TrainerError):
    pass


class DivergenceError(TrainerError):
    def __init__(self, step: int):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    steps: int = 20
    learning_rate: float = 1e-3
    batch_size: int = 16
    adapter_rank: int = 4
    # tokens, incl. <bos>/<sep>/<eos>; 139 bounds only make_pretrain_corpus's
    # longest repeat example: the sentence examples a generated registry
    # gives the fine-tune are at most 82
    max_example_len: int = 139

    def __post_init__(self):
        # the ranges of the fields' u64 and u32 slots in the packed block
        M.check_int_fields(self, {"seed": (0, 2**64 - 1), "steps": (0, M.U32_MAX),
                                  "batch_size": (1, M.U32_MAX),
                                  "adapter_rank": (1, M.U32_MAX),
                                  "max_example_len": (0, M.U32_MAX)}, TrainerError)
        # the rate is applied in binary32; canonicalize so a config equals
        # its own wire-format echo, and reject a rate that is not finite there
        with np.errstate(over="ignore"):
            lr = float(np.float32(self.learning_rate))
        if not (math.isfinite(lr) and lr >= 0):
            raise TrainerError(f"learning_rate must be finite and non-negative, "
                               f"got {self.learning_rate}")
        object.__setattr__(self, "learning_rate", lr)

    def pack(self) -> bytes:
        """Fixed 28-byte block: the fields in order, learning_rate as binary32."""
        return struct.pack("<QIf3I", self.seed, self.steps, self.learning_rate,
                           self.batch_size, self.adapter_rank, self.max_example_len)

    @classmethod
    def unpack(cls, blob: bytes) -> "TrainConfig":
        return cls(*struct.unpack("<QIf3I", blob))


Example = tuple[bytes, bytes]  # (prompt text, completion text)


# ----------------------------------------------------------- synthetic text

_SUBJECTS = ["pilot", "gardener", "clerk", "engineer", "violinist", "courier",
             "farmer", "surgeon", "teacher", "sailor", "welder", "archivist"]
_VERBS = ["repairs", "paints", "counts", "inspects", "carries", "builds",
          "measures", "catalogs", "delivers", "sharpens"]
_OBJECTS = ["lantern", "ledger", "compass", "engine", "bridge", "antenna",
            "telescope", "barrel", "keyboard", "turbine", "canvas", "valve"]
_PLACES = ["harbor", "workshop", "archive", "orchard", "station", "cellar",
           "tower", "market", "library", "foundry"]


def sentence_example(stream: Stream) -> Example:
    subj = _SUBJECTS[stream.next_below(len(_SUBJECTS))]
    verb = _VERBS[stream.next_below(len(_VERBS))]
    obj = _OBJECTS[stream.next_below(len(_OBJECTS))]
    place = _PLACES[stream.next_below(len(_PLACES))]
    prompt = f"who {verb} the {obj} in the {place}?".encode()
    completion = f"the {subj} {verb} the {obj}".encode()
    return prompt, completion


def printable_bytes(stream: Stream, length: int) -> bytes:
    """Printable ASCII 0x21..0x7E drawn from the stream."""
    return bytes(0x21 + stream.next_below(94) for _ in range(length))


def repeat_example(stream: Stream, length: int) -> Example:
    x = printable_bytes(stream, length)
    return codec.TEMPLATE_TEXT + x, x


def _curriculum_length(stream: Stream) -> int:
    """Short-biased payload lengths: copying is learned on short strings
    first and the experiment grid tops out at 64."""
    r = stream.next_below(100)
    if r < 50:
        return 1 + stream.next_below(8)
    if r < 78:
        return 9 + stream.next_below(8)
    if r < 92:
        return 17 + stream.next_below(16)
    return 33 + stream.next_below(32)


def make_pretrain_corpus(seed: int, n_examples: int) -> list:
    """Public pretraining corpus: 90 % repeat-task, the rest plain sentences."""
    stream = Stream(mix64(seed ^ 0x707265747261696E))  # "pretrain"
    out = []
    for _ in range(n_examples):
        if stream.next_below(1000) < 900:
            out.append(repeat_example(stream, _curriculum_length(stream)))
        else:
            out.append(sentence_example(stream))
    return out


# ------------------------------------------------------------- tokenization

def tokenize_example(ex: Example):
    """Returns (token list, prompt length incl. <bos>..<sep>)."""
    prompt, completion = ex
    toks = [codec.BOS] + codec.encode_bytes(prompt) + [codec.SEP]
    plen = len(toks)
    toks += codec.encode_bytes(completion) + [codec.EOS]
    return toks, plen


def _prepare(examples, max_len: int):
    prepared = []
    for ex in examples:
        toks, plen = tokenize_example(ex)
        if len(toks) <= max_len:
            prepared.append((toks, plen))
    if not prepared:
        raise TrainerError("no examples fit max_example_len")
    return prepared


def _make_batch(prepared, idxs):
    T = max(len(prepared[i][0]) for i in idxs)
    B = len(idxs)
    tokens = np.full((B, T), codec.PAD, dtype=np.int64)
    mask = np.zeros((B, T - 1), dtype=np.float32)
    for row, i in enumerate(idxs):
        toks, plen = prepared[i]
        tokens[row, : len(toks)] = toks
        mask[row, plen - 1: len(toks) - 1] = 1.0
    return tokens, mask


# ----------------------------------------------------------------- backward

def _ln_backward(dy, xn, inv, g):
    """Gradient of a layer norm's input."""
    dxn = dy * g
    return inv * (dxn - dxn.mean(-1, keepdims=True) - xn * (dxn * xn).mean(-1, keepdims=True))


def _ln_param_grads(dy, xn):
    """(dg, db): gradients of a layer norm's gain and bias."""
    axes = tuple(range(dy.ndim - 1))
    return np.sum(dy * xn, axis=axes), np.sum(dy, axis=axes)


def _attention_pads(B, S, cfg, dtype):
    """(chunks, pads) for _attention_backward over B items of S positions:
    the item slice of each chunk (model._chunks), and zeroed buffers
    (p, s, dA, qf, kf, vf) for one chunk, padded to s_pad = max(S, M_MIN)
    query rows and t_pad = S rounded up to a KEY_SEG multiple keys: the
    shapes of the forward's per-segment attention. The pinned gradient bits,
    and with them every twin's adapters, were taken at these shapes; numpy's
    batched matmul may pick another kernel, and round otherwise, at other
    shapes. A chunk runs the GEMMs of its items alone, so the chunks move no
    bit. s takes the rebuilt scores, then the scores' gradient.

    Each chunk writes only the live region, of p only the causal triangle,
    so the padding and p's masked entries stay zero and one set serves
    every chunk of every block. Allocating them per block instead pages them
    in afresh each time: measured at about twice the page faults and system
    time of a provision at ModelConfig(). A chunk holds as many items as
    keep p and s within _CHUNK_BYTES: at ModelConfig() and the fine-tune's
    80 positions, 3 of a batch's 16, whose pads span 1.5 MiB. On a 2-core
    Xeon with two threads each running it, one block's backward took 8.2 ms
    at 3 items a chunk, 11.9 ms at one and 9.7 ms unchunked, when it still
    read kept numerators instead of rebuilding them.
    """
    H, hd = cfg.n_heads, cfg.head_dim
    s_pad, t_pad = max(S, M.M_MIN), M._round_up(S, M.KEY_SEG)
    g, chunks = M._chunks(B, 2 * dtype.itemsize * H * s_pad * t_pad)
    return chunks, (*(np.zeros((g * H, s_pad, n), dtype) for n in (t_pad, t_pad)),
                    *(np.zeros((g * H, n, hd), dtype) for n in (s_pad, s_pad, t_pad, t_pad)))


def _attention_backward(dmerged, den, a2, bp, pads, cfg, keys=True):
    """(dq, dk, dv) of the attention's projected inputs for dmerged (B, S, d),
    from what the training pass kept (model._block): the softmax row sums
    den (B, H, S, 1). The items run in the chunks of _attention_pads, on its
    buffers. Q, K and V are rebuilt a chunk at a time from the first layer
    norm's output a2 (B * S, d) and bp's projections as the forward built
    them, so with its bits, and from Q and K the causal probabilities: one
    score GEMM into s, the triangle's row max and exp (model._causal_exp,
    as the forward's causal square runs them) and a division by den. dk is
    None unless keys. The padded rows and keys and the masked entries are
    exact zeros, so they add nothing.
    """
    chunks, (p_c, s_c, dA_c, qf_c, kf_c, vf_c) = pads
    B, S, d = dmerged.shape
    H, hd = cfg.n_heads, cfg.head_dim
    dtype = dmerged.dtype
    scale = dtype.type(1.0) / np.sqrt(dtype.type(hd))
    dq, dv = np.empty_like(dmerged), np.empty_like(dmerged)
    dk = np.empty_like(dmerged) if keys else None

    def split(buf, x):  # x, S rows of d an item, into buf's first S rows, per head
        heads = x.reshape(-1, S, H, hd).transpose(0, 2, 1, 3)
        buf.reshape(-1, H, buf.shape[1], hd)[:, :, :S] = heads

    def unsplit(x, out):  # the first S rows of x, per head, into out (n, S, d)
        out.reshape(-1, S, H, hd)[...] = x[:, :S].reshape(-1, H, S, hd).transpose(0, 2, 1, 3)

    for items in chunks:
        n = items.stop - items.start
        p, sc, dA, qf, kf, vf = (buf[:n * H] for buf in (p_c, s_c, dA_c, qf_c, kf_c, vf_c))
        a = a2[items.start * S:items.stop * S]
        split(qf, M._mm(a, bp.wq))
        qf[:, :S] *= scale
        split(kf, M._mm(a, bp.wk))
        split(vf, M._mm(a, bp.wv))
        np.matmul(qf, kf.transpose(0, 2, 1), out=sc)
        prob = M._causal_exp(sc, S)
        prob /= M._per_key(den[items].reshape(n * H, S))
        M._put_tril(p, prob, S)
        split(dA, dmerged[items])

        dp = np.matmul(dA, vf.transpose(0, 2, 1), out=sc)
        unsplit(np.matmul(p.transpose(0, 2, 1), dA), dv[items])
        dp -= np.sum(dp * p, axis=-1, keepdims=True)
        dp *= p  # the scores' gradient
        unsplit(np.matmul(dp, kf) * scale, dq[items])
        if keys:
            unsplit(np.matmul(dp.transpose(0, 2, 1), qf), dk[items])
    return dq, dk, dv


def _cross_entropy(logits: np.ndarray, tokens: np.ndarray, mask: np.ndarray):
    """Next-token cross-entropy of logits (B, T, V) against tokens (B, T),
    from one pinned exp.

    Returns (nll, dlg): nll the float64 sum of -log p(target) over the
    positions mask (B, T-1) selects, dlg (B, T-1, V) the softmax minus the
    one-hot target, the gradient of each position's -log p(target). dlg
    feeds the weights and is pinned; nll is only reported, so it takes
    numpy's float64 log of the softmax denominators.
    """
    lg = logits[:, :-1]
    if not np.all(np.isfinite(lg)):
        raise NonFiniteLoss("non-finite logits")
    targets = tokens[:, 1:]
    z = lg - lg.max(-1, keepdims=True)
    e = detmath.exp(z)
    den = e.sum(-1, keepdims=True)
    rows = np.arange(lg.shape[0])[:, None]
    cols = np.arange(lg.shape[1])[None, :]
    logp_t = z[rows, cols, targets].astype(np.float64) - np.log(den[..., 0].astype(np.float64))
    nll = float(-(logp_t * mask).sum())
    dlg = e / den
    dlg[rows, cols, targets] -= lg.dtype.type(1.0)
    return nll, dlg


def loss_and_grads(params: M.ParameterSet, cfg: M.ModelConfig,
                   tokens: np.ndarray, mask: np.ndarray, wrt=None):
    """Masked cross-entropy and its analytic gradient.

    With wrt None, the gradient of every weight, as a ParameterSet in the
    parameters' layout. With wrt a non-empty tuple of BlockParams field
    names, the gradient of those alone, as one {name: gradient} dict per
    block, bit for bit the full call's: the backward pass then builds no
    other gradient, and as the embedding takes none, it stops at block 1's
    projections.
    The forward pass keeps per block only what those gradients read and
    the backward cannot rebuild cheaply (see model._block): of the
    attention, the softmax row sums alone, from which and the rebuilt Q and
    K the backward rebuilds the probabilities. The backward lets go of the
    logits once their gradient is built, of that gradient once the final
    layer norm's is unless the embedding's needs it, and of each block's
    arrays once it has read them.
    """
    want = M.BlockParams.FIELD_ORDER if wrt is None else tuple(wrt)
    unknown = set(want) - set(M.BlockParams.FIELD_ORDER)
    if unknown:
        raise TrainerError(f"wrt names no block weight: {sorted(unknown)}")
    if not want:
        raise TrainerError("wrt names no weight")
    dtype = params.dtype
    nmask = float(mask.sum())
    if nmask == 0:
        raise TrainerError("loss mask is empty")
    with np.errstate(over="ignore", invalid="ignore"):
        logits, saved, (xf, xnf, invf) = M._forward(params, cfg, tokens, need_aux=want)
    B, T, V = logits.shape
    d = cfg.d_model

    nll, dlg = _cross_entropy(logits, tokens, mask)
    loss = nll / nmask
    dlg *= (mask / dtype.type(nmask))[..., None]
    dlogits = np.zeros_like(logits)
    dlogits[:, :-1] = dlg
    del logits, dlg

    dl2 = dlogits.reshape(-1, V)
    del dlogits
    dxf = (dl2 @ params.emb).reshape(B, T, d)
    if wrt is not None:
        dl2 = xf = None  # only the embedding's gradient reads them again
    dx = _ln_backward(dxf, xnf, invf, params.gf)

    gblocks = []
    pads = _attention_pads(B, T, cfg, dtype)
    for bi in range(cfg.n_blocks - 1, -1, -1):
        st, saved[bi] = saved[bi], None
        bp = params.blocks[bi]
        # the residual stream's gradient below this block feeds a lower
        # block or the embedding
        dx_below = wrt is None or bi > 0
        gb = {}
        dy2 = dx.reshape(-1, d)
        if "w2" in want:
            gb["w2"] = st["g"].T @ dy2
        du = dy2 @ bp.w2.T
        du *= st.pop("gelu_grad")
        if "w1" in want:
            gb["w1"] = (st["xn2"] * bp.g2 + bp.b2).reshape(-1, d).T @ du
        df = (du @ bp.w1.T).reshape(B, T, d)
        del du
        if "g2" in want or "b2" in want:
            gb["g2"], gb["b2"] = _ln_param_grads(df, st["xn2"])
        dx_mid = dx + _ln_backward(df, st["xn2"], st["inv2"], bp.g2)
        del df

        dxm2 = dx_mid.reshape(-1, d)
        if "wo" in want:
            gb["wo"] = st["attn_merged"].reshape(-1, d).T @ dxm2
        dmerged = (dxm2 @ bp.wo.T).reshape(B, T, d)
        ln1_wanted = "g1" in want or "b1" in want
        need_da = dx_below or ln1_wanted
        a2 = (st["xn1"] * bp.g1 + bp.b1).reshape(-1, d)
        dq_m, dk_m, dv_m = _attention_backward(dmerged, st["att"], a2, bp, pads, cfg,
                                               keys=need_da or "wk" in want)
        for name, dm in (("wq", dq_m), ("wk", dk_m), ("wv", dv_m)):
            if name in want:
                gb[name] = a2.T @ dm.reshape(-1, d)
        if need_da:
            da = (dq_m.reshape(-1, d) @ bp.wq.T + dk_m.reshape(-1, d) @ bp.wk.T
                  + dv_m.reshape(-1, d) @ bp.wv.T).reshape(B, T, d)
            if ln1_wanted:
                gb["g1"], gb["b1"] = _ln_param_grads(da, st["xn1"])
            if dx_below:
                dx = dx_mid + _ln_backward(da, st["xn1"], st["inv1"], bp.g1)
        gblocks.append(gb)
    gblocks.reverse()
    if wrt is not None:
        return loss, [{name: gb[name] for name in want} for gb in gblocks]

    demb = dl2.T @ xf.reshape(-1, d)
    emb_scale = np.sqrt(dtype.type(d))
    np.add.at(demb, tokens, dx * emb_scale)
    dgf, dbf = _ln_param_grads(dxf, xnf)
    return loss, M.ParameterSet(cfg, demb, [M.BlockParams(**gb) for gb in gblocks], dgf, dbf)


# --------------------------------------------------------------------- SGD

def _batch_order_stream(seed: int) -> Stream:
    return Stream(mix64(seed ^ 0x73687566666C65))  # "shuffle"


def _run_sgd(cfg: M.ModelConfig, prepared, tconfig, apply_update, materialize, wrt=None):
    """Common SGD driver; update policy differs between base and adapters,
    and wrt names the block weights the update takes (None: every weight)."""
    stream = _batch_order_stream(tconfig.seed)
    order: list[int] = []
    n = len(prepared)
    for step in range(tconfig.steps):
        while len(order) < tconfig.batch_size:
            idxs = list(range(n))
            stream.shuffle(idxs)
            order.extend(idxs)
        batch = order[: tconfig.batch_size]
        del order[: tconfig.batch_size]
        tokens, mask = _make_batch(prepared, batch)
        step_params = materialize()
        try:
            # a diverging run overflows before it is caught; keep that quiet
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_grads(step_params, cfg, tokens, mask, wrt=wrt)
        except NonFiniteLoss:
            raise DivergenceError(step) from None
        if not np.isfinite(loss):
            raise DivergenceError(step)
        apply_update(grads)
    return materialize()


def pretrain_base(corpus, config: M.ModelConfig, tconfig: TrainConfig) -> M.ParameterSet:
    """Cross-entropy SGD over every weight, starting from the seeded init."""
    if not corpus:
        raise TrainerError("empty corpus")
    params = M.init_parameters(config, tconfig.seed)
    if tconfig.steps == 0:
        return params
    prepared = _prepare(corpus, min(tconfig.max_example_len, config.max_seq))
    lr = F32(tconfig.learning_rate)

    arrays = list(params.iter_arrays())

    def apply_update(grads):
        arrays[:] = [w - lr * g for w, g in zip(arrays, grads.iter_arrays())]

    return _run_sgd(config, prepared, tconfig, apply_update,
                    lambda: M.ParameterSet.from_arrays(config, arrays))


# -------------------------------------------------------------------- LoRA

@dataclass
class AdapterSet:
    """Low-rank factors per block for the adapted projections.

    factors[i][name] = (A, B) with A (d_model x r), B (r x d_model); the
    merged weight is W + A @ B. ``iter_arrays`` yields the arrays in the
    order of ``adapter_layout``, the file, digest and draw order.
    """

    factors: list
    tconfig: TrainConfig
    base_fingerprint: bytes

    def iter_arrays(self):
        for block in self.factors:
            for name in ADAPTED_FIELDS:
                yield from block[name]


def adapter_layout(config: M.ModelConfig, rank: int) -> list:
    """The one adapter layout (see M.layout_size): per block, A then B for
    each ADAPTED_FIELDS name."""
    d = config.d_model
    block = tuple(entry for name in ADAPTED_FIELDS
                  for entry in ((name + ".A", (d, rank)), (name + ".B", (rank, d))))
    return [(config.n_blocks, block)]


def _factors(config: M.ModelConfig, arrays) -> list:
    """factors[i][name] from arrays in adapter_layout order."""
    it = iter(arrays)
    return [{name: (next(it), next(it)) for name in ADAPTED_FIELDS}
            for _ in range(config.n_blocks)]


def adapter_fingerprint(adapters: AdapterSet) -> bytes:
    return M.digest(adapters.iter_arrays())


def _init_adapters(config: M.ModelConfig, tconfig: TrainConfig):
    """A from the seeded generator through M.draw_uniform, B zero."""
    d, r = config.d_model, tconfig.adapter_rank
    if r > d:
        raise TrainerError("adapter rank exceeds d_model")
    stream = Stream(mix64(tconfig.seed ^ 0x61646170746572))  # "adapter"
    return _factors(config, (M.draw_uniform(stream, shape, d) if name.endswith(".A")
                             else np.zeros(shape, dtype=np.float32)
                             for name, shape in M.layout_entries(adapter_layout(config, r))))


def _merged(base: M.ParameterSet, factors) -> M.ParameterSet:
    """base with W + A @ B on every adapted projection of every block."""
    blocks = [dataclasses.replace(bp, **{name: getattr(bp, name) + a @ b
                                         for name, (a, b) in block.items()})
              for bp, block in zip(base.blocks, factors)]
    return dataclasses.replace(base, blocks=blocks)


def finetune(base: M.ParameterSet, examples, tconfig: TrainConfig) -> AdapterSet:
    """Train only the adapter factors, on the examples and nothing else,
    taken in the order given (provisioning passes the key's shards in
    ascending id); the SGD driver's seeded shuffle orders the batches."""
    if not examples:
        raise TrainerError("no examples to fine-tune on")
    cfg = base.config
    base_fp = M.fingerprint(base)
    factors = _init_adapters(cfg, tconfig)
    adapters = AdapterSet(factors=factors, tconfig=tconfig, base_fingerprint=base_fp)
    if tconfig.steps == 0:
        return adapters

    prepared = _prepare(examples, min(tconfig.max_example_len, cfg.max_seq))
    lr = F32(tconfig.learning_rate)

    def apply_update(grads):
        for block, gb in zip(factors, grads):
            for name, (a, b) in block.items():
                dw = gb[name]
                block[name] = (a - lr * (dw @ b.T), b - lr * (a.T @ dw))

    _run_sgd(cfg, prepared, tconfig, apply_update,
             lambda: _merged(base, factors), wrt=ADAPTED_FIELDS)
    return adapters


def merge(base: M.ParameterSet, adapters: AdapterSet) -> M.ParameterSet:
    """Standalone parameter set with W' = W + A @ B on adapted projections."""
    if adapters.base_fingerprint != M.fingerprint(base):
        raise TrainerError("adapters were trained against a different base")
    return _merged(base, adapters.factors)


def save_adapters(path, adapters: AdapterSet) -> None:
    M.write_weight_file(path, ADAPTER_MAGIC, ADAPTER_VERSION,
                        adapters.base_fingerprint + adapters.tconfig.pack(),
                        adapters.iter_arrays())


def load_adapters(path, config: M.ModelConfig) -> AdapterSet:
    def parse(header):
        tconfig = TrainConfig.unpack(header[32:])
        return (header[:32], tconfig), adapter_layout(config, tconfig.adapter_rank)

    (base_fp, tconfig), arrays = M.read_weight_file(path, ADAPTER_MAGIC, ADAPTER_VERSION,
                                                    32 + 28, parse, TrainerError)
    return AdapterSet(factors=_factors(config, arrays), tconfig=tconfig,
                      base_fingerprint=base_fp)


# ------------------------------------------------------------------ probes

def forgetting_probe(params: M.ParameterSet, cfg: M.ModelConfig,
                     heldout, batch_size: int = 16) -> float:
    """Mean completion cross-entropy on held-out examples (regression guard)."""
    if not heldout:
        raise TrainerError("empty heldout set")
    prepared = _prepare(heldout, cfg.max_seq)
    total = 0.0
    count = 0.0
    for start in range(0, len(prepared), batch_size):
        idxs = list(range(start, min(start + batch_size, len(prepared))))
        tokens, mask = _make_batch(prepared, idxs)
        logits, _, _ = M._forward(params, cfg, tokens)
        total += _cross_entropy(logits, tokens, mask)[0]
        count += float(mask.sum())
    return total / count
