"""Deterministic base training and low-rank adapter fine-tuning.

Plain SGD, single-threaded, fixed batch order from the SplitMix64 stream,
forward/backward entirely in float32 numpy: two runs of the same build on
the same inputs produce byte-identical weights, which is the property the
whole twinning scheme stands on.

Adapters follow the usual low-rank recipe on the Q and V projections of
every block: W' = W + A @ B with A drawn from the seeded generator and B
zero, so zero training steps are exactly a no-op.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from . import codec, detmath
from . import model as M
from .scheduler import Stream, mix64

F32 = np.float32

ADAPTED_FIELDS = ("wq", "wv")  # protocol constant; both twins must agree
# the fine-tune's (shard, repeat) interleave and longest repeat payload; both
# change the twin's bits, so they are constants like ADAPTED_FIELDS
REPEAT_RATIO = (10, 1)
MAX_REPEAT_LEN = 64

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
    max_example_len: int = 139  # tokens, incl. <bos>/<sep>/<eos>

    def __post_init__(self):
        if self.steps < 0:
            raise TrainerError("steps must be non-negative")
        if self.batch_size <= 0 or self.adapter_rank <= 0:
            raise TrainerError("batch_size and adapter_rank must be positive")
        # the rate is applied in binary32; canonicalize so a config equals
        # its own wire-format echo
        object.__setattr__(self, "learning_rate", float(np.float32(self.learning_rate)))

    def pack(self) -> bytes:
        lr_bits = struct.unpack("<I", struct.pack("<f", self.learning_rate))[0]
        return struct.pack("<Q5I", self.seed & (2**64 - 1), self.steps, lr_bits,
                           self.batch_size, self.adapter_rank, self.max_example_len)

    @classmethod
    def unpack(cls, blob: bytes) -> "TrainConfig":
        seed, steps, lr_bits, batch, rank, mel = struct.unpack("<Q5I", blob)
        lr = struct.unpack("<f", struct.pack("<I", lr_bits))[0]
        return cls(seed=seed, steps=steps, learning_rate=lr, batch_size=batch,
                   adapter_rank=rank, max_example_len=mel)


Example = tuple[bytes, bytes]  # (prompt text, completion text)


def example_digest_bytes(examples) -> bytes:
    out = bytearray()
    for prompt, completion in examples:
        out += struct.pack("<I", len(prompt)) + prompt
        out += struct.pack("<I", len(completion)) + completion
    return bytes(out)


@dataclass
class Shard:
    id: int
    examples: list
    digest: bytes = field(default=b"")

    def __post_init__(self):
        if not self.examples:
            raise TrainerError(f"shard {self.id} has no examples")
        want = hashlib.sha256(example_digest_bytes(self.examples)).digest()
        if not self.digest:
            self.digest = want
        elif self.digest != want:
            raise TrainerError(f"shard {self.id} digest does not match content")


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


def make_pretrain_corpus(seed: int, n_examples: int,
                         repeat_fraction: float = 0.9) -> list:
    """Public pretraining corpus: mostly repeat-task, some plain sentences."""
    stream = Stream(mix64(seed ^ 0x707265747261696E))  # "pretrain"
    out = []
    cut = int(repeat_fraction * 1000)
    for _ in range(n_examples):
        if stream.next_below(1000) < cut:
            out.append(repeat_example(stream, _curriculum_length(stream)))
        else:
            out.append(sentence_example(stream))
    return out


def build_repeat_dataset(shards, ratio=REPEAT_RATIO, *, seed: int = 0) -> list:
    """Interleave shard text with synthetic repeat-task examples.

    ratio = (shard, repeat): after every `ratio[0]` shard examples,
    `ratio[1]` repeat examples are injected (so (10, 1) turns 10 shard
    examples into 11 total). Order and repeat payloads derive from the
    shard digests and the seed.
    """
    if not shards:
        raise TrainerError("no shards")
    r_shard, r_repeat = ratio
    if r_shard <= 0 or r_repeat <= 0:
        raise TrainerError("ratio parts must be positive")
    s0 = seed & (2**64 - 1)
    for sh in shards:
        s0 = mix64(s0 ^ int.from_bytes(sh.digest[:8], "little"))
    stream = Stream(s0)

    shard_examples = [ex for sh in shards for ex in sh.examples]
    stream.shuffle(shard_examples)
    out = []
    pending = 0
    for ex in shard_examples:
        out.append(ex)
        pending += 1
        if pending == r_shard:
            for _ in range(r_repeat):
                out.append(repeat_example(stream, 1 + stream.next_below(MAX_REPEAT_LEN)))
            pending = 0
    if pending:
        for _ in range(r_repeat):
            out.append(repeat_example(stream, 1 + stream.next_below(MAX_REPEAT_LEN)))
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
    dg = np.sum(dy * xn, axis=tuple(range(dy.ndim - 1)))
    db = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxn = dy * g
    dx = inv * (dxn - dxn.mean(-1, keepdims=True) - xn * (dxn * xn).mean(-1, keepdims=True))
    return dx, dg, db


def _attention_backward(dmerged, aux, B, S, cfg):
    e, den, qf, kf, vf, s_pad, t_pad = aux
    H, hd = cfg.n_heads, cfg.head_dim
    d = cfg.d_model
    dtype = dmerged.dtype
    p = e / den  # zero in padded rows, where dA is zero too

    dA = np.zeros((B * H, s_pad, hd), dtype=dtype)
    dA[:, :S] = np.ascontiguousarray(
        dmerged.reshape(B, S, H, hd).transpose(0, 2, 1, 3)).reshape(B * H, S, hd)

    dp = np.matmul(dA, vf.transpose(0, 2, 1))
    dv = np.matmul(p.transpose(0, 2, 1), dA)
    ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
    dq = np.matmul(ds, kf) * (dtype.type(1.0) / np.sqrt(dtype.type(hd)))
    dk = np.matmul(ds.transpose(0, 2, 1), qf)

    def unsplit(x, n):
        return np.ascontiguousarray(
            x[:, :n].reshape(B, H, n, hd).transpose(0, 2, 1, 3)).reshape(B, n, d)

    return unsplit(dq, S), unsplit(dk, S), unsplit(dv, S)


def _forward_train(params: M.ParameterSet, cfg: M.ModelConfig, tokens: np.ndarray):
    """Teacher-forced pass over a batch (B, T) that keeps what the backward
    pass needs. Returns (logits, saved, head_ln): saved[i] are block i's
    intermediates, head_ln the final layer norm's (out, normalized, inverse
    std)."""
    x = M._embed(params, cfg, tokens, 0)
    empty = np.zeros((0, cfg.d_model), dtype=params.dtype)
    saved = []
    for bp in params.blocks:
        x, _, _, st = M._block(bp, cfg, x, empty, empty, 0, need_aux=True)
        saved.append(st)
    logits, head_ln = M._head(params, cfg, x)
    return logits, saved, head_ln


def _cross_entropy(logits: np.ndarray, tokens: np.ndarray, mask: np.ndarray):
    """Next-token cross-entropy of logits (B, T, V) against tokens (B, T),
    from one pinned exp.

    Returns (nll, dlg): nll the float64 sum of -log p(target) over the
    positions mask (B, T-1) selects, dlg (B, T-1, V) the softmax minus the
    one-hot target, the gradient of each position's -log p(target).
    """
    lg = logits[:, :-1]
    if not np.all(np.isfinite(lg)):
        raise NonFiniteLoss("non-finite logits")
    targets = tokens[:, 1:]
    mx = lg.max(-1, keepdims=True)
    e = detmath.exp(lg - mx)
    den = e.sum(-1, keepdims=True)
    rows = np.arange(lg.shape[0])[:, None]
    cols = np.arange(lg.shape[1])[None, :]
    logp_t = (lg - mx - detmath.log(den))[rows, cols, targets]
    nll = float(-(logp_t.astype(np.float64) * mask).sum())
    dlg = e / den
    dlg[rows, cols, targets] -= lg.dtype.type(1.0)
    return nll, dlg


def loss_and_grads(params: M.ParameterSet, cfg: M.ModelConfig,
                   tokens: np.ndarray, mask: np.ndarray):
    """Masked cross-entropy and analytic gradients for every weight."""
    dtype = params.dtype
    nmask = float(mask.sum())
    if nmask == 0:
        raise TrainerError("loss mask is empty")
    with np.errstate(over="ignore", invalid="ignore"):
        logits, saved, (xf, xnf, invf) = _forward_train(params, cfg, tokens)
    B, T, V = logits.shape
    d = cfg.d_model

    nll, dlg = _cross_entropy(logits, tokens, mask)
    loss = nll / nmask
    dlg *= (mask / dtype.type(nmask))[..., None]
    dlogits = np.zeros_like(logits)
    dlogits[:, :-1] = dlg

    dl2 = dlogits.reshape(-1, V)
    demb = dl2.T @ xf.reshape(-1, d)
    dxf = (dl2 @ params.emb).reshape(B, T, d)
    dx, dgf, dbf = _ln_backward(dxf, xnf, invf, params.gf)

    gblocks = []
    for bi in range(cfg.n_blocks - 1, -1, -1):
        st = saved[bi]
        bp = params.blocks[bi]
        dy2 = dx.reshape(-1, d)
        dW2 = st["g"].T @ dy2
        dgelu = dy2 @ bp.w2.T
        du = dgelu * detmath.gelu_grad(st["u"])
        f2 = (st["xn2"] * bp.g2 + bp.b2).reshape(-1, d)
        dW1 = f2.T @ du
        df = (du @ bp.w1.T).reshape(B, T, d)
        d_ln2, dg2, db2 = _ln_backward(df, st["xn2"], st["inv2"], bp.g2)
        dx_mid = dx + d_ln2

        dxm2 = dx_mid.reshape(-1, d)
        dWo = st["attn_merged"].reshape(-1, d).T @ dxm2
        dmerged = (dxm2 @ bp.wo.T).reshape(B, T, d)
        dq_m, dk_m, dv_m = _attention_backward(dmerged, st["att"], B, T, cfg)
        a2 = st["a"].reshape(-1, d)
        dWq = a2.T @ dq_m.reshape(-1, d)
        dWk = a2.T @ dk_m.reshape(-1, d)
        dWv = a2.T @ dv_m.reshape(-1, d)
        da = (dq_m.reshape(-1, d) @ bp.wq.T + dk_m.reshape(-1, d) @ bp.wk.T
              + dv_m.reshape(-1, d) @ bp.wv.T).reshape(B, T, d)
        d_ln1, dg1, db1 = _ln_backward(da, st["xn1"], st["inv1"], bp.g1)
        dx = dx_mid + d_ln1

        gblocks.append({"wq": dWq, "wk": dWk, "wv": dWv, "wo": dWo,
                        "w1": dW1, "w2": dW2, "g1": dg1, "b1": db1,
                        "g2": dg2, "b2": db2})
    gblocks.reverse()

    emb_scale = np.sqrt(dtype.type(d))
    np.add.at(demb, tokens, dx * emb_scale)

    grads = {"emb": demb, "blocks": gblocks, "gf": dgf, "bf": dbf}
    return loss, grads


# --------------------------------------------------------------------- SGD

def _batch_order_stream(seed: int) -> Stream:
    return Stream(mix64(seed ^ 0x73687566666C65))  # "shuffle"


def _run_sgd(cfg: M.ModelConfig, prepared, tconfig, apply_update, materialize,
             loss_log=None):
    """Common SGD driver; update policy differs between base and adapters."""
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
                loss, grads = loss_and_grads(step_params, cfg, tokens, mask)
        except NonFiniteLoss:
            raise DivergenceError(step) from None
        if not np.isfinite(loss):
            raise DivergenceError(step)
        if loss_log is not None:
            loss_log.append(loss)
        apply_update(grads)
    return materialize()


def pretrain_base(corpus, config: M.ModelConfig, tconfig: TrainConfig,
                  loss_log=None) -> M.ParameterSet:
    """Cross-entropy SGD over every weight, starting from the seeded init."""
    if not corpus:
        raise TrainerError("empty corpus")
    params = M.init_parameters(config, tconfig.seed)
    if tconfig.steps == 0:
        return params
    prepared = _prepare(corpus, min(tconfig.max_example_len, config.max_seq))
    lr = F32(tconfig.learning_rate)

    state = {
        "emb": params.emb, "gf": params.gf, "bf": params.bf,
        "blocks": [dict(zip(M.BlockParams.FIELD_ORDER, bp.fields()))
                   for bp in params.blocks],
    }

    def materialize():
        blocks = [M.BlockParams(**b) for b in state["blocks"]]
        return M.ParameterSet(config, state["emb"], blocks, state["gf"], state["bf"])

    def apply_update(grads):
        state["emb"] = state["emb"] - lr * grads["emb"]
        state["gf"] = state["gf"] - lr * grads["gf"]
        state["bf"] = state["bf"] - lr * grads["bf"]
        for b, gb in zip(state["blocks"], grads["blocks"]):
            for name in M.BlockParams.FIELD_ORDER:
                b[name] = b[name] - lr * gb[name]

    return _run_sgd(config, prepared, tconfig, apply_update, materialize, loss_log)


# -------------------------------------------------------------------- LoRA

@dataclass
class AdapterSet:
    """Low-rank factors per block for the adapted projections.

    factors[i][name] = (A, B) with A (d_model x r), B (r x d_model);
    the merged weight is W + A @ B.
    """

    factors: list
    tconfig: TrainConfig
    base_fingerprint: bytes

    def iter_arrays(self):
        for block in self.factors:
            for name in ADAPTED_FIELDS:
                a, b = block[name]
                yield a
                yield b


def adapter_fingerprint(adapters: AdapterSet) -> bytes:
    h = hashlib.sha256()
    for arr in adapters.iter_arrays():
        h.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return h.digest()


def _init_adapters(config: M.ModelConfig, tconfig: TrainConfig):
    """A from the seeded generator through M.draw_uniform, B zero."""
    d, r = config.d_model, tconfig.adapter_rank
    if r > d:
        raise TrainerError("adapter rank exceeds d_model")
    stream = Stream(mix64(tconfig.seed ^ 0x61646170746572))  # "adapter"
    return [{name: (M.draw_uniform(stream, (d, r), d), np.zeros((r, d), dtype=np.float32))
             for name in ADAPTED_FIELDS}
            for _ in range(config.n_blocks)]


def _merged(base: M.ParameterSet, factors) -> M.ParameterSet:
    """base with W + A @ B on every adapted projection of every block."""
    return base.replace_weights(
        {i: {name: getattr(base.blocks[i], name) + a @ b
             for name, (a, b) in block.items()}
         for i, block in enumerate(factors)})


def finetune(base: M.ParameterSet, shards, tconfig: TrainConfig,
             loss_log=None) -> AdapterSet:
    """Train only the adapter factors on the repeat-injected shard data."""
    if not shards:
        raise TrainerError("no shards to fine-tune on")
    cfg = base.config
    base_fp = M.fingerprint(base)
    factors = _init_adapters(cfg, tconfig)
    adapters = AdapterSet(factors=factors, tconfig=tconfig, base_fingerprint=base_fp)
    if tconfig.steps == 0:
        return adapters

    dataset = build_repeat_dataset(shards, REPEAT_RATIO, seed=tconfig.seed)
    prepared = _prepare(dataset, min(tconfig.max_example_len, cfg.max_seq))
    lr = F32(tconfig.learning_rate)

    def apply_update(grads):
        for i, block in enumerate(factors):
            for name in ADAPTED_FIELDS:
                a, b = block[name]
                dw = grads["blocks"][i][name]
                da = dw @ b.T
                db = a.T @ dw
                block[name] = (a - lr * da, b - lr * db)

    _run_sgd(cfg, prepared, tconfig, apply_update,
             lambda: _merged(base, factors), loss_log)
    return adapters


def merge(base: M.ParameterSet, adapters: AdapterSet) -> M.ParameterSet:
    """Standalone parameter set with W' = W + A @ B on adapted projections."""
    if adapters.base_fingerprint != M.fingerprint(base):
        raise TrainerError("adapters were trained against a different base")
    return _merged(base, adapters.factors)


def save_adapters(path, adapters: AdapterSet) -> None:
    with open(path, "wb") as f:
        f.write(ADAPTER_MAGIC)
        f.write(bytes([ADAPTER_VERSION]))
        f.write(adapters.base_fingerprint)
        f.write(adapters.tconfig.pack())
        for arr in adapters.iter_arrays():
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_adapters(path, config: M.ModelConfig) -> AdapterSet:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != ADAPTER_MAGIC:
        raise TrainerError("not an adapter file (bad magic)")
    if len(blob) < 65:
        raise TrainerError("adapter file cut inside its 65-byte header")
    if blob[4] != ADAPTER_VERSION:
        raise TrainerError(f"unsupported adapter file version {blob[4]}")
    base_fp = blob[5:37]
    tconfig = TrainConfig.unpack(blob[37:65])
    d, r = config.d_model, tconfig.adapter_rank
    flat = np.frombuffer(blob[65:], dtype="<f4").astype(np.float32)
    want = config.n_blocks * len(ADAPTED_FIELDS) * 2 * d * r
    if flat.size != want:
        raise TrainerError("adapter payload size mismatch")
    pos = 0
    factors = []
    for _ in range(config.n_blocks):
        block = {}
        for name in ADAPTED_FIELDS:
            a = flat[pos: pos + d * r].reshape(d, r).copy()
            pos += d * r
            b = flat[pos: pos + r * d].reshape(r, d).copy()
            pos += r * d
            block[name] = (a, b)
        factors.append(block)
    return AdapterSet(factors=factors, tconfig=tconfig, base_fingerprint=base_fp)


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
        logits, _, _ = _forward_train(params, cfg, tokens)
        total += _cross_entropy(logits, tokens, mask)[0]
        count += float(mask.sum())
    return total / count
