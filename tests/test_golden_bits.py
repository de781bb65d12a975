"""Absolute output bits of the engine, the trainer and the pinned math.

Every other bitwise test compares two paths of the same build (step against
full, hypothesis against full, twin against twin), so a change that moved
every bit the same way would still pass them. These digests pin the bits
themselves. They were taken with numpy 2.4 and OpenBLAS 0.3.31; a BLAS build
with other GEMM microkernels may legitimately move them, and then they have
to be re-taken from the unchanged code on that build before a change to the
engine is judged against them.
"""

import hashlib

import numpy as np

from ciphermind import detmath
from ciphermind import model as M
from ciphermind import trainer as T
from ciphermind.scheduler import Stream

# max_seq > KEY_SEG, so the passes below reduce over two key segments
CFG = M.ModelConfig(n_blocks=3, d_model=32, n_heads=2, d_ff=64,
                    vocab_size=260, max_seq=288)

GOLDEN = {
    "forward_full":
        "20acd3474f406d377d55af2198c1e60b97ec13d39d4fdc75211e41eee29d4fea",
    "extend_cache_and_step":
        "229baca6901529765658e8beaa74bd1662deef46c27b16a52cc3741b9ecb3375",
    "hypothesis_taps":
        "58e8f6d8c1c8410133777bb19cd526369777887d42c8565244fda88236596031",
    # every weight's gradient on _loss_batches, loss excluded
    "loss_and_grads":
        "6998b23ca10169c143d14b11497a271d9c0e7316107f63da3ca5a8ef8f1d114c",
    "finetune_adapters":
        "3d27c48d658625edb5ecfea00d196aaed645f22c2cae0a966390bdeb74af5a60",
    "exp":
        "e3c4eea391d22527f07c6c7f3ec44c370d72dfe3f471af63808f33f62f561344",
    "tanh":
        "0be4511263622af39de1838cf8ef7d93c117e4de8d7607c1645373aca605d22d",
    "gelu":
        "c00b0d2e23445740ae30040de14b372110f076b94608a5a5b5b5860096c4d21f",
    "init_parameters_default_config":
        "ddcbe25d129ca54ff5437df825252b9cd5b00e4fb768085f6f9d263ea439625b",
    "init_adapters_default_config":
        "723681b7f2ea87be1851e63cf1d3a8c1bb1f4cfbf0978d6c63cc4a4a60c6c95b",
    # SHA-256 of the bytes save_parameters and save_adapters write
    "parameter_file":
        "e5ff04f30c5f6a1ab0abffafcaa94cad3a48d367cd5f9525a2387c65aeb19b39",
    "adapter_file":
        "365ac06d3465a5ce6375f5d068cbd22b3d0e8fe8de72cd67ffac980fc28adbe0",
}


# The reported loss on each of _loss_batches, exactly. No weight, tap or
# frame is computed from it, so it is not pinned math: it takes numpy's
# float64 log, and another libm may move its last digits without moving any
# gradient bit; then re-take these, not the gradient digest.
LOSSES = (5.7592522504759645, 5.787794333452193, 5.72936632632406)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(arr.dtype.str.encode() + repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _tokens(seed, shape):
    return np.random.default_rng(seed).integers(0, 260, size=shape).astype(np.int64)


def _params():
    return M.init_parameters(CFG, seed=2506)


def _float32_sweep() -> np.ndarray:
    """Every 997th float32 bit pattern (NaNs and infinities included) plus
    the edges of the pinned exp."""
    bits = np.arange(0, 2 ** 32, 997, dtype=np.uint64).astype(np.uint32)
    edges = np.array([np.nan, np.inf, -np.inf, -1e30, 0.0, -0.0,
                      detmath._EXP_LO, detmath._EXP_HI], dtype=np.float32)
    return np.concatenate([bits.view(np.float32), edges])


def _forward_full_digest(cfg, params):
    return _digest(*M.forward_full(params, cfg, _tokens(1, 220)))


def _extend_cache_and_step_digest(cfg, params):
    toks = _tokens(2, 140)
    cache = M.KVCache(cfg)
    hid, logits = M.extend_cache(params, cfg, cache, toks[:125])
    parts = [hid, logits]
    for tok in toks[125:]:  # one-token steps cross into the second key segment
        hid_t, logits_t = M.extend_cache(params, cfg, cache, [int(tok)])
        parts += [hid_t[:, 0], logits_t[0]]
    return _digest(*parts)


def test_forward_full_two_segments():
    assert _forward_full_digest(CFG, _params()) == GOLDEN["forward_full"]


def test_extend_cache_and_forward_step():
    assert _extend_cache_and_step_digest(CFG, _params()) == GOLDEN["extend_cache_and_step"]


def test_hypothesis_taps_every_layer_across_segments():
    params = _params()
    cache = M.KVCache(CFG)
    M.extend_cache(params, CFG, cache, _tokens(3, 120))
    suffixes = _tokens(4, (6, 25))  # positions 120..144 straddle KEY_SEG
    taps = [M.hypothesis_taps(params, CFG, cache, suffixes, layer)
            for layer in range(1, CFG.n_blocks + 1)]
    assert _digest(*taps) == GOLDEN["hypothesis_taps"]


# The shipped head dim: at 32 terms the score GEMMs' kernel switch of model
# rule 1 applies, which head dim 16 never reaches. These pins were taken from
# the engine that still scored the shared prefix in its own per-KEY_SEG GEMMs.
CFG_HEAD_DIM_32 = M.ModelConfig(n_blocks=2, d_model=128, n_heads=4, d_ff=256,
                                vocab_size=260, max_seq=288)

GOLDEN_HEAD_DIM_32 = {
    "forward_full":
        "e9f8b145809737bbb0b38fcc318613dd4341facab148ab3febeecff09563e6a8",
    "extend_cache_and_step":
        "260cb31178d41c23bf1dda35a10df8e81983c5c0477b2e1ad823859d4f31c71a",
    # a frame's (257, 2) hypotheses and the encoder's (1, 2) tap, at every
    # layer, against a 41-position prefix and a 130-position one that
    # crosses KEY_SEG
    "hypothesis_taps":
        "c311ebaf75a06d02c36141897cbc350f3e245aceb94703793a07df77cfd6d365",
}


def _params_head_dim_32():
    return M.init_parameters(CFG_HEAD_DIM_32, seed=2507)


def test_forward_full_head_dim_32():
    digest = _forward_full_digest(CFG_HEAD_DIM_32, _params_head_dim_32())
    assert digest == GOLDEN_HEAD_DIM_32["forward_full"]


def test_extend_cache_and_forward_step_head_dim_32():
    digest = _extend_cache_and_step_digest(CFG_HEAD_DIM_32, _params_head_dim_32())
    assert digest == GOLDEN_HEAD_DIM_32["extend_cache_and_step"]


def test_hypothesis_taps_frame_batches_head_dim_32():
    cfg, params = CFG_HEAD_DIM_32, _params_head_dim_32()
    cache = M.KVCache(cfg)
    M.extend_cache(params, cfg, cache, _tokens(8, 130))
    taps = [M.hypothesis_taps(params, cfg, cache.prefix(n), _tokens(seed, (batch, 2)), layer)
            for n in (41, 130)
            for seed, batch in ((9, 257), (10, 1))
            for layer in range(1, cfg.n_blocks + 1)]
    assert _digest(*taps) == GOLDEN_HEAD_DIM_32["hypothesis_taps"]


def _loss_batches():
    # 45 positions need no padded query rows; 20 positions pad up to M_MIN;
    # 140 positions reduce over two key segments
    for seed, length in ((5, 45), (6, 20), (7, 140)):
        mask = np.zeros((3, length - 1), dtype=np.float32)
        mask[:, 10:] = 1.0
        yield _tokens(seed, (3, length)), mask


def test_loss_and_grads():
    params = _params()
    parts, losses = [], []
    for tokens, mask in _loss_batches():
        loss, grads = T.loss_and_grads(params, CFG, tokens, mask)
        losses.append(loss)
        parts += [grads.emb, grads.gf, grads.bf]
        for gb in grads.blocks:
            parts.extend(getattr(gb, name) for name in M.BlockParams.FIELD_ORDER)
    assert _digest(*parts) == GOLDEN["loss_and_grads"]
    assert tuple(losses) == LOSSES


def test_adapter_gradients_equal_the_full_calls():
    params = _params()
    for tokens, mask in _loss_batches():
        loss, full = T.loss_and_grads(params, CFG, tokens, mask)
        loss_a, part = T.loss_and_grads(params, CFG, tokens, mask, wrt=T.ADAPTED_FIELDS)
        assert loss_a == loss
        assert [tuple(gb) for gb in part] == [T.ADAPTED_FIELDS] * CFG.n_blocks
        for gb, fb in zip(part, full.blocks):
            for name in T.ADAPTED_FIELDS:
                assert _digest(gb[name]) == _digest(getattr(fb, name))


def _finetuned():
    stream = Stream(9)
    shards = [T.Shard(id=0, examples=[T.sentence_example(stream) for _ in range(4)])]
    tconfig = T.TrainConfig(seed=3, steps=2, batch_size=2, max_example_len=80)
    return T.finetune(_params(), shards, tconfig)


def test_finetune_adapter_fingerprint():
    assert T.adapter_fingerprint(_finetuned()).hex() == GOLDEN["finetune_adapters"]


def test_weight_file_bytes(tmp_path):
    M.save_parameters(tmp_path / "params.bin", _params())
    T.save_adapters(tmp_path / "adapters.bin", _finetuned())
    got = {name: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for name, f in (("parameter_file", "params.bin"), ("adapter_file", "adapters.bin"))}
    assert got == {name: GOLDEN[name] for name in got}


def test_init_parameters_fingerprint_default_config():
    params = M.init_parameters(M.ModelConfig(), seed=2506)
    assert M.fingerprint(params).hex() == GOLDEN["init_parameters_default_config"]


def test_init_adapters_fingerprint_default_config():
    # zero steps: the adapter factors are exactly their seeded initial draw
    stream = Stream(9)
    shards = [T.Shard(id=0, examples=[T.sentence_example(stream) for _ in range(4)])]
    base = M.init_parameters(M.ModelConfig(), seed=2506)
    adapters = T.finetune(base, shards, T.TrainConfig(steps=0))
    assert T.adapter_fingerprint(adapters).hex() == GOLDEN["init_adapters_default_config"]


def test_pinned_math_sweep():
    x = _float32_sweep()
    with np.errstate(all="ignore"):
        got = {name: _digest(getattr(detmath, name)(x))
               for name in ("exp", "tanh", "gelu")}
    assert got == {name: GOLDEN[name] for name in got}


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_gelu_tanh_reuse_keeps_the_bits():
    # the training pass keeps gelu's tanh for gelu_grad and rebuilds gelu's
    # output from it: t must be the pinned tanh of the inner polynomial, and
    # the rebuilt output gelu's own bits
    with np.errstate(all="ignore"):
        for x in (_float32_sweep(), _float32_sweep().astype(np.float64)):
            c0, c1 = x.dtype.type(detmath._GELU_C0), x.dtype.type(detmath._GELU_C1)
            g, t = detmath.gelu(x, return_tanh=True)
            assert _same_bits(t, detmath.tanh(c0 * (x + c1 * (x * x * x))))
            assert _same_bits(g, detmath.gelu(x))
            assert _same_bits(detmath.gelu_from_tanh(x, t), g)
