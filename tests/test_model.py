import hashlib

import numpy as np
import pytest

from ciphermind import model as M


CFG_SMALL = M.ModelConfig(n_blocks=3, d_model=32, n_heads=2, d_ff=64,
                          vocab_size=260, max_seq=96)


def _rand_tokens(rng, n):
    return rng.integers(0, 260, size=n).astype(np.int64)


# ---------------------------------------------------------------- reference

def _reference_forward(params, cfg, tokens):
    """Independent float64 re-implementation (plain numpy, no segmenting)."""
    p64 = params.astype(np.float64)
    pe = M.positional_table(cfg, np.float64)
    x = p64.emb[tokens] * np.sqrt(float(cfg.d_model)) + pe[: len(tokens)]
    H, hd = cfg.n_heads, cfg.head_dim

    def ln(v, g, b):
        mu = v.mean(-1, keepdims=True)
        var = ((v - mu) ** 2).mean(-1, keepdims=True)
        return (v - mu) / np.sqrt(var + cfg.ln_epsilon) * g + b

    hiddens = []
    T = len(tokens)
    for bp in p64.blocks:
        a = ln(x, bp.g1, bp.b1)
        q = (a @ bp.wq).reshape(T, H, hd)
        k = (a @ bp.wk).reshape(T, H, hd)
        v = (a @ bp.wv).reshape(T, H, hd)
        outs = np.zeros((T, H, hd))
        for h in range(H):
            s = q[:, h] @ k[:, h].T / np.sqrt(hd)
            mask = np.triu(np.ones((T, T), dtype=bool), 1)
            s[mask] = -np.inf
            w = np.exp(s - s.max(-1, keepdims=True))
            w /= w.sum(-1, keepdims=True)
            outs[:, h] = w @ v[:, h]
        x = x + outs.reshape(T, cfg.d_model) @ bp.wo
        f = ln(x, bp.g2, bp.b2)
        u = f @ bp.w1
        g = 0.5 * u * (1 + np.tanh(0.7978845608 * (u + 0.044715 * u ** 3)))
        x = x + g @ bp.w2
        hiddens.append(x.copy())
    xf = ln(x, p64.gf, p64.bf)
    logits = xf @ p64.emb.T
    return np.stack(hiddens), logits


def test_forward_matches_float64_reference():
    rng = np.random.default_rng(0)
    params = M.init_parameters(CFG_SMALL, seed=11)
    tokens = _rand_tokens(rng, 40)
    hid, logits = M.forward_full(params, CFG_SMALL, tokens)
    ref_hid, ref_logits = _reference_forward(params, CFG_SMALL, tokens)
    assert np.abs(hid - ref_hid).max() < 1e-3
    assert np.abs(logits - ref_logits).max() < 1e-3


# ------------------------------------------------------------------- init

def test_init_deterministic_same_seed():
    a = M.init_parameters(CFG_SMALL, seed=7)
    b = M.init_parameters(CFG_SMALL, seed=7)
    assert M.fingerprint(a) == M.fingerprint(b)


def test_init_differs_across_seeds():
    a = M.init_parameters(CFG_SMALL, seed=7)
    b = M.init_parameters(CFG_SMALL, seed=8)
    assert M.fingerprint(a) != M.fingerprint(b)


def test_init_weight_range():
    params = M.init_parameters(CFG_SMALL, seed=3)
    bound = 1.0 / np.sqrt(CFG_SMALL.d_model)
    assert np.abs(params.emb).max() <= bound
    assert np.abs(params.blocks[0].wq).max() <= bound


def test_serialized_length_matches_closed_form(tmp_path):
    cfg = M.ModelConfig(n_blocks=2, d_model=16, n_heads=2, d_ff=64,
                        vocab_size=260, max_seq=64)
    params = M.init_parameters(cfg, seed=0)
    path = tmp_path / "p.cmwt"
    M.save_parameters(path, params)
    d, dff, v, L = 16, 64, 260, 2
    weights = v * d + L * (4 * d * d + 2 * d * dff + 4 * d) + 2 * d
    assert path.stat().st_size == 4 + 1 + 28 + 4 * weights
    assert cfg.weight_count() == weights


def test_parameter_file_roundtrip(tmp_path):
    params = M.init_parameters(CFG_SMALL, seed=5)
    path = tmp_path / "p.cmwt"
    M.save_parameters(path, params)
    again = M.load_parameters(path)
    assert M.fingerprint(again) == M.fingerprint(params)
    assert again.config == CFG_SMALL


def test_parameter_file_cut_inside_its_header(tmp_path):
    path = tmp_path / "p.cmwt"
    M.save_parameters(path, M.init_parameters(CFG_SMALL, seed=5))
    blob = path.read_bytes()
    for cut in range(4 + 1 + 28):  # magic, version, config
        path.write_bytes(blob[:cut])
        with pytest.raises(M.ModelError):
            M.load_parameters(path)


def test_parameter_file_bad_magic(tmp_path):
    path = tmp_path / "junk.cmwt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(M.ModelError):
        M.load_parameters(path)


def test_config_validation():
    with pytest.raises(M.ModelError):
        M.ModelConfig(n_blocks=0)
    with pytest.raises(M.ModelError):
        M.ModelConfig(d_model=30, n_heads=4)
    with pytest.raises(M.ModelError):
        M.ModelConfig(d_model=0)
    M.ModelConfig(n_blocks=1)  # single block allowed for gradient probes


# ------------------------------------------------------------- fingerprint

def test_fingerprint_stable_and_perturbable():
    params = M.init_parameters(CFG_SMALL, seed=1)
    f1 = M.fingerprint(params)
    f2 = M.fingerprint(params)
    assert f1 == f2
    flipped = params.astype(np.float32)
    w = flipped.blocks[0].wq.copy()
    w.flags.writeable = True
    w[0, 0] = -w[0, 0]
    mutated = flipped.replace_weights({0: {"wq": w}})
    assert M.fingerprint(mutated) != f1


def test_sha256_empty_string_anchor():
    assert (hashlib.sha256(b"").hexdigest()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


# ---------------------------------------------------------------- forward

def test_single_token_shapes():
    params = M.init_parameters(CFG_SMALL, seed=2)
    hid, logits = M.forward_full(params, CFG_SMALL, [5])
    assert hid.shape == (3, 1, 32)
    assert logits.shape == (1, 260)


def test_causality_bitwise():
    rng = np.random.default_rng(4)
    params = M.init_parameters(CFG_SMALL, seed=4)
    tokens = _rand_tokens(rng, 50)
    hid_full, logits_full = M.forward_full(params, CFG_SMALL, tokens)
    hid_pre, logits_pre = M.forward_full(params, CFG_SMALL, tokens[:30])
    assert (hid_full[:, :30] == hid_pre).all()
    assert (logits_full[:30] == logits_pre).all()
    # two-token trivial case
    hid2, _ = M.forward_full(params, CFG_SMALL, tokens[:2])
    hid1, _ = M.forward_full(params, CFG_SMALL, tokens[:1])
    assert (hid2[:, 0] == hid1[:, 0]).all()


def test_step_equals_full_bitwise():
    rng = np.random.default_rng(5)
    params = M.init_parameters(CFG_SMALL, seed=5)
    tokens = _rand_tokens(rng, 20)
    cache = M.KVCache(CFG_SMALL)
    for t in range(len(tokens)):
        hid_col, logits_col = M.forward_step(params, CFG_SMALL, cache, int(tokens[t]))
        hid_full, logits_full = M.forward_full(params, CFG_SMALL, tokens[: t + 1])
        assert (hid_col == hid_full[:, t]).all(), f"hidden mismatch at position {t}"
        assert (logits_col == logits_full[t]).all(), f"logits mismatch at position {t}"


def test_extend_cache_equals_full_bitwise():
    rng = np.random.default_rng(6)
    params = M.init_parameters(CFG_SMALL, seed=6)
    tokens = _rand_tokens(rng, 33)
    cache = M.KVCache(CFG_SMALL)
    M.extend_cache(params, CFG_SMALL, cache, tokens[:10])
    hid_tail, logits_tail = M.extend_cache(params, CFG_SMALL, cache, tokens[10:])
    hid_full, logits_full = M.forward_full(params, CFG_SMALL, tokens)
    assert (hid_tail == hid_full[:, 10:]).all()
    assert (logits_tail == logits_full[10:]).all()


def _assert_taps_match_full_pass(cfg, seed, prefix_len, s_lens, batch):
    rng = np.random.default_rng(seed)
    params = M.init_parameters(cfg, seed=seed)
    prefix = _rand_tokens(rng, prefix_len)
    cache = M.KVCache(cfg)
    M.extend_cache(params, cfg, cache, prefix)
    layers = range(1, cfg.n_blocks + 1)
    for s_len in s_lens:
        suffixes = rng.integers(0, 260, size=(batch, s_len)).astype(np.int64)
        taps = [M.hypothesis_taps(params, cfg, cache, suffixes, layer) for layer in layers]
        for b in range(batch):
            hid_full, _ = M.forward_full(params, cfg, np.concatenate([prefix, suffixes[b]]))
            for layer in layers:
                assert (taps[layer - 1][b] == hid_full[layer - 1, -1]).all(), (s_len, layer, b)
    assert cache.length == prefix_len  # read-only for hypothesis evaluation


def test_hypothesis_taps_match_full_pass_bitwise():
    _assert_taps_match_full_pass(CFG_SMALL, 8, 15, (1, 2, 5, 11), batch=9)


# the shipped head dim (32); the head dim 16 of CFG_SMALL reduces over too few
# terms for some GEMM shape changes to move any bits
CFG_HEAD_DIM_32 = M.ModelConfig(n_blocks=2, d_model=128, n_heads=4, d_ff=256,
                                vocab_size=260, max_seq=160)


@pytest.mark.parametrize("prefix_len,s_lens", [
    (15, (1, 2, 31, 33)),
    (120, (33,)),  # positions 120..152 cross KEY_SEG
])
def test_hypothesis_taps_match_full_pass_bitwise_head_dim_32(prefix_len, s_lens):
    # a batch of 2 * M_MIN is what the shared-prefix GEMMs stack and what the
    # tap pool splits on a machine with more than one CPU
    _assert_taps_match_full_pass(CFG_HEAD_DIM_32, 8, prefix_len, s_lens,
                                 batch=2 * M.M_MIN)


def test_hypothesis_taps_empty_prefix():
    rng = np.random.default_rng(9)
    params = M.init_parameters(CFG_SMALL, seed=9)
    cache = M.KVCache(CFG_SMALL)
    suffixes = rng.integers(0, 260, size=(4, 3)).astype(np.int64)
    taps = M.hypothesis_taps(params, CFG_SMALL, cache, suffixes, 2)
    for b in range(4):
        hid_full, _ = M.forward_full(params, CFG_SMALL, suffixes[b])
        assert (taps[b] == hid_full[1, -1]).all()


def test_forward_rejects_bad_input():
    params = M.init_parameters(CFG_SMALL, seed=10)
    with pytest.raises(M.ModelError):
        M.forward_full(params, CFG_SMALL, [260])
    with pytest.raises(M.ModelError):
        M.forward_full(params, CFG_SMALL, list(range(97)))  # max_seq 96
    with pytest.raises(M.ModelError):
        M.forward_full(params, CFG_SMALL, [])


def test_cache_overflow():
    params = M.init_parameters(CFG_SMALL, seed=11)
    cache = M.KVCache(CFG_SMALL)
    M.extend_cache(params, CFG_SMALL, cache, np.zeros(96, dtype=np.int64))
    with pytest.raises(M.ModelError):
        M.forward_step(params, CFG_SMALL, cache, 1)


def test_run_twice_bit_identical():
    rng = np.random.default_rng(12)
    params = M.init_parameters(CFG_SMALL, seed=12)
    tokens = _rand_tokens(rng, 64)
    h1, l1 = M.forward_full(params, CFG_SMALL, tokens)
    h2, l2 = M.forward_full(params, CFG_SMALL, tokens)
    assert (h1 == h2).all() and (l1 == l2).all()


def test_finiteness_full_length():
    rng = np.random.default_rng(13)
    params = M.init_parameters(CFG_SMALL, seed=13)
    tokens = _rand_tokens(rng, CFG_SMALL.max_seq)
    hid, logits = M.forward_full(params, CFG_SMALL, tokens)
    assert np.isfinite(hid).all() and np.isfinite(logits).all()


def test_layernorm_outputs_normalized():
    rng = np.random.default_rng(14)
    params = M.init_parameters(CFG_SMALL, seed=14)
    tokens = _rand_tokens(rng, 48)
    hid, _ = M.forward_full(params, CFG_SMALL, tokens)
    # the residual stream after each block is what the next layer norm sees
    gains = [(bp.g1, bp.b1) for bp in params.blocks[1:]] + [(params.gf, params.bf)]
    for x, (g, b) in zip(hid, gains):
        _, xn, _ = M._layer_norm(x, g, b, CFG_SMALL.ln_epsilon)
        mean = xn.mean(axis=-1)
        assert np.abs(mean).max() < 1e-4
        var = (xn * xn).mean(axis=-1) - mean ** 2
        assert np.abs(var - 1.0).max() < 1e-2


def test_parameters_immutable():
    params = M.init_parameters(CFG_SMALL, seed=16)
    with pytest.raises(ValueError):
        params.emb[0, 0] = 1.0
