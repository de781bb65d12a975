import dataclasses
import hashlib
import pickle
import struct
import threading

import numpy as np
import pytest

from ciphermind import detmath
from ciphermind import model as M
from ciphermind import trainer as T


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


def test_config_validation():
    with pytest.raises(M.ModelError):
        M.ModelConfig(n_blocks=0)
    with pytest.raises(M.ModelError):
        M.ModelConfig(d_model=30, n_heads=4)
    with pytest.raises(M.ModelError):
        M.ModelConfig(d_model=0)
    M.ModelConfig(n_blocks=1)  # single block allowed for gradient probes


_INT_FIELDS = ("n_blocks", "d_model", "n_heads", "d_ff", "vocab_size", "max_seq")


# 2**32 overflows the field's u32 slot in the packed block
@pytest.mark.parametrize("field", _INT_FIELDS)
@pytest.mark.parametrize("value", [0, 2**32, 2.0])
def test_config_rejects_a_field_its_block_cannot_carry(field, value):
    with pytest.raises(M.ModelError, match=field):
        M.ModelConfig(**{field: value})


def test_config_block_carries_each_field_at_its_limit():
    cfg = M.ModelConfig(**dict.fromkeys(_INT_FIELDS, 2**32 - 1) | {"max_seq": M.MAX_SEQ_CAP})
    assert M.ModelConfig.unpack(cfg.pack()) == cfg


# 1e300 overflows binary32 and 1e-50 flushes to zero in it
@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-5,
                                 1e300, 1e-50])
def test_config_rejects_an_epsilon_not_finite_and_positive(eps):
    with pytest.raises(M.ModelError, match="ln_epsilon"):
        M.ModelConfig(ln_epsilon=eps)


def test_parameter_file_with_a_nan_epsilon_fails_typed(tmp_path):
    path = tmp_path / "p.cmwt"
    M.save_parameters(path, M.init_parameters(CFG_SMALL, seed=5))
    blob = path.read_bytes()
    eps_at = 4 + 1 + 24  # magic, version, six u32 config fields
    path.write_bytes(blob[:eps_at] + struct.pack("<f", float("nan")) + blob[eps_at + 4:])
    with pytest.raises(M.ModelError, match="ln_epsilon"):
        M.load_parameters(path)


# ------------------------------------------------------------- fingerprint

def test_fingerprint_stable_and_perturbable():
    params = M.init_parameters(CFG_SMALL, seed=1)
    f1 = M.fingerprint(params)
    assert M.fingerprint(params) == f1
    rebuilt = M.ParameterSet.from_arrays(CFG_SMALL, [a.copy() for a in params.iter_arrays()])
    assert M.fingerprint(rebuilt) == f1
    arrays = [a.copy() for a in params.iter_arrays()]
    arrays[1][0, 0] = -arrays[1][0, 0]  # block 0's wq, after the embedding
    assert M.fingerprint(M.ParameterSet.from_arrays(CFG_SMALL, arrays)) != f1


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
        hid_col, logits_col = M.extend_cache(params, CFG_SMALL, cache, [int(tokens[t])])
        hid_full, logits_full = M.forward_full(params, CFG_SMALL, tokens[: t + 1])
        assert (hid_col[:, 0] == hid_full[:, t]).all(), f"hidden mismatch at position {t}"
        assert (logits_col[0] == logits_full[t]).all(), f"logits mismatch at position {t}"


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


@pytest.mark.parametrize("positions", [121, 200])
def test_a_steps_logits_equal_the_full_pass_past_120_positions(positions):
    # the head runs in M_MIN-row tiles like every projection: a whole head
    # GEMM (K 32, N 260) would switch kernel from 121 rows, and a one-token
    # step's head runs one tile
    cfg = dataclasses.replace(CFG_SMALL, max_seq=positions)
    params = M.init_parameters(cfg, seed=11)
    tokens = _rand_tokens(np.random.default_rng(positions), positions)
    cache = M.KVCache(cfg)
    M.extend_cache(params, cfg, cache, tokens[:-1])
    _, logits_step = M.extend_cache(params, cfg, cache, tokens[-1:])
    _, logits_full = M.forward_full(params, cfg, tokens)
    assert (_bits(logits_step[0]) == _bits(logits_full[-1])).all()


def _assert_taps_match_full_pass(cfg, seed, prefix_len, s_lens, batch):
    rng = np.random.default_rng(seed)
    params = M.init_parameters(cfg, seed=seed)
    prefix = _rand_tokens(rng, prefix_len)
    cache = M.KVCache(cfg)
    M.extend_cache(params, cfg, cache, prefix)
    layers = range(1, cfg.n_blocks + 1)
    for s_len in s_lens:
        suffixes = rng.integers(0, 260, size=(batch, s_len)).astype(np.int64)
        taps = [M.hypothesis_taps(params, cfg, cache, suffixes, layer)[0] for layer in layers]
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
# the head dim of the 3 x 256 and 3 x 768 configs
CFG_HEAD_DIM_64 = M.ModelConfig(n_blocks=2, d_model=256, n_heads=4, d_ff=512, max_seq=160)


@pytest.mark.parametrize("cfg,prefix_len,s_lens", [
    pytest.param(CFG_HEAD_DIM_32, 15, (1, 2, 31, 33), id="15-s_lens0"),
    # positions 120..152 cross KEY_SEG
    pytest.param(CFG_HEAD_DIM_32, 120, (33,), id="120-s_lens1"),
    pytest.param(CFG_HEAD_DIM_64, 15, (1, 2, 31, 33), id="head_dim_64-15"),
    pytest.param(CFG_HEAD_DIM_64, 120, (33,), id="head_dim_64-120"),
])
def test_hypothesis_taps_match_full_pass_bitwise_head_dim_32(cfg, prefix_len, s_lens):
    # a batch of 2 * M_MIN items runs attention's GEMMs in several chunks of
    # items, the last one short
    _assert_taps_match_full_pass(cfg, 8, prefix_len, s_lens, batch=2 * M.M_MIN)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _per_item_own_key_scores(qh, kh):
    """One GEMM per item and head: query rows zero-padded to M_MIN, keys to
    a multiple of M_MIN columns and at least 2 * M_MIN."""
    B, H, S, hd = qh.shape
    Sk = kh.shape[2]
    q = np.zeros((max(S, M.M_MIN), hd), dtype=np.float32)
    k = np.zeros((max(-(-Sk // M.M_MIN) * M.M_MIN, 2 * M.M_MIN), hd), dtype=np.float32)
    out = np.empty((B, H, S, Sk), dtype=np.float32)
    for b in range(B):
        for h in range(H):
            q[:S], k[:Sk] = qh[b, h], kh[b, h]
            out[b, h] = (q @ k.T)[:S, :Sk]
    return out


def _per_segment_prefix_scores(qh, kp):
    """One GEMM per head and KEY_SEG segment of the shared prefix keys kp
    (H, P, hd) over all B * S query rows, zero-padded to M_MIN rows and the
    segment to KEY_SEG columns."""
    B, H, S, hd = qh.shape
    P = kp.shape[1]
    q = np.zeros((max(B * S, M.M_MIN), hd), dtype=np.float32)
    k = np.zeros((M.KEY_SEG, hd), dtype=np.float32)
    out = np.empty((B, H, S, P), dtype=np.float32)
    for h in range(H):
        q[:B * S] = qh[:, h].reshape(B * S, hd)
        for lo in range(0, P, M.KEY_SEG):
            n = min(P - lo, M.KEY_SEG)
            k[:] = 0.0
            k[:n] = kp[h, lo:lo + n]
            out[:, h, :, lo:lo + n] = (q @ k.T)[:B * S, :n].reshape(B, S, n)
    return out


@pytest.mark.parametrize("head_dim", [16, 32])
@pytest.mark.parametrize("s_rows", [1, 2])  # the tapped block's query row; a frame step's two
# an encoder tap; a verify of a few items; a frame's hypotheses
@pytest.mark.parametrize("B", [1, 3, 257])
def test_stacked_own_key_scores_equal_per_item_gemms(head_dim, s_rows, B):
    # _numerators stacks the shared prefix keys and each item's own keys on
    # one key axis, one score GEMM per item and head; the numerators of its
    # live region must have the bits of the masked rectangle built on both
    # GEMM forms the prefix and own scores take apart, at no prefix, below
    # M_MIN, below KEY_SEG, at its end (P = 126: the own keys fill the
    # segment), straddling it (P = 127) and past it. The AV GEMMs read the
    # whole buffer, so every entry outside the live region must be +0.0
    rng = np.random.default_rng(head_dim + s_rows + B)
    H, Sk = 4, 2
    qh = rng.standard_normal((B, H, s_rows, head_dim)).astype(np.float32)
    kh = rng.standard_normal((B, H, Sk, head_dim)).astype(np.float32)
    for P in (0, 9, 41, 73, 126, 127, 130):
        kp = rng.standard_normal((H, P, head_dim)).astype(np.float32)
        T = P + Sk
        e = M._numerators(qh, kp, kh)
        assert e.shape == (B, H, M.M_MIN, -(-T // M.KEY_SEG) * M.KEY_SEG), P
        assert (_bits(e[:, :, :s_rows, :T]) == _bits(_masked_ex(qh, kp, kh))).all(), P
        outside = _bits(e).copy()
        outside[:, :, :s_rows, :T] = 0
        assert not outside.any(), P


def _per_item_av(ex, vp, vh):
    """attn (B, H, S, hd) and den (B, H, S, 1) from one AV GEMM per item,
    head and KEY_SEG segment, segments added in ascending order: the item's
    e rows ex (B, H, S, T) zero-padded to max(S, 2) rows and a KEY_SEG
    multiple of keys, against the prefix V vp (H, P, hd), then its own V vh
    (B, H, Sk, hd), zero-padded to den_col columns, then M_MIN ones-columns.
    The engine runs max(S, M_MIN) rows; this oracle's other row count keeps
    the check independent of it, and
    test_av_gemm_bits_at_2_to_m_min_rows_equal_m_min_rows shows that both
    give the same bits."""
    B, H, S, T = ex.shape
    P, hd = vp.shape[1], vh.shape[-1]
    t_pad, den_col = -(-T // M.KEY_SEG) * M.KEY_SEG, -(-hd // M.M_MIN) * M.M_MIN
    e = np.zeros((max(S, 2), t_pad), dtype=np.float32)
    v = np.zeros((t_pad, den_col + M.M_MIN), dtype=np.float32)
    v[:, den_col:] = 1.0
    attn = np.empty((B, H, S, hd), dtype=np.float32)
    den = np.empty((B, H, S, 1), dtype=np.float32)
    for b in range(B):
        for h in range(H):
            e[:S, :T], v[:P, :hd], v[P:T, :hd] = ex[b, h], vp[h], vh[b, h]
            acc = np.zeros((max(S, 2), den_col + M.M_MIN), dtype=np.float32)
            for lo in range(0, t_pad, M.KEY_SEG):
                acc += e[:, lo:lo + M.KEY_SEG] @ v[lo:lo + M.KEY_SEG]
            den[b, h] = acc[:S, den_col:den_col + 1]
            attn[b, h] = acc[:S, :hd] / den[b, h]
    return attn, den


@pytest.mark.parametrize("head_dim", [16, 32])
@pytest.mark.parametrize("s_rows", [1, 2])
@pytest.mark.parametrize("B", [1, 3, 257])
def test_stacked_av_equals_per_item_gemms(head_dim, s_rows, B):
    # _attention stacks the prefix values and each item's own on one key
    # axis, reduced in KEY_SEG segments; its bits must equal one AV GEMM per
    # item, head and segment: at no prefix, below M_MIN, below and at the end
    # of KEY_SEG (P = 126: the own keys fill it), straddling it (P = 127: the
    # own keys span two segments) and past it
    rng = np.random.default_rng(head_dim + s_rows + B)
    H, Sk = 4, 2
    cfg = M.ModelConfig(d_model=H * head_dim, n_heads=H)
    d = cfg.d_model
    q = rng.standard_normal((B, s_rows, d)).astype(np.float32)
    k_new, v_new = rng.standard_normal((2, B, Sk, d)).astype(np.float32)
    qh = M._split_heads(q * (np.float32(1.0) / np.sqrt(np.float32(head_dim))), H)
    for P in (0, 9, 41, 73, 126, 127, 130):
        k_pref, v_pref = rng.standard_normal((2, P, d)).astype(np.float32)
        merged, den = M._attention(q, k_pref, v_pref, k_new, v_new, cfg)
        ex = _masked_ex(qh, k_pref.reshape(P, H, head_dim).transpose(1, 0, 2),
                        M._split_heads(k_new, H))
        attn, want_den = _per_item_av(ex, v_pref.reshape(P, H, head_dim).transpose(1, 0, 2),
                                      M._split_heads(v_new, H))
        want = attn.transpose(0, 2, 1, 3).reshape(B, s_rows, d)
        assert (_bits(den) == _bits(want_den)).all(), P
        assert (_bits(merged) == _bits(want)).all(), P


def _masked_ex(qh, kp, kh):
    """The softmax numerators (B, H, S, T) of query rows qh (B, H, S, hd)
    against the prefix keys kp (H, P, hd) and each item's own keys kh
    (B, H, Sk, hd), T = P + Sk, query row i at key T - S + i, as the masked
    rectangle computes them: the scores from the per-GEMM oracles above,
    each key above its query row set to -inf, the row max taken over
    the whole row and exp run on every entry."""
    S = qh.shape[2]
    sc = np.concatenate([_per_segment_prefix_scores(qh, kp),
                         _per_item_own_key_scores(qh, kh)], axis=-1)
    T = sc.shape[-1]
    sc[..., np.arange(T)[None, :] > np.arange(T - S, T)[:, None]] = -np.inf
    sc -= sc.max(axis=-1, keepdims=True)
    return detmath.exp(sc)


def _rectangle_ex(q, k, cfg):
    """_masked_ex of a causal square of queries q and keys k (B, S, d)."""
    H, hd = cfg.n_heads, cfg.head_dim
    qh = M._split_heads(q * (np.float32(1.0) / np.sqrt(np.float32(hd))), H)
    return _masked_ex(qh, np.zeros((H, 0, hd), dtype=np.float32), M._split_heads(k, H))


def _square_inputs(head_dim, S, B):
    H = 4
    cfg = M.ModelConfig(d_model=H * head_dim, n_heads=H, max_seq=256)
    rng = np.random.default_rng(head_dim + S)
    return cfg, rng.standard_normal((3, B, S, cfg.d_model)).astype(np.float32)


@pytest.mark.parametrize("head_dim", [16, 32])
@pytest.mark.parametrize("S", [1, 40, 80, 130])
def test_a_causal_square_gives_the_masked_rectangles_bits(head_dim, S):
    # a causal square (no prefix, S query rows against S keys: a training
    # pass, forward_full, a catch-up from an empty cache) runs the row max
    # and exp on its triangle alone; its row sums and output must be the
    # masked rectangle's, here also past KEY_SEG
    B = 3
    cfg, (q, k, v) = _square_inputs(head_dim, S, B)
    H, empty = cfg.n_heads, np.zeros((0, cfg.d_model), dtype=np.float32)
    merged, den = M._attention(q, empty, empty, k, v, cfg)
    attn, want_den = _per_item_av(_rectangle_ex(q, k, cfg),
                                  np.zeros((H, 0, head_dim), dtype=np.float32),
                                  M._split_heads(v, H))
    assert (_bits(den) == _bits(want_den)).all()
    assert (_bits(merged) == _bits(attn.transpose(0, 2, 1, 3).reshape(B, S, -1))).all()


@pytest.mark.parametrize("head_dim", [16, 32])
@pytest.mark.parametrize("S", [9, 40, 80, 130])
def test_the_attention_backward_rebuilds_the_forwards_probabilities(monkeypatch, head_dim, S):
    # the training pass keeps only the row sums; the backward rebuilds the
    # numerators from Q and K with the forward's own _numerators and must
    # give the forward's bits, which are the masked rectangle's, exact zeros
    # off the triangle (a bare unpadded score GEMM differs at S = 9 and head
    # dim 32)
    B = 2
    cfg, (a, _, dmerged) = _square_inputs(head_dim, S, B)
    H, d, empty = cfg.n_heads, cfg.d_model, np.zeros((0, cfg.d_model), dtype=np.float32)
    bp = M.init_parameters(cfg, 7).blocks[0]
    a2 = a.reshape(B * S, d)
    q, k, v = (M._mm(a2, w).reshape(B, S, d) for w in (bp.wq, bp.wk, bp.wv))
    numerators, seen = M._numerators, []

    def observed(*args):
        out = numerators(*args)
        seen.append(out[:, :, :S, :S].copy())
        return out

    monkeypatch.setattr(M, "_numerators", observed)
    _, den = M._attention(q, empty, empty, k, v, cfg)
    forward = np.concatenate(seen)
    seen.clear()
    T._attention_backward(dmerged, den, a2, bp, cfg)
    backward = np.concatenate(seen)
    assert (_bits(forward) == _bits(_rectangle_ex(q, k, cfg))).all()
    assert (_bits(backward) == _bits(forward)).all()


@pytest.mark.parametrize("head_dim", [16, 32, 64])
def test_av_gemm_bits_at_2_to_m_min_rows_equal_m_min_rows(head_dim):
    # the AV GEMM's shape: K = KEY_SEG, N = den_col + M_MIN, e sliced from a
    # two-segment buffer as _attention slices it
    den_col = -(-head_dim // M.M_MIN) * M.M_MIN
    rng = np.random.default_rng(head_dim)
    e = rng.random((M.M_MIN, 2 * M.KEY_SEG)).astype(np.float32)
    v = rng.standard_normal((M.KEY_SEG, den_col + M.M_MIN)).astype(np.float32)
    v[:, den_col:] = 1.0
    want = e[:, :M.KEY_SEG] @ v
    for rows in range(2, M.M_MIN + 1):
        batch = np.repeat(e[None, None, :rows], 2, axis=1)
        got = np.matmul(batch[..., :M.KEY_SEG], v)
        assert (_bits(got[0, 1]) == _bits(want[:rows])).all(), rows


@pytest.mark.parametrize("k, n", [(512, 32), (32, 512), (128, 128)])
def test_a_projection_row_has_its_own_bits_in_any_batch(k, n):
    # rule 1: a whole w2 GEMM at d_ff 512 (K 512, N 32) takes another kernel
    # from 62 rows on; in M_MIN-row tiles no batch size moves a bit
    rng = np.random.default_rng(k * n)
    w = rng.standard_normal((k, n)).astype(np.float32)
    for m in (1, 31, 32, 33, 61, 62, 64, 100, 257, 300):
        a = rng.standard_normal((m, k)).astype(np.float32)
        alone = np.concatenate([M._mm(a[i:i + 1], w) for i in range(m)])
        assert (_bits(M._mm(a, w)) == _bits(alone)).all(), m


def test_one_row_av_input_is_padded_to_m_min_rows(monkeypatch):
    # layer 1 runs only the tapped block, whose one query row would make
    # each AV GEMM a GEMV; of one item or three, each runs its own at M_MIN
    # rows, as every other exact GEMM
    params = M.init_parameters(CFG_SMALL, seed=15)
    cache = M.KVCache(CFG_SMALL)
    M.extend_cache(params, CFG_SMALL, cache, [1, 2, 3])
    av_rows = []
    original = np.matmul

    def recording(a, b, *args, **kwargs):
        if a.shape[-1] == M.KEY_SEG:
            av_rows.append(a.shape[-2])
        return original(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    M.hypothesis_taps(params, CFG_SMALL, cache, np.array([[4, 5], [6, 7], [8, 9]]), 1)
    M.hypothesis_taps(params, CFG_SMALL, cache, np.array([[4, 5]]), 1)
    monkeypatch.undo()
    assert av_rows and set(av_rows) == {M.M_MIN}


def test_cache_prefix_taps_equal_a_cache_of_that_length():
    rng = np.random.default_rng(17)
    params = M.init_parameters(CFG_SMALL, seed=17)
    tokens = _rand_tokens(rng, 40)
    full, short = M.KVCache(CFG_SMALL), M.KVCache(CFG_SMALL)
    M.extend_cache(params, CFG_SMALL, full, tokens)
    M.extend_cache(params, CFG_SMALL, short, tokens[:25])
    suffixes = rng.integers(0, 260, size=(5, 2))
    for layer in range(1, CFG_SMALL.n_blocks + 1):
        got, _ = M.hypothesis_taps(params, CFG_SMALL, full.prefix(25), suffixes, layer)
        want, _ = M.hypothesis_taps(params, CFG_SMALL, short, suffixes, layer)
        assert (_bits(got) == _bits(want)).all(), layer


def test_cache_prefix_view_rejects_writes():
    params = M.init_parameters(CFG_SMALL, seed=18)
    cache = M.KVCache(CFG_SMALL)
    M.extend_cache(params, CFG_SMALL, cache, [1, 2, 3, 4])
    keys = cache.keys(0).copy()
    view = cache.prefix(2)
    with pytest.raises(M.ModelError, match="read-only"):
        M.extend_cache(params, CFG_SMALL, view, [5])
    with pytest.raises(M.ModelError, match="read-only"):
        view.commit(1)
    assert view.length == 2 and cache.length == 4
    assert (cache.keys(0) == keys).all()


@pytest.mark.parametrize("n", [-1, 5])
def test_cache_prefix_outside_the_cache_fails_typed(n):
    params = M.init_parameters(CFG_SMALL, seed=19)
    cache = M.KVCache(CFG_SMALL)
    M.extend_cache(params, CFG_SMALL, cache, [1, 2, 3, 4])
    with pytest.raises(M.ModelError, match="prefix length"):
        cache.prefix(n)


def test_hypothesis_taps_empty_prefix():
    rng = np.random.default_rng(9)
    params = M.init_parameters(CFG_SMALL, seed=9)
    cache = M.KVCache(CFG_SMALL)
    suffixes = rng.integers(0, 260, size=(4, 3)).astype(np.int64)
    taps, _ = M.hypothesis_taps(params, CFG_SMALL, cache, suffixes, 2)
    for b in range(4):
        hid_full, _ = M.forward_full(params, CFG_SMALL, suffixes[b])
        assert (taps[b] == hid_full[1, -1]).all()


def test_an_empty_batch_fails_typed():
    params = M.init_parameters(CFG_SMALL, seed=9)
    cache = M.KVCache(CFG_SMALL)
    M.extend_cache(params, CFG_SMALL, cache, [1, 2, 3])
    for taps in (M.hypothesis_taps, M.draft_taps):
        with pytest.raises(M.ModelError, match="B >= 1"):
            taps(params, CFG_SMALL, cache, np.zeros((0, 2), dtype=np.int64), 2)


@pytest.mark.parametrize("prefix_len,s_len,batch,norm_weights", [
    (0, 3, 5, False), (9, 1, 5, False), (15, 2, 5, False), (20, 7, 5, False),
    (12, 2, 2 * M.M_MIN + 1, False), (12, 2, 5, True),
], ids=["0-3", "9-1", "15-2", "20-7", "12-2-sliced", "12-2-norm-weights"])
def test_draft_taps_stay_near_the_exact_taps_and_call_no_pinned_math(prefix_len, s_len, batch,
                                                                      norm_weights,
                                                                      monkeypatch):
    # the draft (rule 3) is not bit-pinned: it must stay within a few float32
    # ulps of the exact taps, read the cache and the weights without writing
    # them, and never reach detmath, whose calls the benchmark's tracer
    # counts; with 3 CPUs a batch of 2 * M_MIN + 1 runs as two slices, the
    # second on a worker. init_parameters' layer norms have unit gains and
    # zero biases, so one case draws them, and a draft that drops one fails
    rng = np.random.default_rng(prefix_len + s_len)
    params = M.init_parameters(CFG_SMALL, seed=12)
    if norm_weights:
        draw = np.random.default_rng(3)
        bounds = {"g": (0.5, 1.5), "b": (-0.1, 0.1)}
        params = M.ParameterSet.from_arrays(CFG_SMALL, (
            draw.uniform(*bounds[name[0]], a.shape).astype(np.float32) if name[0] in bounds
            else a for (name, _), a in zip(M.layout_entries(M.weight_layout(CFG_SMALL)),
                                           params.iter_arrays())))
    cache = M.KVCache(CFG_SMALL)
    if prefix_len:
        M.extend_cache(params, CFG_SMALL, cache, _rand_tokens(rng, prefix_len))
    suffixes = rng.integers(0, 260, size=(batch, s_len)).astype(np.int64)
    exact = [M.hypothesis_taps(params, CFG_SMALL, cache, suffixes, layer)[0]
             for layer in range(1, CFG_SMALL.n_blocks + 1)]

    def pinned(*args, **kwargs):
        raise AssertionError("the draft called detmath")

    for name in ("exp", "tanh", "gelu"):
        monkeypatch.setattr(M.detmath, name, pinned)
    block, threads = M._draft_block, set()

    def recorded(*args, **kwargs):
        threads.add(threading.get_ident())
        return block(*args, **kwargs)

    monkeypatch.setattr(M, "_draft_block", recorded)
    monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    rows, state = list(cache.rows), pickle.dumps(vars(params))
    for layer, want in enumerate(exact, 1):
        threads.clear()
        got = M.draft_taps(params, CFG_SMALL, cache, suffixes, layer)
        assert len(threads) == (2 if batch > 2 * M.M_MIN else 1)
        assert got.shape == want.shape and got.dtype == np.float32
        scale = np.abs(want).max(axis=-1)
        assert (np.abs(got - want).max(axis=-1) <= 64 * np.finfo(np.float32).eps * scale).all()
    assert cache.rows == rows and cache.length == prefix_len
    assert pickle.dumps(vars(params)) == state


def test_a_replaced_parameter_set_drafts_like_a_fresh_one():
    # a copy with other blocks (as trainer.merge makes) drafts from its own
    # weights, whatever drafts ran on the set it was copied from
    params = M.init_parameters(CFG_SMALL, seed=12)
    cache = M.KVCache(CFG_SMALL)
    M.extend_cache(params, CFG_SMALL, cache, [1, 2, 3])
    suffixes = np.array([[4, 5], [6, 7]])
    before = M.draft_taps(params, CFG_SMALL, cache, suffixes, 2)
    blocks = [dataclasses.replace(bp, w1=bp.w1 * np.float32(2)) for bp in params.blocks]
    other = dataclasses.replace(params, blocks=blocks)
    fresh = M.ParameterSet.from_arrays(CFG_SMALL, other.iter_arrays())
    got = M.draft_taps(other, CFG_SMALL, cache, suffixes, 2)
    assert (got == M.draft_taps(fresh, CFG_SMALL, cache, suffixes, 2)).all()
    assert (got != before).any()


def _assert_caches_equal(got, want, blocks):
    assert got.length == want.length
    for bi in blocks:
        assert (_bits(got.keys(bi)) == _bits(want.keys(bi))).all(), bi
        assert (_bits(got.values(bi)) == _bits(want.values(bi))).all(), bi


def test_hypothesis_first_rows_commit_as_a_cache_extension_at_every_layer():
    # the decoder commits an accepted byte from its hypothesis's first
    # position; caught up from there, the cache must hold extend_cache's bits
    rng = np.random.default_rng(20)
    params = M.init_parameters(CFG_SMALL, seed=20)
    prefix = _rand_tokens(rng, 15)
    suffixes = rng.integers(0, 256, size=(3, 2)).astype(np.int64)
    cache = M.KVCache(CFG_SMALL)
    M.extend_cache(params, CFG_SMALL, cache, prefix)
    blocks = range(CFG_SMALL.n_blocks)
    for layer in range(1, CFG_SMALL.n_blocks + 1):
        _, (keys, values, x) = M.hypothesis_taps(params, CFG_SMALL, cache, suffixes, layer)
        assert len(keys) == len(values) == layer - 1
        for b in range(len(suffixes)):
            got, want = M.KVCache(CFG_SMALL), M.KVCache(CFG_SMALL)
            M.extend_cache(params, CFG_SMALL, got, prefix)
            M.extend_cache(params, CFG_SMALL, want, [*prefix, suffixes[b, 0]])
            got.commit(x[b:b + 1], [k[b:b + 1] for k in keys], [v[b:b + 1] for v in values])
            assert got.depth == layer - 1
            _assert_caches_equal(got, want, range(layer - 1))
            M.catch_up(params, CFG_SMALL, got, CFG_SMALL.n_blocks)
            _assert_caches_equal(got, want, blocks)


def test_cache_depth_is_checked_on_commit_and_tap():
    params = M.init_parameters(CFG_SMALL, seed=22)
    cache = M.KVCache(CFG_SMALL)
    M.append_tokens(params, CFG_SMALL, cache, [1, 2, 3])
    assert cache.depth == 0 and cache.prefix(0).depth == CFG_SMALL.n_blocks
    with pytest.raises(M.ModelError, match="above the cache's depth"):
        M.hypothesis_taps(params, CFG_SMALL, cache, [[4, 5]], 1)
    M.catch_up(params, CFG_SMALL, cache, 2)
    assert cache.depth == 2 and cache.prefix(2).depth == 2
    M.hypothesis_taps(params, CFG_SMALL, cache, [[4, 5]], 2)
    with pytest.raises(M.ModelError, match="above the cache's depth"):
        M.hypothesis_taps(params, CFG_SMALL, cache, [[4, 5]], 3)
    row = np.zeros((1, CFG_SMALL.d_model), dtype=np.float32)
    with pytest.raises(M.ModelError, match="deeper than the one before it"):
        cache.commit(row, [row] * 3, [row] * 3)
    assert cache.length == 3


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
        M.extend_cache(params, CFG_SMALL, cache, [1])


def test_commit_past_max_seq_fails_typed():
    d = CFG_SMALL.d_model
    cache = M.KVCache(CFG_SMALL)
    with pytest.raises(M.ModelError, match="KV cache overflow"):
        cache.commit(np.zeros((CFG_SMALL.max_seq + 1, d), dtype=np.float32))
    cache.commit(np.zeros((CFG_SMALL.max_seq, d), dtype=np.float32))
    with pytest.raises(M.ModelError, match="KV cache overflow"):
        cache.commit(np.zeros((1, d), dtype=np.float32))
    assert cache.length == CFG_SMALL.max_seq


@pytest.mark.parametrize("layer", [0, CFG_SMALL.n_blocks + 1])
def test_hypothesis_taps_refuses_a_layer_outside_the_blocks(layer):
    params = M.init_parameters(CFG_SMALL, seed=11)
    cache = M.KVCache(CFG_SMALL)
    M.extend_cache(params, CFG_SMALL, cache, [1, 2, 3])
    assert cache.depth == CFG_SMALL.n_blocks
    with pytest.raises(M.ModelError, match="tap layer out of range"):
        M.hypothesis_taps(params, CFG_SMALL, cache, [[4]], layer)


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
