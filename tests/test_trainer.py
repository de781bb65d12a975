import struct
import tracemalloc

import numpy as np
import pytest

from ciphermind import codec, detmath
from ciphermind import model as M
from ciphermind import provisioning as P
from ciphermind import trainer as T
from ciphermind.scheduler import Stream

CFG_TINY = M.ModelConfig(n_blocks=2, d_model=32, n_heads=2, d_ff=64,
                         vocab_size=260, max_seq=128)


def _toy_examples(n=12, seed=0):
    stream = Stream(seed)
    return [T.sentence_example(stream) for _ in range(n)]


# ------------------------------------------------------------------ corpus

def test_repeat_payloads_in_bounds():
    corpus = T.make_pretrain_corpus(5, 60)
    repeats = [ex for ex in corpus if ex[0].startswith(codec.TEMPLATE_TEXT)]
    assert repeats
    for prompt, completion in repeats:
        x = prompt[len(codec.TEMPLATE_TEXT):]
        assert x == completion
        assert 1 <= len(x) <= 64
        assert all(0x21 <= b <= 0x7E for b in x)


def test_tokenize_and_mask_layout():
    toks, plen = T.tokenize_example((b"repeat: hi", b"hi"))
    assert toks[0] == codec.BOS
    assert toks[plen - 1] == codec.SEP
    assert toks[-1] == codec.EOS
    tokens, mask = T._make_batch([(toks, plen)], [0])
    # loss positions predict exactly the completion + eos
    assert mask.sum() == 3  # "h", "i", <eos>
    assert mask[0, plen - 1] == 1.0
    assert mask[0, len(toks) - 2] == 1.0
    assert mask[0, plen - 2] == 0.0


# ----------------------------------------------------------------- pretrain

def test_pretrain_zero_steps_is_init():
    corpus = T.make_pretrain_corpus(1, 50)
    tc = T.TrainConfig(seed=9, steps=0)
    out = T.pretrain_base(corpus, CFG_TINY, tc)
    assert M.fingerprint(out) == M.fingerprint(M.init_parameters(CFG_TINY, 9))


def test_pretrain_deterministic():
    corpus = T.make_pretrain_corpus(2, 60)
    tc = T.TrainConfig(seed=5, steps=4, learning_rate=0.1, batch_size=4,
                       max_example_len=64)
    a = T.pretrain_base(corpus, CFG_TINY, tc)
    b = T.pretrain_base(corpus, CFG_TINY, tc)
    assert M.fingerprint(a) == M.fingerprint(b)


def test_pretrain_loss_decreases():
    corpus = T.make_pretrain_corpus(3, 200)
    tc = T.TrainConfig(seed=6, steps=60, learning_rate=0.5, batch_size=8,
                       max_example_len=64)
    tokens, mask = T._make_batch(T._prepare(corpus, 64), range(8))
    init = M.init_parameters(CFG_TINY, tc.seed)
    trained = T.pretrain_base(corpus, CFG_TINY, tc)
    assert (T.loss_and_grads(trained, CFG_TINY, tokens, mask)[0]
            < T.loss_and_grads(init, CFG_TINY, tokens, mask)[0])


def test_pretrain_rejects_empty_corpus():
    with pytest.raises(T.TrainerError):
        T.pretrain_base([], CFG_TINY, T.TrainConfig(seed=0, steps=1))


# ----------------------------------------------------------------- adapters

def test_finetune_zero_steps_merge_is_identity():
    base = M.init_parameters(CFG_TINY, 3)
    adapters = T.finetune(base, _toy_examples(), T.TrainConfig(seed=4, steps=0))
    merged = T.merge(base, adapters)
    assert M.fingerprint(merged) == M.fingerprint(base)


def test_finetune_steps_change_fingerprint():
    base = M.init_parameters(CFG_TINY, 3)
    examples = _toy_examples()
    a10 = T.finetune(base, examples, T.TrainConfig(seed=4, steps=3, learning_rate=0.05,
                                                   batch_size=4, max_example_len=80))
    a20 = T.finetune(base, examples, T.TrainConfig(seed=4, steps=6, learning_rate=0.05,
                                                   batch_size=4, max_example_len=80))
    assert T.adapter_fingerprint(a10) != T.adapter_fingerprint(a20)


def test_finetune_trains_on_shard_examples_alone(monkeypatch):
    examples = _toy_examples()
    want = sorted(T.tokenize_example(ex)[0] for ex in examples)
    rows, wrts = [], []
    loss_and_grads = T.loss_and_grads

    def recording(params, cfg, tokens, mask, wrt=None):
        rows.extend([int(t) for t in row if t != codec.PAD] for row in tokens)
        wrts.append(wrt)
        return loss_and_grads(params, cfg, tokens, mask, wrt=wrt)

    monkeypatch.setattr(T, "loss_and_grads", recording)
    # 3 batches of 4 are one pass over the 12 examples
    T.finetune(M.init_parameters(CFG_TINY, 3), examples,
               T.TrainConfig(seed=4, steps=3, batch_size=4))
    assert sorted(rows) == want
    assert wrts == [T.ADAPTED_FIELDS] * 3


def test_finetune_rejects_no_shards():
    base = M.init_parameters(CFG_TINY, 3)
    with pytest.raises(T.TrainerError):
        T.finetune(base, [], T.TrainConfig(seed=4, steps=1))


def test_finetune_twin_determinism():
    base = M.init_parameters(CFG_TINY, 3)
    examples = _toy_examples()
    tc = T.TrainConfig(seed=4, steps=3, learning_rate=0.05, batch_size=4,
                       max_example_len=80)
    a = T.finetune(base, examples, tc)
    b = T.finetune(base, examples, tc)
    assert T.adapter_fingerprint(a) == T.adapter_fingerprint(b)


def test_finetune_leaves_base_untouched():
    base = M.init_parameters(CFG_TINY, 3)
    fp0 = M.fingerprint(base)
    T.finetune(base, _toy_examples(), T.TrainConfig(seed=4, steps=2, batch_size=4,
                                                  max_example_len=80))
    assert M.fingerprint(base) == fp0


def test_merge_rank1_hand_oracle():
    w = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    a = np.array([[1.0], [2.0]], dtype=np.float32)
    b = np.array([[10.0, 20.0]], dtype=np.float32)
    got = w + a @ b
    assert (got == np.array([[11.0, 22.0], [23.0, 44.0]], dtype=np.float32)).all()


def test_merge_deterministic_and_checks_fingerprint():
    base = M.init_parameters(CFG_TINY, 3)
    adapters = T.finetune(base, _toy_examples(), T.TrainConfig(seed=4, steps=2,
                                                             batch_size=4,
                                                             max_example_len=80))
    m1 = T.merge(base, adapters)
    m2 = T.merge(base, adapters)
    assert M.fingerprint(m1) == M.fingerprint(m2)
    other = M.init_parameters(CFG_TINY, 99)
    with pytest.raises(T.TrainerError):
        T.merge(other, adapters)


def test_adapter_file_roundtrip(tmp_path):
    base = M.init_parameters(CFG_TINY, 3)
    adapters = T.finetune(base, _toy_examples(), T.TrainConfig(seed=4, steps=2,
                                                             batch_size=4,
                                                             max_example_len=80))
    path = tmp_path / "a.cmad"
    T.save_adapters(path, adapters)
    loaded = T.load_adapters(path, CFG_TINY)
    assert T.adapter_fingerprint(loaded) == T.adapter_fingerprint(adapters)
    assert loaded.base_fingerprint == adapters.base_fingerprint
    assert loaded.tconfig == adapters.tconfig


# each value is outside the field's u64 or u32 slot in the packed block, or
# not an integer
@pytest.mark.parametrize("field,value", [
    ("seed", -1), ("seed", 2**64), ("seed", 1.5),
    ("steps", -1), ("steps", 2**32),
    ("batch_size", 0), ("batch_size", 2**32),
    ("adapter_rank", 0), ("adapter_rank", 2**32),
    ("max_example_len", -1), ("max_example_len", 2**32)])
def test_config_rejects_a_field_its_block_cannot_carry(field, value):
    with pytest.raises(T.TrainerError, match=field):
        T.TrainConfig(**{field: value})


def test_config_block_carries_each_field_at_its_limits():
    for tc in (T.TrainConfig(seed=0, steps=0, batch_size=1, adapter_rank=1, max_example_len=0),
               T.TrainConfig(seed=2**64 - 1, steps=2**32 - 1, batch_size=2**32 - 1,
                             adapter_rank=2**32 - 1, max_example_len=2**32 - 1)):
        assert T.TrainConfig.unpack(tc.pack()) == tc


# 1e300 overflows binary32
@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"), -1e-3, 1e300])
def test_config_rejects_a_rate_not_finite_and_non_negative(rate):
    with pytest.raises(T.TrainerError, match="learning_rate"):
        T.TrainConfig(learning_rate=rate)


def test_adapter_file_with_a_nan_rate_fails_typed(tmp_path):
    base = M.init_parameters(CFG_TINY, 3)
    path = tmp_path / "a.cmad"
    T.save_adapters(path, T.finetune(base, _toy_examples(), T.TrainConfig(steps=0)))
    blob = path.read_bytes()
    rate_at = 4 + 1 + 32 + 8 + 4  # magic, version, base fingerprint, seed, steps
    path.write_bytes(blob[:rate_at] + struct.pack("<f", float("nan")) + blob[rate_at + 4:])
    with pytest.raises(T.TrainerError, match="learning_rate"):
        T.load_adapters(path, CFG_TINY)


# ------------------------------------------------------------------- probes

def test_forgetting_probe_deterministic():
    params = M.init_parameters(CFG_TINY, 7)
    heldout = T.make_pretrain_corpus(8, 30)
    a = T.forgetting_probe(params, CFG_TINY, heldout)
    b = T.forgetting_probe(params, CFG_TINY, heldout)
    assert a == b


def test_forgetting_probe_rejects_empty():
    params = M.init_parameters(CFG_TINY, 7)
    with pytest.raises(T.TrainerError):
        T.forgetting_probe(params, CFG_TINY, [])


def test_trained_corpus_scores_better_than_noise():
    sentences = Stream(11)
    corpus = [T.sentence_example(sentences) for _ in range(150)]
    tc = T.TrainConfig(seed=11, steps=80, learning_rate=0.5, batch_size=8,
                       max_example_len=96)
    params = T.pretrain_base(corpus, CFG_TINY, tc)
    stream = Stream(123)
    noise = [(T.printable_bytes(stream, 12), T.printable_bytes(stream, 12))
             for _ in range(40)]
    assert (T.forgetting_probe(params, CFG_TINY, corpus[:40])
            < T.forgetting_probe(params, CFG_TINY, noise))


# ----------------------------------------------------------- gradient check

def test_gradients_match_finite_differences():
    cfg = M.ModelConfig(n_blocks=1, d_model=8, n_heads=2, d_ff=32,
                        vocab_size=260, max_seq=64)
    params64 = M.init_parameters(cfg, 42).astype(np.float64)
    corpus = T.make_pretrain_corpus(13, 6)
    prepared = T._prepare(corpus, 40)
    tokens, mask = T._make_batch(prepared, list(range(min(4, len(prepared)))))

    loss0, grads = T.loss_and_grads(params64, cfg, tokens, mask)

    # (weight, gradient) of every array, in layout order
    arrays = list(zip(params64.iter_arrays(), grads.iter_arrays()))

    def loss_with(idx, flat_idx, delta):
        mutated = [w.copy() for w, _ in arrays]
        mutated[idx].flat[flat_idx] += delta
        p = M.ParameterSet.from_arrays(cfg, mutated)
        return T.loss_and_grads(p, cfg, tokens, mask)[0]

    rng = np.random.default_rng(7)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        ai = int(rng.integers(0, len(arrays)))
        fi = int(rng.integers(0, arrays[ai][0].size))
        fd = (loss_with(ai, fi, h) - loss_with(ai, fi, -h)) / (2 * h)
        an = float(arrays[ai][1].flat[fi])
        denom = max(abs(fd), abs(an), 1e-8)
        worst = max(worst, abs(fd - an) / denom)
    assert worst <= 1e-2, f"worst relative gradient error {worst}"


@pytest.mark.parametrize("name", M.BlockParams.FIELD_ORDER)
def test_gradient_wrt_one_weight_equals_the_full_calls(name):
    params = M.init_parameters(CFG_TINY, 5)
    tokens, mask = T._make_batch(T._prepare(T.make_pretrain_corpus(13, 6), 40), [0, 1, 2])
    loss, full = T.loss_and_grads(params, CFG_TINY, tokens, mask)
    loss_w, part = T.loss_and_grads(params, CFG_TINY, tokens, mask, wrt=(name,))
    assert loss_w == loss
    assert [list(gb) for gb in part] == [[name]] * CFG_TINY.n_blocks
    for gb, fb in zip(part, full.blocks):
        assert gb[name].tobytes() == getattr(fb, name).tobytes()


@pytest.mark.parametrize("wrt, kept", [
    # an adapter step keeps neither the GELU input u and its tanh t, nor the
    # first layer norm's output a, nor wo's and w2's inputs
    (T.ADAPTED_FIELDS, {"xn1", "inv1", "att", "xn2", "inv2", "gelu_grad"}),
    (None, {"xn1", "inv1", "att", "attn_merged", "xn2", "inv2", "gelu_grad", "g"}),
])
def test_a_training_pass_keeps_only_what_its_backward_reads(monkeypatch, wrt, kept):
    params = M.init_parameters(CFG_TINY, 5)
    tokens, mask = T._make_batch(T._prepare(T.make_pretrain_corpus(13, 6), 40), [0, 1, 2])
    forward, passes = M._forward, []

    def recorded(*args, **kwargs):
        out = forward(*args, **kwargs)
        passes.append((out[1], [{name: [a.shape for a in (v if isinstance(v, tuple) else (v,))]
                                 for name, v in st.items()} for st in out[1]]))
        return out

    monkeypatch.setattr(M, "_forward", recorded)
    T.loss_and_grads(params, CFG_TINY, tokens, mask, wrt=wrt)
    [(saved, shapes)] = passes
    assert [set(st) for st in shapes] == [kept] * CFG_TINY.n_blocks
    B, S = tokens.shape
    for st in shapes:
        # the softmax row sums alone; the backward rebuilds Q, K and V, and
        # from them the probabilities, so no kept array is per head or spans
        # the causal triangle
        assert st["att"] == [(B, CFG_TINY.n_heads, S, 1)]
        assert all(shape[-1] != CFG_TINY.head_dim for arrays in st.values() for shape in arrays)
        assert all(S * (S + 1) // 2 not in shape for arrays in st.values() for shape in arrays)
    # the backward lets go of each block once it has read it
    assert saved == [None] * CFG_TINY.n_blocks


def _array_bits(value) -> list:
    """The bytes of every array in a nest of lists, tuples, dicts and
    ParameterSets, in order."""
    if isinstance(value, np.ndarray):
        return [value.tobytes()]
    if isinstance(value, M.ParameterSet):
        value = list(value.iter_arrays())
    if isinstance(value, dict):
        value = [value[name] for name in sorted(value)]
    return [bits for item in value for bits in _array_bits(item)]


def test_chunking_the_training_pass_moves_no_bit(monkeypatch):
    # 8 items of 80 positions at ModelConfig()'s widths, where every
    # projection at M_MIN rows or more has row-independent bits (model rule
    # 1): at the default _CHUNK_BYTES the training MLP runs in 3 row chunks
    # a block and the attention backward in 3 item chunks; at one byte every
    # chunk is one row or one item
    cfg = M.ModelConfig(n_blocks=2, max_seq=96)
    params = M.init_parameters(cfg, 5)
    rng = np.random.default_rng(3)
    tokens = rng.integers(0, 256, size=(8, 80))
    mask = (rng.random((8, 79)) < 0.7).astype(np.float32)
    gelu_grad, pads = detmath.gelu_grad, T._attention_pads
    mlp_chunks, backward_chunks = [], []

    def counted_gelu_grad(*args):
        mlp_chunks[-1] += 1
        return gelu_grad(*args)

    def counted_pads(*args):
        out = pads(*args)
        backward_chunks.append(len(out[0]))
        return out

    monkeypatch.setattr(detmath, "gelu_grad", counted_gelu_grad)
    monkeypatch.setattr(T, "_attention_pads", counted_pads)

    def run():
        mlp_chunks.clear()
        backward_chunks.clear()
        bits = []
        for wrt in (T.ADAPTED_FIELDS, None):
            mlp_chunks.append(0)
            bits += _array_bits(M._forward(params, cfg, tokens,
                                           need_aux=wrt or M.BlockParams.FIELD_ORDER))
            bits += _array_bits(T.loss_and_grads(params, cfg, tokens, mask, wrt=wrt)[1])
        # MLP chunks a block: the first counter saw two adapter passes
        return bits, mlp_chunks[0] // (2 * cfg.n_blocks), backward_chunks[0]

    default, mlp, backward = run()
    assert mlp >= 3 and backward >= 3
    monkeypatch.setattr(M, "_CHUNK_BYTES", 1)
    smallest, mlp, backward = run()
    assert (mlp, backward) == (tokens.size, tokens.shape[0])
    assert smallest == default


class _FirstBatch(Exception):
    pass


def test_an_adapter_step_peaks_within_10_mib_of_what_it_keeps(monkeypatch):
    # the batch-sized temporaries of a step (the MLP's hidden rows, the
    # attention backward's padded buffers) span one chunk, so a step's
    # tracemalloc peak stays close to the arrays its forward keeps for the
    # backward: 36.6 MiB here, where whole-batch temporaries peaked 18.7 MiB
    # above them
    cfg = M.ModelConfig()
    base = M.init_parameters(cfg, 2506)
    batches = []

    def first_batch(params, cfg, tokens, mask, wrt=None):
        batches.append((tokens, mask, wrt))
        raise _FirstBatch

    monkeypatch.setattr(T, "loss_and_grads", first_batch)
    with pytest.raises(_FirstBatch):
        P.provision(base, P.SessionKey(bytes(range(1, 17))), P.generate_registry(5),
                    T.TrainConfig())
    monkeypatch.undo()
    [(tokens, mask, wrt)] = batches
    assert wrt == T.ADAPTED_FIELDS

    roots = {}
    for block in M._forward(base, cfg, tokens, need_aux=wrt)[1]:
        for value in block.values():
            for a in value if isinstance(value, tuple) else (value,):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                roots[id(a)] = a
    kept = sum(a.nbytes for a in roots.values())
    del roots
    tracemalloc.start()
    try:
        T.loss_and_grads(base, cfg, tokens, mask, wrt=wrt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - kept <= 10 * 2**20, (peak / 2**20, kept / 2**20)


def test_gradient_wrt_an_unknown_name_is_rejected():
    params = M.init_parameters(CFG_TINY, 5)
    tokens, mask = T._make_batch(T._prepare(T.make_pretrain_corpus(13, 6), 40), [0])
    with pytest.raises(T.TrainerError, match="emb"):
        T.loss_and_grads(params, CFG_TINY, tokens, mask, wrt=("wq", "emb"))


def test_gradient_wrt_no_name_is_rejected():
    params = M.init_parameters(CFG_TINY, 5)
    tokens, mask = T._make_batch(T._prepare(T.make_pretrain_corpus(13, 6), 40), [0])
    with pytest.raises(T.TrainerError, match="no weight"):
        T.loss_and_grads(params, CFG_TINY, tokens, mask, wrt=())


def test_divergence_reported_with_step():
    corpus = T.make_pretrain_corpus(14, 40)
    tc = T.TrainConfig(seed=1, steps=30, learning_rate=1e6, batch_size=4,
                       max_example_len=64)
    with pytest.raises(T.DivergenceError) as exc_info:
        T.pretrain_base(corpus, CFG_TINY, tc)
    assert exc_info.value.step >= 0
