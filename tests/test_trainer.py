import numpy as np
import pytest

from ciphermind import codec
from ciphermind import model as M
from ciphermind import trainer as T
from ciphermind.scheduler import Stream

CFG_TINY = M.ModelConfig(n_blocks=2, d_model=32, n_heads=2, d_ff=64,
                         vocab_size=260, max_seq=128)


def _toy_shards(n=3, per=4, seed=0):
    stream = Stream(seed)
    shards = []
    for i in range(n):
        examples = [T.sentence_example(stream) for _ in range(per)]
        shards.append(T.Shard(id=i, examples=examples))
    return shards


# ------------------------------------------------------------------ dataset

def test_repeat_dataset_ten_to_one():
    shards = [T.Shard(id=0, examples=[(b"q%d" % i, b"a%d" % i) for i in range(10)])]
    ds = T.build_repeat_dataset(shards, (10, 1), seed=1)
    assert len(ds) == 11
    repeats = [ex for ex in ds if ex[0].startswith(codec.TEMPLATE_TEXT)]
    assert len(repeats) == 1


def test_repeat_dataset_one_to_one_alternates():
    shards = [T.Shard(id=0, examples=[(b"q", b"a")])]
    ds = T.build_repeat_dataset(shards, (1, 1), seed=2)
    assert len(ds) == 2
    assert not ds[0][0].startswith(codec.TEMPLATE_TEXT)
    assert ds[1][0].startswith(codec.TEMPLATE_TEXT)


def test_repeat_dataset_deterministic():
    shards = _toy_shards()
    a = T.build_repeat_dataset(shards, (10, 1), seed=3)
    b = T.build_repeat_dataset(shards, (10, 1), seed=3)
    assert a == b
    c = T.build_repeat_dataset(shards, (10, 1), seed=4)
    assert a != c


def test_repeat_dataset_rejects_empty():
    with pytest.raises(T.TrainerError):
        T.build_repeat_dataset([], (10, 1), seed=0)


def test_repeat_payloads_in_bounds():
    shards = _toy_shards(1, 30)
    ds = T.build_repeat_dataset(shards, (1, 1), seed=5)
    for prompt, completion in ds:
        if prompt.startswith(codec.TEMPLATE_TEXT):
            x = prompt[len(codec.TEMPLATE_TEXT):]
            assert x == completion
            assert 1 <= len(x) <= 64
            assert all(0x21 <= b <= 0x7E for b in x)


def test_shard_digest_matches_content():
    sh = T.Shard(id=0, examples=[(b"p", b"c")])
    assert len(sh.digest) == 32
    with pytest.raises(T.TrainerError):
        T.Shard(id=0, examples=[(b"p", b"c")], digest=b"\x00" * 32)
    with pytest.raises(T.TrainerError):
        T.Shard(id=1, examples=[])


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
    log = []
    T.pretrain_base(corpus, CFG_TINY, tc, loss_log=log)
    assert len(log) == 60
    assert np.mean(log[-10:]) < log[0]


def test_pretrain_rejects_empty_corpus():
    with pytest.raises(T.TrainerError):
        T.pretrain_base([], CFG_TINY, T.TrainConfig(seed=0, steps=1))


# ----------------------------------------------------------------- adapters

def test_finetune_zero_steps_merge_is_identity():
    base = M.init_parameters(CFG_TINY, 3)
    adapters = T.finetune(base, _toy_shards(), T.TrainConfig(seed=4, steps=0))
    merged = T.merge(base, adapters)
    assert M.fingerprint(merged) == M.fingerprint(base)


def test_finetune_steps_change_fingerprint():
    base = M.init_parameters(CFG_TINY, 3)
    shards = _toy_shards()
    a10 = T.finetune(base, shards, T.TrainConfig(seed=4, steps=3, learning_rate=0.05,
                                                 batch_size=4, max_example_len=80))
    a20 = T.finetune(base, shards, T.TrainConfig(seed=4, steps=6, learning_rate=0.05,
                                                 batch_size=4, max_example_len=80))
    assert T.adapter_fingerprint(a10) != T.adapter_fingerprint(a20)


def test_finetune_twin_determinism():
    base = M.init_parameters(CFG_TINY, 3)
    shards = _toy_shards()
    tc = T.TrainConfig(seed=4, steps=3, learning_rate=0.05, batch_size=4,
                       max_example_len=80)
    a = T.finetune(base, shards, tc)
    b = T.finetune(base, shards, tc)
    assert T.adapter_fingerprint(a) == T.adapter_fingerprint(b)


def test_finetune_leaves_base_untouched():
    base = M.init_parameters(CFG_TINY, 3)
    fp0 = M.fingerprint(base)
    T.finetune(base, _toy_shards(), T.TrainConfig(seed=4, steps=2, batch_size=4,
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
    adapters = T.finetune(base, _toy_shards(), T.TrainConfig(seed=4, steps=2,
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
    adapters = T.finetune(base, _toy_shards(), T.TrainConfig(seed=4, steps=2,
                                                             batch_size=4,
                                                             max_example_len=80))
    path = tmp_path / "a.cmad"
    T.save_adapters(path, adapters)
    loaded = T.load_adapters(path, CFG_TINY)
    assert T.adapter_fingerprint(loaded) == T.adapter_fingerprint(adapters)
    assert loaded.base_fingerprint == adapters.base_fingerprint
    assert loaded.tconfig == adapters.tconfig


def test_adapter_file_cut_inside_its_header(tmp_path):
    base = M.init_parameters(CFG_TINY, 7)
    adapters = T.finetune(base, _toy_shards(), T.TrainConfig(seed=4, steps=0))
    path = tmp_path / "a.cmad"
    T.save_adapters(path, adapters)
    blob = path.read_bytes()
    for cut in range(4 + 1 + 32 + 28):  # magic, version, base fingerprint, config
        path.write_bytes(blob[:cut])
        with pytest.raises(T.TrainerError):
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
    corpus = T.make_pretrain_corpus(11, 150, repeat_fraction=0.0)
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

    arrays = [("emb", params64.emb, grads["emb"])]
    for name in M.BlockParams.FIELD_ORDER:
        arrays.append((name, getattr(params64.blocks[0], name),
                       grads["blocks"][0][name]))
    arrays.append(("gf", params64.gf, grads["gf"]))
    arrays.append(("bf", params64.bf, grads["bf"]))

    def loss_with(name_idx, flat_idx, delta):
        mutated = []
        for i, (nm, arr, _) in enumerate(arrays):
            a = arr.copy()
            if i == name_idx:
                a.flat[flat_idx] += delta
            mutated.append(a)
        emb = mutated[0]
        block = M.BlockParams(*mutated[1:11])
        p = M.ParameterSet(cfg, emb, [block], mutated[11], mutated[12])
        return T.loss_and_grads(p, cfg, tokens, mask)[0]

    rng = np.random.default_rng(7)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        ai = int(rng.integers(0, len(arrays)))
        fi = int(rng.integers(0, arrays[ai][1].size))
        fd = (loss_with(ai, fi, h) - loss_with(ai, fi, -h)) / (2 * h)
        an = float(arrays[ai][2].flat[fi])
        denom = max(abs(fd), abs(an), 1e-8)
        worst = max(worst, abs(fd - an) / denom)
    assert worst <= 1e-2, f"worst relative gradient error {worst}"


def test_divergence_reported_with_step():
    corpus = T.make_pretrain_corpus(14, 40)
    tc = T.TrainConfig(seed=1, steps=30, learning_rate=1e6, batch_size=4,
                       max_example_len=64)
    with pytest.raises(T.DivergenceError) as exc_info:
        T.pretrain_base(corpus, CFG_TINY, tc)
    assert exc_info.value.step >= 0
