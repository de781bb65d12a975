import numpy as np
import pytest

from ciphermind.scheduler import (
    MASK64,
    GOLDEN,
    Stream,
    advance,
    init_chain,
    layer_of,
    mix64,
)


def _mix64_reference(z):
    """Independent scalar re-implementation used as the oracle."""
    z &= MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def test_mix64_zero_fixed_point():
    assert mix64(0) == 0


def test_mix64_published_splitmix_vector():
    # first output of splitmix64 seeded with 0: finalizer applied to GOLDEN
    assert mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
    # cross-check the oracle agrees before trusting it elsewhere
    assert _mix64_reference(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF


def test_mix64_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(1)
    for v in rng.integers(0, 2**63, size=500):
        v = int(v)
        assert mix64(v) == _mix64_reference(v)


def test_mix64_bijective_on_shifted_16bit_domain():
    outs = {mix64(i << 24) for i in range(2**16)}
    assert len(outs) == 2**16


def test_stream_first_outputs_match_splitmix():
    s = Stream(0)
    assert s.next_u64() == 0xE220A8397B1DCDAF
    # next two values of the reference splitmix64(0) sequence
    assert s.next_u64() == _mix64_reference(2 * GOLDEN % 2**64)
    assert s.next_u64() == _mix64_reference(3 * GOLDEN % 2**64)


@pytest.mark.parametrize("seed", [0, 1, 2506, 2**64 - 1])
def test_next_u64s_equals_repeated_next_u64(seed):
    vec, loop = Stream(seed), Stream(seed)
    for n in (0, 1, 7, 1000, 3):  # split draws continue where the last one ended
        got = vec.next_u64s(n)
        assert got.dtype == np.uint64
        assert [int(z) for z in got] == [loop.next_u64() for _ in range(n)]
    assert vec.next_u64() == loop.next_u64()


def test_init_chain_zero_case():
    st = init_chain(b"\x00" * 16, 0, 0)
    assert st == 0


def test_init_chain_deterministic_and_seq_sensitive():
    key = bytes(range(16))
    a = init_chain(key, 42, 0)
    b = init_chain(key, 42, 0)
    c = init_chain(key, 42, 1)
    assert a == b
    assert a != c


@pytest.mark.xfail(strict=True, reason="init_chain folds the key to key_low ^ key_high, "
                   "so keys whose halves XOR alike share every schedule")
@pytest.mark.parametrize("other", [bytes(reversed(range(16))),
                                   bytes(b ^ 0x5A for b in range(16))],
                         ids=["reversed", "both halves xor 0x5A"])
def test_keys_with_equal_half_xor_draw_different_ivs(other):
    # both keys' halves XOR to 0x0808080808080808
    assert init_chain(bytes(range(16)), 42, 0) != init_chain(other, 42, 0)


def test_init_chain_requires_16_bytes():
    with pytest.raises(ValueError):
        init_chain(b"\x01" * 15, 0, 0)


def test_advance_increments_counter_and_chains():
    st = init_chain(bytes(range(16)), 7, 0)
    st2 = advance(st, 10)
    assert st2 == mix64(st ^ ((11 * GOLDEN) & MASK64))


def test_advance_rejects_out_of_range_token():
    st = 1
    with pytest.raises(ValueError):
        advance(st, 260)
    with pytest.raises(ValueError):
        advance(st, -1)


def test_advance_injective_in_token_for_fixed_state():
    st = 0xDEADBEEF
    outs = {advance(st, tok) for tok in range(260)}
    assert len(outs) == 260


def test_distinct_histories_rarely_collide():
    rng = np.random.default_rng(3)
    st0 = init_chain(bytes(range(16)), 99, 0)
    collisions = 0
    for _ in range(1000):
        h1 = [int(t) for t in rng.integers(0, 256, size=3)]
        h2 = [int(t) for t in rng.integers(0, 256, size=3)]
        if h1 == h2:
            continue
        a = st0
        b = st0
        for t in h1:
            a = advance(a, t)
        for t in h2:
            b = advance(b, t)
        if a == b:
            collisions += 1
    assert collisions == 0


def test_replay_reproduces_state_sequence():
    st0 = init_chain(bytes(range(16)), 5, 3)
    history = [1, 200, 57, 257, 0]
    seq1 = []
    seq2 = []
    a = st0
    for t in history:
        a = advance(a, t)
        seq1.append(a)
    b = st0
    for t in history:
        b = advance(b, t)
        seq2.append(b)
    assert seq1 == seq2


def test_layer_of_small_cases():
    assert layer_of(0, 8) == 1
    assert layer_of(123456, 2) == 1
    assert layer_of(987654321, 2) == 1
    with pytest.raises(ValueError):
        layer_of(0, 1)


def test_layer_frequencies_uniform_within_3_sigma():
    st = init_chain(bytes(range(16)), 11, 0)
    n = 100_000
    counts = np.zeros(8, dtype=np.int64)
    for i in range(n):
        counts[layer_of(st, 8)] += 1
        st = advance(st, i % 260)
    assert counts[0] == 0  # layer 0 never occurs (1-indexed blocks)
    usable = counts[1:8]
    p = 1.0 / 7.0
    sigma = np.sqrt(n * p * (1 - p))
    assert np.abs(usable - n * p).max() <= 3 * sigma


def test_final_block_never_selected():
    st = init_chain(bytes(range(16)), 13, 0)
    for i in range(10_000):
        assert 1 <= layer_of(st, 8) <= 7
        st = advance(st, i % 260)


def test_history_sensitivity_single_token_perturbation():
    rng = np.random.default_rng(5)
    st0 = init_chain(bytes(range(16)), 17, 0)
    changed = 0
    trials = 10_000
    for _ in range(trials):
        history = [int(t) for t in rng.integers(0, 256, size=8)]
        pos = int(rng.integers(0, 8))
        alt = history.copy()
        alt[pos] = (alt[pos] + 1 + int(rng.integers(0, 255))) % 256
        if alt == history:
            alt[pos] = (alt[pos] + 1) % 256
        a = st0
        b = st0
        for t in history:
            a = advance(a, t)
        for t in alt:
            b = advance(b, t)
        if a != b:
            changed += 1
    assert changed / trials >= 0.999


@pytest.mark.parametrize("n", [0, -1])
def test_next_below_needs_a_positive_bound(n):
    with pytest.raises(ValueError, match="positive"):
        Stream(3).next_below(n)


def test_stream_shuffle_deterministic():
    a = list(range(50))
    b = list(range(50))
    Stream(9).shuffle(a)
    Stream(9).shuffle(b)
    assert a == b
    assert a != list(range(50))
