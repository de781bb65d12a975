import logging

import pytest

from ciphermind import model as M
from ciphermind import provisioning as P
from ciphermind import trainer as T

CFG = M.ModelConfig(n_blocks=2, d_model=32, n_heads=2, d_ff=64,
                    vocab_size=260, max_seq=128)
TC = T.TrainConfig(seed=21, steps=2, learning_rate=0.02, batch_size=4,
                   max_example_len=96)


@pytest.fixture(scope="module")
def registry():
    return P.generate_registry(seed=100, examples_per_shard=3)


def _key(value: int) -> P.SessionKey:
    return P.SessionKey(value.to_bytes(16, "little"))


def test_key_bit_conventions():
    k = _key(0x0001)
    assert [i for i in range(128) if k.bit(i)] == [0]
    k5 = _key(0x0005)
    assert [i for i in range(128) if k5.bit(i)] == [0, 2]
    top = _key(1 << 127)
    assert [i for i in range(128) if top.bit(i)] == [127]


def test_key_hex_parsing_matches_integer_bits():
    k = P.SessionKey.from_hex("00000000000000000000000000000005")
    assert [i for i in range(128) if k.bit(i)] == [0, 2]


@pytest.mark.parametrize("text", ["0x" + "5" * 30, " " + "5" * 30 + " ",
                                  "-" + "5" * 31, "5" * 31 + "g"],
                         ids=["0x prefix", "spaces", "minus", "non-hex"])
def test_key_hex_rejects_all_but_32_hex_digits(text):
    with pytest.raises(P.ProvisioningError):
        P.SessionKey.from_hex(text)


def test_zero_key_rejected():
    with pytest.raises(P.ProvisioningError):
        _key(0)


def test_weak_key_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="ciphermind.provisioning"):
        _key(0b101)
    assert any("popcount" in r.message for r in caplog.records)


def test_select_shards_cases(registry):
    assert [s.id for s in P.select_shards(_key(1), registry)] == [0]
    assert [s.id for s in P.select_shards(_key(5), registry)] == [0, 2]
    all_ones = _key((1 << 128) - 1)
    assert [s.id for s in P.select_shards(all_ones, registry)] == list(range(128))


def test_registry_digest_stable(registry):
    again = P.generate_registry(seed=100, examples_per_shard=3)
    assert registry.digest() == again.digest()
    other = P.generate_registry(seed=101, examples_per_shard=3)
    assert registry.digest() != other.digest()


def test_registry_file_roundtrip(tmp_path, registry):
    P.save_registry(tmp_path / "reg", registry)
    loaded = P.load_registry(tmp_path / "reg")
    assert loaded.digest() == registry.digest()
    assert loaded.shards[7].examples == registry.shards[7].examples


def test_registry_shard_cut_inside_a_length_field(tmp_path, registry):
    P.save_registry(tmp_path / "reg", registry)
    shard = tmp_path / "reg" / "shard_000.bin"
    blob = shard.read_bytes()
    for cut in range(1, 4):
        shard.write_bytes(blob[:cut])
        with pytest.raises(P.ProvisioningError):
            P.load_registry(tmp_path / "reg")


def test_provision_twinness(registry):
    base = M.init_parameters(CFG, 1)
    key = _key(0x1234_5678_9ABC)
    m1, p1, _ = P.provision(base, key, registry, TC)
    m2, p2, _ = P.provision(base, key, registry, TC)
    assert M.fingerprint(m1) == M.fingerprint(m2)
    assert p1 == p2


def test_one_bit_key_difference_changes_adapters(registry):
    base = M.init_parameters(CFG, 1)
    _, p1, _ = P.provision(base, _key(0b0110), registry, TC)
    _, p2, _ = P.provision(base, _key(0b0111), registry, TC)
    assert p1.adapter_fingerprint != p2.adapter_fingerprint


def test_zero_steps_merged_equals_base(registry):
    base = M.init_parameters(CFG, 1)
    tc0 = T.TrainConfig(seed=21, steps=0)
    merged, _, _ = P.provision(base, _key(7), registry, tc0)
    assert M.fingerprint(merged) == M.fingerprint(base)


def test_commitment_hides_and_separates():
    a = _key(0x10)
    b = _key(0x11)
    assert a.commitment() != b.commitment()
    assert a.value not in a.commitment()


def test_verify_twin_accept_and_field_naming(registry):
    base = M.init_parameters(CFG, 1)
    key = _key(9)
    _, prof, _ = P.provision(base, key, registry, TC)
    ok, field = P.verify_twin(prof, prof)
    assert ok and field == ""

    other_adapter = P.TwinProfile(prof.base_fingerprint, b"\x01" * 32,
                                  prof.registry_digest, prof.key_commitment,
                                  prof.config_summary)
    ok, field = P.verify_twin(prof, other_adapter)
    assert not ok and field == "adapter"

    other_key = P.TwinProfile(prof.base_fingerprint, prof.adapter_fingerprint,
                              prof.registry_digest, _key(10).commitment(),
                              prof.config_summary)
    ok, field = P.verify_twin(prof, other_key)
    assert not ok and field == "key"


def test_profile_pack_roundtrip(registry):
    base = M.init_parameters(CFG, 1)
    _, prof, _ = P.provision(base, _key(3), registry, TC)
    blob = prof.pack()
    assert len(blob) == P.TwinProfile.packed_size()
    assert P.TwinProfile.unpack(blob) == prof


def test_keyspace_injectivity_on_samples(registry):
    seen = set()
    for v in (1, 2, 3, 0xFF, 1 << 64, (1 << 128) - 1):
        ids = tuple(s.id for s in P.select_shards(_key(v), registry))
        assert ids not in seen
        seen.add(ids)
