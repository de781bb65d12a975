import hashlib
import json
import logging
from pathlib import Path

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


@pytest.mark.parametrize("value", ["a" * 16, list(range(1, 17)), 1 << 100, None,
                                   bytes(range(1, 16)), bytes(range(1, 18))],
                         ids=["str", "list", "int", "None", "15 bytes", "17 bytes"])
def test_key_rejects_all_but_16_bytes_of_a_bytes_like_value(value):
    with pytest.raises(P.ProvisioningError):
        P.SessionKey(value)


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_key_holds_a_bytes_like_value_as_bytes(kind):
    key = P.SessionKey(kind(bytes(range(1, 17))))
    assert type(key.value) is bytes
    assert key == P.SessionKey(bytes(range(1, 17)))


def test_zero_key_rejected():
    with pytest.raises(P.ProvisioningError):
        _key(0)


def test_weak_key_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="ciphermind.provisioning"):
        _key(0b101)
    assert any("popcount" in r.message for r in caplog.records)


def test_select_shards_cases():
    assert P.select_shards(_key(1)) == [0]
    assert P.select_shards(_key(5)) == [0, 2]
    all_ones = _key((1 << 128) - 1)
    assert P.select_shards(all_ones) == list(range(128))


def test_registry_digest_stable(registry):
    again = P.generate_registry(seed=100, examples_per_shard=3)
    assert registry.digest() == again.digest()
    other = P.generate_registry(seed=101, examples_per_shard=3)
    assert registry.digest() != other.digest()


def test_registry_file_roundtrip(tmp_path, registry):
    P.save_registry(tmp_path / "reg", registry)
    loaded = P.load_registry(tmp_path / "reg")
    assert loaded.digest() == registry.digest()
    assert loaded.shards == registry.shards


def test_shard_digest_is_sha256_of_its_file_bytes(tmp_path, registry):
    P.save_registry(tmp_path / "reg", registry)
    entries = json.loads((tmp_path / "reg" / "manifest.json").read_text())["shards"]
    for sid in (0, 127):
        blob = (tmp_path / "reg" / f"shard_{sid:03d}.bin").read_bytes()
        assert blob == P.shard_bytes(registry.shards[sid])
        assert P.parse_shard(blob) == registry.shards[sid]
        assert entries[sid]["digest"] == hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("shards", [[[(b"p", b"c")]] * 127, [[(b"p", b"c")]] * 127 + [[]]],
                         ids=["127 shards", "shard 127 empty"])
def test_registry_needs_128_non_empty_shards(shards):
    with pytest.raises(P.ProvisioningError, match="non-empty"):
        P.ShardRegistry(shards)


def test_registry_shard_cut_inside_a_length_field(tmp_path, registry):
    P.save_registry(tmp_path / "reg", registry)
    shard = tmp_path / "reg" / "shard_000.bin"
    blob = shard.read_bytes()
    for cut in range(1, 4):
        shard.write_bytes(blob[:cut])
        with pytest.raises(P.ProvisioningError):
            P.load_registry(tmp_path / "reg")


@pytest.mark.parametrize("damage", ["cut at 50 bytes", "{}", '{"shards": 5}',
                                    '{"shards": [{}], "registry_digest": ""}', "[]"])
def test_registry_damaged_manifest_fails_typed(tmp_path, registry, damage):
    P.save_registry(tmp_path / "reg", registry)
    manifest = tmp_path / "reg" / "manifest.json"
    text = manifest.read_text()
    manifest.write_text(text[:50] if damage == "cut at 50 bytes" else damage)
    with pytest.raises(P.ProvisioningError, match="manifest"):
        P.load_registry(tmp_path / "reg")


def test_registry_manifest_names_no_file_outside_the_registry(tmp_path, registry):
    P.save_registry(tmp_path / "reg", registry)
    outside = tmp_path / "elsewhere.bin"
    outside.write_bytes((tmp_path / "reg" / "shard_000.bin").read_bytes())
    manifest = tmp_path / "reg" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["shards"][0]["file"] = str(outside)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(P.ProvisioningError, match="manifest"):
        P.load_registry(tmp_path / "reg")


@pytest.mark.parametrize("damage", ["20000 extra copies of entry 0", "entries 0 and 1 swapped",
                                    "entry 127 missing"])
def test_registry_manifest_lists_shards_0_to_127_before_any_shard_read(
        tmp_path, registry, monkeypatch, damage):
    P.save_registry(tmp_path / "reg", registry)
    manifest = tmp_path / "reg" / "manifest.json"
    doc = json.loads(manifest.read_text())
    shards = doc["shards"]
    if damage.startswith("20000"):
        shards += [shards[0]] * 20000
    elif damage.endswith("swapped"):
        shards[0], shards[1] = shards[1], shards[0]
    else:
        del shards[127]
    manifest.write_text(json.dumps(doc))
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
    with pytest.raises(P.ProvisioningError, match="manifest"):
        P.load_registry(tmp_path / "reg")
    assert reads == []


def test_registry_missing_shard_file_fails_typed(tmp_path, registry):
    P.save_registry(tmp_path / "reg", registry)
    (tmp_path / "reg" / "shard_005.bin").unlink()
    with pytest.raises(P.ProvisioningError, match="shard 5"):
        P.load_registry(tmp_path / "reg")


@pytest.mark.parametrize("name, damage", [("manifest.json", "missing"),
                                          ("manifest.json", "a directory"),
                                          ("shard_005.bin", "a directory")])
def test_registry_unreadable_file_fails_typed_naming_it(tmp_path, registry, name, damage):
    P.save_registry(tmp_path / "reg", registry)
    path = tmp_path / "reg" / name
    path.unlink()
    if damage == "a directory":
        path.mkdir()
    with pytest.raises(P.ProvisioningError, match=name):
        P.load_registry(tmp_path / "reg")


def test_registry_shard_text_flip_fails_its_digest(tmp_path, registry):
    P.save_registry(tmp_path / "reg", registry)
    shard = tmp_path / "reg" / "shard_009.bin"
    blob = bytearray(shard.read_bytes())
    blob[4] ^= 0x01  # the first byte of the first prompt, after its length
    shard.write_bytes(bytes(blob))
    with pytest.raises(P.ProvisioningError, match="shard 9 digest mismatch on load"):
        P.load_registry(tmp_path / "reg")


def test_registry_manifest_digest_altered_fails_typed(tmp_path, registry):
    P.save_registry(tmp_path / "reg", registry)
    manifest = tmp_path / "reg" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["registry_digest"] = "00" * 32
    manifest.write_text(json.dumps(doc))
    with pytest.raises(P.ProvisioningError, match="registry digest mismatch on load"):
        P.load_registry(tmp_path / "reg")


def test_provision_twinness(registry):
    base = M.init_parameters(CFG, 1)
    key = _key(0x1234_5678_9ABC)
    m1, p1, _ = P.provision(base, key, registry, TC)
    m2, p2, _ = P.provision(base, key, registry, TC)
    assert M.fingerprint(m1) == M.fingerprint(m2)
    assert p1 == p2


def test_provision_fingerprints_the_base_twice(registry, monkeypatch):
    # finetune records the base fingerprint and merge checks it; the
    # profile reuses the recorded one
    calls = []
    original = M.fingerprint
    monkeypatch.setattr(M, "fingerprint", lambda params: calls.append(params) or original(params))
    base = M.init_parameters(CFG, 1)
    _, profile, _ = P.provision(base, _key(0x1234_5678_9ABC), registry, TC)
    assert len(calls) == 2 and all(p is base for p in calls)
    assert profile.base_fingerprint == original(base)


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


def test_keyspace_injectivity_on_samples():
    seen = set()
    for v in (1, 2, 3, 0xFF, 1 << 64, (1 << 128) - 1):
        ids = tuple(P.select_shards(_key(v)))
        assert ids not in seen
        seen.add(ids)
