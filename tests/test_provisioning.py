import hashlib
import logging
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from test_codec import _blas_picks_its_kernel_at_load

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
    P.save_registry(tmp_path / "reg.cmrg", registry)
    loaded = P.load_registry(tmp_path / "reg.cmrg")
    assert loaded.digest() == registry.digest()
    assert loaded.shards == registry.shards


def _registry_file(tmp_path, registry):
    """(path, bytes, header length, payload offset of each shard) of a saved registry."""
    path = tmp_path / "reg.cmrg"
    P.save_registry(path, registry)
    blob = path.read_bytes()
    header_len = 4 + 1 + 36 * P.N_SHARDS
    lengths = [struct.unpack_from("<I", blob, 5 + 36 * sid)[0] for sid in range(P.N_SHARDS)]
    return path, blob, header_len, [header_len + sum(lengths[:sid]) for sid in range(P.N_SHARDS)]


def test_shard_digest_is_sha256_of_its_file_bytes(tmp_path, registry):
    _, blob, _, offsets = _registry_file(tmp_path, registry)
    assert blob[:5] == b"CMRG\x01"
    for sid in (0, 127):
        n, digest = struct.unpack_from("<I32s", blob, 5 + 36 * sid)
        shard = blob[offsets[sid]:offsets[sid] + n]
        assert shard == P.shard_bytes(registry.shards[sid])
        assert P.parse_shard(shard) == registry.shards[sid]
        assert digest == hashlib.sha256(shard).digest()


@pytest.mark.parametrize("shards", [[[(b"p", b"c")]] * 127, [[(b"p", b"c")]] * 127 + [[]]],
                         ids=["127 shards", "shard 127 empty"])
def test_registry_needs_128_non_empty_shards(shards):
    with pytest.raises(P.ProvisioningError, match="non-empty"):
        P.ShardRegistry(shards)


def test_registry_shard_cut_inside_a_length_field(tmp_path, registry):
    # shard 0 keeps 1 to 3 bytes, its header entry the length and digest of
    # what is left, and shard 1 follows: it fails its parse, not its digest
    path, blob, header_len, offsets = _registry_file(tmp_path, registry)
    for cut in range(1, 4):
        shard = blob[offsets[0]:offsets[0] + cut]
        entry = struct.pack("<I32s", cut, hashlib.sha256(shard).digest())
        path.write_bytes(blob[:5] + entry + blob[5 + 36:header_len] + shard + blob[offsets[1]:])
        with pytest.raises(P.ProvisioningError, match="shard 0 is empty or cut short"):
            P.load_registry(path)


@pytest.mark.parametrize("name, damage", [("manifest.json", "missing"),
                                          ("manifest.json", "a directory")])
def test_registry_unreadable_file_fails_typed_naming_it(tmp_path, registry, name, damage):
    # the registry is known by its header, not its file name: saved as
    # manifest.json it loads, and missing or a directory it fails naming it
    path = tmp_path / name
    P.save_registry(path, registry)
    assert P.load_registry(path).digest() == registry.digest()
    path.unlink()
    if damage == "a directory":
        path.mkdir()
    with pytest.raises(P.ProvisioningError, match=re.escape(name)):
        P.load_registry(path)


def test_registry_shard_text_flip_fails_its_digest(tmp_path, registry):
    path, blob, _, offsets = _registry_file(tmp_path, registry)
    blob = bytearray(blob)
    blob[offsets[9] + 4] ^= 0x01  # the first byte of shard 9's first prompt, after its length
    path.write_bytes(bytes(blob))
    with pytest.raises(P.ProvisioningError, match="shard 9 digest mismatch on load"):
        P.load_registry(path)


def test_registry_manifest_digest_altered_fails_typed(tmp_path, registry):
    # the header is the registry's manifest: an altered digest there fails
    # its shard as altered bytes do
    path, blob, _, _ = _registry_file(tmp_path, registry)
    at = 5 + 36 * 5 + 4  # shard 5's digest, after its length
    path.write_bytes(blob[:at] + bytes(32) + blob[at + 32:])
    with pytest.raises(P.ProvisioningError, match="shard 5 digest mismatch on load"):
        P.load_registry(path)


def test_provision_twinness(registry):
    base = M.init_parameters(CFG, 1)
    key = _key(0x1234_5678_9ABC)
    m1, p1, _ = P.provision(base, key, registry, TC)
    m2, p2, _ = P.provision(base, key, registry, TC)
    assert M.fingerprint(m1) == M.fingerprint(m2)
    assert p1 == p2


def _run_child(code: str, **env) -> str:
    """The last line that code prints, run by a fresh interpreter under env."""
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src), **env), timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


_PROVISION_IN_CHILD = """
from ciphermind import model as M, provisioning as P, trainer as T
cfg = M.ModelConfig(n_blocks=4, d_model=32, n_heads=2, d_ff=64, vocab_size=260, max_seq=256)
_, _, adapters = P.provision(M.init_parameters(cfg, 2506), P.SessionKey(bytes(range(1, 17))),
                             P.generate_registry(5), T.TrainConfig(steps=2))
print(T.adapter_fingerprint(adapters).hex())
"""


def test_the_twin_is_the_same_at_one_and_two_blas_threads():
    # OpenBLAS runs a thread per core by default, and a threaded float32
    # weight-gradient GEMM rounds otherwise; the fine-tune's weight
    # gradients, SGD products and merge take exact products (model._exact_mm),
    # so gateways with other core counts derive one twin
    fingerprints = {_run_child(_PROVISION_IN_CHILD, OPENBLAS_NUM_THREADS=str(n)) for n in (1, 2)}
    assert len(fingerprints) == 1, fingerprints


_EXACT_PRODUCTS_IN_CHILD = """
import hashlib
import numpy as np
from ciphermind import model as M
rng = np.random.default_rng(5)
h = hashlib.sha256()
for m, k, n in ((128, 1280, 128), (128, 128, 4), (128, 4, 128), (33, 77, 19)):
    a = rng.standard_normal((m, k), dtype=np.float32)
    h.update(M._exact_mm(a, rng.standard_normal((k, n), dtype=np.float32)).tobytes())
print(h.hexdigest())
"""


@pytest.mark.skipif(not _blas_picks_its_kernel_at_load(),
                    reason="OPENBLAS_CORETYPE needs a DYNAMIC_ARCH scipy-openblas")
def test_exact_products_have_the_same_bits_on_every_blas_kernel():
    # a float32 GEMM of these shapes has other bits under each of these
    # kernels; the exact products' integer sums are exact in any order
    digests = {_run_child(_EXACT_PRODUCTS_IN_CHILD, OPENBLAS_CORETYPE=c, OPENBLAS_NUM_THREADS="2")
               for c in ("Haswell", "Sandybridge", "Prescott")}
    assert len(digests) == 1, digests


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


@pytest.mark.parametrize("name", ["base_fingerprint", "adapter_fingerprint",
                                  "registry_digest", "key_commitment"])
def test_a_profile_digest_must_be_32_bytes(name):
    digests = {n: bytes([i + 1]) * 32 for i, n in enumerate(
        ("base_fingerprint", "adapter_fingerprint", "registry_digest", "key_commitment"))}
    for bad in (digests[name][:31], digests[name] + b"\x01"):
        with pytest.raises(P.ProvisioningError, match=f"{name} must be 32 bytes"):
            P.TwinProfile(**{**digests, name: bad}, config_summary=P.config_summary(CFG))


@pytest.mark.parametrize("delta", [-1, 1])
def test_profile_unpack_rejects_another_length(delta):
    blob = bytes([7]) * (P.TwinProfile.packed_size() + delta)
    with pytest.raises(P.ProvisioningError, match="bad profile length"):
        P.TwinProfile.unpack(blob)


def test_keyspace_injectivity_on_samples():
    seen = set()
    for v in (1, 2, 3, 0xFF, 1 << 64, (1 << 128) - 1):
        ids = tuple(P.select_shards(_key(v)))
        assert ids not in seen
        seen.add(ids)
