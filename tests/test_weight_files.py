"""Parameter, adapter and shard-registry files share one format and one
reader: a magic, a version byte, a fixed header, then the payload, which is
little-endian float32 arrays in layout order for weights and the shards'
bytes in id order for a registry. A damaged file of any kind fails with its
own module's error: ModelError for parameters, TrainerError for adapters,
ProvisioningError for a registry."""

import dataclasses
import os
import struct
import time
import tracemalloc

import pytest

from ciphermind import model as M
from ciphermind import provisioning as P
from ciphermind import trainer as T
from ciphermind.scheduler import Stream

CFG = M.ModelConfig(n_blocks=2, d_model=16, n_heads=2, d_ff=32,
                    vocab_size=260, max_seq=64)
TC = T.TrainConfig(seed=4, steps=0)


def _adapters():
    stream = Stream(9)
    examples = [T.sentence_example(stream) for _ in range(2)]
    return T.finetune(M.init_parameters(CFG, seed=5), examples, TC)


# kind -> (write a good file, load it, the error a damaged one raises,
#          header length incl. magic and version, header of a huge layout)
KINDS = {
    "parameters": (
        lambda path: M.save_parameters(path, M.init_parameters(CFG, seed=5)),
        M.load_parameters, M.ModelError, 4 + 1 + 28,
        dataclasses.replace(CFG, n_blocks=2**32 - 1).pack()),
    "adapters": (
        lambda path: T.save_adapters(path, _adapters()),
        lambda path: T.load_adapters(path, CFG), T.TrainerError, 4 + 1 + 32 + 28,
        bytes(range(1, 33)) + dataclasses.replace(TC, adapter_rank=2**32 - 1).pack()),
    # a damaged payload byte fails its shard's digest, as a NaN weight does
    "registry": (
        lambda path: P.save_registry(path, P.generate_registry(seed=3, examples_per_shard=1)),
        P.load_registry, P.ProvisioningError, 4 + 1 + P.N_SHARDS * 36,
        struct.pack("<I32x", 2**32 - 1) * P.N_SHARDS),
}

# damage -> the damaged files made from a good file and its header length
DAMAGES = {
    "bad magic": lambda blob, h: [b"NOPE" + blob[4:]],
    "every cut inside the header": lambda blob, h: [blob[:cut] for cut in range(h)],
    "bad version": lambda blob, h: [blob[:4] + bytes([blob[4] + 1]) + blob[5:]],
    "payload 4 bytes short": lambda blob, h: [blob[:-4]],
    "payload 4 bytes long": lambda blob, h: [blob + bytes(4)],
    "one NaN weight": lambda blob, h: [blob[:h + 8] + struct.pack("<f", float("nan"))
                                       + blob[h + 12:]],
}


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("kind", KINDS)
def test_damaged_weight_file_fails_typed(tmp_path, kind, damage):
    write, load, error, header_len, _ = KINDS[kind]
    path = tmp_path / "weights.bin"
    write(path)
    blob = path.read_bytes()
    load(path)  # the undamaged file loads
    for bad in DAMAGES[damage](blob, header_len):
        path.write_bytes(bad)
        with pytest.raises(error):
            load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_unreadable_weight_file_fails_typed_naming_it(tmp_path, kind):
    _, load, error, _, _ = KINDS[kind]
    path = tmp_path / "weights.bin"
    with pytest.raises(error, match="weights.bin"):
        load(path)  # missing
    path.mkdir()
    with pytest.raises(error, match="weights.bin"):
        load(path)  # a directory


@pytest.mark.parametrize("kind", KINDS)
def test_header_claiming_a_huge_layout_fails_fast(tmp_path, kind):
    # 2**32 - 1 blocks of parameters, adapters of rank 2**32 - 1 or shards of
    # 2**32 - 1 bytes each: the payload size is checked in closed form,
    # before any per-array or per-shard work
    write, load, error, header_len, huge_header = KINDS[kind]
    path = tmp_path / "weights.bin"
    write(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:5] + huge_header + blob[header_len:])
    start = time.perf_counter()
    with pytest.raises(error, match="payload"):
        load(path)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("head", ["zeros", "a good header"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_64_mib_file_fails_typed_without_being_buffered(tmp_path, kind, head):
    # a sparse file of zeros has a bad magic; after a good header its size
    # disagrees with the layout: either is refused after reading the header
    write, load, error, header_len, _ = KINDS[kind]
    path = tmp_path / "weights.bin"
    write(path)
    path.write_bytes(path.read_bytes()[:header_len] if head == "a good header" else b"")
    os.truncate(path, 64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(error):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_parameter_header_naming_a_huge_max_seq_fails_fast(tmp_path):
    # max_seq sizes the position table and every KV cache: at 2**32 - 1 the
    # first forward pass would ask numpy for a 32 GiB table at d 128, so the
    # config the header names is refused before any payload work
    path = tmp_path / "weights.bin"
    M.save_parameters(path, M.init_parameters(CFG, seed=5))
    blob = path.read_bytes()
    max_seq_at = 4 + 1 + 20  # magic, version, five u32 config fields
    path.write_bytes(blob[:max_seq_at] + struct.pack("<I", 2**32 - 1) + blob[max_seq_at + 4:])
    start = time.perf_counter()
    with pytest.raises(M.ModelError, match="max_seq"):
        M.load_parameters(path)
    assert time.perf_counter() - start < 1.0
