"""Turn a shared 128-bit key into a pair of bit-identical model twins.

Each of the key's 128 bits selects one shard from a fixed registry; the
selected shards (ascending id) feed the deterministic fine-tune, so equal
(base, key, registry, train config) yields byte-equal merged weights on
both ends when both run the same BLAS kernel, at any thread count: the
fine-tune's weight gradients, the GEMMs whose bits the thread count moved,
take exact products (model._exact_mm), as do its SGD step's factor
products and the merge. At ModelConfig() the registry-5, key 1..16,
base-2506 twin is the same at 1, 2 and 4 OpenBLAS threads. The twin still
depends on the kernel: the forward engine's GEMMs and the backward's other
GEMMs round by it (ROADMAP item 12). The twin profile carries the digests
either side needs to prove equality before any frame flows, so peers on
other kernels fail the handshake typed.
The registry is one file in the format of parameter and adapter files
(save_registry).
"""

from __future__ import annotations

import hashlib
import logging
import re
import struct
from dataclasses import dataclass, fields

from . import model as M
from . import trainer as T
from .codec import TEMPLATE_VERSION
from .scheduler import Stream, mix64

log = logging.getLogger(__name__)

KEY_BYTES = 16
N_SHARDS = 128
KEY_COMMIT_PREFIX = b"ciphermind.key.v1"
REGISTRY_MAGIC = b"CMRG"
REGISTRY_VERSION = 1
_SHARD_ENTRY = struct.Struct("<I32s")  # a registry header entry: length, SHA-256

WEAK_KEY_POPCOUNT = 8


class ProvisioningError(Exception):
    pass


@dataclass(frozen=True)
class SessionKey:
    """Pre-shared 128-bit key; bit i (LSB of byte 0 = bit 0) selects shard i.
    Takes 16 bytes of bytes, bytearray or memoryview and holds them as bytes."""

    value: bytes

    def __post_init__(self):
        if not isinstance(self.value, (bytes, bytearray, memoryview)):
            raise ProvisioningError(
                f"session key must be bytes-like, got {type(self.value).__name__}")
        object.__setattr__(self, "value", bytes(self.value))
        if len(self.value) != KEY_BYTES:
            raise ProvisioningError("session key must be exactly 16 bytes")
        if self.popcount() == 0:
            raise ProvisioningError(
                "all-zero key selects no shards (the twin would be the public base)")
        if self.popcount() < WEAK_KEY_POPCOUNT:
            log.warning("session key has popcount %d (< %d): weak shard subset",
                        self.popcount(), WEAK_KEY_POPCOUNT)

    @classmethod
    def from_hex(cls, hex_str: str) -> "SessionKey":
        """Parse 32 hex chars as a 128-bit integer (bit 0 = least significant)."""
        if not re.fullmatch("[0-9a-fA-F]{32}", hex_str):
            raise ProvisioningError("key must be 32 hex characters")
        return cls(int(hex_str, 16).to_bytes(KEY_BYTES, "little"))

    def bit(self, i: int) -> int:
        return (self.value[i // 8] >> (i % 8)) & 1

    def popcount(self) -> int:
        return sum(bin(b).count("1") for b in self.value)

    def commitment(self) -> bytes:
        return hashlib.sha256(KEY_COMMIT_PREFIX + self.value).digest()


@dataclass
class ShardRegistry:
    """128 shards, each its list of (prompt, completion) examples; id = index."""

    shards: list

    def __post_init__(self):
        if len(self.shards) != N_SHARDS or not all(self.shards):
            raise ProvisioningError(f"registry needs exactly {N_SHARDS} non-empty shards")

    def digest(self) -> bytes:
        """SHA-256 over each shard's digest, the SHA-256 of its shard_bytes, in id order."""
        h = hashlib.sha256()
        for examples in self.shards:
            h.update(hashlib.sha256(shard_bytes(examples)).digest())
        return h.digest()


def shard_bytes(examples) -> bytes:
    """A shard's registry bytes and digest input: each text behind its u32 length."""
    out = bytearray()
    for prompt, completion in examples:
        out += struct.pack("<I", len(prompt)) + prompt
        out += struct.pack("<I", len(completion)) + completion
    return bytes(out)


def parse_shard(blob: bytes) -> list | None:
    """The examples that shard_bytes wrote as blob; None if blob is empty,
    cut short or holds an odd number of texts."""
    parts, pos = [], 0
    while pos + 4 <= len(blob):
        (n,) = struct.unpack_from("<I", blob, pos)
        parts.append(blob[pos + 4:pos + 4 + n])
        pos += 4 + n
    if not parts or pos != len(blob) or len(parts) % 2:
        return None
    return list(zip(parts[::2], parts[1::2]))


def generate_registry(seed: int, examples_per_shard: int = 24) -> ShardRegistry:
    """Deterministic synthetic registry: seeded sentence templates per shard."""
    shards = []
    for sid in range(N_SHARDS):
        stream = Stream(mix64(seed ^ (0x5348415244 + sid)))  # "SHARD" + id
        shards.append([T.sentence_example(stream) for _ in range(examples_per_shard)])
    return ShardRegistry(shards)


def save_registry(path, registry: ShardRegistry) -> None:
    """The registry as one model.write_file file: magic CMRG, version 1, a
    header of each shard's shard_bytes length (u32) and SHA-256 in id
    order, then those shard_bytes in id order."""
    blobs = [shard_bytes(examples) for examples in registry.shards]
    header = b"".join(_SHARD_ENTRY.pack(len(b), hashlib.sha256(b).digest()) for b in blobs)
    M.write_file(path, REGISTRY_MAGIC, REGISTRY_VERSION, header, blobs)


def load_registry(path) -> ShardRegistry:
    """The registry save_registry wrote to path. The summed shard lengths
    must equal the payload's size before any shard is read; then each shard
    must match its digest and parse. Any fault raises ProvisioningError, a
    shard's naming the shard."""
    def parse(header):
        entries = list(_SHARD_ENTRY.iter_unpack(header))
        return entries, sum(n for n, _ in entries)

    entries, payload = M.read_file(path, REGISTRY_MAGIC, REGISTRY_VERSION,
                                   N_SHARDS * _SHARD_ENTRY.size, parse, ProvisioningError)
    shards, pos, view = [], 0, memoryview(payload)  # a shard is copied once its digest holds
    for sid, (n, sha) in enumerate(entries):
        blob, pos = view[pos:pos + n], pos + n
        if hashlib.sha256(blob).digest() != sha:
            raise ProvisioningError(f"shard {sid} digest mismatch on load")
        examples = parse_shard(bytes(blob))
        if examples is None:
            raise ProvisioningError(f"shard {sid} is empty or cut short")
        shards.append(examples)
    return ShardRegistry(shards)


def select_shards(key: SessionKey) -> list:
    """Ids of the shards the key selects: i iff key bit i is set, ascending."""
    return [i for i in range(N_SHARDS) if key.bit(i)]


# the names verify_twin reports, one per TwinProfile field in order
PROFILE_FIELDS = ("base", "adapter", "registry", "key", "config")


@dataclass(frozen=True)
class TwinProfile:
    base_fingerprint: bytes
    adapter_fingerprint: bytes
    registry_digest: bytes
    key_commitment: bytes
    config_summary: bytes  # packed ModelConfig + template version

    def __post_init__(self):
        for name in ("base_fingerprint", "adapter_fingerprint",
                     "registry_digest", "key_commitment"):
            v = getattr(self, name)
            if len(v) != 32:
                raise ProvisioningError(f"{name} must be 32 bytes")
            if v == b"\x00" * 32:
                raise ProvisioningError(f"{name} must be non-zero")

    def pack(self) -> bytes:
        """The four 32-byte digests in field order, then the config summary."""
        return (self.base_fingerprint + self.adapter_fingerprint
                + self.registry_digest + self.key_commitment + self.config_summary)

    @classmethod
    def unpack(cls, blob: bytes) -> "TwinProfile":
        if len(blob) != cls.packed_size():
            raise ProvisioningError("bad profile length")
        return cls(blob[:32], blob[32:64], blob[64:96], blob[96:128], blob[128:])

    @staticmethod
    def packed_size() -> int:
        return 128 + 29  # digests + packed ModelConfig + template version byte


def config_summary(config: M.ModelConfig) -> bytes:
    return config.pack() + bytes([TEMPLATE_VERSION])


def provision(base: M.ParameterSet, key: SessionKey, registry: ShardRegistry,
              tconfig: T.TrainConfig):
    """select_shards -> finetune -> merge; returns (merged twin, profile,
    adapters). A function of its inputs and of the BLAS kernel the
    fine-tune runs on, not of its thread count (see the module docstring).
    The profile takes the base fingerprint finetune recorded, which merge
    has checked against base."""
    examples = [ex for i in select_shards(key) for ex in registry.shards[i]]
    adapters = T.finetune(base, examples, tconfig)
    merged = T.merge(base, adapters)
    profile = TwinProfile(adapters.base_fingerprint, T.adapter_fingerprint(adapters),
                          registry.digest(), key.commitment(), config_summary(base.config))
    return merged, profile, adapters


def verify_twin(local: TwinProfile, remote: TwinProfile):
    """Returns (True, "") on full equality, else (False, first bad field)."""
    for name, field in zip(PROFILE_FIELDS, fields(TwinProfile)):
        if getattr(local, field.name) != getattr(remote, field.name):
            return False, name
    return True, ""
