"""Turn a shared 128-bit key into a pair of bit-identical model twins.

Each of the key's 128 bits selects one shard from a fixed registry; the
selected shards (ascending id) feed the deterministic fine-tune, so equal
(base, key, registry, train config) yields byte-equal merged weights on
both ends. The twin profile carries the digests either side needs to prove
that before any frame flows.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import struct
from dataclasses import dataclass, fields
from pathlib import Path

from . import model as M
from . import trainer as T
from .codec import TEMPLATE_VERSION
from .scheduler import Stream, mix64

log = logging.getLogger(__name__)

KEY_BYTES = 16
N_SHARDS = 128
KEY_COMMIT_PREFIX = b"ciphermind.key.v1"
PROFILE_MAGIC = b"CMTP"

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
    """A shard's file and digest input: each prompt and completion behind its u32 length."""
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
    """Directory of 128 shard files plus a manifest of ids and digests."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for sid, examples in enumerate(registry.shards):
        blob = shard_bytes(examples)
        (root / _shard_file(sid)).write_bytes(blob)
        entries.append({"id": sid, "file": _shard_file(sid),
                        "digest": hashlib.sha256(blob).hexdigest()})
    manifest = {"shards": entries, "registry_digest": registry.digest().hex()}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


def _shard_file(shard_id: int) -> str:
    return f"shard_{shard_id:03d}.bin"


def _load_manifest(root: Path):
    """The manifest's shard entries and registry digest; an unreadable or
    non-JSON manifest, or one that lacks a field or has a wrong type or whose
    entries are not shards 0..127 in order, raises ProvisioningError before
    any shard file is read. A shard's file must be the one save_registry
    names: a path the manifest chose could lie outside the registry."""
    path = root / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except OSError as e:
        raise ProvisioningError(f"registry manifest {path} cannot be read: {e.strerror}") from None
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise ProvisioningError(f"registry manifest is not JSON: {e}") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("shards"), list)
            and isinstance(manifest.get("registry_digest"), str)):
        raise ProvisioningError("registry manifest needs a shards list and a registry_digest")
    if len(manifest["shards"]) != N_SHARDS:
        raise ProvisioningError(f"registry manifest needs exactly {N_SHARDS} shards")
    for i, entry in enumerate(manifest["shards"]):
        if not (isinstance(entry, dict) and type(entry.get("id")) is int and entry["id"] == i
                and entry.get("file") == _shard_file(i) and isinstance(entry.get("digest"), str)):
            raise ProvisioningError(f"registry manifest entry {i} needs id {i}, "
                                    "the shard file of that id and a digest")
    return manifest["shards"], manifest["registry_digest"]


def load_registry(path) -> ShardRegistry:
    root = Path(path)
    entries, registry_digest = _load_manifest(root)
    shards = []
    for sid, entry in enumerate(entries):
        try:
            blob = (root / entry["file"]).read_bytes()
        except OSError as e:
            raise ProvisioningError(
                f"shard {sid} file {root / entry['file']} cannot be read: {e.strerror}") from None
        examples = parse_shard(blob)
        if examples is None:
            raise ProvisioningError(f"shard {sid} file is empty or cut short")
        if hashlib.sha256(blob).hexdigest() != entry["digest"]:
            raise ProvisioningError(f"shard {sid} digest mismatch on load")
        shards.append(examples)
    registry = ShardRegistry(shards)
    if registry.digest().hex() != registry_digest:
        raise ProvisioningError("registry digest mismatch on load")
    return registry


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
        """132-byte fixed record followed by the config summary."""
        return (PROFILE_MAGIC + self.base_fingerprint + self.adapter_fingerprint
                + self.registry_digest + self.key_commitment + self.config_summary)

    @classmethod
    def unpack(cls, blob: bytes) -> "TwinProfile":
        if blob[:4] != PROFILE_MAGIC:
            raise ProvisioningError("bad profile magic")
        if len(blob) != cls.packed_size():
            raise ProvisioningError("bad profile length")
        return cls(blob[4:36], blob[36:68], blob[68:100], blob[100:132], blob[132:])

    @staticmethod
    def packed_size() -> int:
        return 132 + 29  # record + packed ModelConfig + template version byte


def config_summary(config: M.ModelConfig) -> bytes:
    return config.pack() + bytes([TEMPLATE_VERSION])


def make_profile(base_fp: bytes, adapter_fp: bytes, registry: ShardRegistry,
                 key: SessionKey, config: M.ModelConfig) -> TwinProfile:
    return TwinProfile(base_fp, adapter_fp, registry.digest(),
                       key.commitment(), config_summary(config))


def provision(base: M.ParameterSet, key: SessionKey, registry: ShardRegistry,
              tconfig: T.TrainConfig):
    """select_shards -> finetune -> merge; returns (merged twin, profile,
    adapters). Pure function of its inputs. The profile takes the base
    fingerprint finetune recorded, which merge has checked against base."""
    examples = [ex for i in select_shards(key) for ex in registry.shards[i]]
    adapters = T.finetune(base, examples, tconfig)
    merged = T.merge(base, adapters)
    profile = make_profile(adapters.base_fingerprint, T.adapter_fingerprint(adapters),
                           registry, key, base.config)
    return merged, profile, adapters


def verify_twin(local: TwinProfile, remote: TwinProfile):
    """Returns (True, "") on full equality, else (False, first bad field)."""
    for name, field in zip(PROFILE_FIELDS, fields(TwinProfile)):
        if getattr(local, field.name) != getattr(remote, field.name):
            return False, name
    return True, ""
