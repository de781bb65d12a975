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
    """Pre-shared 128-bit key; bit i (LSB of byte 0 = bit 0) selects shard i."""

    value: bytes

    def __post_init__(self):
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
    shards: list

    def __post_init__(self):
        if len(self.shards) != N_SHARDS:
            raise ProvisioningError(f"registry needs exactly {N_SHARDS} shards")
        ids = [s.id for s in self.shards]
        if ids != list(range(N_SHARDS)):
            raise ProvisioningError("shard ids must be 0..127 in order")

    def digest(self) -> bytes:
        h = hashlib.sha256()
        for s in self.shards:
            h.update(s.digest)
        return h.digest()


def generate_registry(seed: int, examples_per_shard: int = 24) -> ShardRegistry:
    """Deterministic synthetic registry: seeded sentence templates per shard."""
    shards = []
    for sid in range(N_SHARDS):
        stream = Stream(mix64(seed ^ (0x5348415244 + sid)))  # "SHARD" + id
        examples = [T.sentence_example(stream) for _ in range(examples_per_shard)]
        shards.append(T.Shard(id=sid, examples=examples))
    return ShardRegistry(shards)


def save_registry(path, registry: ShardRegistry) -> None:
    """Directory of 128 shard files plus a manifest of ids and digests."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for shard in registry.shards:
        fname = f"shard_{shard.id:03d}.bin"
        (root / fname).write_bytes(T.example_digest_bytes(shard.examples))
        entries.append({"id": shard.id, "file": fname,
                        "digest": shard.digest.hex()})
    manifest = {"shards": entries, "registry_digest": registry.digest().hex()}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


def load_registry(path) -> ShardRegistry:
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text())
    shards = []
    for entry in manifest["shards"]:
        blob = (root / entry["file"]).read_bytes()
        # length-prefixed prompt, completion, prompt, ... (example_digest_bytes)
        parts, pos = [], 0
        while pos + 4 <= len(blob):
            (n,) = struct.unpack_from("<I", blob, pos)
            parts.append(blob[pos + 4:pos + 4 + n])
            pos += 4 + n
        if not parts or pos != len(blob) or len(parts) % 2:
            raise ProvisioningError(f"shard {entry['id']} file is empty or cut short")
        examples = list(zip(parts[::2], parts[1::2]))
        shard = T.Shard(id=entry["id"], examples=examples)
        if shard.digest.hex() != entry["digest"]:
            raise ProvisioningError(f"shard {entry['id']} digest mismatch on load")
        shards.append(shard)
    registry = ShardRegistry(shards)
    if registry.digest().hex() != manifest["registry_digest"]:
        raise ProvisioningError("registry digest mismatch on load")
    return registry


def select_shards(key: SessionKey, registry: ShardRegistry) -> list:
    """Shard i is selected iff key bit i is set; output in ascending id."""
    return [registry.shards[i] for i in range(N_SHARDS) if key.bit(i)]


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
    adapters). Pure function of its inputs."""
    shards = select_shards(key, registry)
    adapters = T.finetune(base, shards, tconfig)
    merged = T.merge(base, adapters)
    profile = make_profile(M.fingerprint(base), T.adapter_fingerprint(adapters),
                           registry, key, base.config)
    return merged, profile, adapters


def verify_twin(local: TwinProfile, remote: TwinProfile):
    """Returns (True, "") on full equality, else (False, first bad field)."""
    for name, field in zip(PROFILE_FIELDS, fields(TwinProfile)):
        if getattr(local, field.name) != getattr(remote, field.name):
            return False, name
    return True, ""
