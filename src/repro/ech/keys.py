"""ECH key management and rotation.

Models the server-side key lifecycle the paper measures in §4.4.2: a
client-facing provider (e.g. ``cloudflare-ech.com``) rotates the HPKE key
every 1–2 hours; during a rotation window the provider must keep the
previous private key around so handshakes using a DNS-cached (stale)
ECHConfig can either still be decrypted or be answered with
retry_configs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from .config import ECHConfig, ECHConfigList
from .hpke import HpkeKeyPair


class ECHKeyManager:
    """Holds the active + recently retired ECH key pairs for one
    client-facing server and mints ECHConfigLists for DNS publication.

    Rotation cadence is deterministic per (provider seed, hour index) so
    simulation runs are reproducible: the key for hour *h* changes when
    ``h // rotation_hours`` changes.
    """

    def __init__(
        self,
        public_name: str,
        seed: bytes = b"",
        rotation_hours: float = 1.26,
        retain_generations: int = 1,
    ):
        if rotation_hours <= 0:
            raise ValueError("rotation_hours must be positive")
        self.public_name = public_name
        self.seed = bytes(seed) or public_name.encode()
        self.rotation_hours = rotation_hours
        self.retain_generations = retain_generations
        self._keypairs: Dict[int, HpkeKeyPair] = {}
        self._wires: Dict[int, bytes] = {}  # published_wire, per generation

    # -- generations ------------------------------------------------------

    def generation_for_hour(self, hour_index: int) -> int:
        """Which key generation is live at absolute hour *hour_index*."""
        return int(hour_index / self.rotation_hours)

    def keypair_for_generation(self, generation: int) -> HpkeKeyPair:
        keypair = self._keypairs.get(generation)
        if keypair is None:
            material = hashlib.sha256(
                b"ech-gen|" + self.seed + b"|" + str(generation).encode()
            ).digest()
            keypair = HpkeKeyPair(material)
            self._keypairs[generation] = keypair
        return keypair

    def config_for_generation(self, generation: int) -> ECHConfig:
        keypair = self.keypair_for_generation(generation)
        return ECHConfig(
            config_id=generation % 256,
            public_key=keypair.public_key,
            public_name=self.public_name,
        )

    # -- publication / consumption -----------------------------------------

    def published_config_list(self, hour_index: int) -> ECHConfigList:
        """The ECHConfigList a zone should publish at *hour_index*."""
        return ECHConfigList([self.config_for_generation(self.generation_for_hour(hour_index))])

    def published_wire(self, hour_index: int) -> bytes:
        """``published_config_list(hour_index).to_wire()``, memoized per
        key generation (called on every zone build)."""
        generation = self.generation_for_hour(hour_index)
        wire = self._wires.get(generation)
        if wire is None:
            wire = ECHConfigList([self.config_for_generation(generation)]).to_wire()
            self._wires[generation] = wire
        return wire

    def active_keypairs(self, hour_index: int) -> List[HpkeKeyPair]:
        """Keys the server will accept at *hour_index*: the current
        generation plus up to ``retain_generations`` previous ones."""
        generation = self.generation_for_hour(hour_index)
        generations = range(max(0, generation - self.retain_generations), generation + 1)
        return [self.keypair_for_generation(g) for g in generations]

    def find_keypair(self, hour_index: int, public_key: bytes) -> Optional[HpkeKeyPair]:
        for keypair in self.active_keypairs(hour_index):
            if keypair.matches_public(public_key):
                return keypair
        return None

    def retry_config_list(self, hour_index: int) -> ECHConfigList:
        """The retry_configs a server hands back on decryption failure."""
        return self.published_config_list(hour_index)

    # -- analysis helpers -----------------------------------------------------

    def observed_durations(self, start_hour: int, end_hour: int) -> List[Tuple[int, int]]:
        """(generation, consecutive-hourly-observations) pairs as an hourly
        scanner (like the paper's Jul 21–27 scan) would record them."""
        runs: List[Tuple[int, int]] = []
        current_gen: Optional[int] = None
        count = 0
        for hour in range(start_hour, end_hour):
            generation = self.generation_for_hour(hour)
            if generation == current_gen:
                count += 1
            else:
                if current_gen is not None:
                    runs.append((current_gen, count))
                current_gen = generation
                count = 1
        if current_gen is not None:
            runs.append((current_gen, count))
        return runs
