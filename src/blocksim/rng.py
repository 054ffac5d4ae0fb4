"""Seed derivation and reproducible sample streams.

Every random quantity in the package is drawn through a SampleStream, a
single-owner wrapper around a PCG64 generator whose seed is derived from
(base_seed, stream_id) with an avalanche-quality 64-bit mix.  Replications
and the per-run roles (production times, producer choices, broadcast
delays) get distinct stream ids, which makes runs reproducible and lets
two engines consume identical draw sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# Role ids for the three per-run substreams.
ROLE_PRODUCTION = 1
ROLE_PRODUCER = 2
ROLE_DELAY = 3


def mix64(base_seed: int, stream_id: int) -> int:
    """Derive a 64-bit stream seed from (base_seed, stream_id).

    Uses the splitmix64 finalizer, so adjacent ids map to statistically
    unrelated seeds.  This function is the single source of truth for all
    substream derivation; derived seeds are echoed in run metadata.
    """
    z = (base_seed ^ ((stream_id * 0x9E3779B97F4A7C15) & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class SampleStream:
    """Deterministic stream of uniform draws in [0, 1).

    Identical (base_seed, stream_id) pairs yield bit-identical sequences.
    A stream is single-owner: create one per concurrent task instead of
    sharing.  `position` counts uniforms drawn so far, so two consumers
    can verify they stayed aligned.
    """

    def __init__(self, base_seed: int, stream_id: int):
        self.base_seed = int(base_seed)
        self.stream_id = int(stream_id)
        self.derived_seed: int | None = mix64(self.base_seed, self.stream_id)
        self._gen = np.random.Generator(np.random.PCG64(self.derived_seed))
        self.position = 0

    def uniforms(self, size: int) -> np.ndarray:
        """Draw exactly `size` uniforms, advancing position by `size`."""
        out = self._gen.random(size)
        self.position += size
        return out

    def seek(self, pos: int) -> None:
        """Move to absolute draw position `pos`, forward or backward.

        Uses the PCG jump-ahead, whose cost grows only with the logarithm
        of the distance; draws after the jump are those a fresh stream
        yields from position `pos` on.
        """
        self._gen.bit_generator.advance((pos - self.position) % 2**128)
        self.position = pos

    def take_uniforms(self, max_size: int) -> np.ndarray:
        """Draw up to `max_size` uniforms (always exactly max_size here).

        Exists so buffered consumers work with scripted test streams,
        which may hold fewer values than a full buffer.
        """
        return self.uniforms(max_size)


class ScriptedStream:
    """Test double: replays a fixed sequence of uniform values.

    Used to inject hand-chosen draws into the engines for oracle tests.
    Raises if more draws are requested than were scripted.
    """

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)
        if self._values.ndim != 1:
            raise ValueError("scripted values must be one-dimensional")
        if np.any((self._values < 0.0) | (self._values >= 1.0)):
            raise ValueError("scripted values must lie in [0, 1)")
        self.derived_seed = None
        self.position = 0

    def uniforms(self, size: int) -> np.ndarray:
        if self.position + size > len(self._values):
            raise IndexError(
                f"scripted stream exhausted: requested {size} at position "
                f"{self.position} of {len(self._values)}"
            )
        out = self._values[self.position : self.position + size]
        self.position += size
        return out

    def seek(self, pos: int) -> None:
        self.position = pos

    def take_uniforms(self, max_size: int) -> np.ndarray:
        remaining = len(self._values) - self.position
        if remaining <= 0:
            raise IndexError("scripted stream exhausted")
        return self.uniforms(min(max_size, remaining))


@dataclass
class StreamBundle:
    """The three aligned substreams a single simulation run consumes.

    production: block production times, one draw per step.
    producer:   producer choice, one draw per step.
    delay:      broadcast delays, m-1 draws per step in recipient order
                0..m-1 skipping the producer.

    Keeping the roles on separate substreams means engines that draw in
    different within-step orders still consume identical sequences.
    """

    production: SampleStream
    producer: SampleStream
    delay: SampleStream

    @classmethod
    def for_run(cls, run_seed: int) -> "StreamBundle":
        return cls(
            production=SampleStream(run_seed, ROLE_PRODUCTION),
            producer=SampleStream(run_seed, ROLE_PRODUCER),
            delay=SampleStream(run_seed, ROLE_DELAY),
        )

    def seed_echo(self) -> dict:
        """Derived seeds per role, recorded in outcomes and manifests."""
        return {
            "production": self.production.derived_seed,
            "producer": self.producer.derived_seed,
            "delay": self.delay.derived_seed,
        }
