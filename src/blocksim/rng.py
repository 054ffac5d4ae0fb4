"""Seed derivation and reproducible sample streams.

Every random quantity in the package is drawn through a SampleStream, a
single-owner wrapper around a PCG64 generator whose seed is derived from
(base_seed, stream_id) with an avalanche-quality 64-bit mix.  Replications
and the per-run roles (production times, producer choices, broadcast
delays) get distinct stream ids, which makes runs reproducible and lets
two engines consume identical draw sequences.

A stream is read in order (uniforms), moved (seek), or read at absolute
positions without moving (at).  Position p is the (p+1)-th value a fresh
stream draws.  `at` draws a dense set in order and computes any other
in numpy from the stream's seed (blocksim.pcg).

numpy's Generator and PCG64 are loaded by the first stream, without the
rest of numpy.random (see distributions.lean_import).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import lean_import

_MASK64 = (1 << 64) - 1

# at() draws a set of positions in order, in one call, when its span is at
# most DENSE values per position, and reads any sparser set through
# blocksim.pcg.  On one core of a 2-core VM, for band chunks of
# blocksim.matrix (2**14 positions), a read in order cost 2.8 ns per value
# of the span and one through pcg 27-29 ns a position; traced, they peaked
# at 1.44 MB and 1.35 MB.
DENSE = 9

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
        generator, pcg64 = lean_import("numpy.random", "_generator.Generator", "_pcg64.PCG64")
        self._gen = generator(pcg64(self.derived_seed))
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

    def at(self, positions) -> np.ndarray:
        """The uniforms at absolute positions, in their shape; position stays.

        Positions are ints from 0 to 2**63 - 2 in any order, repeats
        allowed; the value at p is bit for bit the one uniforms gives at
        position p.  Cost follows the values read.  A set whose span,
        max - min + 1, is at most DENSE values per position is drawn in
        order: seek(min), the span's uniforms in one draw, and the stream
        sought back, so it holds at most DENSE values per position.  Any
        other set costs per value a 128-bit multiply-add in numpy, plus a
        Python jump per 4,096-step anchor the values fall in, and never a
        draw of the positions between (see blocksim.pcg).
        """
        p = np.asarray(positions, dtype=np.int64)
        lo = int(p.min()) if p.size else -1
        if lo >= 0 and (span := int(p.max()) - lo + 1) <= DENSE * p.size:
            here = self.position
            self.seek(lo)
            u = self.uniforms(span).take(p - lo)
            self.seek(here)
            return u
        from . import pcg  # imported on first use: runs that never read sparse sets skip it

        if self._origin is None:
            self._origin = pcg.find_origin(self.derived_seed)
        return pcg.uniforms_at(self._origin, p)

    _origin = None  # set by the first read through pcg


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
