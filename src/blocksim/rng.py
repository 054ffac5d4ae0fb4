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
in numpy from the PCG64 state (blocksim.pcg), relying on these facts,
checked bit for bit against Generator.random in tests/test_rng.py:
- the state is a 128-bit LCG, s -> s * A + inc mod 2**128, with the
  multiplier A = 0x2360ED051FC65DA44385DF649FCCF645, and `state` and
  `inc` exposed through bit_generator.state;
- a draw steps the state first, then outputs the XSL-RR of the new state:
  (hi ^ lo) rotated right by the state's top 6 bits;
- Generator.random maps an output x to (x >> 11) * 2**-53.
After j steps the state is A^j s + G_j inc, with G_j = A^0 + ... +
A^(j-1) (F. Brown, "Random Number Generation with Arbitrary Strides",
1994; M. O'Neill, "PCG", 2014).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# at() draws a set of positions in order, max(SLICE, its size) values at a
# time, when its span is at most DENSE values per position, and reads any
# sparser set through blocksim.pcg.  On one core of a 2-core VM, for band
# chunks of blocksim.matrix (2**14 positions), a read in order cost 2.8 ns
# per value of the span and one through pcg 27-29 ns a position, and the
# read in order peaked at 1.05 MB traced, the one through pcg at 1.35 MB.
DENSE, SLICE = 9, 2**16

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

    def at(self, positions) -> np.ndarray:
        """The uniforms at absolute positions, in their shape; position stays.

        Positions are ints from 0 to 2**63 - 2 in any order, repeats
        allowed; the value at p is bit for bit the one uniforms gives at
        position p.  Cost follows the values read.  A set whose span,
        max - min + 1, is at most DENSE values per position is drawn in
        order: seek(min), the span's uniforms a slice at a time, and the
        stream sought back.  Any other set costs per value a 128-bit
        multiply-add in numpy, plus a Python jump per 4,096-step anchor
        the values fall in, and never a draw of the positions between
        (see blocksim.pcg).
        """
        p = np.asarray(positions, dtype=np.int64)
        lo = int(p.min()) if p.size else -1
        if lo >= 0 and (span := int(p.max()) - lo + 1) <= DENSE * p.size:
            here, flat, step = self.position, p.ravel() - lo, max(SLICE, p.size)
            self.seek(lo)
            # Each slice's values overwrite those of the positions from its start on.
            u = self.uniforms(min(step, span)).take(flat, mode="clip")
            for i in range(step, span, step):
                np.copyto(u, self.uniforms(min(step, span - i)).take(flat - i, mode="clip"),
                          where=flat >= i)
            self.seek(here)
            return u.reshape(p.shape)
        from . import pcg  # imported on first use: runs that never read sparse sets skip it

        if self._origin is None:
            state = self._gen.bit_generator.state["state"]
            self._origin = pcg.find_origin(state["state"], state["inc"], self.position)
        return pcg.uniforms_at(self._origin, p)

    _origin = None  # set by the first read through pcg, from the state then


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
