"""Counter-based noise streams for reproducible parallel Monte Carlo.

Every Brownian increment is addressed by (seed, particle, step, coordinate):
the Philox counter-based generator is keyed by (seed, stream tag, particle),
and (step, coordinate) index into its counter space in C order.  Regenerating
any particle's stream is therefore independent of evaluation order and thread
count, which is what makes flow-property restarts, Yosida ladders and
common-random-number policy comparisons bit-exact.

`particle_generator` is the reference construction of one particle's stream.
The bulk samplers build one Philox per call instead and re-key it per particle
(`particle_generators`): the state they reset to is the state a fresh
`particle_generator` starts in, so the addressing and every value drawn are
the same, without one generator construction (and OS entropy pull) per
particle.  The reset assigns one state dict of plain Python ints and lists,
built once per call, in which only the particle's half of the key changes;
the bit generator's setter reads plain ints about twice as fast as uint64
arrays.

This module owns every per-particle draw: `brownian_increments` (the noise
blocks), `refine_increments` (a noise block coarsened onto coarser grids in
the pass that draws it, without the block itself), `normals` (initial laws)
and `uniforms` (mapped initial laws and policy randomizers).  Each fills
particle i's row of its output in place from particle i's stream, whatever
the count.  A randomized control, adapted to B and to an independent uniform
per particle, is a feedback policy that closes over
`uniforms(seed, STREAM_POLICY, N)`: that stream keeps its randomizers
independent of the noise and the initial law drawn from the same seed.

Increment blocks are stored node-major (`paths.node_major`): the (N, M, dK)
block indexes as before and each particle's draw fills its steps in the same
(step, coordinate) order; only where the numbers sit in memory differs, so
that the step kernel reads one step of all particles contiguously.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .errors import DomainError
from .paths import node_major

STREAM_BROWNIAN = 0
STREAM_INITIAL = 1
STREAM_POLICY = 2

# Particles per C-contiguous chunk of the Brownian draw loop: 2 MB at 1000
# steps.
CHUNK_ROWS = 256


def _key(seed: int, stream: int, particle: int) -> np.ndarray:
    """The Philox key [seed, (stream << 32) ^ particle]; a seed is one uint64."""
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed}")
    return np.array([np.uint64(seed), np.uint64((stream << 32) ^ particle)], dtype=np.uint64)


def particle_generator(seed: int, stream: int, particle: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(seed, stream, particle)))


def particle_generators(seed: int, stream: int, n_particles: int) -> Iterator[np.random.Generator]:
    """One generator re-keyed for particles 0..N-1 in turn.

    Each yielded generator is in the state `particle_generator(seed, stream, i)`
    starts in: key [seed, (stream << 32) ^ i], counter 0 and an empty buffer.
    The same object is yielded every time, so draw from it before advancing.
    """
    first = _key(seed, stream, 0)
    bit_gen = np.random.Philox(key=first)
    key = first.tolist()  # plain ints: the state setter reads them fastest
    gen = np.random.Generator(bit_gen)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    tag = stream << 32
    for i in range(n_particles):
        key[1] = tag ^ i
        bit_gen.state = state
        yield gen


def _root_dt(dt: float) -> float:
    """sqrt(dt), the scale of an N(0, dt) increment; dt must be positive."""
    if not dt > 0:  # stated positively, so that a NaN step fails too
        raise DomainError(f"a Brownian step dt must be positive, got {dt}")
    return np.sqrt(dt)


def _normal_chunks(
    seed: int, n_particles: int, n_steps: int, dk: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The one particle-chunk draw loop of the Brownian stream.

    Yields (start, stop, chunk): particles start..stop-1's (M, dK) standard
    normals, each particle's row of one reused C-ordered chunk filled in place
    by its own generator.  Read or overwrite a chunk before advancing.
    """
    chunk = np.empty((min(CHUNK_ROWS, n_particles), n_steps, dk))
    rows = list(chunk)  # the row views, built once
    gens = particle_generators(seed, STREAM_BROWNIAN, n_particles)
    for start in range(0, n_particles, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n_particles)
        # rows first: zip stops on them without advancing the generators
        for row, g in zip(rows[: stop - start], gens):
            g.standard_normal(out=row)
        yield start, stop, chunk[: stop - start]


def brownian_increments(seed: int, n_particles: int, n_steps: int, dk: int, dt: float) -> np.ndarray:
    """iid N(0, dt) increments, shape (N, M, dK), keyed by (seed, particle);
    a node-major block.

    A full chunk of normals is scaled and scattered into the block by one
    multiply, which is elementwise, so every value is root * draw as if
    written particle by particle.
    """
    root = _root_dt(dt)
    out = node_major(n_particles, n_steps, dk)
    for start, stop, chunk in _normal_chunks(seed, n_particles, n_steps, dk):
        np.multiply(chunk, root, out=out[start:stop])
    return out


def refine_increments(
    seed: int, n_particles: int, n_steps: int, dk: int, dt: float, factors: Iterable[int]
) -> list[np.ndarray]:
    """The block `brownian_increments(seed, n_particles, n_steps, dk, dt)`
    aggregated onto coarser grids (Brownian refinement), without building it.

    Returns one node-major block per factor, shape (N, M // factor, dK): the
    same Brownian paths sampled every factor fine steps.  Every factor must
    be at least 1 and divide M.  The normals are drawn and scaled chunk by
    chunk, as `brownian_increments` draws them, and each coarse increment is
    the sum of its fine ones in the order numpy reduces the C-ordered chunk
    (pairwise from 8 terms on): the floats of
    `np.ascontiguousarray(fine).reshape(N, M // factor, factor, dK).sum(axis=2)`.
    """
    factors = list(factors)
    for factor in factors:
        if factor < 1:
            raise DomainError(f"a coarsening factor must be at least 1, got {factor}")
        if n_steps % factor != 0:
            raise DomainError(f"cannot coarsen {n_steps} steps by factor {factor}")
    root = _root_dt(dt)
    outs = [node_major(n_particles, n_steps // factor, dk) for factor in factors]
    for start, stop, chunk in _normal_chunks(seed, n_particles, n_steps, dk):
        np.multiply(chunk, root, out=chunk)
        for factor, out in zip(factors, outs):
            out[start:stop] = chunk.reshape(stop - start, n_steps // factor, factor, dk).sum(axis=2)
    return outs


def _draw(seed: int, stream: int, n_particles: int, count: int, method) -> np.ndarray:
    """(N, count) draws of the Generator `method`, row i filled in place by
    particle i's stream."""
    out = np.empty((n_particles, count))
    for row, g in zip(out, particle_generators(seed, stream, n_particles)):
        method(g, out=row)
    return out


def normals(seed: int, stream: int, n_particles: int, count: int) -> np.ndarray:
    """Per-particle standard normals, shape (N, count); used by initial laws."""
    return _draw(seed, stream, n_particles, count, np.random.Generator.standard_normal)


def uniforms(seed: int, stream: int, n_particles: int, count: int = 1) -> np.ndarray:
    """Per-particle uniforms on [0,1), shape (N, count); used by mapped initial
    laws (stream STREAM_INITIAL).  Policy randomizers are drawn once, as
    `uniforms(seed, STREAM_POLICY, N)`, and closed over by the policy."""
    return _draw(seed, stream, n_particles, count, np.random.Generator.random)
