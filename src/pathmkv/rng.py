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
particle.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

STREAM_BROWNIAN = 0
STREAM_INITIAL = 1
STREAM_POLICY = 2


def _key(seed: int, stream: int, particle: int) -> np.ndarray:
    return np.array([np.uint64(seed), np.uint64((stream << 32) ^ particle)], dtype=np.uint64)


def particle_generator(seed: int, stream: int, particle: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(seed, stream, particle)))


def particle_generators(seed: int, stream: int, n_particles: int) -> Iterator[np.random.Generator]:
    """One generator re-keyed for particles 0..N-1 in turn.

    Each yielded generator is in the state `particle_generator(seed, stream, i)`
    starts in: key [seed, (stream << 32) ^ i], counter 0 and an empty buffer.
    The same object is yielded every time, so draw from it before advancing.
    """
    key = _key(seed, stream, 0)
    bit_gen = np.random.Philox(key=key)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state  # copied once; only the key changes per particle
    state["state"]["key"] = key
    state["state"]["counter"][:] = 0
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    tag = stream << 32
    for i in range(n_particles):
        key[1] = tag ^ i
        bit_gen.state = state
        yield gen


def brownian_increments(seed: int, n_particles: int, n_steps: int, dk: int, dt: float) -> np.ndarray:
    """iid N(0, dt) increments, shape (N, M, dK), keyed by (seed, particle)."""
    out = np.empty((n_particles, n_steps, dk))
    root = np.sqrt(dt)
    for i, g in enumerate(particle_generators(seed, STREAM_BROWNIAN, n_particles)):
        out[i] = root * g.standard_normal((n_steps, dk))
    return out


def refine_increments(fine: np.ndarray, factor: int) -> np.ndarray:
    """Aggregate fine-step increments into coarse ones (Brownian refinement).

    fine has shape (N, M_fine, dK) with M_fine divisible by factor; the result
    has shape (N, M_fine // factor, dK) and represents the same Brownian path
    sampled on the coarser grid.
    """
    n, m_fine, dk = fine.shape
    if m_fine % factor != 0:
        raise ValueError(f"cannot coarsen {m_fine} steps by factor {factor}")
    return fine.reshape(n, m_fine // factor, factor, dk).sum(axis=2)


def uniforms(seed: int, stream: int, n_particles: int, count: int = 1) -> np.ndarray:
    """Per-particle uniforms on [0,1), shape (N, count); used by randomized policies."""
    out = np.empty((n_particles, count))
    for i, g in enumerate(particle_generators(seed, stream, n_particles)):
        out[i] = g.random(count)
    return out
