"""The bulk samplers against the reference per-particle generator.

Every sampler must draw, for particle i, exactly what a fresh
`particle_generator(seed, stream, i)` draws, element for element.
"""

import numpy as np
import pytest

from pathmkv import rng
from pathmkv.paths import TimeGrid
from pathmkv.sde import gaussian_initial, ramp_initial

SEED = 20240915


def reference_rows(seed, stream, n, draw):
    return np.stack([draw(rng.particle_generator(seed, stream, i)) for i in range(n)])


def test_brownian_increments_match_reference_generators():
    n, m, dk, dt = 37, 6, 2, 0.01
    got = rng.brownian_increments(SEED, n, m, dk, dt)
    want = reference_rows(SEED, rng.STREAM_BROWNIAN, n, lambda g: np.sqrt(dt) * g.standard_normal((m, dk)))
    assert got.shape == (n, m, dk)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("stream", [rng.STREAM_INITIAL, rng.STREAM_POLICY])
def test_uniforms_match_reference_generators(stream):
    n, count = 29, 3
    got = rng.uniforms(SEED, stream, n, count)
    assert np.array_equal(got, reference_rows(SEED, stream, n, lambda g: g.random(count)))


def test_streams_are_distinct():
    a = rng.uniforms(SEED, rng.STREAM_INITIAL, 8)
    b = rng.uniforms(SEED, rng.STREAM_POLICY, 8)
    assert not np.any(a == b)


def test_gaussian_initial_matches_reference_generators():
    grid = TimeGrid(1.0, 4)
    n, d, mean, std = 23, 2, 0.5, 0.2
    got = gaussian_initial(mean, std).sample(SEED, n, grid, d)
    z = reference_rows(SEED, rng.STREAM_INITIAL, n, lambda g: mean + std * g.standard_normal(d))
    assert np.array_equal(got, np.repeat(z[:, None, :], grid.steps + 1, axis=1))


def test_ramp_initial_matches_reference_generators():
    grid = TimeGrid(2.0, 5)
    n, d, scale = 19, 3, 1.5
    got = ramp_initial(scale).sample(SEED, n, grid, d)
    z = reference_rows(SEED, rng.STREAM_INITIAL, n, lambda g: g.standard_normal(d))
    assert np.array_equal(got, scale * grid.times[None, :, None] * z[:, None, :])


def test_particle_draws_do_not_depend_on_the_particle_count():
    small = rng.brownian_increments(SEED, 5, 7, 2, 0.1)
    big = rng.brownian_increments(SEED, 50, 7, 2, 0.1)
    assert np.array_equal(small, big[:5])
    assert np.array_equal(
        rng.uniforms(SEED, rng.STREAM_POLICY, 5, 2), rng.uniforms(SEED, rng.STREAM_POLICY, 50, 2)[:5]
    )


def test_particle_generators_yield_fresh_states_after_partial_draws():
    # a particle that draws a single double leaves a half-used buffer behind;
    # the next particle must still start from counter 0 with an empty buffer
    gens = rng.particle_generators(SEED, rng.STREAM_POLICY, 3)
    for i, g in enumerate(gens):
        assert g.random() == rng.particle_generator(SEED, rng.STREAM_POLICY, i).random()
        g.integers(0, 2**31, dtype=np.uint32)  # leaves a cached 32-bit half
