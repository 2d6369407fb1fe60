"""The bulk samplers against the reference per-particle generator.

Every sampler must draw, for particle i, exactly what a fresh
`particle_generator(seed, stream, i)` draws, element for element.
"""

import numpy as np
import pytest

from pathmkv import rng
from pathmkv.errors import DomainError
from pathmkv.models import make_ou
from pathmkv.paths import TimeGrid
from pathmkv.sde import constant_initial, gaussian_initial, integrate, ramp_initial

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


def test_brownian_increments_across_chunks_match_reference_generators():
    # N is not a multiple of the chunk: two full chunks and a partial one
    n, m, dk, dt = 2 * rng.CHUNK_ROWS + 37, 5, 3, 0.02
    got = rng.brownian_increments(SEED, n, m, dk, dt)
    want = reference_rows(SEED, rng.STREAM_BROWNIAN, n, lambda g: np.sqrt(dt) * g.standard_normal((m, dk)))
    assert np.array_equal(got, want)
    assert got[:, 0, :].flags.c_contiguous
    small = rng.brownian_increments(SEED, 3, m, dk, dt)
    assert np.array_equal(small, want[:3])


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


# in-place row fills at one and several values per particle, across two full
# chunks and a partial one, every stream tag and both ends of the seed range
N_CHUNKED = 2 * rng.CHUNK_ROWS + 37
STREAMS = [rng.STREAM_BROWNIAN, rng.STREAM_INITIAL, rng.STREAM_POLICY]
SEEDS = [0, 2**63 - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("count", [1, 3])
def test_normals_and_uniforms_match_reference_generators(seed, stream, count):
    want_z = reference_rows(seed, stream, N_CHUNKED, lambda g: g.standard_normal(count))
    want_u = reference_rows(seed, stream, N_CHUNKED, lambda g: g.random(count))
    assert np.array_equal(rng.normals(seed, stream, N_CHUNKED, count), want_z)
    assert np.array_equal(rng.uniforms(seed, stream, N_CHUNKED, count), want_u)


@pytest.mark.parametrize("seed", SEEDS)
def test_brownian_increments_at_both_ends_of_the_seed_range_match_reference_generators(seed):
    n, m, dk, dt = N_CHUNKED, 4, 1, 0.25
    got = rng.brownian_increments(seed, n, m, dk, dt)
    want = reference_rows(seed, rng.STREAM_BROWNIAN, n, lambda g: np.sqrt(dt) * g.standard_normal((m, dk)))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_dimensional_initial_laws_match_reference_generators(seed):
    grid = TimeGrid(1.0, 3)
    z = reference_rows(seed, rng.STREAM_INITIAL, N_CHUNKED, lambda g: g.standard_normal(1))
    got = gaussian_initial(0.5, 0.2).sample(seed, N_CHUNKED, grid, 1)
    assert np.array_equal(got, np.repeat((0.5 + 0.2 * z)[:, None, :], grid.steps + 1, axis=1))
    got = ramp_initial(1.5).sample(seed, N_CHUNKED, grid, 1)
    assert np.array_equal(got, 1.5 * grid.times[None, :, None] * z[:, None, :])


@pytest.mark.parametrize("n", [1, 7, N_CHUNKED])
def test_each_bulk_sampler_call_constructs_one_philox(monkeypatch, n):
    # constructing a Philox pulls OS entropy and costs far more than a re-key;
    # the samplers build one bit generator per call, whatever N is
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    for draw in (
        lambda: rng.brownian_increments(SEED, n, 3, 2, 0.1),
        lambda: rng.refine_increments(SEED, n, 4, 2, 0.1, [2, 4]),
        lambda: rng.uniforms(SEED, rng.STREAM_POLICY, n),
        lambda: rng.uniforms(SEED, rng.STREAM_POLICY, n, 3),
        lambda: rng.normals(SEED, rng.STREAM_INITIAL, n, 1),
        lambda: rng.normals(SEED, rng.STREAM_INITIAL, n, 3),
    ):
        built.clear()
        draw()
        assert len(built) == 1


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_uint64_is_a_domain_error(seed):
    with pytest.raises(DomainError, match=r"\[0, 2\*\*64\)"):
        rng.normals(seed, rng.STREAM_INITIAL, 3, 1)
    model = make_ou(TimeGrid(1.0, 4))
    with pytest.raises(DomainError, match=r"\[0, 2\*\*64\)"):
        integrate(model, constant_initial([0.0]), None, 0.0, 4, seed)


def test_the_largest_uint64_seed_is_a_key():
    seed = 2**64 - 1
    want = reference_rows(seed, rng.STREAM_INITIAL, 2, lambda g: g.standard_normal(1))
    assert np.array_equal(rng.normals(seed, rng.STREAM_INITIAL, 2, 1), want)


def test_refining_by_a_factor_that_does_not_divide_the_steps_is_a_domain_error():
    with pytest.raises(DomainError, match="cannot coarsen 6 steps by factor 4"):
        rng.refine_increments(SEED, 3, 6, 1, 0.1, [3, 4])
    [coarse] = rng.refine_increments(SEED, 3, 6, 1, 0.1, [3])
    assert coarse.shape == (3, 2, 1)


@pytest.mark.parametrize("factor", [0, -2])
def test_refining_by_a_factor_below_one_is_a_domain_error(factor):
    with pytest.raises(DomainError, match=f"at least 1, got {factor}"):
        rng.refine_increments(SEED, 3, 6, 1, 0.1, [2, factor])


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
def test_a_step_that_is_not_positive_is_a_domain_error(dt):
    # sqrt of a negative step made an all-NaN block with only a RuntimeWarning
    with pytest.raises(DomainError, match="dt must be positive"):
        rng.brownian_increments(1, 2, 4, 1, dt)
    with pytest.raises(DomainError, match="dt must be positive"):
        rng.refine_increments(1, 2, 4, 1, dt, [2])
