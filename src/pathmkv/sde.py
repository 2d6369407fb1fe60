"""Mild-solution integrator for the controlled path-dependent McKean-Vlasov
state equation, via an interacting particle system.

The scheme is exponential Euler on the mild formulation: one step applies the
(diagonal, hence exact) semigroup factor e^{dt*A} to the whole explicit
increment,

    X_{j+1} = e^{dt*A} [ X_j + b_j dt + sigma_j dB_j ],

with b_j, sigma_j evaluated at (t_j, the paths stopped at t_j, the empirical
law of the stopped particles, the current actions and their empirical law).
The step is exact when b = sigma = 0, and the measure argument is
self-consistent within the step (values up to node j are final when the law at
node j is read), so the discrete interacting system has no fixed-point lag;
Picard mode re-solves against frozen law sequences and converges to the same
object, which is what the contraction construction asserts.

Coefficients are batched over particles:

    drift(t, xs, mu, u, nu)        -> (N, d)
    diffusion(t, xs, mu, u, nu)    -> (N, d) diagonal entries, or a (d,) row
    running_cost(t, xs, mu, u, nu) -> (N,)
    terminal_cost(xs, mu)          -> (N,)

where xs and mu are measure.StoppedView objects, the one law type on path
space: the particle paths and their empirical law, stopped at the current
node.  Every read clamps to that node, so coefficients built on the view's
API are non-anticipative by construction; the check each model gets when it
is built additionally spot-checks raw-array access.  The HJB residual hands
coefficients and candidate derivative fields the same view, stopped at t.

Path, noise and control blocks are indexed (N, nodes, width) but stored
node-major (`paths.node_major`), so the node-j slice that step j reads and
writes is contiguous.  Storage changes no value: the step's arithmetic is
elementwise, and numpy reduces over the particles of one node slice in the
same order in either layout.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import rng
from .errors import (
    ConfigurationError,
    DomainError,
    IntegrationBlowupError,
    NonConvergenceError,
)
from .hilbert import SpectralOperator, yosida
from .measure import (
    EmpiricalControlMeasure,
    EmpiricalPathMeasure,
    StoppedView,
    stopped_measure,
    wasserstein2,
)
from .paths import (
    PathGrid,
    TimeGrid,
    node_major,
    path_to_csv,
    stop_values,
    sup_seminorm_sq_distance,
    sup_seminorm_sq_values,
)


@dataclass
class InitialLaw:
    """Seeded sampler of initial path segments; sampler(seed, n, grid, d) -> (N, M+1, d).

    A sample may be a read-only view (the constant-path laws broadcast their
    (N, d) or (N,) values along the nodes and hold no block): readers copy
    what they keep, as `_start` copies nodes up to the start node.
    """

    sampler: object

    def sample(self, seed: int, n: int, grid: TimeGrid, d: int) -> np.ndarray:
        out = np.asarray(self.sampler(seed, n, grid, d), dtype=float)
        if out.shape != (n, grid.steps + 1, d):
            raise ConfigurationError(
                f"initial sampler returned shape {out.shape}, expected {(n, grid.steps + 1, d)}"
            )
        return out

    @staticmethod
    def from_values(values: np.ndarray) -> "InitialLaw":
        """Deterministic initial data holding the given (N, M+1, d) block; a
        sample is a read-only view of it, and the caller's array stays
        writable."""
        values = np.asarray(values, dtype=float).view()
        values.setflags(write=False)

        def sampler(seed, n, grid, d):
            if values.shape != (n, grid.steps + 1, d):
                raise ConfigurationError("fixed initial data does not match requested shape")
            return values

        return InitialLaw(sampler)


def constant_initial(c) -> InitialLaw:
    c = np.atleast_1d(np.asarray(c, dtype=float))

    def sampler(seed, n, grid, d):
        # a read-only view: every reader copies what it keeps
        return np.broadcast_to(c, (n, grid.steps + 1, c.size))

    return InitialLaw(sampler)


def two_point_initial(a=-1.0, b=1.0) -> InitialLaw:
    """Constant paths at value a or b with probability 1/2 each, assigned
    alternately (exact balance for even N); `two_point_mapped` draws them."""

    def sampler(seed, n, grid, d):
        signs = np.where(np.arange(n) % 2 == 0, a, b).astype(float)
        return np.broadcast_to(signs[:, None, None], (n, grid.steps + 1, d))

    return InitialLaw(sampler)


def two_point_mapped(a=-1.0, b=1.0, flipped=False) -> InitialLaw:
    """Two-point law realized through one of two different measurable maps of the seed."""

    def sampler(seed, n, grid, d):
        u = rng.uniforms(seed, rng.STREAM_INITIAL, n)[:, 0]
        lo, hi = (b, a) if flipped else (a, b)
        signs = np.where(u < 0.5, lo, hi).astype(float)
        return np.broadcast_to(signs[:, None, None], (n, grid.steps + 1, d))

    return InitialLaw(sampler)


def gaussian_initial(mean=0.0, std=1.0) -> InitialLaw:
    """Constant paths at N(mean, std^2) per coordinate."""

    def sampler(seed, n, grid, d):
        x0 = mean + std * rng.normals(seed, rng.STREAM_INITIAL, n, d)
        return np.broadcast_to(x0[:, None, :], (n, grid.steps + 1, d))

    return InitialLaw(sampler)


def ramp_initial(scale=1.0) -> InitialLaw:
    """Nonconstant initial paths xi_s = scale * s * z_i; sharp for stopping tests."""

    def sampler(seed, n, grid, d):
        times = grid.times[None, :, None]
        return scale * times * rng.normals(seed, rng.STREAM_INITIAL, n, d)[:, None, :]

    return InitialLaw(sampler)


def scaled_initial(base: InitialLaw, factor: float) -> InitialLaw:
    def sampler(seed, n, grid, d):
        return factor * base.sample(seed, n, grid, d)

    return InitialLaw(sampler)


def stopped_initial(base: InitialLaw, t: float) -> InitialLaw:
    def sampler(seed, n, grid, d):
        return stop_values(base.sample(seed, n, grid, d), grid.node(t))

    return InitialLaw(sampler)


def shifted_initial(base: InitialLaw, delta) -> InitialLaw:
    delta = np.atleast_1d(np.asarray(delta, dtype=float))

    def sampler(seed, n, grid, d):
        return base.sample(seed, n, grid, d) + delta

    return InitialLaw(sampler)


@dataclass(frozen=True)
class ModelSpec:
    """The model tuple (A, b, sigma, f, g, U, grid) plus its Lipschitz/growth metadata.

    A fixes the state dimension d, which is also the width of the noise: the
    state and the noise share one eigenbasis and sigma is diagonal in it.

    A model is frozen and checked once, when it is built (every `replace`
    copy included): sampled pairs spot-check the coefficients for
    non-anticipativity, finite output and `lipschitz`, the declared constant
    of the coefficient assumptions, with 5% slack.  growth_h, when given, is
    the declared envelope h such that
    |f|, |g| <= h(W2(mu, delta_0)) (1 + ||x||_t^2), which the reward pass
    checks with a `ContractWarning`.  `integrate` asserts no a-priori bound
    on the solution.
    """

    grid: TimeGrid
    A: SpectralOperator
    drift: object = None
    diffusion: object = None
    running_cost: object = None
    terminal_cost: object = None
    lipschitz: float = 0.0
    actions: object = None
    growth_h: object = None
    tag: str = "custom"

    def __post_init__(self):
        if self.A.dim < 1:
            raise ConfigurationError("A has no eigenvalue: the state dimension must be >= 1")
        _validate_model(self)

    def _checked(self, name, out, shape) -> np.ndarray:
        out = np.asarray(out, dtype=float)
        if out.shape != shape:
            raise ConfigurationError(
                f"model {self.tag!r}: {name} returned shape {out.shape}, expected {shape}"
            )
        return out

    def drift_at(self, t, xs, mu, u, nu) -> np.ndarray:
        if self.drift is None:
            return np.zeros((xs.n, self.A.dim))
        return self._checked("drift", self.drift(t, xs, mu, u, nu), (xs.n, self.A.dim))

    def diffusion_at(self, t, xs, mu, u, nu) -> np.ndarray:
        """The (N, d) diagonal entries of sigma; a (d,) row is broadcast
        along the particles, read-only."""
        if self.diffusion is None:
            return np.zeros((xs.n, self.A.dim))
        return np.broadcast_to(self._diffusion_entries(t, xs, mu, u, nu), (xs.n, self.A.dim))

    def _diffusion_entries(self, t, xs, mu, u, nu) -> np.ndarray:
        """sigma as the diffusion returns it, a (d,) row or an (N, d) block,
        shape-checked; the step kernel multiplies either into the noise."""
        out = np.asarray(self.diffusion(t, xs, mu, u, nu), dtype=float)
        if out.shape == (self.A.dim,):
            return out
        return self._checked("diffusion", out, (xs.n, self.A.dim))

    def running_cost_at(self, t, xs, mu, u, nu) -> np.ndarray:
        if self.running_cost is None:
            return np.zeros(xs.n)
        return self._checked("running cost", self.running_cost(t, xs, mu, u, nu), (xs.n,))

    def terminal_cost_at(self, xs, mu) -> np.ndarray:
        if self.terminal_cost is None:
            return np.zeros(xs.n)
        return self._checked("terminal cost", self.terminal_cost(xs, mu), (xs.n,))


def _validate_model(model):
    """Spot-check non-anticipativity, finite output and the declared Lipschitz constant."""
    rand = np.random.default_rng(0)
    grid, d = model.grid, model.A.dim
    n = 3

    for _ in range(4):  # sampled (node, pair) spot checks; node 0 on a one-step grid
        j = int(rand.integers(1, grid.steps)) if grid.steps > 1 else 0
        t = grid.time_at(j)
        u = None if model.actions is None else model.actions.sample(rand, n)
        nu = None if u is None else EmpiricalControlMeasure(u)
        vals = rand.normal(size=(n, grid.steps + 1, d))
        perturbed = vals.copy()
        perturbed[:, j + 1 :, :] += rand.normal(size=(n, grid.steps - j, d))
        outs = []
        for block in (vals, perturbed):
            view = StoppedView(grid, block, j)
            outs.append(
                (
                    model.drift_at(t, view, view, u, nu),
                    model.diffusion_at(t, view, view, u, nu),
                    model.running_cost_at(t, view, view, u, nu),
                )
            )
        for name, a, b in zip(("drift", "diffusion", "running cost"), *outs):
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise ConfigurationError(f"model {model.tag!r}: {name} returned a non-finite value")
            if not np.array_equal(a, b):
                raise ConfigurationError(
                    "coefficients are anticipative: perturbing the path after t changed the output"
                )

        # Lipschitz spot check against the declared constant, 5% slack.
        other = rand.normal(size=(n, grid.steps + 1, d))
        v1, v2 = StoppedView(grid, vals, j), StoppedView(grid, other, j)
        w2 = wasserstein2(stopped_measure(v1, t), stopped_measure(v2, t), mode="exact")
        seminorms = np.sqrt(sup_seminorm_sq_distance(vals, other, j))
        bound = 1.05 * model.lipschitz * (seminorms + w2) + 1e-12
        db = np.linalg.norm(
            model.drift_at(t, v1, v1, u, nu) - model.drift_at(t, v2, v2, u, nu), axis=1
        )
        ds = np.linalg.norm(
            model.diffusion_at(t, v1, v1, u, nu) - model.diffusion_at(t, v2, v2, u, nu),
            axis=1,
        )
        if np.any(db > bound) or np.any(ds > bound):
            raise ConfigurationError(
                f"declared Lipschitz constant L={model.lipschitz} violated on sampled pair "
                f"(drift gap {db.max():.3g}, diffusion gap {ds.max():.3g}, bound {bound.max():.3g})"
            )


@dataclass
class ParticleEnsemble:
    """N state paths with their controls and the seed that reproduces them.
    The noise is not kept: `brownian_block(model, N, seed)` is the block
    the run read, unless it was passed one drawn from no seed."""

    grid: TimeGrid
    t0: float
    values: np.ndarray  # (N, M+1, d), node-major; final when the ensemble is built
    controls: np.ndarray | None  # (N, M, m), node-major, or None
    seed: int
    model_tag: str = ""

    @property
    def n_particles(self) -> int:
        return self.values.shape[0]

    @cached_property
    def seminorm_sq(self) -> np.ndarray:
        """||X_i||_T^2 per particle, shape (N,); one pass over the paths."""
        return sup_seminorm_sq_values(self.values, self.grid.steps)

    def law(self) -> EmpiricalPathMeasure:
        # a C-ordered copy: exact and sliced W2 read the atoms path by path
        return EmpiricalPathMeasure(self.grid, self.values.copy(order="C"), None)

    def particle_path(self, i: int) -> PathGrid:
        return PathGrid(self.grid, self.values[i])

    def s2_norm(self) -> float:
        return float(np.sqrt(self.seminorm_sq.mean()))

    def summary_moments(self) -> dict:
        term = self.values[:, -1, :]
        return {
            "terminal_mean": term.mean(axis=0).tolist(),
            "terminal_var": term.var(axis=0, ddof=1).tolist() if self.n_particles > 1 else None,
            "s2_norm": self.s2_norm(),
        }

    def export(self, out_dir: str) -> None:
        """Per-particle path CSVs plus a JSON manifest of the run."""
        os.makedirs(out_dir, exist_ok=True)
        for i in range(self.n_particles):
            with open(os.path.join(out_dir, f"particle_{i:05d}.csv"), "w") as fh:
                fh.write(path_to_csv(self.particle_path(i)))
        manifest = {
            "seed": int(self.seed),
            "n_particles": int(self.n_particles),
            "model_tag": self.model_tag,
            "grid": {"T": self.grid.T, "steps": self.grid.steps},
            "t0": self.t0,
            "summary_moments": self.summary_moments(),
        }
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)


# The blocks a `draw_scope` keeps, key -> block, at most one; None outside a scope.
_kept: dict | None = None


@contextmanager
def draw_scope():
    """Inside the `with` body, `brownian_block` keeps the last block it drew
    and serves every request of the same key from it.  A scope opened inside
    another is that outer scope: the block is released when the outermost
    scope exits.  Every check runs its runs in a scope, and
    `acceptance.run_suite` runs its criteria in one."""
    global _kept
    if _kept is not None:
        yield
        return
    _kept = {}
    try:
        yield
    finally:
        _kept = None


def brownian_block(model: ModelSpec, n_particles: int, seed: int) -> np.ndarray | None:
    """The (N, M, d) Brownian increments a run of `model` with N particles
    from `seed` is driven by, read-only; None for a diffusion-free model,
    whose step never reads the noise.

    Runs that compare values under common random numbers run in one
    `draw_scope`, which draws this block once for all of them; being
    read-only, no run can change what the next one reads.

    Inside a `draw_scope` the scope keeps one block, keyed by
    (seed, steps, d, dt).  Particle i's increments do not depend on N, so a
    request of that key for N particles, up to the drawn count, is served as
    the prefix view `block[:N]`, which is read-only too.  Any other request
    drops the kept block before it draws its own, so a scope never holds two."""
    if model.diffusion is None:
        return None
    grid, d = model.grid, model.A.dim
    kept = _kept
    if kept is None:
        noise = rng.brownian_increments(seed, n_particles, grid.steps, d, grid.dt)
        noise.setflags(write=False)
        return noise
    key = (seed, grid.steps, d, grid.dt)
    block = kept.get(key)
    if block is None or block.shape[0] < n_particles:
        # the old block, this frame's reference included, goes before the draw
        block = None
        kept.clear()
        block = rng.brownian_increments(seed, n_particles, grid.steps, d, grid.dt)
        block.setflags(write=False)
        kept[key] = block
    return block[:n_particles]


def _start(model: ModelSpec, init: InitialLaw, t0, n_particles, seed, noise=None):
    """Begin a run at t0 of a model checked when it was built: fill the
    paths up to node j0 with the initial segment, and take `noise` after the
    shape check, or the run's own `brownian_block` when it is None.

    Returns (j0, values, noise); values is a node-major
    (N, M+1, d) block and only its first j0 + 1 nodes are set, copied from
    the initial sample, which may be a read-only view.
    """
    if n_particles < 2:
        raise ConfigurationError("need at least 2 particles for an empirical law")
    grid, d = model.grid, model.A.dim
    j0 = grid.node(t0)
    values = node_major(n_particles, grid.steps + 1, d)
    values[:, : j0 + 1] = init.sample(seed, n_particles, grid, d)[:, : j0 + 1]
    if noise is None:
        noise = brownian_block(model, n_particles, seed)
    elif noise.shape != (n_particles, grid.steps, d):
        raise ConfigurationError(
            f"noise override has shape {noise.shape}, expected {(n_particles, grid.steps, d)}"
        )
    return j0, values, noise


def _recorded_args(grid: TimeGrid, values: np.ndarray, controls, j: int):
    """Coefficient arguments (t, xs, mu, u, nu) at node j of finished paths and
    the controls recorded with them; xs and mu are one StoppedView."""
    view = StoppedView(grid, values, j)
    u = None if controls is None else controls[:, j, :]
    nu = None if u is None else EmpiricalControlMeasure(u)
    return grid.time_at(j), view, view, u, nu


def _exp_euler_steps(model, values, law, noise, j0, j_end, policy=None, controls=None):
    """Advance `values` in place from node j0 to node j_end by

        X_{j+1} = e^{dt*A} [ X_j + b_j dt + sigma_j dB_j ],

    with b_j and sigma_j reading the paths of `values` and the law of the block
    `law`, both stopped at node j.  `law is values` is the self-consistent
    scheme; a frozen block is one Picard pass.  The actions the policy emits
    are checked against the model's action set, width and values, at every
    step and written into `controls`, a node-major (N, M, m) block allocated
    on the first step when None, whose row at node j the coefficients then
    read; returns it.

    Each step builds node j + 1 in place.  sigma_j is multiplied into the
    noise as the diffusion returns it, a (d,) row or an (N, d) block, with
    no (N, d) broadcast; the product is elementwise, so the floats are those
    of the broadcast.  Without a drift the step forms sigma_j dB_j and adds
    X_j to it, which IEEE addition makes the float of X_j + sigma_j dB_j.
    """
    grid, dt = model.grid, model.grid.dt
    exp_dt = np.exp(model.A.eigenvalues * dt)
    for j in range(j0, j_end):
        t = j * dt
        xs = StoppedView(grid, values, j)
        mu = xs if law is values else StoppedView(grid, law, j)
        u = nu = None
        if policy is not None:
            u = np.asarray(policy.actions(t, xs, mu), dtype=float)
            if u.ndim == 1:
                u = u[:, None]
            if model.actions is not None:
                if u.shape[1] != model.actions.m:
                    raise ConfigurationError(
                        f"policy {getattr(policy, 'tag', policy)!r} emitted actions of "
                        f"width {u.shape[1]} at step {j}; the declared action set has "
                        f"width {model.actions.m}"
                    )
                if not model.actions.contains_batch(u):
                    raise ConfigurationError(
                        f"policy {getattr(policy, 'tag', policy)!r} emitted actions "
                        f"outside the declared action set at step {j} (t={t:.6g})"
                    )
            if controls is None:
                # nodes no step of this call writes hold zeros
                controls = node_major(values.shape[0], grid.steps, u.shape[1])
                controls[:, :j0] = 0.0
                controls[:, j_end:] = 0.0
            controls[:, j, :] = u
            u = controls[:, j, :]
            nu = EmpiricalControlMeasure(u)
        drift = None if model.drift is None else model.drift_at(t, xs, mu, u, nu)
        sigma = None if model.diffusion is None else model._diffusion_entries(t, xs, mu, u, nu)
        incr, new = values[:, j, :], values[:, j + 1, :]
        if drift is not None:
            incr = np.add(incr, dt * drift, out=new)
        if sigma is not None:
            if drift is None:
                # sigma dB + X_j, the floats of X_j + sigma dB: X_j is not copied
                incr = np.add(np.multiply(sigma, noise[:, j], out=new), incr, out=new)
            else:
                incr += sigma * noise[:, j]
        np.multiply(exp_dt, incr, out=new)
        if not np.isfinite(new).all():
            bad = int(np.where(~np.isfinite(new).all(axis=1))[0][0])
            raise IntegrationBlowupError(j + 1, grid.time_at(j + 1), bad)
    return controls


def integrate(
    model: ModelSpec,
    init: InitialLaw,
    policy=None,
    t0: float = 0.0,
    n_particles: int = 2,
    seed: int = 0,
    noise: np.ndarray | None = None,
    t_end: float | None = None,
) -> ParticleEnsemble:
    """Run the interacting particle system from t0 to T (or t_end); the
    paths stay constant after t_end.

    The returned ensemble is bit-reproducible from (inputs, seed): noise is
    counter-based per particle, and all cross-particle reductions are plain
    numpy pairwise sums in fixed particle order.  The run reads
    `brownian_block(model, N, seed)`, which a `draw_scope` shares among runs
    of one key.  Passing `noise`, an (N, M, d) block drawn from no seed,
    overrides it: Brownian-refinement ladders pass aggregated increments.
    Every block passed is shape-checked.  The ensemble keeps no noise:
    outside a `draw_scope`, the block the run drew is freed on return.
    """
    grid = model.grid
    j_end = grid.steps if t_end is None else grid.node(t_end)
    if j_end < grid.node(t0):
        raise DomainError(f"t_end {t_end} precedes t0 {t0}")
    j0, values, noise = _start(model, init, t0, n_particles, seed, noise)
    controls = _exp_euler_steps(model, values, values, noise, j0, j_end, policy)

    if j_end < grid.steps:
        values[:, j_end + 1 :, :] = values[:, j_end : j_end + 1, :]

    return ParticleEnsemble(grid, t0, values, controls, seed, model_tag=model.tag)


def integrate_yosida(
    model: ModelSpec,
    n: float,
    init: InitialLaw,
    policy=None,
    t0: float = 0.0,
    n_particles: int = 2,
    seed: int = 0,
) -> ParticleEnsemble:
    """`integrate` on a copy of the model whose generator is the Yosida
    approximation A_n: the recursion with e^{dt*A_n} for e^{dt*A}."""
    return integrate(replace(model, A=yosida(model.A, n)), init, policy, t0, n_particles, seed)


@dataclass
class PicardResult:
    ensemble: ParticleEnsemble
    iterations: int
    gaps: list
    windows: int = 1


def integrate_picard(
    model: ModelSpec,
    init: InitialLaw,
    policy=None,
    t0: float = 0.0,
    n_particles: int = 2,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 40,
    window: float | None = None,
) -> PicardResult:
    """Picard iteration on the flow of laws: alternate freezing the law
    sequence and re-solving every particle against it, until successive
    iterates differ by less than tol in the empirical S2 norm.

    The law sequence is seeded from the coefficient-free semigroup propagation
    of the initial segment (the self-consistent one-pass scheme is already the
    fixed point of the law map, so seeding from it would test nothing).  A
    large Lipschitz-by-horizon product makes the law map expand before the
    factorial decay of its iterates kicks in; `window` splits [t0, T] into
    subwindows of at most that length, solved sequentially (the
    interval-splitting construction).  Raises NonConvergenceError with the gap
    history when max_iter is exhausted.

    The run begins as `integrate`'s does, from the same initial segment and
    noise block.  The ensemble's controls are the actions
    each window's final pass emitted (None without a policy).
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if window is not None and not (math.isfinite(window) and window > 0):
        raise DomainError(f"window must be positive and finite, got {window}")
    j0, values, noise = _start(model, init, t0, n_particles, seed)
    grid = model.grid
    boundaries = [j0, grid.steps]
    if window is not None:
        step_nodes = max(1, int(round(window / grid.dt)))
        boundaries = list(range(j0, grid.steps, step_nodes)) + [grid.steps]

    skeleton = replace(model, drift=None, diffusion=None)
    prev = node_major(*values.shape)  # the frozen law, refilled in place
    controls = None
    total_iters = 0
    all_gaps = []
    for a, b_node in zip(boundaries[:-1], boundaries[1:]):
        # Seed the window's law sequence with the semigroup skeleton (b = sigma = 0).
        _exp_euler_steps(skeleton, values, values, noise, a, b_node)
        prev[...] = values
        controls = _exp_euler_steps(model, values, prev, noise, a, b_node, policy, controls)
        prev[...] = values
        gaps = []
        converged = False
        for _ in range(max_iter):
            _exp_euler_steps(model, values, prev, noise, a, b_node, policy, controls)
            gap = float(np.sqrt(sup_seminorm_sq_distance(values, prev, b_node, a).mean()))
            gaps.append(gap)
            total_iters += 1
            if gap < tol:
                converged = True
                break
            prev[...] = values
        all_gaps.extend(gaps)
        if not converged:
            raise NonConvergenceError(gaps, tol)

    ens = ParticleEnsemble(grid, t0, values, controls, seed, model_tag=model.tag)
    return PicardResult(ens, total_iters, all_gaps, windows=len(boundaries) - 1)


def s2_distance(e1: ParticleEnsemble, e2: ParticleEnsemble) -> float:
    """Empirical S2 distance under common-seed pairing: sqrt(mean_i ||X1_i - X2_i||_T^2)."""
    sq = sup_seminorm_sq_distance(e1.values, e2.values, e1.values.shape[1] - 1)
    return float(np.sqrt(sq.mean()))


def flow_restart_check(
    model: ModelSpec,
    init: InitialLaw,
    policy=None,
    t0: float = 0.0,
    s: float = 0.5,
    n_particles: int = 16,
    seed: int = 0,
) -> dict:
    """Integrate over [t0, T]; separately integrate over [t0, s], restart at s
    from the stopped paths with the same residual noise stream, and report the
    max particle gap, which the recursion makes exactly zero.  The three runs
    share one `draw_scope`, which draws their block once."""
    grid = model.grid
    if grid.node(s) < grid.node(t0):
        raise DomainError(f"restart time {s} precedes start {t0}")
    with draw_scope():
        full = integrate(model, init, policy, t0, n_particles, seed)
        head = integrate(model, init, policy, t0, n_particles, seed, t_end=s)
        restart_init = InitialLaw.from_values(head.values)
        tail = integrate(model, restart_init, policy, s, n_particles, seed)
    gap = float(np.abs(full.values - tail.values).max())
    return {"split_time": s, "max_particle_gap": gap}
