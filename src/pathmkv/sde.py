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
    diffusion(t, xs, mu, u, nu)    -> (N, n_sigma)   diagonal entries
    running_cost(t, xs, mu, u, nu) -> (N,)
    terminal_cost(xs, mu)          -> (N,)

where xs and mu are StoppedView objects: the particle paths and their
empirical law, stopped at the current node.  Every read clamps to that node,
so coefficients built on the view's API are non-anticipative by construction;
validation additionally spot-checks raw-array access.  The HJB residual hands
coefficients and candidate derivative fields the same view, stopped at t.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import rng
from .errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    IntegrationBlowupError,
    NonConvergenceError,
)
from .hilbert import GENERATOR, HilbertVec, SpaceSpec, SpectralOperator
from .measure import EmpiricalControlMeasure, EmpiricalPathMeasure, wasserstein2
from .paths import PathGrid, TimeGrid, path_to_csv, stop_values, sup_seminorm_sq_values


class StoppedView:
    """Paths and their empirical law, stopped at grid node `node`.

    The one argument type coefficients receive, as the path batch xs and as
    the law mu: every read clamps to the node.  Without weights it is the
    uniform law of a particle ensemble, reduced by plain means in particle
    order; with weights it is the law of a weighted EmpiricalPathMeasure.
    """

    def __init__(self, grid: TimeGrid, values: np.ndarray, node: int, weights=None):
        self.grid = grid
        self._values = values
        self.node = node
        self._weights = weights

    @classmethod
    def of(cls, mu: EmpiricalPathMeasure, t: float) -> "StoppedView":
        """The weighted measure mu, stopped at the node of t."""
        return cls(mu.grid, mu.atoms, mu.grid.node(t), mu.weights)

    @property
    def n(self) -> int:
        return self._values.shape[0]

    n_atoms = n

    @property
    def dim(self) -> int:
        return self._values.shape[2]

    @cached_property
    def weights(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n) if self._weights is None else self._weights

    def values_at(self, t: float) -> np.ndarray:
        """(N, d) values at the node of min(t, current time)."""
        return self._values[:, min(self.grid.node(t), self.node), :]

    @property
    def values_now(self) -> np.ndarray:
        return self._values[:, self.node, :]

    def seminorm_sq_at(self, t: float) -> np.ndarray:
        """||x||_t^2 per path, shape (N,), with t clamped to the current time."""
        return sup_seminorm_sq_values(self._values, min(self.grid.node(t), self.node))

    def _average(self, a: np.ndarray):
        return a.mean(axis=0) if self._weights is None else self._weights @ a

    def mean_at(self, t: float) -> HilbertVec:
        return HilbertVec(self._average(self.values_at(t)))

    def second_moment(self) -> float:
        return float(self._average(sup_seminorm_sq_values(self._values, self.node)))

    def w2_to_zero(self) -> float:
        return float(np.sqrt(self.second_moment()))

    def materialize(self) -> EmpiricalPathMeasure:
        """The stopped law as an EmpiricalPathMeasure, for exact Wasserstein computations."""
        return EmpiricalPathMeasure(self.grid, stop_values(self._values, self.node), self._weights)


@dataclass
class InitialLaw:
    """Seeded sampler of initial path segments; sampler(seed, n, grid, d) -> (N, M+1, d)."""

    sampler: object
    description: str = ""

    def sample(self, seed: int, n: int, grid: TimeGrid, d: int) -> np.ndarray:
        out = np.asarray(self.sampler(seed, n, grid, d), dtype=float)
        if out.shape != (n, grid.steps + 1, d):
            raise ConfigurationError(
                f"initial sampler returned shape {out.shape}, expected {(n, grid.steps + 1, d)}"
            )
        return out

    @staticmethod
    def from_values(values: np.ndarray, description: str = "fixed paths") -> "InitialLaw":
        """Deterministic initial data holding the given (N, M+1, d) block."""
        values = np.asarray(values, dtype=float)

        def sampler(seed, n, grid, d):
            if values.shape != (n, grid.steps + 1, d):
                raise ConfigurationError("fixed initial data does not match requested shape")
            return values.copy()

        return InitialLaw(sampler, description)


def constant_initial(c) -> InitialLaw:
    c = np.atleast_1d(np.asarray(c, dtype=float))

    def sampler(seed, n, grid, d):
        return np.tile(c, (n, grid.steps + 1, 1))

    return InitialLaw(sampler, f"constant {c.tolist()}")


def two_point_initial(a=-1.0, b=1.0, stratified=True) -> InitialLaw:
    """Constant paths at value a or b with probability 1/2 each.

    Stratified assignment alternates deterministically (exact balance for even
    N); the unstratified variant draws per-particle uniforms from the seeded
    stream.
    """

    def sampler(seed, n, grid, d):
        if stratified:
            signs = np.where(np.arange(n) % 2 == 0, a, b)
        else:
            u = rng.uniforms(seed, rng.STREAM_INITIAL, n)[:, 0]
            signs = np.where(u < 0.5, a, b)
        return np.tile(signs[:, None, None], (1, grid.steps + 1, d))

    return InitialLaw(sampler, f"two-point {{{a}, {b}}} ({'stratified' if stratified else 'sampled'})")


def two_point_mapped(a=-1.0, b=1.0, flipped=False) -> InitialLaw:
    """Two-point law realized through one of two different measurable maps of the seed."""

    def sampler(seed, n, grid, d):
        u = rng.uniforms(seed, rng.STREAM_INITIAL, n)[:, 0]
        lo, hi = (b, a) if flipped else (a, b)
        signs = np.where(u < 0.5, lo, hi)
        return np.tile(signs[:, None, None], (1, grid.steps + 1, d))

    return InitialLaw(sampler, f"two-point {{{a}, {b}}} (map {'B' if flipped else 'A'})")


def gaussian_initial(mean=0.0, std=1.0) -> InitialLaw:
    def sampler(seed, n, grid, d):
        out = np.empty((n, grid.steps + 1, d))
        for i, g in enumerate(rng.particle_generators(seed, rng.STREAM_INITIAL, n)):
            out[i] = mean + std * g.standard_normal(d)
        return out

    return InitialLaw(sampler, f"gaussian constant paths N({mean}, {std}^2)")


def ramp_initial(scale=1.0, std=1.0) -> InitialLaw:
    """Nonconstant initial paths xi_s = scale * s * z_i; sharp for stopping tests."""

    def sampler(seed, n, grid, d):
        z = np.empty((n, d))
        for i, g in enumerate(rng.particle_generators(seed, rng.STREAM_INITIAL, n)):
            z[i] = g.standard_normal(d)
        times = grid.times[None, :, None]
        return scale * times * (std * z)[:, None, :]

    return InitialLaw(sampler, f"linear ramp scale={scale}")


def scaled_initial(base: InitialLaw, factor: float) -> InitialLaw:
    def sampler(seed, n, grid, d):
        return factor * base.sample(seed, n, grid, d)

    return InitialLaw(sampler, f"{base.description} x {factor}")


def stopped_initial(base: InitialLaw, t: float) -> InitialLaw:
    def sampler(seed, n, grid, d):
        return stop_values(base.sample(seed, n, grid, d), grid.node(t))

    return InitialLaw(sampler, f"{base.description} stopped at {t}")


def shifted_initial(base: InitialLaw, delta) -> InitialLaw:
    delta = np.atleast_1d(np.asarray(delta, dtype=float))

    def sampler(seed, n, grid, d):
        return base.sample(seed, n, grid, d) + delta

    return InitialLaw(sampler, f"{base.description} + {delta.tolist()}")


@dataclass
class ModelSpec:
    """The model tuple (A, b, sigma, f, g, U, grid) plus its Lipschitz/growth metadata.

    lipschitz is the declared constant of the coefficient assumptions (checked
    on sampled pairs with 5% slack); growth_h, when given, is the declared
    envelope h such that |f|, |g| <= h(W2(mu, delta_0)) (1 + ||x||_t^2).
    control_growth switches the boundedness-in-u requirement to the unbounded
    variant L(1 + |u|), which is accepted only for square-integrable policies.
    """

    space: SpaceSpec
    grid: TimeGrid
    A: SpectralOperator
    drift: object = None
    diffusion: object = None
    running_cost: object = None
    terminal_cost: object = None
    lipschitz: float = 0.0
    actions: object = None
    growth_h: object = None
    control_growth: float | None = None
    tag: str = "custom"
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if self.A.kind != GENERATOR:
            raise ConfigurationError("model operator A must be a generator")
        if self.A.dim != self.space.d:
            raise ConfigurationError(
                f"A has dimension {self.A.dim}, state space has {self.space.d}"
            )

    @property
    def eta(self) -> float:
        return self.A.eta

    @property
    def n_sigma(self) -> int:
        return min(self.space.d, self.space.dK)

    def drift_at(self, t, xs, mu, u, nu) -> np.ndarray:
        if self.drift is None:
            return np.zeros((xs.n, self.space.d))
        return np.asarray(self.drift(t, xs, mu, u, nu), dtype=float)

    def diffusion_at(self, t, xs, mu, u, nu) -> np.ndarray:
        if self.diffusion is None:
            return np.zeros((xs.n, self.n_sigma))
        out = np.asarray(self.diffusion(t, xs, mu, u, nu), dtype=float)
        if out.ndim == 1:
            out = np.broadcast_to(out, (xs.n, self.n_sigma))
        return out

    def running_cost_at(self, t, xs, mu, u, nu) -> np.ndarray:
        if self.running_cost is None:
            return np.zeros(xs.n)
        return np.asarray(self.running_cost(t, xs, mu, u, nu), dtype=float)

    def terminal_cost_at(self, xs, mu) -> np.ndarray:
        if self.terminal_cost is None:
            return np.zeros(xs.n)
        return np.asarray(self.terminal_cost(xs, mu), dtype=float)

    def validate(self, seed: int = 0, n_pairs: int = 4) -> None:
        """Spot-check non-anticipativity and the declared Lipschitz constant."""
        if self._validated:
            return
        _validate_model(self, seed, n_pairs)
        self._validated = True


def _sample_action(model, rand, n):
    if model.actions is None:
        return None
    return model.actions.sample(rand, n)


def _validate_model(model, seed, n_pairs):
    rand = np.random.default_rng(seed)
    grid, d = model.grid, model.space.d
    n = 3
    m_nodes = grid.steps

    for _ in range(n_pairs):
        j = int(rand.integers(1, m_nodes))
        t = grid.time_at(j)
        u = _sample_action(model, rand, n)
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
        for a, b in zip(outs[0], outs[1]):
            if not np.array_equal(a, b):
                raise ConfigurationError(
                    "coefficients are anticipative: perturbing the path after t changed the output"
                )

        # Lipschitz spot check against the declared constant, 5% slack.
        other = rand.normal(size=(n, grid.steps + 1, d))
        v1, v2 = StoppedView(grid, vals, j), StoppedView(grid, other, j)
        w2 = wasserstein2(v1.materialize(), v2.materialize(), mode="exact")
        seminorms = np.sqrt(sup_seminorm_sq_values(vals - other, j))
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


def apriori_constant(L: float, eta: float, T: float) -> float:
    """Constant C of the a-priori estimate ||X||_S2 <= C (1 + ||xi||_S2).

    Assembled from the contraction construction: a Gronwall bound for the
    zero-initial solution plus the iterated per-window Lipschitz factor in the
    initial datum.  Deliberately conservative; overflows saturate to inf,
    which keeps the runtime assertion valid (if weak) for stiff inputs.
    """
    eta_p = max(eta, 0.0)
    with np.errstate(over="ignore"):
        c0 = 6.0 * L**2 * (math.exp(2 * eta * T) * T + 4.0 * math.exp(2 * eta_p * T))
        try:
            zero_part = math.sqrt(c0 * T) * math.exp(c0 * T)
        except OverflowError:
            return math.inf
        lip = lipschitz_initial_constant(L, eta, T)
    if not math.isfinite(zero_part) or not math.isfinite(lip):
        return math.inf
    return max(zero_part, lip, 1.0)


def lipschitz_initial_constant(L: float, eta: float, T: float) -> float:
    """Lipschitz constant of xi -> X^{t,xi,alpha}, iterated over contraction windows."""
    eta_p = max(eta, 0.0)
    c_contr = 2.0 * math.sqrt(2.0) * L * max(math.exp(eta * T) * math.sqrt(T), 2.0 * math.exp(eta_p * T))
    if c_contr == 0.0:
        return 2.0 * math.sqrt(1.0 + math.exp(eta * T))
    eps = 1.0 / (4.0 * c_contr**2)
    n_windows = max(1, math.ceil(T / eps))
    per_window = 4.0 * math.sqrt(1.0 + math.exp(eta * T))
    try:
        return per_window**n_windows
    except OverflowError:
        return math.inf


@dataclass
class ParticleEnsemble:
    """N state paths with their noise, controls and the seed that reproduces them."""

    grid: TimeGrid
    space: SpaceSpec
    t0: float
    values: np.ndarray  # (N, M+1, d)
    noise: np.ndarray  # (N, M, dK)
    controls: np.ndarray | None  # (N, M, m) or None
    seed: int
    model_tag: str = ""

    @property
    def n_particles(self) -> int:
        return self.values.shape[0]

    def law(self) -> EmpiricalPathMeasure:
        return EmpiricalPathMeasure(self.grid, self.values.copy(), None)

    def law_at(self, t: float) -> EmpiricalPathMeasure:
        j = self.grid.node(t)
        return EmpiricalPathMeasure(self.grid, stop_values(self.values, j), None)

    def particle_path(self, i: int) -> PathGrid:
        return PathGrid(self.grid, self.values[i])

    def s2_norm(self) -> float:
        return float(np.sqrt(sup_seminorm_sq_values(self.values, self.grid.steps).mean()))

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


def _policy_randomizers(policy, seed, n):
    if policy is not None and getattr(policy, "needs_randomizer", False):
        return rng.uniforms(seed, rng.STREAM_POLICY, n)[:, 0]
    return None


def _check_policy_growth(model, policy):
    if model.control_growth is not None and policy is not None:
        if not getattr(policy, "square_integrable", True):
            raise ConfigurationError(
                "model declares unbounded control growth; the policy must declare "
                "square-integrability"
            )


def _recorded_args(grid: TimeGrid, values: np.ndarray, controls, j: int):
    """Coefficient arguments (t, xs, mu, u, nu) at node j of finished paths and
    the controls recorded with them; xs and mu are one StoppedView."""
    view = StoppedView(grid, values, j)
    u = None if controls is None else controls[:, j, :]
    nu = None if u is None else EmpiricalControlMeasure(u)
    return grid.time_at(j), view, view, u, nu


def _exp_euler_steps(model, values, law, noise, j0, j_end, exp_dt, policy=None, randomizers=None):
    """Advance `values` in place from node j0 to node j_end by

        X_{j+1} = e^{dt*A} [ X_j + b_j dt + sigma_j dB_j ],

    with b_j and sigma_j reading the paths of `values` and the law of the block
    `law`, both stopped at node j.  `law is values` is the self-consistent
    scheme; a frozen block is one Picard pass.  The noise width is the
    diffusion's.  Returns the (N, M, m) actions the policy emitted, or None.
    """
    grid, dt = model.grid, model.grid.dt
    controls = None
    for j in range(j0, j_end):
        t = grid.time_at(j)
        xs = StoppedView(grid, values, j)
        mu = xs if law is values else StoppedView(grid, law, j)
        u = nu = None
        if policy is not None:
            u = np.asarray(policy.actions(t, xs, mu, randomizers), dtype=float)
            if u.ndim == 1:
                u = u[:, None]
            nu = EmpiricalControlMeasure(u)
            if controls is None:
                if model.actions is not None and not model.actions.contains_batch(u):
                    raise ConfigurationError(
                        f"policy {getattr(policy, 'tag', policy)!r} emitted actions "
                        "outside the declared action set"
                    )
                controls = np.zeros((values.shape[0], grid.steps, u.shape[1]))
            controls[:, j, :] = u
        if model.drift is None:
            incr = values[:, j, :].copy()
        else:
            incr = values[:, j, :] + dt * model.drift_at(t, xs, mu, u, nu)
        if model.diffusion is not None:
            s = model.diffusion_at(t, xs, mu, u, nu)
            ns = s.shape[1]
            incr[:, :ns] += s * noise[:, j, :ns]
        new = exp_dt * incr
        if not np.all(np.isfinite(new)):
            bad = int(np.where(~np.isfinite(new).all(axis=1))[0][0])
            raise IntegrationBlowupError(j + 1, grid.time_at(j + 1), bad)
        values[:, j + 1, :] = new
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
    semigroup: SpectralOperator | None = None,
    check_estimate: bool = True,
) -> ParticleEnsemble:
    """Run the interacting particle system from t0 to T (or t_end).

    The returned ensemble is bit-reproducible from (inputs, seed): noise is
    counter-based per particle, and all cross-particle reductions are plain
    numpy pairwise sums in fixed particle order.  Passing `noise` overrides
    the generated increments (used for Brownian-refinement ladders).
    """
    model.validate()
    _check_policy_growth(model, policy)
    grid, d = model.grid, model.space.d
    if n_particles < 2:
        raise ConfigurationError("need at least 2 particles for an empirical law")
    j0 = grid.node(t0)
    j_end = grid.steps if t_end is None else grid.node(t_end)
    if j_end < j0:
        raise DomainError(f"t_end {t_end} precedes t0 {t0}")
    dt = grid.dt

    values = np.empty((n_particles, grid.steps + 1, d))
    segment = init.sample(seed, n_particles, grid, d)
    values[:, : j0 + 1] = segment[:, : j0 + 1]

    if noise is None:
        noise = rng.brownian_increments(seed, n_particles, grid.steps, model.space.dK, dt)
    elif noise.shape != (n_particles, grid.steps, model.space.dK):
        raise ConfigurationError(
            f"noise override has shape {noise.shape}, "
            f"expected {(n_particles, grid.steps, model.space.dK)}"
        )

    gen = model.A if semigroup is None else semigroup
    exp_dt = np.exp(gen.eigenvalues * dt)

    randomizers = _policy_randomizers(policy, seed, n_particles)
    controls = _exp_euler_steps(
        model, values, values, noise, j0, j_end, exp_dt, policy, randomizers
    )

    if j_end < grid.steps:
        values[:, j_end + 1 :, :] = values[:, j_end : j_end + 1, :]

    ens = ParticleEnsemble(
        grid, model.space, t0, values, noise, controls, seed, model_tag=model.tag
    )

    if check_estimate:
        c = apriori_constant(model.lipschitz, model.eta, grid.T)
        xi_norm = float(np.sqrt(sup_seminorm_sq_values(segment, j0).mean()))
        bound = 3.0 * c * (1.0 + xi_norm)
        if model.control_growth is not None:
            control_sq_sum = 0.0
            if controls is not None:
                for j in range(j0, j_end):
                    control_sq_sum += float((controls[:, j, :] ** 2).sum(axis=1).mean()) * dt
            bound = 3.0 * c * (1.0 + xi_norm + control_sq_sum)
        if math.isfinite(bound) and ens.s2_norm() > bound:
            raise ContractError(
                f"a-priori estimate violated: ||X||_S2 = {ens.s2_norm():.3g} "
                f"exceeds 3*C*(1+||xi||) = {bound:.3g}"
            )
    return ens


def integrate_yosida(
    model: ModelSpec,
    n: float,
    init: InitialLaw,
    policy=None,
    t0: float = 0.0,
    n_particles: int = 2,
    seed: int = 0,
    noise: np.ndarray | None = None,
) -> ParticleEnsemble:
    """Same recursion with e^{dt*A} replaced by the Yosida semigroup e^{dt*A_n}."""
    from .hilbert import yosida

    a_n = yosida(model.A, n)
    return integrate(
        model, init, policy, t0, n_particles, seed, noise=noise, semigroup=a_n
    )


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
    """
    model.validate()
    _check_policy_growth(model, policy)
    if tol <= 0:
        raise DomainError("tol must be positive")
    grid, d = model.grid, model.space.d
    j0 = grid.node(t0)
    dt = grid.dt

    values = np.empty((n_particles, grid.steps + 1, d))
    segment = init.sample(seed, n_particles, grid, d)
    values[:, : j0 + 1] = segment[:, : j0 + 1]
    noise = rng.brownian_increments(seed, n_particles, grid.steps, model.space.dK, dt)
    exp_dt = np.exp(model.A.eigenvalues * dt)
    randomizers = _policy_randomizers(policy, seed, n_particles)

    if window is None:
        boundaries = [j0, grid.steps]
    else:
        if window <= 0:
            raise DomainError("window must be positive")
        step_nodes = max(1, int(round(window / dt)))
        boundaries = list(range(j0, grid.steps, step_nodes)) + [grid.steps]

    skeleton = replace(model, drift=None, diffusion=None)
    total_iters = 0
    all_gaps = []
    for a, b_node in zip(boundaries[:-1], boundaries[1:]):
        # Seed the window's law sequence with the semigroup skeleton (b = sigma = 0).
        _exp_euler_steps(skeleton, values, values, noise, a, b_node, exp_dt)
        prev = values.copy()
        _exp_euler_steps(model, values, prev, noise, a, b_node, exp_dt, policy, randomizers)
        prev = values.copy()
        gaps = []
        converged = False
        for _ in range(max_iter):
            _exp_euler_steps(model, values, prev, noise, a, b_node, exp_dt, policy, randomizers)
            diff = values[:, a : b_node + 1] - prev[:, a : b_node + 1]
            gap = float(np.sqrt((diff**2).sum(axis=2).max(axis=1).mean()))
            gaps.append(gap)
            total_iters += 1
            if gap < tol:
                converged = True
                break
            prev = values.copy()
        all_gaps.extend(gaps)
        if not converged:
            raise NonConvergenceError(gaps, tol)

    ens = ParticleEnsemble(
        grid, model.space, t0, values, noise, None, seed, model_tag=model.tag
    )
    return PicardResult(ens, total_iters, all_gaps, windows=len(boundaries) - 1)


def s2_norm(ensemble: ParticleEnsemble) -> float:
    return ensemble.s2_norm()


def s2_distance(e1: ParticleEnsemble, e2: ParticleEnsemble) -> float:
    """Empirical S2 distance under common-seed pairing: sqrt(mean_i ||X1_i - X2_i||_T^2)."""
    if e1.values.shape != e2.values.shape:
        raise ConfigurationError(
            f"ensemble shapes differ: {e1.values.shape} vs {e2.values.shape}"
        )
    diff = e1.values - e2.values
    return float(np.sqrt((diff**2).sum(axis=2).max(axis=1).mean()))


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
    max particle gap, which the recursion makes exactly zero."""
    grid = model.grid
    if grid.node(s) < grid.node(t0):
        raise DomainError(f"restart time {s} precedes start {t0}")
    full = integrate(model, init, policy, t0, n_particles, seed)
    head = integrate(model, init, policy, t0, n_particles, seed, t_end=s)
    restart_init = InitialLaw.from_values(head.values, description="restart data")
    tail = integrate(model, restart_init, policy, s, n_particles, seed)
    gap = float(np.abs(full.values - tail.values).max())
    return {"split_time": s, "max_particle_gap": gap}
