"""Pathwise derivatives on Wasserstein path space and the functional Ito verifier.

Derivatives are defined and evaluated on empirical (finitely supported)
measures through the discrete atom-splitting formula: the directional measure
derivative at atom i in direction h is

    <d_mu phi(t, mu)(x_i), h>  ~  [ phi(t, mu with atom i bumped by eps*h from t)
                                    - phi(t, mu) ] / (eps * p_i),

one-sided in eps because the bump splits a delta atom (central differencing
has no meaning here); Richardson extrapolation is available on top.  The
built-in zoo of cylindrical functionals carries closed-form derivatives, which
is what makes finite-difference consistency and the Ito residual checkable.

`ito_verify` checks the functional Ito formula on the state equation of a
`ModelSpec`; a plain Ito process is the model with A = 0 (`ito_process`), for
which the generator term of the formula vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractError,
    DomainError,
    UnsupportedFunctionalError,
)
from .hilbert import SpectralOperator, vector
from .measure import EmpiricalPathMeasure, StoppedView, stopped_measure
from .paths import PathGrid, bump
from .sde import InitialLaw, ModelSpec, _recorded_args, integrate


class NodeRun:
    """A set of paths read at a run of J >= 1 consecutive grid nodes: the
    argument of the derivative callables.

    `view` is the StoppedView of the paths (and their law) at the run's last
    node, `ts` the (J,) times of the run and `now` the (J, K, d) node-major
    values at those nodes.  Row i belongs to time ts[i]; a field computed for
    it reads the paths only up to that node.
    """

    def __init__(self, view: StoppedView, ts: np.ndarray, now: np.ndarray):
        self.view = view
        self.ts = ts
        self.now = now

    @staticmethod
    def at(mu: StoppedView, t: float) -> "NodeRun":
        """The run of one node: mu stopped at the node of t, read at time t."""
        view = StoppedView.of(mu, t)
        return NodeRun(view, np.array([t], dtype=float), view.values_now[None])

    @property
    def weights(self) -> np.ndarray:
        return self.view.weights


@dataclass
class CylindricalFunctional:
    """A test functional phi(t, mu) with optional closed-form derivatives.

    The derivative callables take runs of nodes (NodeRun): dt_fn(law) returns
    the (J,) horizontal derivatives of the law's run, and dmu_fn(law, at) and
    dxdmu_fn(law, at) return the fields at the query paths `at`, a run over
    the same nodes, as arrays that broadcast to (J, K, d) resp. (J, K, d, d),
    so a field constant in x may return its (d,) or (d, d) value.  The Ito
    quadrature calls them on blocks of nodes; dt, dmu_field and dxdmu_field
    are the run of one node, J = 1, at full shape.
    differentiable=False marks members (the running sup-norm square) whose
    eval is fine but whose vertical derivative falls outside the admissible
    class; derivative operations on them raise UnsupportedFunctionalError.
    """

    tag: str
    eval_fn: object
    dt_fn: object = None
    dmu_fn: object = None
    dxdmu_fn: object = None
    differentiable: bool = True

    def eval(self, t: float, mu) -> float:
        return float(self.eval_fn(t, mu))

    @property
    def has_analytic(self) -> bool:
        return self.dt_fn is not None and self.dmu_fn is not None and self.dxdmu_fn is not None

    def dt(self, t: float, mu) -> float:
        return float(self.dt_fn(NodeRun.at(mu, t))[0])

    def dmu_field(self, t: float, mu) -> np.ndarray:
        """d_mu phi(t, mu) at mu's own support, shape (K, d)."""
        law = NodeRun.at(mu, t)
        out = np.asarray(self.dmu_fn(law, law), dtype=float)
        return np.broadcast_to(out, law.now.shape)[0]

    def dxdmu_field(self, t: float, mu) -> np.ndarray:
        """The mixed second derivative at mu's own support, shape (K, d, d)."""
        law = NodeRun.at(mu, t)
        out = np.asarray(self.dxdmu_fn(law, law), dtype=float)
        return np.broadcast_to(out, law.now.shape + law.now.shape[-1:])[0]


# ---------------------------------------------------------------------------
# Built-in zoo


def _zero_dt(law):
    return np.zeros(len(law.ts))


def _node_means(law, h):
    """(J,) integrals of <x, h> under the law at each node of the run, one dot
    product per node as eval sums them."""
    return np.array([law.weights @ (x @ h) for x in law.now])


def linear_mean(h) -> CylindricalFunctional:
    """phi(t, mu) = integral of <x_t, h>."""
    h = np.atleast_1d(np.asarray(h, dtype=float))

    def ev(t, mu):
        return mu.weights @ (mu.values_at(t) @ h)

    return CylindricalFunctional(
        tag="linear_mean",
        eval_fn=ev,
        dt_fn=_zero_dt,
        dmu_fn=lambda law, at: h,
        dxdmu_fn=lambda law, at: np.zeros((h.size, h.size)),
    )


def mean_squared(h) -> CylindricalFunctional:
    """phi(t, mu) = (integral of <x_t, h>)^2, the square of the mean."""
    h = np.atleast_1d(np.asarray(h, dtype=float))

    def _mean(t, mu):
        return mu.weights @ (mu.values_at(t) @ h)

    def dmu(law, at):
        return ((2.0 * _node_means(law, h))[:, None] * h)[:, None, :]

    return CylindricalFunctional(
        tag="mean_squared",
        eval_fn=lambda t, mu: _mean(t, mu) ** 2,
        dt_fn=_zero_dt,
        dmu_fn=dmu,
        dxdmu_fn=lambda law, at: np.zeros((h.size, h.size)),
    )


def mean_squared_double(h) -> CylindricalFunctional:
    """Same functional written as the double integral of <x_t,h><y_t,h>; eval only."""
    h = np.atleast_1d(np.asarray(h, dtype=float))

    def ev(t, mu):
        pa = mu.weights * (mu.values_at(t) @ h)
        return float(np.outer(pa, pa).sum())

    return CylindricalFunctional(tag="mean_squared_double", eval_fn=ev)


def quadratic_form(q) -> CylindricalFunctional:
    """phi(t, mu) = integral of <x_t, Q x_t> for diagonal Q (given by its diagonal)."""
    q = np.atleast_1d(np.asarray(q, dtype=float))

    def ev(t, mu):
        xs = mu.values_at(t)
        return mu.weights @ ((xs**2) @ q)

    return CylindricalFunctional(
        tag="quadratic_form",
        eval_fn=ev,
        dt_fn=_zero_dt,
        dmu_fn=lambda law, at: 2.0 * at.now * q,
        dxdmu_fn=lambda law, at: 2.0 * np.diag(q),
    )


def quadratic_form_dense(Q) -> CylindricalFunctional:
    """Dense-matrix representation of the quadratic form (for consistency checks)."""
    Q = np.asarray(Q, dtype=float)

    def ev(t, mu):
        xs = mu.values_at(t)
        return mu.weights @ np.einsum("nd,de,ne->n", xs, Q, xs)

    return CylindricalFunctional(
        tag="quadratic_form_dense",
        eval_fn=ev,
        dt_fn=_zero_dt,
        dmu_fn=lambda law, at: at.now @ (Q + Q.T),
        dxdmu_fn=lambda law, at: Q + Q.T,
    )


def running_sup_sq() -> CylindricalFunctional:
    """phi(t, mu) = integral of ||x||_t^2; eval and non-anticipativity only.

    Its vertical derivative fails the continuity hypotheses of the
    differentiable class, so derivative operations are refused.
    """

    def ev(t, mu):
        return mu.weights @ mu.seminorm_sq_at(t)

    return CylindricalFunctional(tag="running_sup_sq", eval_fn=ev, differentiable=False)


def time_linear_mean(h) -> CylindricalFunctional:
    """phi(t, mu) = t * integral of <x_t, h>; product-rule case for the horizontal derivative."""
    base = linear_mean(h)
    h = np.atleast_1d(np.asarray(h, dtype=float))
    return CylindricalFunctional(
        tag="time_linear_mean",
        eval_fn=lambda t, mu: t * base.eval_fn(t, mu),
        dt_fn=lambda law: _node_means(law, h),
        dmu_fn=lambda law, at: at.ts[:, None, None] * h,
        dxdmu_fn=lambda law, at: np.zeros((h.size, h.size)),
    )


def time_quadratic_mean(h) -> CylindricalFunctional:
    """phi(t, mu) = t^2 * integral of <x_t, h>; curved in t, for Richardson checks."""
    base = linear_mean(h)
    h = np.atleast_1d(np.asarray(h, dtype=float))

    def dmu(law, at):
        # Python's float power, as eval squares t; numpy's square can round differently
        t_sq = np.array([t**2 for t in at.ts.tolist()])
        return t_sq[:, None, None] * h

    return CylindricalFunctional(
        tag="time_quadratic_mean",
        eval_fn=lambda t, mu: t**2 * base.eval_fn(t, mu),
        dt_fn=lambda law: 2.0 * law.ts * _node_means(law, h),
        dmu_fn=dmu,
        dxdmu_fn=lambda law, at: np.zeros((h.size, h.size)),
    )


def standard_zoo(d: int) -> dict:
    """The default functional zoo in dimension d, keyed by tag."""
    h = np.zeros(d)
    h[0] = 1.0
    # FD error of the quadratic form is eps * q_max; keep q_max < 1 so the
    # stock tolerance eps holds with margin.
    q = np.linspace(0.25, 0.5, d)
    zoo = [
        linear_mean(h),
        mean_squared(h),
        quadratic_form(q),
        mean_squared_double(h),
        running_sup_sq(),
        time_linear_mean(h),
        time_quadratic_mean(h),
    ]
    return {phi.tag: phi for phi in zoo}


# ---------------------------------------------------------------------------
# Derivative operations


def default_eps(x: PathGrid) -> float:
    from .paths import sup_norm

    return 1e-5 * (1.0 + sup_norm(x))


def _require_differentiable(phi):
    if not phi.differentiable:
        raise UnsupportedFunctionalError(
            f"functional {phi.tag!r} is outside the differentiable class"
        )


def _check_nonanticipative(phi, t, mu):
    if phi.eval(t, mu) != phi.eval(t, stopped_measure(mu, t)):
        raise ContractError(
            f"functional {phi.tag!r} is anticipative: eval changed under stopping at t={t}"
        )


def horizontal_derivative(
    phi: CylindricalFunctional,
    t: float,
    mu: EmpiricalPathMeasure,
    dt_fd: float | None = None,
) -> float:
    """Forward difference [phi(t + delta, mu stopped at t) - phi(t, mu)] / delta.

    delta is snapped to a multiple of the grid step.  At t = T the defining
    limit runs from the left: the difference quotient is evaluated on a
    decreasing-t ladder and extrapolated linearly to T.
    """
    grid = mu.grid
    delta = grid.dt if dt_fd is None else max(1, round(dt_fd / grid.dt)) * grid.dt
    _check_nonanticipative(phi, t, mu)
    j = grid.node(t)
    frozen = stopped_measure(mu, t)
    if j == grid.steps:
        v1 = _fd_quotient(phi, grid.T - delta, frozen, delta)
        v2 = _fd_quotient(phi, grid.T - 2 * delta, frozen, delta)
        return 2 * v1 - v2
    delta = min(delta, grid.T - grid.time_at(j))
    return _fd_quotient(phi, grid.time_at(j), frozen, delta)


def _fd_quotient(phi, t, mu, delta):
    frozen = stopped_measure(mu, t)
    return (phi.eval(t + delta, frozen) - phi.eval(t, frozen)) / delta


def measure_derivative_discrete(
    phi: CylindricalFunctional,
    t: float,
    mu: EmpiricalPathMeasure,
    i: int,
    h: np.ndarray,
    eps: float | None = None,
    richardson: bool = False,
) -> float:
    """<d_mu phi(t, mu)(x_i), h> by the one-sided atom-splitting difference."""
    _require_differentiable(phi)
    if mu.weights[i] <= 0.0:
        raise DomainError(f"atom {i} has zero weight; the formula divides by p_i")
    eps = default_eps(mu.atom_path(i)) if eps is None else eps
    if eps <= 0:
        raise DomainError("eps must be positive")
    base = phi.eval(t, mu)
    p_i, h = mu.weights[i], vector(h, mu.dim)

    def one_sided(e):
        bumped = bump(mu.atom_path(i), t, e * h)
        return (phi.eval(t, mu.replace_atom(i, bumped)) - base) / (e * p_i)

    if richardson:
        return 2.0 * one_sided(eps / 2) - one_sided(eps)
    return one_sided(eps)


def measure_derivative_field(
    phi: CylindricalFunctional,
    t: float,
    mu: EmpiricalPathMeasure,
    eps: float | None = None,
    richardson: bool = False,
) -> np.ndarray:
    """The map x -> d_mu phi(t, mu)(x) on the support: (N, d) array of components."""
    _require_differentiable(phi)
    d = mu.dim
    out = np.empty((mu.n_atoms, d))
    for i in range(mu.n_atoms):
        for k in range(d):
            out[i, k] = measure_derivative_discrete(
                phi, t, mu, i, np.eye(d)[k], eps=eps, richardson=richardson
            )
    return out


@dataclass
class SecondDerivative:
    matrix: np.ndarray
    sym: np.ndarray


def second_derivative(
    phi: CylindricalFunctional,
    t: float,
    mu: EmpiricalPathMeasure,
    x_index: int,
    eps: float | None = None,
) -> SecondDerivative:
    """Mixed second derivative at atom x_index: column k differences the
    measure-derivative field under a bump of the atom in direction e_k, plus
    the symmetrization (the only part entering Ito expansions)."""
    _require_differentiable(phi)
    d = mu.dim
    eps = default_eps(mu.atom_path(x_index)) if eps is None else eps
    basis = np.eye(d)

    def grad_at(measure):
        return np.array(
            [
                measure_derivative_discrete(phi, t, measure, x_index, basis[l], eps=eps)
                for l in range(d)
            ]
        )

    g0 = grad_at(mu)
    mat = np.empty((d, d))
    for k in range(d):
        bumped = bump(mu.atom_path(x_index), t, eps * basis[k])
        g1 = grad_at(mu.replace_atom(x_index, bumped))
        mat[:, k] = (g1 - g0) / eps
    return SecondDerivative(mat, 0.5 * (mat + mat.T))


# ---------------------------------------------------------------------------
# Functional Ito verifier


def ito_process(grid, F=None, G=None, tag: str = "ito_process", d: int = 1) -> ModelSpec:
    """The plain Ito process X = xi + int F dr + int G dB as the state equation
    with A = 0, whose coefficients F(t, x_now) -> (N, d) and G(t, x_now) ->
    (N, d) diagonal entries read the current node of the paths; a zero column
    of G leaves its coordinate undriven.

    No Lipschitz constant is declared (L = inf): the Lipschitz spot check
    passes, while the non-anticipativity spot check runs as on every
    model."""

    def lift(fn):
        return None if fn is None else (lambda t, xs, mu, u, nu: fn(t, xs.values_now))

    return ModelSpec(
        grid=grid,
        A=SpectralOperator(np.zeros(d)),
        drift=lift(F),
        diffusion=lift(G),
        lipschitz=math.inf,
        tag=tag,
    )


def const_drift_spec(grid, c) -> ModelSpec:
    """F = c, G = 0, in the dimension d = len(c)."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return ito_process(
        grid,
        F=lambda t, x: np.broadcast_to(c, x.shape).copy(),
        tag=f"F=const{c.tolist()},G=0",
        d=c.size,
    )


def const_diffusion_spec(grid, s0, d: int = 1) -> ModelSpec:
    """F = 0, G = s0 on every coordinate."""
    return ito_process(
        grid,
        G=lambda t, x: np.full(x.shape, s0),
        tag=f"F=0,G={s0}",
        d=d,
    )


def drift_diffusion_spec(grid, c, s0) -> ModelSpec:
    """F = c, G = s0, in the dimension d = len(c)."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return ito_process(
        grid,
        F=lambda t, x: np.broadcast_to(c, x.shape).copy(),
        G=lambda t, x: np.full(x.shape, s0),
        tag=f"F=const{c.tolist()},G={s0}",
        d=c.size,
    )


def linear_drift_diffusion_spec(grid, kappa, s0, d: int = 1) -> ModelSpec:
    """F = -kappa x, G = s0."""
    return ito_process(
        grid,
        F=lambda t, x: -kappa * x,
        G=lambda t, x: np.full(x.shape, s0),
        tag=f"F=-{kappa}x,G={s0}",
        d=d,
    )


@dataclass
class ItoReport:
    functional: str
    model: str
    lhs: float
    rhs: float
    residual: float
    stderr: float
    passed: bool


# Nodes per block of the Ito quadrature, deliberately not configurable.  At
# 4000 particles one (16, N, d = 1) temporary is 512 KB.  On a 2-core x86-64
# machine the default `ito` criterion, drawing its own block, took 0.75-0.80 s
# of CPU (median 0.78) with 16-node blocks against 0.80-0.90 s (0.84) with 8
# and 0.81-0.90 s (0.86) with 32, each the median of three runs in 8 rounds
# that alternated the lengths; two suite runs in one process peaked at 178.1,
# 178.2 and 177.6 MB of RSS with 8, 16 and 32.
NODE_BLOCK = 16


def _block_coefficients(model, values, b0, b1, controls):
    """Drift and diffusion (None where the model has none) at nodes b0..b1-1,
    node-major (J, N, .), each node evaluated on the full ensemble so that
    every particle set sees the processes that actually drove it."""
    args = [_recorded_args(model.grid, values, controls, j) for j in range(b0, b1)]
    f = np.stack([model.drift_at(*a) for a in args]) if model.drift is not None else None
    g = np.stack([model.diffusion_at(*a) for a in args]) if model.diffusion is not None else None
    return f, g


def _row_means(a):
    """Sum over the last axis, then the mean of each row of the (J, K) result;
    a C-contiguous row's mean sums in the order of its own 1-d mean.  A sum
    of one element is that element, so a last axis of length 1 is read, not
    summed: numpy's reduction over it cost the default `ito` stage about
    0.13 s of its 0.96 s CPU (medians of 10 alternating runs, 8 won, 2-core
    x86-64)."""
    rows = a[..., 0] if a.shape[-1] == 1 else a.sum(axis=-1)
    return rows.mean(axis=-1)


def _rhs_quadrature(phis, model, values, j0, j1, rows, controls, a_eigs):
    """Left-endpoint quadrature of the integral terms: totals[i][k] for
    functional phis[i] on the particle set values[rows[k]].

    One pass over blocks of NODE_BLOCK consecutive nodes serves every
    functional and set.  A block reads the paths node-major, a view of the
    node-major block `integrate` returns (a copy for any other layout).  It
    evaluates the coefficients and g ** 2 once, on the full ensemble, then
    takes each set's slices of f, g ** 2 and now * a_eigs once for all
    functionals, whose fields it evaluates once per set on the whole block,
    each set against its own law.  Each node's term * dt is then added to
    the set's total in node order."""
    grid = model.grid
    totals = [[0.0] * len(rows) for _ in phis]
    for b0 in range(j0, j1, NODE_BLOCK):
        b1 = min(b0 + NODE_BLOCK, j1)
        ts = np.arange(b0, b1) * grid.dt
        now = np.ascontiguousarray(values[:, b0:b1].transpose(1, 0, 2))
        f, g = _block_coefficients(model, values, b0, b1, controls)
        g_sq = None if g is None else g**2
        for k, r in enumerate(rows):
            run = NodeRun(StoppedView(grid, values[r], b1 - 1), ts, now[:, r])
            f_r = None if f is None else f[:, r]
            g_sq_r = None if g_sq is None else g_sq[:, r]
            now_a = None if a_eigs is None else run.now * a_eigs
            for phi, phi_totals in zip(phis, totals):
                term = phi.dt_fn(run)
                dmu = None
                if now_a is not None:
                    dmu = phi.dmu_fn(run, run)
                    term = term + _row_means(now_a * dmu)
                if f_r is not None:
                    if dmu is None:
                        dmu = phi.dmu_fn(run, run)
                    term = term + _row_means(f_r * dmu)
                if g_sq_r is not None:
                    diag = np.diagonal(phi.dxdmu_fn(run, run), axis1=-2, axis2=-1)
                    term = term + 0.5 * _row_means(g_sq_r * diag)
                # one node at a time: neither np.sum (pairwise) nor the
                # builtin sum (compensated on Python >= 3.12) keeps the order
                for v in (term * grid.dt).tolist():
                    phi_totals[k] += v
    return totals


def ito_verify(
    phi,
    model: ModelSpec,
    init: InitialLaw,
    t: float,
    s: float,
    n_particles: int = 4000,
    seed: int = 0,
    policy=None,
    n_batches: int = 8,
    dt_coeff: float = 10.0,
    noise: np.ndarray | None = None,
):
    """Check the functional Ito formula on a particle ensemble.

    X is the mild solution of the state equation `model`, one `integrate` run
    from t to s driven by `policy` (the paths stay constant after s).  The
    right-hand side carries the horizontal, first-order and trace terms, and
    the <X_r, A* d_mu phi> generator term when A has a nonzero eigenvalue; the
    report's model field is then "mild:<tag>".  A plain Ito process is the
    model with A = 0 (`ito_process`).  LHS and RHS are computed on the full
    ensemble; the Monte Carlo standard error comes from the n_batches disjoint
    particle batches b::n_batches, and the pass gate is
    |residual| <= 3 * stderr + dt_coeff * dt.

    `phi` is one functional, which gives one ItoReport, or a sequence of
    functionals, all checked on one simulated ensemble, which gives their
    reports in order.

    `noise` has `integrate`'s meaning and shape check: an (N, M, d) block
    that replaces the increments drawn from `seed`.  Checks that share one
    seed pass the block they share, and it stays referenced by the caller.
    """
    single = isinstance(phi, CylindricalFunctional)
    phis = [phi] if single else list(phi)
    for p in phis:
        if not p.has_analytic:
            raise UnsupportedFunctionalError(
                f"ito_verify needs analytic derivatives; functional {p.tag!r} has none"
            )
        _require_differentiable(p)
    if n_batches < 2:
        raise DomainError(f"n_batches must be at least 2 for a standard error, got {n_batches}")
    if n_particles < n_batches:
        raise DomainError(
            f"n_particles ({n_particles}) must be at least n_batches ({n_batches}); "
            "every batch needs a particle"
        )

    if np.any(model.A.eigenvalues):
        a_eigs, tag = model.A.eigenvalues, f"mild:{model.tag}"
    else:
        a_eigs, tag = None, model.tag
    grid = model.grid
    j0, j1 = grid.node(t), grid.node(s)
    ens = integrate(
        model, init, policy, t0=t, n_particles=n_particles, seed=seed, noise=noise, t_end=s
    )
    values, controls = ens.values, ens.controls

    # the full ensemble, then batch b = particles b, b + n_batches, ...;
    # basic slices, so every set is a view in particle order
    rows = [slice(None)] + [slice(b, None, n_batches) for b in range(n_batches)]
    rhs_all = _rhs_quadrature(phis, model, values, j0, j1, rows, controls, a_eigs)
    t_lo, t_hi = grid.time_at(j0), grid.time_at(j1)
    reports = []
    for p, rhs in zip(phis, rhs_all):
        lhs = [
            p.eval(t_hi, StoppedView(grid, values[r], j1))
            - p.eval(t_lo, StoppedView(grid, values[r], j0))
            for r in rows
        ]
        residual = [a - b for a, b in zip(lhs, rhs)]
        stderr = float(np.std(residual[1:], ddof=1) / np.sqrt(n_batches))
        passed = abs(residual[0]) <= 3.0 * stderr + dt_coeff * grid.dt
        reports.append(ItoReport(p.tag, tag, lhs[0], rhs[0], residual[0], stderr, passed))
    return reports[0] if single else reports


# ---------------------------------------------------------------------------
# Consistency of derivatives across representations


@dataclass
class ConsistencyReport:
    ok: bool
    max_dt_gap: float
    max_dmu_gap: float
    max_sym_gap: float
    witnesses: list = field(default_factory=list)


def consistency_check(
    phi_a: CylindricalFunctional,
    phi_b: CylindricalFunctional,
    instances,
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> ConsistencyReport:
    """Two functionals with equal values must share all pathwise derivatives.

    Derivatives are compared through the finite-difference machinery so that
    the check is meaningful for members without analytic fields.  instances is
    an iterable of (t, mu) pairs; evals must agree to 1e-12 beforehand.
    """
    witnesses = []
    max_dt = max_dmu = max_sym = 0.0
    for t, mu in instances:
        va, vb = phi_a.eval(t, mu), phi_b.eval(t, mu)
        if abs(va - vb) > 1e-12 * max(1.0, abs(va)):
            raise ContractError(
                f"eval mismatch at t={t}: {va!r} vs {vb!r}; not the same functional"
            )
        da = horizontal_derivative(phi_a, t, mu)
        db = horizontal_derivative(phi_b, t, mu)
        gap_dt = abs(da - db)
        fa = measure_derivative_field(phi_a, t, mu, eps=eps)
        fb = measure_derivative_field(phi_b, t, mu, eps=eps)
        gap_dmu = float(np.abs(fa - fb).max())
        sa = second_derivative(phi_a, t, mu, 0, eps=eps).sym
        sb = second_derivative(phi_b, t, mu, 0, eps=eps).sym
        gap_sym = float(np.abs(sa - sb).max())
        max_dt = max(max_dt, gap_dt)
        max_dmu = max(max_dmu, gap_dmu)
        max_sym = max(max_sym, gap_sym)
        if gap_dt > tol or gap_dmu > tol or gap_sym > tol:
            witnesses.append(
                {"t": t, "dt_gap": gap_dt, "dmu_gap": gap_dmu, "sym_gap": gap_sym}
            )
    return ConsistencyReport(not witnesses, max_dt, max_dmu, max_sym, witnesses)
