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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    UnsupportedFunctionalError,
)
from .hilbert import GENERATOR, HilbertVec, SpaceSpec, SpectralOperator
from .measure import EmpiricalPathMeasure, stopped_measure
from .paths import PathGrid, bump
from .sde import InitialLaw, ModelSpec, StoppedView, _exp_euler_steps, _recorded_args, integrate


@dataclass
class CylindricalFunctional:
    """A test functional phi(t, mu) with optional closed-form derivatives.

    The derivative callables are vectorized over query points: dmu_fn and
    dxdmu_fn receive the (K, d) matrix of path values at the node of t and
    return (K, d) resp. (K, d, d).  differentiable=False marks members (the
    running sup-norm square) whose eval is fine but whose vertical derivative
    falls outside the admissible class; derivative operations on them raise
    UnsupportedFunctionalError.
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
        return float(self.dt_fn(t, mu))

    def dmu_field(self, t: float, mu) -> np.ndarray:
        return np.asarray(self.dmu_fn(t, mu, mu.values_at(t)), dtype=float)

    def dmu_at(self, t: float, mu, x: PathGrid) -> HilbertVec:
        xs = x.values[mu.grid.node(t)][None, :]
        return HilbertVec(np.asarray(self.dmu_fn(t, mu, xs), dtype=float)[0])

    def dxdmu_field(self, t: float, mu) -> np.ndarray:
        out = np.asarray(self.dxdmu_fn(t, mu, mu.values_at(t)), dtype=float)
        if out.ndim == 2:
            out = np.broadcast_to(out, (mu.values_at(t).shape[0],) + out.shape)
        return out


@dataclass(frozen=True)
class LiftedSample:
    """The pair (empirical measure, atom index): xi-hat under the empirical lifting."""

    measure: EmpiricalPathMeasure
    index: int

    def lifted_eval(self, phi: CylindricalFunctional, t: float) -> float:
        # The lifting is defined through the law, so the identity
        # Phi(t, xi) = phi(t, P_xi) is structural and bit-exact.
        return phi.eval(t, self.measure)

    def bumped(self, t: float, h: HilbertVec, scale: float = 1.0) -> "LiftedSample":
        atom = self.measure.atom_path(self.index)
        new = bump(atom, t, scale * h)
        return LiftedSample(self.measure.replace_atom(self.index, new), self.index)


# ---------------------------------------------------------------------------
# Built-in zoo


def linear_mean(h) -> CylindricalFunctional:
    """phi(t, mu) = integral of <x_t, h>."""
    h = np.atleast_1d(np.asarray(h, dtype=float))

    def ev(t, mu):
        return mu.weights @ (mu.values_at(t) @ h)

    return CylindricalFunctional(
        tag="linear_mean",
        eval_fn=ev,
        dt_fn=lambda t, mu: 0.0,
        dmu_fn=lambda t, mu, xs: np.broadcast_to(h, xs.shape).copy(),
        dxdmu_fn=lambda t, mu, xs: np.zeros((xs.shape[0], h.size, h.size)),
    )


def mean_squared(h) -> CylindricalFunctional:
    """phi(t, mu) = (integral of <x_t, h>)^2, the square of the mean."""
    h = np.atleast_1d(np.asarray(h, dtype=float))

    def _mean(t, mu):
        return mu.weights @ (mu.values_at(t) @ h)

    def dmu(t, mu, xs):
        return np.broadcast_to(2.0 * _mean(t, mu) * h, xs.shape).copy()

    return CylindricalFunctional(
        tag="mean_squared",
        eval_fn=lambda t, mu: _mean(t, mu) ** 2,
        dt_fn=lambda t, mu: 0.0,
        dmu_fn=dmu,
        dxdmu_fn=lambda t, mu, xs: np.zeros((xs.shape[0], h.size, h.size)),
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
        dt_fn=lambda t, mu: 0.0,
        dmu_fn=lambda t, mu, xs: 2.0 * xs * q,
        dxdmu_fn=lambda t, mu, xs: np.broadcast_to(
            2.0 * np.diag(q), (xs.shape[0], q.size, q.size)
        ).copy(),
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
        dt_fn=lambda t, mu: 0.0,
        dmu_fn=lambda t, mu, xs: xs @ (Q + Q.T),
        dxdmu_fn=lambda t, mu, xs: np.broadcast_to(
            Q + Q.T, (xs.shape[0],) + Q.shape
        ).copy(),
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
        dt_fn=lambda t, mu: float(base.eval_fn(t, mu)),
        dmu_fn=lambda t, mu, xs: t * np.broadcast_to(h, xs.shape),
        dxdmu_fn=lambda t, mu, xs: np.zeros((xs.shape[0], h.size, h.size)),
    )


def time_quadratic_mean(h) -> CylindricalFunctional:
    """phi(t, mu) = t^2 * integral of <x_t, h>; curved in t, for Richardson checks."""
    base = linear_mean(h)
    h = np.atleast_1d(np.asarray(h, dtype=float))
    return CylindricalFunctional(
        tag="time_quadratic_mean",
        eval_fn=lambda t, mu: t**2 * base.eval_fn(t, mu),
        dt_fn=lambda t, mu: 2.0 * t * float(base.eval_fn(t, mu)),
        dmu_fn=lambda t, mu, xs: t**2 * np.broadcast_to(h, xs.shape),
        dxdmu_fn=lambda t, mu, xs: np.zeros((xs.shape[0], h.size, h.size)),
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


@dataclass
class HorizontalDerivative:
    value: float
    analytic: float | None
    t: float
    delta: float


def horizontal_derivative(
    phi: CylindricalFunctional,
    t: float,
    mu: EmpiricalPathMeasure,
    dt_fd: float | None = None,
    with_diagnostics: bool = False,
):
    """Forward difference [phi(t + delta, mu stopped at t) - phi(t, mu)] / delta.

    delta is snapped to a multiple of the grid step.  At t = T the defining
    limit runs from the left: the difference quotient is evaluated on a
    decreasing-t ladder and extrapolated linearly to T.  When the functional
    carries an analytic time derivative it is reported alongside.
    """
    grid = mu.grid
    delta = grid.dt if dt_fd is None else max(1, round(dt_fd / grid.dt)) * grid.dt
    _check_nonanticipative(phi, t, mu)
    j = grid.node(t)
    frozen = stopped_measure(mu, t)
    if j == grid.steps:
        v1 = _fd_quotient(phi, grid.T - delta, frozen, delta)
        v2 = _fd_quotient(phi, grid.T - 2 * delta, frozen, delta)
        value = 2 * v1 - v2
    else:
        delta = min(delta, grid.T - grid.time_at(j))
        value = _fd_quotient(phi, grid.time_at(j), frozen, delta)
    analytic = phi.dt(t, mu) if phi.dt_fn is not None else None
    if with_diagnostics:
        return HorizontalDerivative(value, analytic, t, delta)
    return value


def _fd_quotient(phi, t, mu, delta):
    frozen = stopped_measure(mu, t)
    return (phi.eval(t + delta, frozen) - phi.eval(t, frozen)) / delta


def measure_derivative_discrete(
    phi: CylindricalFunctional,
    t: float,
    mu: EmpiricalPathMeasure,
    i: int,
    h: HilbertVec,
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
    p_i = mu.weights[i]

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
            e_k = HilbertVec(np.eye(d)[k])
            out[i, k] = measure_derivative_discrete(
                phi, t, mu, i, e_k, eps=eps, richardson=richardson
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
                measure_derivative_discrete(phi, t, measure, x_index, HilbertVec(basis[l]), eps=eps)
                for l in range(d)
            ]
        )

    g0 = grad_at(mu)
    mat = np.empty((d, d))
    for k in range(d):
        bumped = bump(mu.atom_path(x_index), t, eps * HilbertVec(basis[k]))
        g1 = grad_at(mu.replace_atom(x_index, bumped))
        mat[:, k] = (g1 - g0) / eps
    return SecondDerivative(mat, 0.5 * (mat + mat.T))


# ---------------------------------------------------------------------------
# Functional Ito verifier


@dataclass
class ItoProcessSpec:
    """Drift/diffusion of the plain Ito process X = xi + int F dr + int G dB.

    F(t, x_now) -> (N, d); G(t, x_now) -> (N, n_sigma) diagonal entries.
    """

    F: object = None
    G: object = None
    tag: str = "ito_process"


def const_drift_spec(c, tag=None) -> ItoProcessSpec:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return ItoProcessSpec(
        F=lambda t, x: np.broadcast_to(c, x.shape).copy(),
        tag=tag or f"F=const{c.tolist()},G=0",
    )


def const_diffusion_spec(s0, d_sigma=None, tag=None) -> ItoProcessSpec:
    return ItoProcessSpec(
        G=lambda t, x: np.full((x.shape[0], d_sigma or x.shape[1]), s0),
        tag=tag or f"F=0,G={s0}",
    )


def drift_diffusion_spec(c, s0) -> ItoProcessSpec:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return ItoProcessSpec(
        F=lambda t, x: np.broadcast_to(c, x.shape).copy(),
        G=lambda t, x: np.full(x.shape, s0),
        tag=f"F=const{c.tolist()},G={s0}",
    )


def linear_drift_diffusion_spec(kappa, s0) -> ItoProcessSpec:
    return ItoProcessSpec(
        F=lambda t, x: -kappa * x,
        G=lambda t, x: np.full(x.shape, s0),
        tag=f"F=-{kappa}x,G={s0}",
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
    dt: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "functional": self.functional,
                "model": self.model,
                "lhs": self.lhs,
                "rhs": self.rhs,
                "residual": self.residual,
                "stderr": self.stderr,
                "pass": self.passed,
            },
            sort_keys=True,
        )


def _process_model(process: ItoProcessSpec, grid, d: int) -> ModelSpec:
    """The plain Ito process as a state equation with A = 0, whose coefficients
    F and G read the current node of the paths."""

    def lift(fn):
        return None if fn is None else (lambda t, xs, mu, u, nu: fn(t, xs.values_now))

    return ModelSpec(
        space=SpaceSpec(d),
        grid=grid,
        A=SpectralOperator(np.zeros(d), kind=GENERATOR),
        drift=lift(process.F),
        diffusion=lift(process.G),
        tag=process.tag,
    )


def _precompute_coefficients(model, values, j0, j1, controls=None):
    """Per-node drift and diffusion (None where the model has none), evaluated
    once on the full ensemble so that every particle batch sees the processes
    that actually drove it."""
    f_arr = {}
    g_arr = {}
    for j in range(j0, j1):
        args = _recorded_args(model.grid, values, controls, j)
        f_arr[j] = model.drift_at(*args) if model.drift is not None else None
        g_arr[j] = model.diffusion_at(*args) if model.diffusion is not None else None
    return f_arr, g_arr


def _rhs_quadrature(phi, grid, values, j0, j1, rows, f_arr, g_arr, a_eigs=None):
    """Left-endpoint quadrature of the integral terms, one total per particle
    set values[r] for r in rows.  One pass over the nodes serves every set;
    each set's derivative fields read that set's own law."""
    subs = [values[r] for r in rows]
    totals = [0.0] * len(rows)
    for j in range(j0, j1):
        tt = grid.time_at(j)
        for k, (r, sub) in enumerate(zip(rows, subs)):
            law = StoppedView(grid, sub, j)
            x = sub[:, j, :]
            term = phi.dt(tt, law)
            dmu = None
            if a_eigs is not None:
                dmu = np.asarray(phi.dmu_fn(tt, law, x), dtype=float)
                term += float(((x * a_eigs) * dmu).sum(axis=1).mean())
            if f_arr[j] is not None:
                if dmu is None:
                    dmu = np.asarray(phi.dmu_fn(tt, law, x), dtype=float)
                term += float((f_arr[j][r] * dmu).sum(axis=1).mean())
            if g_arr[j] is not None:
                g_now = g_arr[j][r]
                dxdmu = np.asarray(phi.dxdmu_fn(tt, law, x), dtype=float)
                if dxdmu.ndim == 2:
                    dxdmu = np.broadcast_to(dxdmu, (x.shape[0],) + dxdmu.shape)
                ns = g_now.shape[1]
                diag = np.einsum("nkk->nk", dxdmu[:, :ns, :ns])
                term += 0.5 * float((g_now**2 * diag).sum(axis=1).mean())
            totals[k] += term * grid.dt
    return totals


def ito_verify(
    phi,
    grid,
    init: InitialLaw,
    t: float,
    s: float,
    n_particles: int = 4000,
    seed: int = 0,
    process: ItoProcessSpec | None = None,
    model: ModelSpec | None = None,
    policy=None,
    d: int = 1,
    n_batches: int = 8,
    dt_coeff: float = 10.0,
):
    """Check the functional Ito formula on a particle ensemble.

    With `process` given, X is the plain Ito process xi + int F dr + int G dB
    and the right-hand side carries the horizontal, first-order and trace
    terms.  With `model` given, X is the mild solution of the state equation
    and the right-hand side additionally carries the <X_r, A* d_mu phi> term.
    LHS and RHS are computed on the full ensemble; the Monte Carlo standard
    error comes from the n_batches disjoint particle batches b::n_batches, and
    the pass gate is |residual| <= 3 * stderr + dt_coeff * dt.

    `phi` is one functional, which gives one ItoReport, or a sequence of
    functionals, all checked on one simulated ensemble, which gives their
    reports in order.
    """
    single = isinstance(phi, CylindricalFunctional)
    phis = [phi] if single else list(phi)
    for p in phis:
        if not p.has_analytic:
            raise UnsupportedFunctionalError(
                f"ito_verify needs analytic derivatives; functional {p.tag!r} has none"
            )
        _require_differentiable(p)
    if (process is None) == (model is None):
        raise ConfigurationError("pass exactly one of process= or model=")
    if n_batches < 2:
        raise DomainError(f"n_batches must be at least 2 for a standard error, got {n_batches}")
    if n_particles < n_batches:
        raise DomainError(
            f"n_particles ({n_particles}) must be at least n_batches ({n_batches}); "
            "every batch needs a particle"
        )

    if model is not None:
        grid = model.grid
    j0, j1 = grid.node(t), grid.node(s)
    if model is not None:
        ens = integrate(model, init, policy, t0=t, n_particles=n_particles, seed=seed)
        values = ens.values
        controls = ens.controls
        a_eigs = model.A.eigenvalues
        tag = f"mild:{model.tag}"
    else:
        # X = xi + int F dr + int G dB: the step kernel with e^{dt*A} = 1.
        model = _process_model(process, grid, d)
        values = np.empty((n_particles, grid.steps + 1, d))
        values[:, : j0 + 1] = init.sample(seed, n_particles, grid, d)[:, : j0 + 1]
        noise = _rng.brownian_increments(seed, n_particles, grid.steps, d, grid.dt)
        _exp_euler_steps(model, values, values, noise, j0, j1, 1.0)
        values[:, j1 + 1 :, :] = values[:, j1 : j1 + 1, :]
        controls = None
        a_eigs = None
        tag = process.tag

    f_arr, g_arr = _precompute_coefficients(model, values, j0, j1, controls)
    # the full ensemble, then batch b = particles b, b + n_batches, ...;
    # basic slices, so every set is a view in particle order
    rows = [slice(None)] + [slice(b, None, n_batches) for b in range(n_batches)]
    t_lo, t_hi = grid.time_at(j0), grid.time_at(j1)
    reports = []
    for p in phis:
        rhs = _rhs_quadrature(p, grid, values, j0, j1, rows, f_arr, g_arr, a_eigs)
        lhs = [
            p.eval(t_hi, StoppedView(grid, values[r], j1))
            - p.eval(t_lo, StoppedView(grid, values[r], j0))
            for r in rows
        ]
        residual = [a - b for a, b in zip(lhs, rhs)]
        stderr = float(np.std(residual[1:], ddof=1) / np.sqrt(n_batches))
        passed = abs(residual[0]) <= 3.0 * stderr + dt_coeff * grid.dt
        reports.append(ItoReport(p.tag, tag, lhs[0], rhs[0], residual[0], stderr, passed, grid.dt))
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
