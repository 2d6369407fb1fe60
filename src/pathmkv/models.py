"""Built-in model specifications used by the checkers, tests and the CLI.

Every factory returns a ModelSpec, checked when it is built, with batched
coefficients.  Tags:

  frozen          b = sigma = 0, A = 0: nothing moves.
  ou              dX = A X dt + s0 dB with A = diag(a); semigroup-exact mean.
  ou_drift        dX = -kappa X dt + s0 dB with A = 0: the decay sits in the
                  drift, so the scheme has a genuine O(dt) weak error (the
                  semigroup form is mean-exact and useless for order checks).
  meanfield_ou    dX = theta (mean(mu) - X) dt + s0 dB: mean-field coupling
                  through the running mean of the law.
  controlled_linear   dX = C u dt + s0 dB, terminal reward <q, X_T>.
  quadratic_terminal  OU dynamics with g = -|X_T|^2 (and optional running
                  cost c |X_t|^2), the uncontrolled DPP workhorse.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .hilbert import SpectralOperator
from .paths import TimeGrid
from .sde import ModelSpec


def _constant_diffusion(s0: float, d: int):
    """The diffusion coefficient s0 on every one of d coordinates, or None
    when s0 is 0 (the step then skips the noise term).

    It returns one read-only (d,) row, built once: the step kernel multiplies
    the row into the noise, and `ModelSpec.diffusion_at` broadcasts it to
    (N, d) for the readers that need the block."""
    if s0 == 0.0:
        return None
    row = np.full(d, float(s0))
    row.setflags(write=False)

    def diffusion(t, xs, mu, u, nu):
        return row

    return diffusion


def make_frozen(grid: TimeGrid, d: int = 1) -> ModelSpec:
    return ModelSpec(
        grid=grid,
        A=SpectralOperator(np.zeros(d)),
        lipschitz=0.0,
        tag="frozen",
    )


def make_ou(grid: TimeGrid, a: float = -1.0, s0: float = 0.5, d: int = 1) -> ModelSpec:
    return ModelSpec(
        grid=grid,
        A=SpectralOperator(np.full(d, a)),
        diffusion=_constant_diffusion(s0, d),
        lipschitz=abs(s0),
        tag="ou",
    )


def make_ou_drift(grid: TimeGrid, kappa: float = 1.0, s0: float = 0.1, d: int = 1) -> ModelSpec:

    def drift(t, xs, mu, u, nu):
        return -kappa * xs.values_now

    return ModelSpec(
        grid=grid,
        A=SpectralOperator(np.zeros(d)),
        drift=drift,
        diffusion=_constant_diffusion(s0, d),
        lipschitz=max(kappa, abs(s0)),
        tag="ou_drift",
    )


def make_meanfield_ou(
    grid: TimeGrid, theta: float = 1.0, s0: float = 0.0, d: int = 1
) -> ModelSpec:

    def drift(t, xs, mu, u, nu):
        return theta * (mu.mean_at(t)[None, :] - xs.values_now)

    return ModelSpec(
        grid=grid,
        A=SpectralOperator(np.zeros(d)),
        drift=drift,
        diffusion=_constant_diffusion(s0, d),
        lipschitz=max(theta, abs(s0)),
        tag="meanfield_ou",
    )


def make_meanfield_growth(grid: TimeGrid, theta: float = 1.0, s0: float = 0.0, d: int = 1) -> ModelSpec:
    """dX = theta * mean(mu) dt: the mean obeys dm = theta m dt, so the Picard
    iterates on the law reproduce the Taylor partial sums of e^{theta t} (the
    textbook contraction stress case)."""

    def drift(t, xs, mu, u, nu):
        return np.broadcast_to(theta * mu.mean_at(t), (xs.n, d)).copy()

    return ModelSpec(
        grid=grid,
        A=SpectralOperator(np.zeros(d)),
        drift=drift,
        diffusion=_constant_diffusion(s0, d),
        lipschitz=max(abs(theta), abs(s0)),
        tag="meanfield_growth",
    )


def make_controlled_linear(
    grid: TimeGrid,
    c: float = 1.0,
    s0: float = 0.0,
    q=None,
    d: int = 1,
    actions=None,
) -> ModelSpec:
    """dX = c u dt + s0 dB, reward g = <q, X_T>; the control enters linearly."""
    q = np.ones(d) if q is None else np.atleast_1d(np.asarray(q, dtype=float))

    def drift(t, xs, mu, u, nu):
        if u is None:
            return np.zeros((xs.n, d))
        if u.shape[1] > d:
            raise ConfigurationError(
                f"controlled_linear: actions of width {u.shape[1]} exceed the state dimension {d}"
            )
        out = np.zeros((xs.n, d))
        out[:, : u.shape[1]] = c * u
        return out

    def terminal(xs, mu):
        return xs.values_now @ q

    return ModelSpec(
        grid=grid,
        A=SpectralOperator(np.zeros(d)),
        drift=drift,
        diffusion=_constant_diffusion(s0, d),
        terminal_cost=terminal,
        lipschitz=abs(s0),
        actions=actions,
        growth_h=lambda w: float(np.linalg.norm(q)) + 1.0,
        tag="controlled_linear",
    )


def make_quadratic_terminal(
    grid: TimeGrid,
    a: float = -1.0,
    s0: float = 0.5,
    running: float = 0.0,
    d: int = 1,
) -> ModelSpec:
    """Uncontrolled OU with g = -|X_T|^2 and optional running cost c |X_t|^2."""

    def running_cost(t, xs, mu, u, nu):
        return running * (xs.values_now**2).sum(axis=1)

    def terminal(xs, mu):
        return -(xs.values_now**2).sum(axis=1)

    return ModelSpec(
        grid=grid,
        A=SpectralOperator(np.full(d, a)),
        diffusion=_constant_diffusion(s0, d),
        running_cost=running_cost if running != 0.0 else None,
        terminal_cost=terminal,
        lipschitz=abs(s0),
        growth_h=lambda w: max(1.0, abs(running)),
        tag="quadratic_terminal",
    )


MODEL_FACTORIES = {
    "frozen": make_frozen,
    "ou": make_ou,
    "ou_drift": make_ou_drift,
    "meanfield_ou": make_meanfield_ou,
    "meanfield_growth": make_meanfield_growth,
    "controlled_linear": make_controlled_linear,
    "quadratic_terminal": make_quadratic_terminal,
}


def build_model(tag: str, grid: TimeGrid, **params) -> ModelSpec:
    if tag not in MODEL_FACTORIES:
        raise ConfigurationError(
            f"unknown model tag {tag!r}; known: {sorted(MODEL_FACTORIES)}"
        )
    try:
        return MODEL_FACTORIES[tag](grid, **params)
    except (TypeError, ValueError) as exc:  # a param of the wrong shape for the model
        raise ConfigurationError(f"bad parameters for model {tag!r}: {exc}") from exc
