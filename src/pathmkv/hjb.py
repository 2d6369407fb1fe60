"""Hamiltonian evaluation for the master Bellman equation.

Integrands are batched over atoms like the model coefficients: F.fn(xs, u, nu)
returns the (K,) values at the K atoms of the law xs under the (K, m) per-atom
actions u, so each form calls it once per action or randomization level.

On a finitely supported measure the supremum of an integrand without a
control-law argument has two forms that must coincide: an enumeration over
per-atom maps and the per-atom essential supremum, taken on a box U at each
atom's maximizer of a separable concave quadratic.  Floating-point equality
is arranged, not hoped for: on a finite U both accumulate the same weighted
addends in the same atom order, and float addition is monotone, so the
per-atom-argmax map realizes the esssup sum bit for bit.  With a control-law
argument the supremum needs measurable randomization; the randomized
enumerator mixes per-atom actions over a finite grid of levels, dominates the
deterministic forms, and hands a nu-free integrand to the esssup.

`hjb_residual` evaluates the master Bellman equation on a candidate solution,
a `calculus.CylindricalFunctional` with analytic derivative fields; the A*
field of its generator term is the measure-derivative field weighted by the
model's diagonal generator eigenvalues.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .calculus import CylindricalFunctional
from .control import BoxActionSet, FiniteActionSet
from .errors import (
    CapacityError,
    ConfigurationError,
    ContractError,
    DomainError,
)
from .hilbert import SpectralOperator, vector
from .measure import EmpiricalControlMeasure, EmpiricalPathMeasure, StoppedView
from .sde import ModelSpec

ENUMERATION_CAP = 10**6


@dataclass
class HamiltonianIntegrand:
    """F(x_i, u_i, nu) at the K atoms of a law, batched like every model
    coefficient: fn(xs, u, nu) takes the law xs, the (K, m) per-atom actions u
    (one action is the broadcast case) and the control law nu or None, and
    returns shape (K,).  Assembled from model pieces and candidate-solution
    derivatives at a fixed (t, mu); nu_dependent must be declared so the
    deterministic forms can refuse integrands they cannot maximize.
    """

    fn: object
    nu_dependent: bool = False
    tag: str = "F"

    def __call__(self, xs, u, nu=None) -> np.ndarray:
        out = np.asarray(self.fn(xs, u, nu), dtype=float)
        if out.shape != (xs.n_atoms,):
            raise ContractError(
                f"integrand {self.tag!r} returned shape {out.shape}; "
                f"it must return one value per atom, shape ({xs.n_atoms},)"
            )
        return out


def _accumulate(seq) -> float:
    # Plain left-to-right accumulation; shared by every Hamiltonian form so
    # that equal addend sequences give bitwise-equal sums.
    total = 0.0
    for v in seq:
        total += v
    return total


def _atom_action_values(F, mu, actions) -> np.ndarray:
    """vals[i, l] = p_i * F(x_i, u_l), the shared addends of all forms; one call per u_l."""
    k, q = mu.n_atoms, actions.shape[0]
    vals = np.empty((k, q))
    for l in range(q):
        vals[:, l] = mu.weights * F(mu, np.broadcast_to(actions[l], (k, actions.shape[1])))
    return vals


def _box_argmax(lin, curv, box) -> np.ndarray:
    """argmax over the box of the separable <lin, u> - <curv u, u>, curv >= 0:
    coordinatewise the stationary point projected onto the box, or the vertex
    on lin's side where curv == 0."""
    flat = curv == 0
    stationary = 0.5 * lin / np.where(flat, 1.0, curv)
    return box.clip(np.where(flat, np.copysign(np.inf, lin), stationary))


def _esssup(F, mu, action_set) -> float:
    """sum_i p_i sup_u F(x_i, u) for a nu-free F, over deterministic and
    randomized assignments alike: the max over a finite U, or on a box the
    value at each atom's maximizer of the separable concave quadratic read off
    F at u = 0 and u = +-e_k (a curvature within rounding of 0 is linear) and
    checked at one action with no zero coordinate."""
    if isinstance(action_set, FiniteActionSet):
        return _accumulate(_atom_action_values(F, mu, action_set.points).max(axis=1))
    if not isinstance(action_set, BoxActionSet):
        raise ContractError(f"sup of {F.tag!r} needs a finite or a box U, got {type(action_set).__name__}")
    k, m = mu.n_atoms, action_set.m
    probes = np.concatenate([np.zeros((1, m)), np.eye(m), -np.eye(m), np.full((1, m), 0.5)])
    vals = np.stack([F(mu, np.broadcast_to(u, (k, m))) for u in probes], axis=1)
    f0, plus, minus = vals[:, :1], vals[:, 1 : m + 1], vals[:, m + 1 : 2 * m + 1]
    lin, curv = 0.5 * (plus - minus), f0 - 0.5 * (plus + minus)
    tol = 1e-12 * np.abs(vals).max(axis=1, keepdims=True)
    miss = f0[:, 0] + (lin * probes[-1] - curv * probes[-1] ** 2).sum(axis=1) - vals[:, -1]
    if np.any(curv < -tol) or np.any(np.abs(miss) > tol[:, 0]):
        raise ContractError(f"integrand {F.tag!r} is not a separable concave quadratic in u on the box")
    u_star = _box_argmax(lin, np.where(curv > tol, curv, 0.0), action_set)
    return _accumulate(mu.weights * F(mu, u_star))


def hamiltonian_sup_finite(
    F: HamiltonianIntegrand,
    mu: EmpiricalPathMeasure,
    action_set,
    form: str = "esssup",
):
    """sup over measurable control assignments of E[F(xi, a)].

    form="esssup": sum_i p_i sup_u F(x_i, u), on a finite U or a box.
    form="maps":   enumerate all maps a: supp(mu) -> U of a finite U, on a
                   finite support all the measurable assignments.
    Both coincide exactly.
    """
    if F.nu_dependent:
        raise ConfigurationError(
            "deterministic Hamiltonian forms need a nu-free integrand; "
            "use hamiltonian_sup_randomized"
        )
    if form not in ("esssup", "maps"):
        raise DomainError(f"unknown Hamiltonian form {form!r}")
    if form == "esssup":
        return _esssup(F, mu, action_set)

    if not isinstance(action_set, FiniteActionSet):
        raise ContractError(f"the map enumeration of {F.tag!r} needs a finite U, got {type(action_set).__name__}")
    actions = action_set.points
    k, q = mu.n_atoms, actions.shape[0]
    if q**k > ENUMERATION_CAP:
        raise CapacityError(
            f"map enumeration needs {q}^{k} evaluations",
            suggestion="use form='esssup'",
        )
    vals = _atom_action_values(F, mu, actions)
    best = -math.inf
    for assignment in itertools.product(range(q), repeat=k):
        value = _accumulate(vals[i, assignment[i]] for i in range(k))
        if value > best:
            best = value
    return best


def hamiltonian_sup_randomized(
    F: HamiltonianIntegrand,
    mu: EmpiricalPathMeasure,
    action_set,
    grid_weights=None,
) -> float:
    """sup over randomized measurable assignments a(x_i, r) on a finite grid
    of randomization levels r with the given mixing weights.

    The induced control law nu = sum_{i,g} p_i w_g delta_{a(i,g)} enters F, so
    this dominates the deterministic forms and is strictly better exactly when
    randomizing the law pays (the Wasserstein-penalty integrands).  A nu-free
    integrand gains nothing from randomizing: its supremum is the per-atom
    esssup, taken without enumerating.
    """
    w = None if grid_weights is None else np.asarray(grid_weights, dtype=float)
    if w is not None and (abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0)):
        raise ConfigurationError("randomization grid weights must be a probability vector")
    if not F.nu_dependent:
        return _esssup(F, mu, action_set)
    if not isinstance(action_set, FiniteActionSet):
        raise ContractError(f"the randomized enumeration of {F.tag!r} needs a finite U, got {type(action_set).__name__}")
    actions = action_set.points
    k, q = mu.n_atoms, actions.shape[0]
    w = np.full(q, 1.0 / q) if w is None else w
    g = w.size
    if q ** (k * g) > ENUMERATION_CAP:
        raise CapacityError(
            f"randomized enumeration needs {q}^{k * g} evaluations",
            suggestion="coarsen the randomization grid",
        )
    joint_w = np.outer(mu.weights, w)  # (k, g); its ravel is indexed i*g + gi
    best = -math.inf
    for assignment in itertools.product(range(q), repeat=k * g):
        chosen = actions[list(assignment)]  # row i*g + gi: atom i at level gi
        nu = EmpiricalControlMeasure(chosen, joint_w.ravel())
        levels = np.stack([F(mu, chosen[gi::g], nu) for gi in range(g)], axis=1)
        value = _accumulate((joint_w * levels).ravel())
        if value > best:
            best = value
    return best


# ---------------------------------------------------------------------------
# Investment Hamiltonian, closed form


@dataclass
class InvestmentHamiltonian:
    u_star: np.ndarray
    value: float


def investment_hamiltonian_closed_form(
    p: np.ndarray,
    t: float,
    r: float,
    a2: np.ndarray,
    C: SpectralOperator,
    M: SpectralOperator,
    box,
) -> InvestmentHamiltonian:
    """Maximize <C u, p> - e^{-rt} (<a2, u> + <M u, u>) over the box U.

    With diagonal positive M the objective separates across coordinates, so
    the unconstrained maximizer u* = (1/2) M^{-1} (e^{rt} C* p - a2) projects
    onto the box coordinatewise.  The state-linear reward weight of the
    investment cost does not enter the maximization over u, so it is no
    argument.
    """
    # the box too: a bound of another length would broadcast over u
    p, a2, m, _, _ = (vector(x, C.dim) for x in (p, a2, M.eigenvalues, box.lo, box.hi))
    if np.any(m <= 0):
        raise DomainError("M must have strictly positive eigenvalues")
    disc = math.exp(-r * t)
    q_vec = math.exp(r * t) * (C.eigenvalues * p) - a2
    u_star = _box_argmax(q_vec, m, box)

    def objective(u):
        return float(np.dot(C.eigenvalues * u, p) - disc * (np.dot(a2, u) + np.dot(m * u, u)))

    return InvestmentHamiltonian(u_star, objective(u_star))


# ---------------------------------------------------------------------------
# HJB residual for candidate classical solutions


def hamiltonian_from_model(
    model: ModelSpec, phi: CylindricalFunctional, t: float, mu: EmpiricalPathMeasure
) -> HamiltonianIntegrand:
    """F(x, u, nu) = f + <b, d_mu phi(x)> + (1/2) Tr(sigma sigma* d2 phi(x))
    at the fixed (t, mu) on mu's atoms; the trace reads the diagonal of d2
    phi, which symmetrizing it would leave as is.

    mu is stopped at t: the coefficients receive StoppedView.of(mu, t) as xs
    and mu, as in integrate, and the derivative fields are evaluated on it once."""
    law = StoppedView.of(mu, t)
    dmu = np.ascontiguousarray(phi.dmu_field(t, law))[:, :, None]
    if model.diffusion is not None:
        d2_diag = np.diagonal(phi.dxdmu_field(t, law), axis1=1, axis2=2)

    def fn(xs, u, nu):
        # contiguous rows: each atom's <b, d_mu phi> is one BLAS dot, as np.dot takes it
        b = np.ascontiguousarray(model.drift_at(t, law, law, u, nu))
        total = model.running_cost_at(t, law, law, u, nu) + (b[:, None, :] @ dmu)[:, 0, 0]
        if model.diffusion is not None:
            s = model.diffusion_at(t, law, law, u, nu)
            total += 0.5 * (s**2 * d2_diag).sum(axis=1)
        return total

    return HamiltonianIntegrand(fn, nu_dependent=False, tag=f"model:{model.tag}")


@dataclass
class HjbResidualReport:
    residual: float
    terminal_gap: float
    dt_term: float
    a_star_term: float
    hamiltonian: float


def hjb_residual(
    phi: CylindricalFunctional,
    model: ModelSpec,
    t: float,
    mu: EmpiricalPathMeasure,
) -> HjbResidualReport:
    """Evaluate the master-equation residual of a candidate solution phi at (t, mu):

        residual = dt phi + E<xi_t, A* d_mu phi(xi)> + sup-form Hamiltonian,

    the supremum taken over the model's action set U, plus the terminal gap
    |phi(T, mu) - E g|.  Both are reported without a pass/fail verdict; this
    is a verification tool for supplied candidates.  Every term reads mu
    stopped at its time, as in hamiltonian_from_model.
    """
    grid = model.grid
    law = StoppedView.of(mu, t)
    dt_term = phi.dt(t, law)
    a_field = phi.dmu_field(t, law) * model.A.eigenvalues
    xi_t = law.values_at(t)
    a_star_term = float(law.weights @ (xi_t * a_field).sum(axis=1))
    F = hamiltonian_from_model(model, phi, t, mu)
    ham = hamiltonian_sup_finite(F, mu, model.actions, form="esssup")
    residual = dt_term + a_star_term + ham

    end = StoppedView.of(mu, grid.T)
    g_vals = model.terminal_cost_at(end, end)
    terminal_gap = abs(phi.eval(grid.T, end) - float(end.weights @ g_vals))
    return HjbResidualReport(residual, terminal_gap, dt_term, a_star_term, ham)
