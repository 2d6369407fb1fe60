"""Control policies, the reward functional, Monte Carlo value estimation, and
the statistical checkers for dynamic programming and law invariance.

Values are estimated only over declared policy families: the estimator is a
lower bound on the true supremum, and every check below is phrased so that it
is valid for a family-restricted value (or exact in the uncontrolled case).
Common random numbers across family members come for free from the
counter-based noise streams, which are keyed by (seed, particle, step) and
never by the family index; that is what makes family-monotonicity exact
rather than statistical.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .measure import StoppedView
from .sde import InitialLaw, ModelSpec, ParticleEnsemble, _recorded_args, integrate


class ContractWarning(UserWarning):
    """Raised (as a warning) when a declared growth envelope fails a spot check."""


# ---------------------------------------------------------------------------
# Action sets and policies


@dataclass(frozen=True)
class FiniteActionSet:
    """U as a finite list of points in R^m; points has shape (q, m)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]

    def contains(self, u) -> bool:
        return bool(np.any(np.all(np.isclose(self.points, u, atol=1e-12), axis=1)))

    def contains_batch(self, u: np.ndarray) -> bool:
        dists = np.abs(u[:, None, :] - self.points[None, :, :]).max(axis=2)
        return bool(np.all(dists.min(axis=1) <= 1e-12))

    def sample(self, rand, n) -> np.ndarray:
        return self.points[rand.integers(0, self.size, size=n)]


@dataclass(frozen=True)
class BoxActionSet:
    """U as a compact box [lo, hi] in R^m."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ConfigurationError("box bounds must satisfy lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def m(self) -> int:
        return self.lo.shape[0]

    def contains(self, u) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.lo - 1e-12) and np.all(u <= self.hi + 1e-12))

    def contains_batch(self, u: np.ndarray) -> bool:
        return bool(np.all(u >= self.lo - 1e-12) and np.all(u <= self.hi + 1e-12))

    def clip(self, u) -> np.ndarray:
        return np.clip(u, self.lo, self.hi)

    def sample(self, rand, n) -> np.ndarray:
        return rand.uniform(self.lo, self.hi, size=(n, self.m))


class OpenLoopPolicy:
    """Deterministic action path u(t); constant vectors are the common case."""

    needs_randomizer = False
    square_integrable = True

    def __init__(self, u_of_t, tag="open_loop"):
        if not callable(u_of_t):
            const = np.atleast_1d(np.asarray(u_of_t, dtype=float))
            self._fn = lambda t: const
            self.tag = f"const{const.tolist()}"
        else:
            self._fn = u_of_t
            self.tag = tag

    def actions(self, t, xs: StoppedView, mu, randomizers) -> np.ndarray:
        u = np.atleast_1d(np.asarray(self._fn(t), dtype=float))
        return np.broadcast_to(u, (xs.n, u.size)).copy()


class FeedbackPolicy:
    """u = fn(t, stopped paths, stopped law), batched over particles."""

    needs_randomizer = False
    square_integrable = True

    def __init__(self, fn, tag="feedback"):
        self._fn = fn
        self.tag = tag

    def actions(self, t, xs, mu, randomizers) -> np.ndarray:
        return np.asarray(self._fn(t, xs, mu), dtype=float)


class RandomizedPolicy:
    """u = fn(t, stopped paths, stopped law, r) with an independent uniform
    randomizer r per particle (the measurable-randomization mechanism)."""

    needs_randomizer = True
    square_integrable = True

    def __init__(self, fn, tag="randomized"):
        self._fn = fn
        self.tag = tag

    def actions(self, t, xs, mu, randomizers) -> np.ndarray:
        return np.asarray(self._fn(t, xs, mu, randomizers), dtype=float)


def constant_policy(u) -> OpenLoopPolicy:
    return OpenLoopPolicy(u)


# ---------------------------------------------------------------------------
# Reward and value estimation


@dataclass
class ValueEstimate:
    mean: float
    stderr: float
    n_particles: int
    n_steps: int
    seed: int


def _per_particle_reward(model: ModelSpec, ensemble: ParticleEnsemble, t0, t_end=None):
    """Running cost (left endpoint) plus terminal cost per particle.

    Coefficients are re-evaluated on the final paths; values up to node j were
    final when step j ran, so these are the integration-time evaluations.
    """
    grid = model.grid
    j0 = grid.node(t0)
    j1 = grid.steps if t_end is None else grid.node(t_end)
    n = ensemble.n_particles
    running = np.zeros(n)
    if model.running_cost is not None:
        for j in range(j0, j1):
            t, view, _, u, nu = _recorded_args(grid, ensemble.values, ensemble.controls, j)
            f_now = model.running_cost_at(t, view, view, u, nu)
            _growth_check(model, f_now, view, t, kind="f")
            running += f_now * grid.dt
    terminal = np.zeros(n)
    if t_end is None and model.terminal_cost is not None:
        view = StoppedView(grid, ensemble.values, grid.steps)
        terminal = model.terminal_cost_at(view, view)
        _growth_check(model, terminal, view, grid.T, kind="g")
    return running, terminal


def _growth_check(model, values, view, t, kind):
    if model.growth_h is None:
        return
    h_val = float(model.growth_h(view.w2_to_zero()))
    bound = h_val * (1.0 + view.seminorm_sq_at(t))
    if np.any(np.abs(values) > bound * (1.0 + 1e-9)):
        warnings.warn(
            f"declared growth envelope violated by {kind} at t={t:.4g} "
            f"(max |{kind}| = {np.abs(values).max():.4g}, bound {bound.max():.4g})",
            ContractWarning,
            stacklevel=3,
        )


def reward(model: ModelSpec, ensemble: ParticleEnsemble, t0: float) -> ValueEstimate:
    """Particle-average reward: int_{t0}^T f dt (left endpoint) + g."""
    running, terminal = _per_particle_reward(model, ensemble, t0)
    total = running + terminal
    n = ensemble.n_particles
    stderr = float(total.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return ValueEstimate(float(total.mean()), stderr, n, model.grid.steps, ensemble.seed)


@dataclass
class ValueSearchResult:
    best_index: int
    best_policy: object
    estimate: ValueEstimate
    all_estimates: list


def estimate_value(
    model: ModelSpec,
    init: InitialLaw,
    policy_family,
    t0: float,
    n_particles: int,
    seed: int,
) -> ValueSearchResult:
    """Argmax of the reward mean over a finite policy family, common random
    numbers across members.  This is a lower-bound estimator of the true value
    (the supremum runs over all admissible controls, the family is a subset).
    Ties break to the lowest family index, which is exact under common noise.
    """
    if not policy_family:
        raise ConfigurationError("policy family must be non-empty")
    estimates = []
    for policy in policy_family:
        ens = integrate(model, init, policy, t0, n_particles, seed)
        estimates.append(reward(model, ens, t0))
    means = np.array([e.mean for e in estimates])
    best = int(np.argmax(means))
    return ValueSearchResult(best, policy_family[best], estimates[best], estimates)


# ---------------------------------------------------------------------------
# Dynamic programming principle


@dataclass
class DppReport:
    mode: str
    t0: float
    split_time: float
    lhs: float
    rhs: float
    gap: float
    stderr: float
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_json(self):
        out = {k: getattr(self, k) for k in ("mode", "t0", "split_time", "lhs", "rhs", "gap", "stderr")}
        out["pass"] = self.passed
        return json.dumps(out, sort_keys=True)


def _continuation_seed(seed: int, salt: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + salt + 1) % (2**63)


def dpp_check(
    model: ModelSpec,
    init: InitialLaw,
    policy_family,
    t0: float,
    s: float,
    n_particles: int,
    seed: int,
    branching: int = 1,
    same_noise: bool = False,
) -> DppReport:
    """Check the dynamic programming identity across the split time s.

    Uncontrolled (empty or singleton family): the identity degenerates to the
    tower property.  The ensemble is run once over [t0, T]; its stopped paths
    at s seed `branching` fresh-noise continuations, and the paired gap
    between the original tails and the restarted tails must vanish within
    3 standard errors.  With same_noise=True the continuation replays the
    original noise stream and the gap is exactly zero (the flow property),
    which is a degenerate but useful control.

    Controlled (family with several members): checks the sub-optimality
    inequality V_fam(t0) <= sup_alpha { E int f + V_fam(s, law) } + 3 SE.
    """
    grid = model.grid
    if grid.node(s) < grid.node(t0):
        raise DomainError("split time precedes start time")
    single = not policy_family or len(policy_family) <= 1
    policy = policy_family[0] if policy_family else None

    if single:
        ens = integrate(model, init, policy, t0, n_particles, seed)
        running_head, _ = _per_particle_reward(model, ens, t0, t_end=s)
        running_full, terminal = _per_particle_reward(model, ens, t0)
        tail_orig = running_full - running_head + terminal
        cont_init = InitialLaw.from_values(ens.values, "dpp continuation")
        tails = []
        for b in range(branching):
            cseed = seed if same_noise else _continuation_seed(seed, b)
            cont = integrate(model, cont_init, policy, s, n_particles, cseed)
            run_c, term_c = _per_particle_reward(model, cont, s)
            tails.append(run_c + term_c)
        tail_cont = np.mean(tails, axis=0)
        diff = tail_orig - tail_cont
        gap = float(diff.mean())
        stderr = float(diff.std(ddof=1) / np.sqrt(n_particles))
        lhs = float((running_full + terminal).mean())
        rhs = float(running_head.mean() + tail_cont.mean())
        passed = abs(gap) <= 3.0 * stderr or gap == 0.0
        return DppReport("exact_tower", t0, s, lhs, rhs, gap, stderr, passed)

    # Family-restricted inequality: LHS <= RHS + 3 SE.
    lhs_vals, lhs_errs, rhs_vals, rhs_errs = [], [], [], []
    for alpha in policy_family:
        ens = integrate(model, init, alpha, t0, n_particles, seed)
        running_head, _ = _per_particle_reward(model, ens, t0, t_end=s)
        running_full, terminal = _per_particle_reward(model, ens, t0)
        full = running_full + terminal
        lhs_vals.append(full.mean())
        lhs_errs.append(full.std(ddof=1) / np.sqrt(n_particles))
        cont_init = InitialLaw.from_values(ens.values, "dpp continuation")
        best_tail, best_err = -np.inf, 0.0
        for bi, beta in enumerate(policy_family):
            cont = integrate(
                model, cont_init, beta, s, n_particles, _continuation_seed(seed, bi)
            )
            run_c, term_c = _per_particle_reward(model, cont, s)
            tail = run_c + term_c
            if tail.mean() > best_tail:
                best_tail = tail.mean()
                best_err = tail.std(ddof=1) / np.sqrt(n_particles)
        rhs_vals.append(running_head.mean() + best_tail)
        rhs_errs.append(best_err)
    i_lhs = int(np.argmax(lhs_vals))
    i_rhs = int(np.argmax(rhs_vals))
    lhs, rhs = float(lhs_vals[i_lhs]), float(rhs_vals[i_rhs])
    stderr = float(np.hypot(lhs_errs[i_lhs], rhs_errs[i_rhs]))
    gap = lhs - rhs
    passed = gap <= 3.0 * stderr
    return DppReport("family_inequality", t0, s, lhs, rhs, gap, stderr, passed)


# ---------------------------------------------------------------------------
# Law invariance


@dataclass
class LawInvarianceReport:
    status: str  # "pass" | "fail" | "inconclusive"
    value_a: float
    value_b: float
    gap: float
    stderr: float
    moment_gaps: dict
    per_family: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self):
        return json.dumps(
            {
                "status": self.status,
                "value_a": self.value_a,
                "value_b": self.value_b,
                "gap": self.gap,
                "stderr": self.stderr,
                "moment_gaps": self.moment_gaps,
            },
            sort_keys=True,
        )


def _moment_guard(init_a, init_b, grid, d, n, seeds):
    """First/second moments of the two initial laws must agree within 3 SE."""
    xa = init_a.sample(seeds[0], n, grid, d)
    xb = init_b.sample(seeds[1], n, grid, d)
    nodes = [0, grid.steps // 2, grid.steps]
    worst = {"first": 0.0, "second": 0.0}
    ok = True
    for j in nodes:
        va, vb = xa[:, j, :], xb[:, j, :]
        for name, fa, fb in (
            ("first", va, vb),
            ("second", va**2, vb**2),
        ):
            ma, mb = fa.mean(axis=0), fb.mean(axis=0)
            se = np.sqrt(fa.var(axis=0, ddof=1) / n + fb.var(axis=0, ddof=1) / n)
            z = np.abs(ma - mb) / np.maximum(se, 1e-300)
            gap = float(np.abs(ma - mb).max())
            worst[name] = max(worst[name], gap)
            if np.any(z > 3.0) and gap > 1e-12:
                ok = False
    return ok, worst


def law_invariance_check(
    model: ModelSpec,
    init_a: InitialLaw,
    init_b: InitialLaw,
    policy_families,
    t0: float,
    n_particles: int,
    seeds=(101, 202),
) -> LawInvarianceReport:
    """Two initial data with the same declared law must give the same
    family-restricted value, up to Monte Carlo error with independent seeds.

    If the moment test detects that the laws actually differ, the check
    refuses to conclude and reports "inconclusive" instead of a failure.
    policy_families is a list of families (each a list of policies); a single
    family may be passed as [family].
    """
    grid, d = model.grid, model.space.d
    ok, moment_gaps = _moment_guard(init_a, init_b, grid, d, max(n_particles, 512), seeds)
    if not ok:
        return LawInvarianceReport(
            "inconclusive", np.nan, np.nan, np.nan, np.nan, moment_gaps
        )
    per_family = []
    all_pass = True
    va_last = vb_last = gap = stderr = 0.0
    for family in policy_families:
        ra = estimate_value(model, init_a, family, t0, n_particles, seeds[0])
        rb = estimate_value(model, init_b, family, t0, n_particles, seeds[1])
        va_last, vb_last = ra.estimate.mean, rb.estimate.mean
        gap = va_last - vb_last
        stderr = float(np.hypot(ra.estimate.stderr, rb.estimate.stderr))
        fam_pass = abs(gap) <= 3.0 * stderr
        all_pass = all_pass and fam_pass
        per_family.append(
            {"value_a": va_last, "value_b": vb_last, "gap": gap, "stderr": stderr, "pass": fam_pass}
        )
    return LawInvarianceReport(
        "pass" if all_pass else "fail",
        va_last,
        vb_last,
        gap,
        stderr,
        moment_gaps,
        per_family,
    )
