"""Control policies, the reward functional, Monte Carlo value estimation, and
the statistical checkers for dynamic programming and law invariance.

Values are estimated only over declared policy families: the estimator is a
lower bound on the true supremum, and the law-invariance check compares such
family-restricted values.  The dynamic programming check runs one policy and
tests the tower identity for it.
Family members are compared under common random numbers: the counter-based
noise streams are keyed by (seed, particle, step) and never by the family
index, so every member run from one seed is driven by the same Brownian
block.  Each check runs its runs in one `sde.draw_scope`, which draws that
block once (`sde.brownian_block`, read-only) for every run that uses it, so
members differ only through their policies.  Inside an outer scope, as in a
suite run, a check whose block the scope already holds draws nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .measure import StoppedView
from .sde import (
    InitialLaw,
    ModelSpec,
    ParticleEnsemble,
    _recorded_args,
    draw_scope,
    integrate,
)


class ContractWarning(UserWarning):
    """Raised (as a warning) when a declared growth envelope fails a spot check."""


# ---------------------------------------------------------------------------
# Action sets and policies


@dataclass(frozen=True)
class FiniteActionSet:
    """U as a finite list of points in R^m; points has shape (q, m), q, m >= 1."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.size == 0 or not np.isfinite(pts).all():
            raise ConfigurationError(
                f"action points must be a finite (q, m) array with q, m >= 1, got shape {pts.shape}"
            )
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[1]

    def contains_batch(self, u: np.ndarray) -> bool:
        dists = np.abs(u[:, None, :] - self.points[None, :, :]).max(axis=2)
        return bool(np.all(dists.min(axis=1) <= 1e-12))

    def sample(self, rand, n) -> np.ndarray:
        return self.points[rand.integers(0, len(self.points), size=n)]


@dataclass(frozen=True)
class BoxActionSet:
    """U as a compact box [lo, hi] in R^m."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape or not np.isfinite([lo, hi]).all() or np.any(lo > hi):
            raise ConfigurationError(
                f"box bounds must be finite vectors of one length with lo <= hi componentwise, got {lo} and {hi}"
            )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def m(self) -> int:
        return self.lo.shape[0]

    def contains_batch(self, u: np.ndarray) -> bool:
        return bool(np.all(u >= self.lo - 1e-12) and np.all(u <= self.hi + 1e-12))

    def clip(self, u) -> np.ndarray:
        return np.clip(u, self.lo, self.hi)

    def sample(self, rand, n) -> np.ndarray:
        return rand.uniform(self.lo, self.hi, size=(n, self.m))


class FeedbackPolicy:
    """u = fn(t, stopped paths, stopped law), batched over particles."""

    def __init__(self, fn, tag="feedback"):
        self._fn = fn
        self.tag = tag

    def actions(self, t, xs, mu) -> np.ndarray:
        return np.asarray(self._fn(t, xs, mu), dtype=float)


def constant_policy(u) -> FeedbackPolicy:
    """The constant action u at every time and for every particle."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    # one read-only (N, m) view of u per particle count, built on first use:
    # the step kernel copies it into the run's controls
    views = {}

    def actions(t, xs, mu):
        view = views.get(xs.n)
        if view is None:
            view = views[xs.n] = np.broadcast_to(u, (xs.n, u.size))
        return view

    return FeedbackPolicy(actions, tag=f"const{u.tolist()}")


# ---------------------------------------------------------------------------
# Reward and value estimation


@dataclass
class ValueEstimate:
    mean: float
    stderr: float
    n_particles: int
    n_steps: int
    seed: int


def _per_particle_reward(model: ModelSpec, ensemble: ParticleEnsemble, t0, heads=()):
    """Running reward (left endpoint) from t0 to T and terminal reward per
    particle, and the running totals from t0 up to each time in `heads`.

    One pass over the nodes: a head total is the running sum as it stands
    when the pass reaches the head's node, so it is bit-equal to a pass that
    stops there.  Coefficients are re-evaluated on the final paths; values up
    to node j were final when step j ran, so these are the integration-time
    evaluations.

    The growth check of f at node j reads ||x||_{t_j}^2 as a running maximum
    that the pass advances by one node per step, the same floats as a
    seminorm pass from node 0 at every step.
    """
    grid = model.grid
    stops = {grid.node(t) for t in heads}
    check = model.growth_h is not None
    running = np.zeros(ensemble.n_particles)
    at_stop = {}
    j_start = grid.node(t0)
    sq = None
    for j in range(j_start, grid.steps):
        if j in stops:
            at_stop[j] = running.copy()
        if model.running_cost is not None:
            t, view, _, u, nu = _recorded_args(grid, ensemble.values, ensemble.controls, j)
            f_now = model.running_cost_at(t, view, view, u, nu)
            if check:
                if sq is None:
                    sq = view.seminorm_sq_at(t)
                else:
                    np.maximum(sq, (ensemble.values[:, j, :] ** 2).sum(axis=1), out=sq)
                _growth_check(model, f_now, sq, t, kind="f")
            running += f_now * grid.dt
    at_stop[grid.steps] = running
    terminal = np.zeros(ensemble.n_particles)
    if model.terminal_cost is not None:
        view = StoppedView(grid, ensemble.values, grid.steps)
        terminal = model.terminal_cost_at(view, view)
        if check:
            _growth_check(model, terminal, ensemble.seminorm_sq, grid.T, kind="g")
    return running, terminal, [at_stop[grid.node(t)] for t in heads]


def _growth_check(model, values, sq, t, kind):
    """Warn where |values| exceeds h(W2(mu, delta_0)) (1 + ||x||_t^2), given
    sq = ||x||_t^2 per particle: the law is uniform and stopped at t, so
    W2(mu, delta_0) is the root of the mean of sq."""
    h_val = float(model.growth_h(float(np.sqrt(sq.mean()))))
    bound = h_val * (1.0 + sq)
    if np.any(np.abs(values) > bound * (1.0 + 1e-9)):
        warnings.warn(
            f"declared growth envelope violated by {kind} at t={t:.4g} "
            f"(max |{kind}| = {np.abs(values).max():.4g}, bound {bound.max():.4g})",
            ContractWarning,
            stacklevel=3,
        )


def reward(model: ModelSpec, ensemble: ParticleEnsemble, t0: float) -> ValueEstimate:
    """Particle-average reward: int_{t0}^T f dt (left endpoint) + g."""
    running, terminal, _ = _per_particle_reward(model, ensemble, t0)
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
    Every member runs in one `draw_scope`, on the block of `seed`.
    """
    if not policy_family:
        raise ConfigurationError("policy family must be non-empty")
    with draw_scope():
        # a member's paths are freed before the next member is run
        estimates = [
            reward(model, integrate(model, init, policy, t0, n_particles, seed), t0)
            for policy in policy_family
        ]
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


def _continuation_seed(seed: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + 1) % (2**63)


def dpp_check(
    model: ModelSpec,
    init: InitialLaw,
    policy,
    t0: float,
    s,
    n_particles: int,
    seed: int,
):
    """Check the tower identity of the dynamic programming principle across
    the split time s, under one policy (None for uncontrolled, as in
    `integrate`).

    The ensemble is run once over [t0, T]; its stopped paths at s seed one
    fresh-noise continuation, and the paired gap between the original tails
    and the restarted tails must vanish within 3 standard errors.

    `s` is one split time, which gives one DppReport, or a sequence of split
    times, which gives their reports in order.  Every split is checked before
    anything is simulated.  The base run is made once for all splits; every
    continuation runs on the one block of `_continuation_seed(seed)`, which
    the check's `draw_scope` draws once, in place of the base run's block.
    """
    single = np.ndim(s) == 0
    splits = [s] if single else list(s)
    if not splits:
        raise ConfigurationError("dpp_check needs at least one split time")
    grid, n = model.grid, n_particles
    if any(grid.node(x) < grid.node(t0) for x in splits):
        raise DomainError("split time precedes start time")
    with draw_scope():
        ens = integrate(model, init, policy, t0, n, seed)
        running_full, terminal, heads = _per_particle_reward(model, ens, t0, splits)
        cont_init = InitialLaw.from_values(ens.values)
        del ens
        cseed = _continuation_seed(seed)
        lhs = float((running_full + terminal).mean())
        reports = []
        for s, running_head in zip(splits, heads):
            # the continuation's paths are freed before the next one is run
            cont = integrate(model, cont_init, policy, s, n, cseed)
            run_c, term_c, _ = _per_particle_reward(model, cont, s)
            del cont
            tail_cont = run_c + term_c
            diff = running_full - running_head + terminal - tail_cont
            gap = float(diff.mean())
            stderr = float(diff.std(ddof=1) / np.sqrt(n))
            rhs = float(running_head.mean() + tail_cont.mean())
            passed = abs(gap) <= 3.0 * stderr or gap == 0.0
            reports.append(DppReport("exact_tower", t0, s, lhs, rhs, gap, stderr, passed))
    return reports[0] if single else reports


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


def _moment_guard(xa, xb, grid):
    """First/second moments of two initial samples of n paths each must
    agree within 3 SE."""
    n = xa.shape[0]
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
    Each side draws its initial sample once, and runs all its families in one
    `draw_scope`, on its seed's block: side a's runs come first, so only one
    side's block is alive at a time.  The moment test's sample is that
    initial sample when the test runs at n_particles paths.

    If the moment test detects that the laws actually differ, the check
    refuses to conclude and reports "inconclusive" instead of a failure.
    policy_families is a list of families (each a list of policies); a single
    family may be passed as [family].
    """
    if not policy_families:
        raise ConfigurationError("law_invariance_check needs at least one policy family")
    grid, d = model.grid, model.A.dim
    sides = ((init_a, seeds[0]), (init_b, seeds[1]))
    n_guard = max(n_particles, 512)
    samples = [init.sample(seed, n_guard, grid, d) for init, seed in sides]
    ok, moment_gaps = _moment_guard(*samples, grid)
    if not ok:
        return LawInvarianceReport(
            "inconclusive", np.nan, np.nan, np.nan, np.nan, moment_gaps
        )
    if n_guard != n_particles:
        samples = [init.sample(seed, n_particles, grid, d) for init, seed in sides]
    # a sample is a function of (seed, N): every run of a side starts from this one
    runs = []
    for x, seed in zip(samples, seeds):
        init = InitialLaw.from_values(x)
        with draw_scope():
            runs.append([estimate_value(model, init, fam, t0, n_particles, seed) for fam in policy_families])
    per_family = []
    all_pass = True
    va_last = vb_last = gap = stderr = 0.0
    for ra, rb in zip(*runs):
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
