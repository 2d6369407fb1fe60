import math
import re
from dataclasses import replace

import numpy as np
import pytest

import pathmkv.control as control
from pathmkv.control import (
    BoxActionSet,
    ContractWarning,
    DppReport,
    FeedbackPolicy,
    FiniteActionSet,
    _continuation_seed,
    constant_policy,
    dpp_check,
    estimate_value,
    law_invariance_check,
    reward,
)
from pathmkv.errors import ConfigurationError, DomainError
from pathmkv.hilbert import SpectralOperator
from pathmkv.measure import EmpiricalControlMeasure, StoppedView
from pathmkv.models import (
    make_controlled_linear,
    make_frozen,
    make_meanfield_ou,
    make_quadratic_terminal,
)
from pathmkv.paths import TimeGrid
from pathmkv.rng import STREAM_POLICY, uniforms
from pathmkv.sde import (
    InitialLaw,
    ModelSpec,
    constant_initial,
    gaussian_initial,
    integrate,
    integrate_picard,
    ramp_initial,
    scaled_initial,
    stopped_initial,
    two_point_mapped,
)


def bernoulli_policy(p, seed, n):
    """The randomized control u = 1{r < p}: a feedback policy over one
    independent uniform r per particle, drawn once from the policy stream."""
    r = uniforms(seed, STREAM_POLICY, n)[:, 0]
    return FeedbackPolicy(lambda t, xs, mu: (r < p)[:, None].astype(float), tag=f"bern({p})")


def flat_model(grid, f_const=0.0, g_const=0.0):
    return ModelSpec(
        grid=grid,
        A=SpectralOperator([0.0]),
        running_cost=(lambda t, xs, mu, u, nu: np.full(xs.n, f_const))
        if f_const
        else None,
        terminal_cost=(lambda xs, mu: np.full(xs.n, g_const)) if g_const else None,
        lipschitz=0.0,
        tag="flat",
    )


def test_reward_constant_terminal():
    grid = TimeGrid(1.0, 20)
    model = flat_model(grid, g_const=1.0)
    ens = integrate(model, constant_initial([0.0]), n_particles=16, seed=0)
    est = reward(model, ens, 0.0)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_reward_constant_running_half_horizon():
    grid = TimeGrid(1.0, 40)
    model = flat_model(grid, f_const=1.0)
    ens = integrate(model, constant_initial([0.0]), t0=0.5, n_particles=8, seed=0)
    est = reward(model, ens, 0.5)
    assert est.mean == pytest.approx(0.5, abs=1e-12)


def test_reward_brownian_quadratic_terminal():
    # A = 0, b = 0, sigma = s0, g = -x_T^2: value is -s0^2 T.
    grid = TimeGrid(1.0, 400)
    model = make_quadratic_terminal(grid, a=0.0, s0=0.5)
    n = 4000
    ens = integrate(model, constant_initial([0.0]), n_particles=n, seed=1)
    est = reward(model, ens, 0.0)
    assert abs(est.mean - (-0.25)) <= 3 * est.stderr + 0.25 * 2 * grid.dt


def test_reward_nonanticipative_in_initial_data():
    grid = TimeGrid(1.0, 50)
    model = make_quadratic_terminal(grid, a=-1.0, s0=0.5)
    init = ramp_initial(1.0)
    t0 = 0.4
    a = reward(model, integrate(model, init, t0=t0, n_particles=32, seed=2), t0)
    b = reward(
        model,
        integrate(model, stopped_initial(init, t0), t0=t0, n_particles=32, seed=2),
        t0,
    )
    assert a.mean == b.mean and a.stderr == b.stderr


def test_growth_envelope_violation_warns():
    grid = TimeGrid(1.0, 10)
    model = ModelSpec(
        grid=grid,
        A=SpectralOperator([0.0]),
        terminal_cost=lambda xs, mu: np.full(xs.n, 100.0),
        lipschitz=0.0,
        growth_h=lambda w: 1.0,  # declares |g| <= 1 + ||x||^2, violated
        tag="bad_growth",
    )
    ens = integrate(model, constant_initial([0.0]), n_particles=4, seed=0)
    with pytest.warns(ContractWarning):
        reward(model, ens, 0.0)


@pytest.mark.parametrize(
    "field, name, cost, got, want",
    [
        ("running_cost", "running cost", lambda t, xs, mu, u, nu: np.ones((xs.n, 1)), (3, 1), (3,)),
        ("running_cost", "running cost", lambda t, xs, mu, u, nu: np.ones(3), (3,), (4,)),
        ("terminal_cost", "terminal cost", lambda xs, mu: np.ones((xs.n, 1)), (4, 1), (4,)),
        ("terminal_cost", "terminal cost", lambda xs, mu: np.ones(3), (3,), (4,)),
    ],
    ids=["running_n_by_1", "running_flat_3", "terminal_n_by_1", "terminal_flat_3"],
)
def test_a_cost_of_the_wrong_shape_is_refused(field, name, cost, got, want):
    # an (N, 1) terminal cost would broadcast to (N, N) in the reward; the
    # check at build time sees 3 particles, the run 4
    msg = re.escape(f"model 'bad_cost': {name} returned shape {got}, expected {want}")
    with pytest.raises(ConfigurationError, match=msg):
        model = ModelSpec(grid=TimeGrid(1.0, 4), A=SpectralOperator([0.0]), tag="bad_cost", **{field: cost})
        reward(model, integrate(model, constant_initial([0.0]), n_particles=4, seed=0), 0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: BoxActionSet([[0.0, 0.0]], [[1.0, 1.0]]),
        lambda: BoxActionSet([0.0], [math.nan]),
        lambda: BoxActionSet([0.0, 0.0], [1.0]),
        lambda: BoxActionSet([1.0], [0.0]),
        lambda: FiniteActionSet(np.zeros((2, 2, 2))),
        lambda: FiniteActionSet(np.zeros((0, 1))),
        lambda: FiniteActionSet([[0.0], [math.inf]]),
    ],
    ids=["box_1_by_2", "box_nan", "box_lengths", "box_lo_above_hi", "points_2x2x2", "no_points", "point_inf"],
)
def test_a_malformed_action_set_is_refused_when_built(make):
    with pytest.raises(ConfigurationError, match="box bounds must|action points must"):
        make()


def test_policy_outside_action_set_rejected():
    grid = TimeGrid(1.0, 20)
    model = make_controlled_linear(grid, c=1.0, actions=FiniteActionSet([[0.0], [1.0]]))
    with pytest.raises(ConfigurationError):
        integrate(model, constant_initial([0.0]), constant_policy([0.5]), 0.0, 8, 0)


@pytest.mark.parametrize(
    "actions, u",
    [
        (FiniteActionSet([[0.0], [1.0]]), [1.0, 1.0]),
        (BoxActionSet([0.0], [1.0]), [0.5, 0.5]),
        (FiniteActionSet([[0.0, 0.0], [1.0, 1.0]]), [1.0, 1.0, 1.0]),
        (BoxActionSet([0.0, 0.0], [1.0, 1.0]), [0.5]),
    ],
    ids=["finite_1_by_2", "box_1_by_2", "finite_2_by_3", "box_2_by_1"],
)
def test_actions_of_the_wrong_width_are_refused(actions, u):
    # the state is wide enough for either width, so only the check can refuse
    grid = TimeGrid(1.0, 10)
    model = make_controlled_linear(grid, c=1.0, d=max(len(u), actions.m), actions=actions)
    width = f"width {len(u)} at step 0; the declared action set has width {actions.m}"
    with pytest.raises(ConfigurationError, match=width):
        integrate(model, constant_initial(np.zeros(model.A.dim)), constant_policy(u), 0.0, 8, 0)


@pytest.mark.parametrize("run", [integrate, integrate_picard], ids=["integrate", "picard"])
def test_policy_leaving_the_action_set_after_the_first_step_rejected(run):
    grid = TimeGrid(1.0, 20)
    model = make_controlled_linear(grid, c=1.0, actions=BoxActionSet([-1.0], [1.0]))
    policy = FeedbackPolicy(lambda t, xs, mu: np.full((xs.n, 1), 0.5 if t < 0.5 else 5.0))
    with pytest.raises(ConfigurationError, match="outside the declared action set at step 10"):
        run(model, constant_initial([0.0]), policy, 0.0, 8, 0)


@pytest.mark.parametrize("window", [None, 0.25])
def test_picard_records_the_controls_integrate_records(window):
    grid = TimeGrid(1.0, 20)
    model = make_controlled_linear(grid, c=1.0, s0=0.3, actions=BoxActionSet([-1.0], [1.0]))
    policy = constant_policy([0.5])
    res = integrate_picard(model, gaussian_initial(), policy, 0.0, 8, 3, window=window)
    direct = integrate(model, gaussian_initial(), policy, 0.0, 8, 3)
    assert res.ensemble.controls is not None
    assert np.array_equal(res.ensemble.controls, direct.controls)
    assert np.array_equal(res.ensemble.values, direct.values)
    uncontrolled = integrate_picard(model, gaussian_initial(), None, 0.0, 8, 3, window=window)
    assert uncontrolled.ensemble.controls is None


def test_estimate_value_single_policy():
    grid = TimeGrid(1.0, 20)
    model = make_controlled_linear(
        grid, c=1.0, actions=FiniteActionSet([[0.0], [0.5], [1.0]])
    )
    pol = constant_policy([0.5])
    res = estimate_value(model, constant_initial([0.0]), [pol], 0.0, 8, seed=3)
    direct = reward(model, integrate(model, constant_initial([0.0]), pol, 0.0, 8, 3), 0.0)
    assert res.estimate.mean == direct.mean
    assert res.best_index == 0


def test_estimate_value_picks_linear_drift_maximizer():
    # g = <x_T, e1>, b = u e1, sigma = 0: u = 1 beats u = 0, value = 1 + mean(xi).
    grid = TimeGrid(1.0, 50)
    model = make_controlled_linear(grid, c=1.0, actions=FiniteActionSet([[0.0], [1.0]]))
    family = [constant_policy([0.0]), constant_policy([1.0])]
    res = estimate_value(model, constant_initial([0.25]), family, 0.0, 16, seed=4)
    assert res.best_index == 1
    assert res.estimate.mean == pytest.approx(1.25, abs=1e-12)


def test_estimate_value_tie_breaks_to_lowest_index():
    grid = TimeGrid(1.0, 20)
    model = make_controlled_linear(grid, c=1.0, actions=FiniteActionSet([[0.0], [1.0]]))
    family = [constant_policy([1.0]), constant_policy([1.0])]
    res = estimate_value(model, constant_initial([0.0]), family, 0.0, 8, seed=5)
    assert res.best_index == 0


def test_family_monotonicity_exact_under_common_noise():
    grid = TimeGrid(1.0, 30)
    model = make_controlled_linear(
        grid, c=1.0, s0=0.3, actions=FiniteActionSet([[0.0], [0.5], [1.0]])
    )
    init = gaussian_initial(0.0, 0.5)
    small = [constant_policy([0.0]), constant_policy([0.5])]
    large = small + [constant_policy([1.0])]
    v_small = estimate_value(model, init, small, 0.0, 64, seed=6).estimate.mean
    v_large = estimate_value(model, init, large, 0.0, 64, seed=6).estimate.mean
    assert v_large >= v_small


def test_value_quadratic_growth_over_initial_ladder():
    # V = -E|X_T|^2, and exponential Euler with a <= 0 gives
    # E|X_T|^2 <= ||xi||_S2^2 + s0^2 T: the value grows at most quadratically
    # in the initial datum; 3 leaves room for the Monte Carlo error
    grid, s0 = TimeGrid(1.0, 50), 0.5
    model = make_quadratic_terminal(grid, a=-1.0, s0=s0)
    base = gaussian_initial(0.0, 1.0)
    for scale in (1.0, 2.0, 4.0, 8.0):
        init = scaled_initial(base, scale)
        ens = integrate(model, init, n_particles=64, seed=7)
        est = reward(model, ens, 0.0)
        xi_sq = (init.sample(7, 64, grid, 1) ** 2).max(axis=1).mean()
        assert abs(est.mean) <= 3.0 * (xi_sq + s0**2 * grid.T)


def test_feedback_and_randomized_policies_run():
    grid = TimeGrid(1.0, 20)
    model = make_controlled_linear(
        grid, c=1.0, actions=FiniteActionSet([[0.0], [1.0]])
    )
    fb = FeedbackPolicy(
        lambda t, xs, mu: np.where(xs.values_now[:, :1] < 0.5, 1.0, 0.0),
        tag="push_up",
    )
    ens = integrate(model, constant_initial([0.0]), fb, 0.0, 8, seed=8)
    assert ens.controls is not None
    rp = bernoulli_policy(0.25, seed=9, n=512)
    ens2 = integrate(model, constant_initial([0.0]), rp, 0.0, 512, seed=9)
    frac = ens2.controls[:, 0, 0].mean()
    assert abs(frac - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 512)


def test_dpp_degenerate_split_times():
    grid = TimeGrid(1.0, 40)
    model = make_quadratic_terminal(grid, a=-1.0, s0=0.5)
    init = constant_initial([0.5])
    # s = t0: the continuation is a whole run on the continuation seed
    rep0 = dpp_check(model, init, None, 0.0, 0.0, 64, seed=10)
    fresh = estimate_value(model, init, [None], 0.0, 64, seed=_continuation_seed(10))
    assert rep0.rhs == fresh.estimate.mean
    assert rep0.passed
    # s = T: V(T, mu) = E[g]; tower identity is the terminal condition
    repT = dpp_check(model, init, None, 0.0, 1.0, 64, seed=10)
    assert repT.gap == 0.0 and repT.stderr == 0.0


def test_dpp_tower_statistical_gap():
    grid = TimeGrid(1.0, 200)
    model = make_quadratic_terminal(grid, a=-1.0, s0=0.5)
    for s in (0.25, 0.5, 0.75):
        rep = dpp_check(model, constant_initial([0.5]), None, 0.0, s, 2000, seed=12)
        assert rep.passed, f"split {s}: gap {rep.gap} vs stderr {rep.stderr}"
        assert rep.stderr > 0


def test_law_invariance_relabeled_atoms_exact():
    grid = TimeGrid(1.0, 50)
    model = make_quadratic_terminal(grid, a=-1.0, s0=0.5)
    # same measurable map of the seed, atoms listed in the other order
    init_a = two_point_mapped(-1.0, 1.0, flipped=False)

    def relabeled(seed, n, g, d):
        return two_point_mapped(-1.0, 1.0, flipped=False).sampler(seed, n, g, d)

    init_b = InitialLaw(relabeled)
    ra = estimate_value(model, init_a, [None], 0.0, 64, seed=14)
    rb = estimate_value(model, init_b, [None], 0.0, 64, seed=14)
    assert ra.estimate.mean == rb.estimate.mean


def test_law_invariance_two_seed_maps():
    grid = TimeGrid(1.0, 100)
    model = make_quadratic_terminal(grid, a=-1.0, s0=0.5)
    init_a = two_point_mapped(-1.0, 1.0, flipped=False)
    init_b = two_point_mapped(-1.0, 1.0, flipped=True)
    families = [
        [None],
        [constant_policy([0.0])],
    ]
    rep = law_invariance_check(model, init_a, init_b, families, 0.0, 2000, seeds=(15, 16))
    assert rep.status == "pass"


def test_law_invariance_with_randomized_policy_family():
    # controlled dynamics; the family mixes constants with a randomized rule
    # driven by the per-particle uniform
    grid = TimeGrid(1.0, 100)
    model = make_controlled_linear(
        grid, c=1.0, s0=0.3, actions=FiniteActionSet([[0.0], [1.0]])
    )
    init_a = two_point_mapped(-1.0, 1.0, flipped=False)
    init_b = two_point_mapped(-1.0, 1.0, flipped=True)
    randomized = bernoulli_policy(0.5, seed=31, n=2000)
    families = [[constant_policy([0.0]), constant_policy([1.0]), randomized]]
    rep = law_invariance_check(model, init_a, init_b, families, 0.0, 2000, seeds=(31, 32))
    assert rep.status == "pass"


def test_law_invariance_holds_one_sides_block_at_a_time():
    # a (2000, 1000, 1) block, and the paths and controls of one run, are
    # 15.3 MB each.  The check holds one side's block and one member's run
    # at a time: 47.9 MB.  Both sides' blocks alive read 63.2 MB, and a
    # member's run kept while the next one is built 76.4 MB.
    import tracemalloc

    model = make_quadratic_terminal(TimeGrid(1.0, 1000), a=-1.0, s0=0.5)
    init = gaussian_initial(0.0, 1.0)
    families = [[None], [constant_policy([0.0]), constant_policy([0.5])]]
    tracemalloc.start()
    try:
        rep = law_invariance_check(model, init, init, families, 0.0, 2000, seeds=(15, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "pass"
    assert peak < 56 * 2**20, peak / 2**20


def test_law_invariance_refuses_an_empty_family_list(monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("simulated before checking the families")

    monkeypatch.setattr(control, "integrate", no_runs)
    model = make_quadratic_terminal(TimeGrid(1.0, 20), a=-1.0, s0=0.5)
    init = gaussian_initial(0.0, 1.0)
    with pytest.raises(ConfigurationError, match="at least one policy family"):
        law_invariance_check(model, init, init, [], 0.0, 64, seeds=(17, 18))


def test_law_invariance_guard_rail_flags_inconclusive():
    grid = TimeGrid(1.0, 20)
    model = make_quadratic_terminal(grid, a=-1.0, s0=0.5)
    init_a = gaussian_initial(0.0, 1.0)
    init_b = gaussian_initial(0.5, 1.0)  # deliberately shifted law
    rep = law_invariance_check(model, init_a, init_b, [[None]], 0.0, 256, seeds=(17, 18))
    assert rep.status == "inconclusive"


def test_estimate_value_rejects_empty_family():
    grid = TimeGrid(1.0, 10)
    model = make_quadratic_terminal(grid, a=-1.0, s0=0.5)
    with pytest.raises(ConfigurationError):
        estimate_value(model, constant_initial([0.0]), [], 0.0, 8, seed=0)


# ---------------------------------------------------------------------------
# Shared Brownian blocks against pinned per-call references, in which every
# run draws its own noise and every horizon gets its own reward pass


def _reference_reward(model, ens, t0, t_end=None):
    grid = model.grid
    j1 = grid.steps if t_end is None else grid.node(t_end)
    running = np.zeros(ens.n_particles)
    if model.running_cost is not None:
        for j in range(grid.node(t0), j1):
            view = StoppedView(grid, ens.values, j)
            u = None if ens.controls is None else ens.controls[:, j, :]
            nu = None if u is None else EmpiricalControlMeasure(u)
            running += model.running_cost_at(grid.time_at(j), view, view, u, nu) * grid.dt
    terminal = np.zeros(ens.n_particles)
    if t_end is None and model.terminal_cost is not None:
        view = StoppedView(grid, ens.values, grid.steps)
        terminal = model.terminal_cost_at(view, view)
    return running, terminal


def _reference_tail(model, cont_init, policy, s, n, seed):
    cont = integrate(model, cont_init, policy, s, n, seed)
    run_c, term_c = _reference_reward(model, cont, s)
    return run_c + term_c


def _reference_dpp(model, init, policy, t0, s, n, seed):
    ens = integrate(model, init, policy, t0, n, seed)
    head, _ = _reference_reward(model, ens, t0, t_end=s)
    full, terminal = _reference_reward(model, ens, t0)
    cont_init = InitialLaw.from_values(ens.values)
    tail_cont = _reference_tail(model, cont_init, policy, s, n, _continuation_seed(seed))
    diff = full - head + terminal - tail_cont
    gap, stderr = float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(n))
    lhs, rhs = float((full + terminal).mean()), float(head.mean() + tail_cont.mean())
    passed = abs(gap) <= 3.0 * stderr or gap == 0.0
    return DppReport("exact_tower", t0, s, lhs, rhs, gap, stderr, passed)


def _controlled_with_running_cost(grid):
    actions = FiniteActionSet([[0.0], [0.25], [0.5], [1.0]])
    model = make_controlled_linear(grid, c=1.0, s0=0.3, actions=actions)
    def running_cost(t, xs, mu, u, nu):
        return np.zeros(xs.n) if u is None else -0.4 * (u**2).sum(axis=1)

    return replace(model, running_cost=running_cost)


# unsorted, with both ends of [t0, T] and a repeat
DPP_SPLITS = [0.75, 0.0, 0.5, 0.25, 1.0, 0.5]


@pytest.mark.parametrize("case", ["tower", "controlled"])
def test_dpp_over_a_sequence_of_splits_matches_pinned_per_split_calls(case):
    grid = TimeGrid(1.0, 40)
    if case == "tower":
        model = make_quadratic_terminal(grid, a=-1.0, s0=0.5, running=0.5)
        policy, init = None, constant_initial([0.5])
    else:
        model = _controlled_with_running_cost(grid)
        policy, init = constant_policy([1.0]), gaussian_initial(0.0, 0.5)
    reports = dpp_check(model, init, policy, 0.0, DPP_SPLITS, 64, 19)
    singles = [dpp_check(model, init, policy, 0.0, s, 64, 19) for s in DPP_SPLITS]
    refs = [_reference_dpp(model, init, policy, 0.0, s, 64, 19) for s in DPP_SPLITS]
    assert repr(reports) == repr(singles)
    assert repr(reports) == repr(refs)
    assert reports[0].mode == "exact_tower"


def test_dpp_checks_every_split_before_simulating(monkeypatch):
    grid = TimeGrid(1.0, 40)
    model = make_quadratic_terminal(grid, a=-1.0, s0=0.5)

    def no_runs(*args, **kwargs):
        raise AssertionError("simulated before checking the split times")

    monkeypatch.setattr(control, "integrate", no_runs)
    with pytest.raises(DomainError, match="precedes"):
        dpp_check(model, constant_initial([0.5]), None, 0.5, [0.75, 0.25], 64, seed=0)
    with pytest.raises(ConfigurationError, match="split time"):
        dpp_check(model, constant_initial([0.5]), None, 0.0, [], 64, seed=0)


def _randomized_family(seed, n):
    return [constant_policy([0.0]), bernoulli_policy(0.5, seed, n), constant_policy([1.0])]


def _reference_estimates(model, init, family, t0, n, seed):
    return [reward(model, integrate(model, init, p, t0, n, seed), t0) for p in family]


def test_estimate_value_on_one_block_matches_members_drawing_their_own():
    model = _controlled_with_running_cost(TimeGrid(1.0, 40))
    init = gaussian_initial(0.0, 0.5)
    family = _randomized_family(41, 64)
    res = estimate_value(model, init, family, 0.0, 64, seed=41)
    ref = _reference_estimates(model, init, family, 0.0, 64, 41)
    assert res.all_estimates == ref
    assert res.best_index == int(np.argmax([e.mean for e in ref]))
    assert res.estimate == ref[res.best_index]


def test_law_invariance_on_one_block_per_side_matches_a_pinned_loop():
    model = _controlled_with_running_cost(TimeGrid(1.0, 40))
    init_a = two_point_mapped(-1.0, 1.0, flipped=False)
    init_b = two_point_mapped(-1.0, 1.0, flipped=True)
    families = [[None], _randomized_family(43, 256), [constant_policy([0.5]), constant_policy([0.25])]]
    rep = law_invariance_check(model, init_a, init_b, families, 0.0, 256, seeds=(43, 44))
    expected = []
    for family in families:
        sides = []
        for init, seed in ((init_a, 43), (init_b, 44)):
            ests = _reference_estimates(model, init, family, 0.0, 256, seed)
            sides.append(ests[int(np.argmax([e.mean for e in ests]))])
        a, b = sides
        gap, stderr = a.mean - b.mean, float(np.hypot(a.stderr, b.stderr))
        expected.append(
            {"value_a": a.mean, "value_b": b.mean, "gap": gap, "stderr": stderr, "pass": abs(gap) <= 3.0 * stderr}
        )
    assert rep.per_family == expected
    assert rep.status == ("pass" if all(f["pass"] for f in expected) else "fail")
    assert (rep.value_a, rep.value_b, rep.gap) == (
        expected[-1]["value_a"], expected[-1]["value_b"], expected[-1]["gap"]
    )


def test_diffusion_free_models_draw_no_noise_block(monkeypatch):
    import pathmkv.rng

    draws = []
    draw = pathmkv.rng.brownian_increments

    def counted(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(pathmkv.rng, "brownian_increments", counted)
    grid = TimeGrid(1.0, 100)
    estimate_value(make_frozen(grid), constant_initial([0.5]), [None], 0.0, 1000, seed=0)
    dpp_check(make_meanfield_ou(grid, s0=0.0), gaussian_initial(0.0, 0.5), None, 0.0, 0.5, 1000, seed=0)
    assert draws == []


def test_terminal_growth_check_reads_the_ensembles_seminorm_pass(monkeypatch):
    # controlled_linear declares a growth envelope; integrate takes no
    # sup-seminorm pass, so s2_norm below takes the one at T and caches it
    import pathmkv.measure
    import pathmkv.sde
    from pathmkv.paths import sup_seminorm_sq_values

    grid = TimeGrid(1.0, 20)
    model = make_controlled_linear(grid, s0=0.3)
    ens = integrate(model, gaussian_initial(), constant_policy([0.5]), n_particles=16, seed=1)
    assert ens.s2_norm() == float(np.sqrt(sup_seminorm_sq_values(ens.values, grid.steps).mean()))
    passes = []

    def counted(values, j):
        passes.append(j)
        return sup_seminorm_sq_values(values, j)

    monkeypatch.setattr(pathmkv.sde, "sup_seminorm_sq_values", counted)
    monkeypatch.setattr(pathmkv.measure, "sup_seminorm_sq_values", counted)
    first = reward(model, ens, 0.0)
    assert reward(model, ens, 0.0) == first
    assert passes == []


def test_running_growth_check_advances_one_node_per_step(monkeypatch):
    # f jumps above the declared envelope 1 + ||x||_t^2 from node 30 on; the
    # check must warn first at that t, read ||x||_t^2 as a pass from node 0
    # would at every step, and leave the rewards as they are without it
    import warnings

    import pathmkv.measure
    from pathmkv.paths import sup_seminorm_sq_values

    grid, t_bad = TimeGrid(1.0, 50), 0.6
    base = make_quadratic_terminal(grid, a=-1.0, s0=0.5, running=0.5)
    quadratic = base.running_cost

    def running_cost(t, xs, mu, u, nu):
        f = quadratic(t, xs, mu, u, nu)
        return f + 100.0 if t >= t_bad - 1e-12 else f

    model = replace(base, running_cost=running_cost, growth_h=lambda w: 1.0)
    ens = integrate(model, gaussian_initial(0.0, 0.3), n_particles=64, seed=9)
    t0 = 0.1
    seen = []
    check = control._growth_check

    def recorded(model, values, sq, t, kind):
        seen.append((t, kind, sq.copy()))
        return check(model, values, sq, t, kind)

    passes = []

    def counted(values, j):
        passes.append(j)
        return sup_seminorm_sq_values(values, j)

    monkeypatch.setattr(control, "_growth_check", recorded)
    monkeypatch.setattr(pathmkv.measure, "sup_seminorm_sq_values", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = reward(model, ens, t0)
    running = [(t, sq) for t, kind, sq in seen if kind == "f"]
    assert [t for t, _ in running] == [grid.time_at(j) for j in range(grid.node(t0), grid.steps)]
    for t, sq in running:
        assert np.array_equal(sq, sup_seminorm_sq_values(ens.values, grid.node(t)))
    assert passes == [grid.node(t0)]
    messages = [str(w.message) for w in caught if issubclass(w.category, ContractWarning)]
    assert messages and messages[0].startswith(f"declared growth envelope violated by f at t={t_bad:.4g} ")
    assert len(messages) == grid.steps - grid.node(t_bad)
    unchecked = reward(replace(model, growth_h=None), ens, t0)
    assert (got.mean, got.stderr) == (unchecked.mean, unchecked.stderr)
