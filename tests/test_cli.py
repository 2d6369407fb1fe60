import inspect
import json
import math
import os
import re
from collections import Counter

import numpy as np
import pytest

import pathmkv.rng
from pathmkv.acceptance import FLOW_MODELS, SUITE
from pathmkv.cli import (
    DEFAULT_CONFIG,
    SUBCOMMANDS,
    CONFIG_SCHEMA,
    REQUIRED,
    UNSET,
    load_config,
    main,
    resolve_config,
    run,
    validate_config,
)
from pathmkv.errors import ConfigurationError
from pathmkv.models import MODEL_FACTORIES
from pathmkv.sde import gaussian_initial, ramp_initial, two_point_initial


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def small_cfg():
    return {
        "grid": {"T": 1.0, "steps": 100},
        "particles": 128,
        "seed": 7,
    }


def test_unknown_key_rejected_with_path(tmp_path):
    path = write_cfg(tmp_path, {"grid": {"T": 1.0, "steps": 10, "bogus": 1}})
    with pytest.raises(ConfigurationError, match="grid.bogus"):
        load_config(path)


def test_wrong_type_rejected_with_path(tmp_path):
    path = write_cfg(tmp_path, {"particles": "many"})
    with pytest.raises(ConfigurationError, match="particles"):
        load_config(path)


def test_missing_required_subkey(tmp_path):
    path = write_cfg(tmp_path, {"grid": {"T": 1.0}})
    with pytest.raises(ConfigurationError, match="steps"):
        load_config(path)


@pytest.mark.parametrize("key, value", [("projections", 0), ("projections", -3), ("n_seeds", 0)])
def test_particles_converge_rejects_counts_below_one(tmp_path, key, value):
    path = write_cfg(tmp_path, {"particles_converge": {key: value}})
    with pytest.raises(ConfigurationError, match=f"particles_converge.{key}"):
        load_config(path)
    assert run("particles-converge", path, str(tmp_path / "out")) == 2
    assert not os.path.exists(tmp_path / "out" / "report.json")


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"particles": -5}, "particles"),
        ({"particles": 0}, "particles"),
        ({"grid": {"T": 1.0, "steps": 0}}, "grid.steps"),
        ({"particles": True}, "particles"),
        ({"seed": False}, "seed"),
        ({"grid": {"T": True, "steps": 10}}, "grid.T"),
        ({"particles_converge": {"projections": True}}, "particles_converge.projections"),
        ({"particles_converge": {"n_seeds": False}}, "particles_converge.n_seeds"),
        ({"wasserstein": {"n_instances": 0}}, "wasserstein.n_instances"),
        ({"wasserstein": {"max_atoms": 1}}, "wasserstein.max_atoms"),
        ({"hamiltonian": {"max_atoms": 0}}, "hamiltonian.max_atoms"),
        ({"hamiltonian": {"max_actions": 0}}, "hamiltonian.max_actions"),
        ({"deriv": {"n_atoms": 0}}, "deriv.n_atoms"),
        ({"picard": {"max_iter": 0}}, "picard.max_iter"),
        ({"hamiltonian": {"n_instances": -3}}, "hamiltonian.n_instances"),
        ({"hamiltonian": {"n_instances": 0}}, "hamiltonian.n_instances"),
        # law.n_particles defaults to min(particles, 2000), whose bound is 2
        ({"particles": 1}, "particles"),
    ],
)
def test_counts_below_one_and_booleans_for_numbers_exit_2(tmp_path, payload, key):
    path = write_cfg(tmp_path, payload)
    with pytest.raises(ConfigurationError, match=key):
        load_config(path)
    assert run("simulate", path, str(tmp_path / "out")) == 2
    assert not os.path.exists(tmp_path / "out" / "report.json")


def test_booleans_pass_where_the_schema_names_them():
    validate_config({"simulate": {"export_paths": True}})


@pytest.mark.parametrize(
    "functionals, match",
    [
        (["nope"], "unknown"),
        (["linear_mean", 3], "unknown"),
        (["running_sup_sq"], "analytic"),
        (["mean_squared_double"], "analytic"),
        (["linear_mean"], "particles"),
    ],
)
def test_ito_functionals_outside_the_zoo_or_without_derivatives_exit_2(
    tmp_path, capsys, functionals, match
):
    cfg = {**small_cfg(), "ito": {"functionals": functionals}}
    if match == "particles":
        cfg["particles"] = 5  # fewer particles than the 8 standard-error batches
    path = write_cfg(tmp_path, cfg)
    assert run("ito-check", path, str(tmp_path / "out")) == 2
    assert match in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "report.json")


def test_ito_battery_reports_are_tag_major(tmp_path):
    tags = ["quadratic_form", "linear_mean"]
    path = write_cfg(tmp_path, {**small_cfg(), "ito": {"functionals": tags}})
    out = str(tmp_path / "out")
    assert run("ito-check", path, out) == 0
    checks = read_report(out)["results"]["checks"]
    drives = [c["model"] for c in checks[:4]]
    assert len(set(drives)) == 4
    assert [(c["functional"], c["model"]) for c in checks] == (
        [(tag, drive) for tag in tags for drive in drives] + [("linear_mean", "mild:ou")]
    )


def _reference_run_investment(cfg):
    """The investment oracle as it was before the all-instance projected
    gradient: one 4000-iteration loop per instance."""
    import math

    import numpy as np

    from pathmkv.control import BoxActionSet
    from pathmkv.hilbert import SpectralOperator
    from pathmkv.hjb import investment_hamiltonian_closed_form

    n_grid = 2001
    worst_grid_excess = 0.0
    worst_pg = 0.0
    for k_inst in range(100):
        r = np.random.default_rng(cfg["seed"] + 31 * k_inst)
        m = int(r.integers(1, 4))
        p = r.normal(size=m)
        a2 = r.normal(size=m)
        c_diag = r.uniform(0.5, 2.0, m)
        m_diag = r.uniform(0.5, 2.0, m)
        t = float(r.uniform(0.0, 1.0))
        rr = float(r.uniform(0.0, 0.2))
        lo, hi = -2.0 * np.ones(m), 2.0 * np.ones(m)
        res = investment_hamiltonian_closed_form(
            p,
            t,
            rr,
            a2,
            SpectralOperator(c_diag),
            SpectralOperator(m_diag),
            BoxActionSet(lo, hi),
        )
        disc = math.exp(-rr * t)
        u_grid = np.empty(m)
        for k in range(m):
            g = np.linspace(lo[k], hi[k], n_grid)
            vals = c_diag[k] * g * p[k] - disc * (a2[k] * g + m_diag[k] * g**2)
            u_grid[k] = g[np.argmax(vals)]
        v_grid = float(
            np.dot(c_diag * u_grid, p) - disc * (np.dot(a2, u_grid) + np.dot(m_diag * u_grid, u_grid))
        )
        du = (hi[0] - lo[0]) / (n_grid - 1)
        bound = float((disc * m_diag).sum()) * (du / 2) ** 2
        worst_grid_excess = max(worst_grid_excess, abs(res.value - v_grid) - bound)
        u = np.zeros(m)
        step = 1.0 / (4.0 * disc * m_diag.max())
        for _ in range(4000):
            grad = c_diag * p - disc * (a2 + 2.0 * m_diag * u)
            u = np.clip(u + step * grad, lo, hi)
        worst_pg = max(worst_pg, float(np.abs(u - res.u_star).max()))
    ok = worst_grid_excess <= 0.0 and worst_pg <= 1e-8
    return {
        "pass": bool(ok),
        "worst_grid_excess": worst_grid_excess,
        "worst_projected_gradient_gap": worst_pg,
    }


@pytest.mark.parametrize("seed", [20240915, 102, 132])
def test_investment_oracle_matches_pinned_per_instance_loop(seed):
    from pathmkv.acceptance import _run_investment

    assert _run_investment({"seed": seed}) == _reference_run_investment({"seed": seed})


def test_small_suite_report_matches_the_golden_file(tmp_path):
    path = write_cfg(tmp_path, {"grid": {"T": 1.0, "steps": 96}, "particles": 256, "seed": 7})
    out = str(tmp_path / "out")
    assert run("suite", path, out) == 0
    report = read_report(out)
    del report["wall_time_s"]
    golden = os.path.join(os.path.dirname(__file__), "data", "suite_small.json")
    with open(golden) as fh:
        expected = json.load(fh)
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.slow
def test_default_suite_report_matches_the_golden_file(tmp_path):
    # the benchmark's own config: N = 4000, M = 1000 at the default seed
    out = str(tmp_path / "out")
    assert run("suite", None, out) == 0
    report = read_report(out)
    del report["wall_time_s"]
    golden = os.path.join(os.path.dirname(__file__), "data", "suite_default.json")
    with open(golden) as fh:
        expected = json.load(fh)
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_suite_runs_its_yosida_criterion_on_the_default_ou_model_whatever_the_config_tag(tmp_path):
    # yosida-converge refuses a non-OU tag; the suite pins the model of its
    # Yosida criterion, as it pins the constant start, and writes a report
    cfg = {
        "model": {"tag": "ou_drift", "params": {"kappa": 1.0, "s0": 0.1}},
        "grid": {"T": 1.0, "steps": 96},
        "particles": 256,
        "seed": 7,
    }
    out = str(tmp_path / "out")
    assert run("suite", write_cfg(tmp_path, cfg), out) in (0, 1)
    golden = os.path.join(os.path.dirname(__file__), "data", "suite_small.json")
    with open(golden) as fh:
        expected = json.load(fh)
    assert read_report(out)["results"]["yosida"] == expected["results"]["yosida"]


def test_bad_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run("simulate", str(p), str(tmp_path / "out")) == 2


def test_a_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    assert run("simulate", str(p), str(tmp_path / "out")) == 2
    assert "config root must be an object" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(tmp_path):
    assert run("frobnicate", None, str(tmp_path / "out")) == 2


def test_simulate_writes_report_and_paths(tmp_path):
    cfg = small_cfg()
    cfg["simulate"] = {"export_paths": True}
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert run("simulate", path, out) == 0
    report = read_report(out)
    assert report["pass"] is True
    assert report["version"].startswith("pathmkv-")
    assert os.path.exists(os.path.join(out, "paths", "manifest.json"))


def test_config_echo_roundtrips(tmp_path):
    path = write_cfg(tmp_path, small_cfg())
    out = str(tmp_path / "out")
    assert run("deriv-check", path, out) == 0
    echoed = read_report(out)["config"]
    validate_config(echoed)  # must re-parse as a valid config
    assert echoed["particles"] == 128
    assert echoed["seed"] == 7


def test_seed_override_changes_results(tmp_path):
    path = write_cfg(tmp_path, small_cfg())
    out_a, out_b, out_c = (str(tmp_path / d) for d in ("a", "b", "c"))
    assert run("simulate", path, out_a) == 0
    assert run("simulate", path, out_b, seed=8) == 0
    assert run("simulate", path, out_c) == 0
    mom_a = read_report(out_a)["results"]["moments"]
    mom_b = read_report(out_b)["results"]["moments"]
    mom_c = read_report(out_c)["results"]["moments"]
    assert mom_a != mom_b
    assert mom_a == mom_c


def test_reports_identical_modulo_wall_time(tmp_path):
    path = write_cfg(tmp_path, {**small_cfg(), "wasserstein": {"n_instances": 10, "n_triples": 20}})
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("wasserstein", path, out_a) == 0
    assert run("wasserstein", path, out_b) == 0
    ra, rb = read_report(out_a), read_report(out_b)
    del ra["wall_time_s"], rb["wall_time_s"]
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


@pytest.mark.parametrize("n", range(2, 9))
def test_the_brute_force_w2_oracle_is_the_float_of_the_per_permutation_sum(n):
    # n = 2..7 is criterion 7's default range; at n = 8 numpy would sum a
    # row of the gather pairwise, which the row-by-row adds avoid
    from itertools import permutations

    from pathmkv.acceptance import _min_assignment_cost

    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        # entries of one magnitude, so that a sum in another order would
        # round differently (at n = 8 pairwise sums moved 2 of these 5 minima)
        cost = rng.uniform(1.0, 2.0, size=(n, n))
        want = min(sum(cost[i, p[i]] for i in range(n)) / n for p in permutations(range(n)))
        assert _min_assignment_cost(cost) == want


def test_bench_call_form_with_threads_matches_the_plain_call(tmp_path):
    # bench/workloads.py calls run(..., threads=1); the keyword is ignored
    path = write_cfg(tmp_path, {**small_cfg(), "wasserstein": {"n_instances": 12, "n_triples": 10}})
    out_a, out_b = str(tmp_path / "bench"), str(tmp_path / "plain")
    assert run("wasserstein", path, out_a, seed=11, threads=1) == 0
    assert run("wasserstein", path, out_b, seed=11) == 0
    ra, rb = read_report(out_a), read_report(out_b)
    del ra["wall_time_s"], rb["wall_time_s"]
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_every_runner_and_criterion_takes_cfg_and_out_dir():
    for registry, table in (("cli", SUBCOMMANDS), ("suite", SUITE)):
        for name, fn in table.items():
            assert list(inspect.signature(fn).parameters) == ["cfg", "out_dir"], (registry, name)


def test_flow_property_covers_every_registered_model():
    assert list(FLOW_MODELS) == list(MODEL_FACTORIES)


def test_blowup_exits_3(tmp_path):
    cfg = {
        "model": {"tag": "meanfield_growth", "params": {"theta": 1.0e9}},
        "grid": {"T": 1.0, "steps": 50},
        "particles": 8,
        "seed": 1,
        "initial": {"kind": "constant", "value": [1.0]},
    }
    path = write_cfg(tmp_path, cfg)
    import numpy as np

    with np.errstate(over="ignore"):
        assert run("simulate", path, str(tmp_path / "out")) == 3


def test_main_entry_point(tmp_path):
    path = write_cfg(tmp_path, small_cfg())
    out = str(tmp_path / "out")
    assert main(["deriv-check", "--config", path, "--out", out]) == 0


def test_threads_flag_is_unknown(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wasserstein", "--out", str(tmp_path / "out"), "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_default_config_is_valid():
    validate_config(DEFAULT_CONFIG)


def test_picard_subcommand(tmp_path):
    cfg = {
        "model": {"tag": "meanfield_growth", "params": {"theta": 1.0}},
        "grid": {"T": 1.0, "steps": 100},
        "particles": 16,
        "seed": 3,
        "initial": {"kind": "constant", "value": [1.0]},
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert run("picard", path, out) == 0
    res = read_report(out)["results"]
    assert res["iterations"] >= 1
    assert res["agreement_with_direct"] <= 1e-9 + 0.1


def test_picard_nonconvergence_reported_as_failed_check(tmp_path):
    cfg = {
        "model": {"tag": "meanfield_growth", "params": {"theta": 50.0}},
        "grid": {"T": 1.0, "steps": 100},
        "particles": 8,
        "seed": 2,
        "initial": {"kind": "constant", "value": [1.0]},
        "picard": {"max_iter": 10},
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert run("picard", path, out) == 1
    res = read_report(out)["results"]
    assert res["pass"] is False
    assert len(res["gaps"]) == 10


def test_yosida_subcommand(tmp_path):
    cfg = {
        "grid": {"T": 1.0, "steps": 200},
        "particles": 64,
        "seed": 5,
        "initial": {"kind": "constant", "value": [1.0]},
        "yosida": {"ladder": [2, 8, 32]},
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert run("yosida-converge", path, out) == 0
    res = read_report(out)["results"]
    d = res["distances"]
    assert d[0] > d[1] > d[2]


@pytest.mark.parametrize(
    "subcommand, payload, key",
    [
        ("dpp-check", {"dpp": {"split_times": []}}, "dpp.split_times"),
        ("dpp-check", {"dpp": {"split_times": [1.5]}}, "dpp.split_times"),
        ("dpp-check", {"dpp": {"t0": 0.6, "split_times": [0.25, 0.75]}}, "dpp.t0"),
        ("dpp-check", {"dpp": {"t0": 1.5}}, "dpp.t0"),
        ("law-check", {"law": {"families": []}}, "law.families"),
        ("hjb-residual", {"hjb": {"times": []}}, "hjb.times"),
        ("yosida-converge", {"yosida": {"ladder": []}}, "yosida.ladder"),
        ("ito-check", {"ito": {"s": 1.5}}, "ito.s"),
        ("ito-check", {"ito": {"t": 0.75, "s": 0.5}}, "ito.s"),
        ("ito-check", {"ito": {"t": -0.25}}, "ito.t"),
        ("hjb-residual", {"hjb": {"times": [5.0]}}, "hjb.times"),
        ("hjb-residual", {"hjb": {"times": [-1.0]}}, "hjb.times"),
        ("hjb-residual", {"hjb": {"times": ["a"]}}, "hjb.times"),
        ("dpp-check", {"dpp": {"split_times": ["a"]}}, "dpp.split_times"),
    ],
)
def test_empty_lists_and_times_off_the_horizon_exit_2(tmp_path, capsys, subcommand, payload, key):
    path = write_cfg(tmp_path, {**small_cfg(), **payload})
    assert run(subcommand, path, str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"'{key}'" in err
    assert not os.path.exists(tmp_path / "out" / "report.json")


def test_hamiltonian_forms_refuses_the_enumeration_cap_before_any_instance(tmp_path, capsys, monkeypatch):
    import pathmkv.acceptance

    calls = []
    monkeypatch.setattr(pathmkv.acceptance, "hamiltonian_sup_finite", lambda *a, **k: calls.append(a))
    path = write_cfg(tmp_path, {"hamiltonian": {"max_atoms": 12, "max_actions": 5, "n_instances": 60}})
    assert run("hamiltonian-forms", path, str(tmp_path / "out")) == 2
    assert "'hamiltonian.max_atoms'" in capsys.readouterr().err
    assert calls == [] and not os.path.exists(tmp_path / "out" / "report.json")
    # at the cap itself, 10**6 maps, the run is allowed
    path = write_cfg(tmp_path, {"hamiltonian": {"max_atoms": 6, "max_actions": 10, "n_instances": 1}})
    assert run("hamiltonian-forms", path, str(tmp_path / "out")) == 0
    assert len(calls) == 2


def test_each_stage_draws_each_brownian_block_once_and_shares_it_read_only(tmp_path, monkeypatch):
    # the config of tests/data/suite_small.json
    path = write_cfg(tmp_path, {"grid": {"T": 1.0, "steps": 96}, "particles": 256, "seed": 7})
    cfg = resolve_config(load_config(path))
    draws = []
    draw = pathmkv.rng.brownian_increments

    def counted(seed, n_particles, n_steps, dk, dt):
        block = draw(seed, n_particles, n_steps, dk, dt)
        draws.append(((seed, n_particles, n_steps, dk), block))
        return block

    monkeypatch.setattr(pathmkv.rng, "brownian_increments", counted)
    per_stage = {}
    for stage in ("yosida", "ito", "dpp", "law"):
        draws.clear()
        SUITE[stage](cfg, str(tmp_path))
        per_stage[stage] = list(draws)
        blocks = Counter(args for args, _ in draws)
        assert all(count == 1 for count in blocks.values()), (stage, blocks)
        for _, block in draws:
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0, 0] = 0.0
    assert [args for args, _ in per_stage["yosida"]] == [(7, 256, 96, 1)]
    assert [args for args, _ in per_stage["ito"]] == [(7, 256, 96, 1)]
    # the base run's block and the one continuation block, for all three splits
    assert len(per_stage["dpp"]) == 2
    # one block per side; the guard rail stops at its moment test and draws none
    assert sorted(args[0] for args, _ in per_stage["law"]) == [7, 7 + 77]


@pytest.mark.parametrize("particles", [256, 2000])
def test_the_law_and_ito_stages_draw_each_initial_sample_once(tmp_path, monkeypatch, particles):
    # law: each side samples once for the moment test, at max(N, 512) paths,
    # and once more for its six runs only when N differs; the guard rail
    # stops at its moment test.  ito: one sample for the four drives.
    seed = 7
    path = write_cfg(tmp_path, {"grid": {"T": 1.0, "steps": 96}, "particles": particles, "seed": seed})
    cfg = resolve_config(load_config(path))
    calls = []
    for name in ("uniforms", "normals"):
        real = getattr(pathmkv.rng, name)

        def counted(s, stream, n, count=1, name=name, real=real):
            calls.append((name, s, n))
            return real(s, stream, n, count)

        monkeypatch.setattr(pathmkv.rng, name, counted)
    guard = max(particles, 512)
    law = [("uniforms", seed, guard), ("uniforms", seed + 77, guard)]
    if guard != particles:
        law += [("uniforms", seed, particles), ("uniforms", seed + 77, particles)]
    law += [("normals", seed + 1, 512), ("normals", seed + 2, 512)]
    SUITE["law"](cfg, str(tmp_path))
    assert calls == law
    calls.clear()
    SUITE["ito"](cfg, str(tmp_path))
    assert calls == [("normals", seed, particles)]


def test_a_suite_run_draws_five_blocks_and_a_second_run_draws_them_again(tmp_path, monkeypatch):
    # One scope per run keeps one block: ou_oracle's (seed, N) block serves
    # yosida, ito, the DPP base run and the 32-particle flow and
    # non-anticipativity runs.  weak_order draws and coarsens its own block
    # in one pass, DPP's continuation block replaces the kept one, and each
    # law side draws.
    import pathmkv.acceptance
    from pathmkv.acceptance import run_suite
    from pathmkv.control import _continuation_seed

    with open(os.path.join(os.path.dirname(__file__), "data", "suite_small.json")) as fh:
        cfg = resolve_config(load_config(write_cfg(tmp_path, json.load(fh)["config"])))
    draws = []
    draw, refine = pathmkv.rng.brownian_increments, pathmkv.rng.refine_increments

    def counted(seed, n_particles, n_steps, dk, dt):
        draws.append((seed, n_particles, n_steps, dk))
        return draw(seed, n_particles, n_steps, dk, dt)

    def counted_refine(seed, n_particles, n_steps, dk, dt, factors):
        draws.append((seed, n_particles, n_steps, dk))
        return refine(seed, n_particles, n_steps, dk, dt, factors)

    monkeypatch.setattr(pathmkv.rng, "brownian_increments", counted)
    monkeypatch.setattr(pathmkv.acceptance, "refine_increments", counted_refine)
    expected = [(7, 256, 96, 1), (10, 256, 96, 1), (_continuation_seed(7), 256, 96, 1),
                (7, 256, 96, 1), (84, 256, 96, 1)]
    for _ in range(2):
        draws.clear()
        assert run_suite(cfg, str(tmp_path))["pass"]
        assert draws == expected


SUITE_TWICE = """
import json, sys
from pathmkv.acceptance import run_suite
from pathmkv.cli import load_config, resolve_config

cfg = resolve_config(load_config(None))
passed = [run_suite(cfg, sys.argv[1])["pass"] for _ in range(2)]
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"passed": passed, "peak_mb": peak_kb / 1024}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_two_default_suite_runs_in_one_process_peak_below_190_mb(tmp_path):
    """The suite keeps one 32 MB block across criteria.  This bounds the
    peak RSS of repeated runs, heap fragmentation around the kept block
    included, which tracemalloc does not see.  Two default runs in a fresh
    interpreter (one BLAS thread) peaked at 178.4-178.7 MB on a 2-core
    x86-64 Linux machine with Python 3.11.  It is the interpreter's own
    VmHWM: ru_maxrss carries the peak of the forking process across exec,
    and that of this test process can pass 190 MB by itself."""
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SUITE_TWICE, str(tmp_path)], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["passed"] == [True, True]
    assert out["peak_mb"] < 190.0, out["peak_mb"]


def test_weak_order_at_the_default_config_peaks_below_64_mb(tmp_path):
    # the three coarse blocks are 28 MB together and drawn in one pass, with
    # no 32 MB fine block: the criterion peaked at 30.6 MB under tracemalloc
    # on x86-64 Linux, against 61.1 MB when it built the fine block first.
    import tracemalloc

    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    tracemalloc.start()
    try:
        SUITE["weak_order"](cfg, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, peak / 2**20


@pytest.mark.parametrize("stage", ["yosida", "dpp"])
def test_yosida_and_dpp_at_the_default_config_peak_below_112_mb(tmp_path, stage):
    # one (4000, 1001, 1) block is 32 MB.  Yosida holds the shared noise, the
    # base paths and one rung; the DPP tower holds the base paths and one
    # continuation's noise and paths.  A fourth block, or a temporary as
    # large as one, would pass 112 MB (3.5 blocks).
    import tracemalloc

    cfg = resolve_config(DEFAULT_CONFIG)
    tracemalloc.start()
    try:
        report = SUITE[stage](cfg, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"]
    assert peak <= 112 * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# Config builders that the suite's default config does not reach: each config
# route must build what the matching library call builds.


def tiny_cfg():
    return {"grid": {"T": 1.0, "steps": 16}, "particles": 64, "seed": 7}


@pytest.mark.parametrize(
    "spec, law",
    [
        ({"kind": "gaussian", "mean": 0.3, "std": 2.0}, gaussian_initial(0.3, 2.0)),
        ({"kind": "two_point", "a": -0.5, "b": 2.0}, two_point_initial(-0.5, 2.0)),
        ({"kind": "ramp", "scale": 1.5}, ramp_initial(1.5)),
    ],
    ids=["gaussian", "two_point", "ramp"],
)
def test_simulate_builds_each_initial_law_kind(tmp_path, spec, law):
    from pathmkv.models import make_ou
    from pathmkv.paths import TimeGrid
    from pathmkv.sde import integrate

    out = str(tmp_path / "out")
    assert run("simulate", write_cfg(tmp_path, {**tiny_cfg(), "initial": spec}), out) == 0
    model = make_ou(TimeGrid(1.0, 16), a=-1.0, s0=0.5)
    ens = integrate(model, law, None, 0.0, 64, 7)
    assert read_report(out)["results"]["moments"] == json.loads(json.dumps(ens.summary_moments()))


def test_unknown_initial_law_kind_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, {**tiny_cfg(), "initial": {"kind": "cauchy"}})
    assert run("simulate", path, str(tmp_path / "out")) == 2
    assert "unknown initial law kind 'cauchy'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "report.json")


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"kind": "constant", "value": [0.5], "std": 2.0}, "initial.std"),
        ({"kind": "two_point", "a": -0.5, "value": [1.0]}, "initial.value"),
        ({"kind": "gaussian", "mean": 0.3, "scale": 2.0}, "initial.scale"),
        ({"kind": "ramp", "value": [2.0]}, "initial.value"),
    ],
    ids=["constant", "two_point", "gaussian", "ramp"],
)
def test_initial_keys_the_kind_does_not_read_exit_2(tmp_path, capsys, spec, key):
    path = write_cfg(tmp_path, {**tiny_cfg(), "initial": spec})
    assert run("simulate", path, str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"'{key}'" in err
    assert not os.path.exists(tmp_path / "out" / "report.json")


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "gaussian", "mean": 6.0, "std": 0.1},
        {"kind": "two_point", "a": -1.0, "b": 1.0},
        {"kind": "ramp", "scale": 1.0},
    ],
    ids=["gaussian", "two_point", "ramp"],
)
def test_yosida_refuses_a_random_start_its_oracle_cannot_score(tmp_path, capsys, spec):
    # the oracle is the OU closed form from a deterministic start; a Gaussian
    # start at mean 6 was scored as x0 = 0 and failed a correct run
    path = write_cfg(tmp_path, {**tiny_cfg(), "initial": spec, "yosida": {"ladder": [2, 8]}})
    assert run("yosida-converge", path, str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'initial.kind'" in err
    assert not os.path.exists(tmp_path / "out" / "report.json")


def test_yosida_refuses_a_model_other_than_ou(tmp_path, capsys):
    # ou_drift has A = 0, so every rung equals the base run: the distances
    # read [0, 0, 0] and failed against the OU oracle instead of being refused
    cfg = {
        "model": {"tag": "ou_drift", "params": {"kappa": 1.0, "s0": 0.1}},
        "grid": {"T": 1.0, "steps": 200},
        "particles": 400,
        "seed": 5,
        "initial": {"kind": "constant", "value": [3.0]},
        "yosida": {"ladder": [2, 8, 32]},
    }
    path = write_cfg(tmp_path, cfg)
    assert run("yosida-converge", path, str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'model.tag'" in err
    assert not os.path.exists(tmp_path / "out" / "report.json")


@pytest.mark.parametrize("seed", [-3, -1, 2**63, 2**64])
def test_seed_outside_the_stream_key_range_exits_2_from_the_config(tmp_path, capsys, seed):
    path = write_cfg(tmp_path, {**tiny_cfg(), "seed": seed})
    with pytest.raises(ConfigurationError, match="seed"):
        load_config(path)
    assert run("simulate", path, str(tmp_path / "out")) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "report.json")


@pytest.mark.parametrize("seed", [-1, 2**63])
def test_seed_outside_the_stream_key_range_exits_2_from_the_flag(tmp_path, capsys, seed):
    path = write_cfg(tmp_path, tiny_cfg())
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", path, "--out", out, "--seed", str(seed)]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))
    assert run("simulate", path, out, seed=seed) == 2


def test_seeds_at_both_ends_of_the_range_run(tmp_path):
    path = write_cfg(tmp_path, {**tiny_cfg(), "seed": 2**63 - 1})
    assert run("simulate", path, str(tmp_path / "a")) == 0
    assert read_report(str(tmp_path / "a"))["config"]["seed"] == 2**63 - 1
    assert run("simulate", path, str(tmp_path / "b"), seed=0) == 0
    assert read_report(str(tmp_path / "b"))["config"]["seed"] == 0


def test_law_families_build_uncontrolled_and_constant_policies(tmp_path):
    # the runner's first two default families are [None] and [constant 0]
    families = [[{"kind": "uncontrolled"}], [{"kind": "constant", "u": [0.0]}]]
    cfg = {**tiny_cfg(), "law": {"n_particles": 64}}
    out_default, out_cfg = str(tmp_path / "default"), str(tmp_path / "cfg")
    assert run("law-check", write_cfg(tmp_path, cfg, "a.json"), out_default) in (0, 1)
    cfg["law"]["families"] = families
    assert run("law-check", write_cfg(tmp_path, cfg, "b.json"), out_cfg) in (0, 1)
    from_cfg = read_report(out_cfg)["results"]["per_family"]
    assert len(from_cfg) == 2
    assert from_cfg == read_report(out_default)["results"]["per_family"][:2]


@pytest.mark.parametrize(
    "spec, match",
    [
        ({"kind": "bang_bang"}, "unknown policy kind 'bang_bang'"),
        ({"kind": "constant"}, "constant policy needs a 'u' action vector"),
        ({"kind": "constant", "u": [math.nan]}, "a non-empty list of finite numbers; got [nan]"),
        ("constant", "policy spec must be an object with a kind"),
    ],
    ids=["unknown-kind", "missing-u", "non-finite-u", "not-an-object"],
)
# law.families is the one config key that holds policy specs
@pytest.mark.parametrize("subcommand", ["law-check"])
def test_bad_policy_specs_exit_2(tmp_path, capsys, subcommand, spec, match):
    path = write_cfg(tmp_path, {**tiny_cfg(), "law": {"families": [[spec]]}})
    assert run(subcommand, path, str(tmp_path / "out")) == 2
    assert match in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "report.json")


def test_particles_converge_runs_to_completion_and_reproduces(tmp_path):
    cfg = {
        "grid": {"T": 1.0, "steps": 8},
        "particles": 16,
        "seed": 7,
        "particles_converge": {"rungs": [8, 32], "n_seeds": 2, "projections": 8},
    }
    path = write_cfg(tmp_path, cfg)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("particles-converge", path, out_a) in (0, 1)
    assert run("particles-converge", path, out_b) in (0, 1)
    ra, rb = read_report(out_a), read_report(out_b)
    res = ra["results"]
    assert sorted(res) == ["avg_distances", "pass", "rungs"]
    assert res["rungs"] == [8, 32]
    assert len(res["avg_distances"]) == 2
    assert all(isinstance(v, float) and v > 0.0 for v in res["avg_distances"])
    assert res["pass"] == (res["avg_distances"][0] > res["avg_distances"][1])
    del ra["wall_time_s"], rb["wall_time_s"]
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_hjb_candidate_key_is_unknown(tmp_path, capsys):
    path = write_cfg(tmp_path, {**tiny_cfg(), "hjb": {"candidate": "feynman_kac"}})
    assert run("hjb-residual", path, str(tmp_path / "out")) == 2
    assert "hjb.candidate" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "report.json")


@pytest.mark.parametrize(
    "subcommand, payload, key",
    [
        ("picard", {"picard": {"tol": 0}}, "picard.tol"),
        ("picard", {"picard": {"tol": -1e-3}}, "picard.tol"),
        ("picard", {"picard": {"window": 0}}, "picard.window"),
        ("picard", {"picard": {"window": -0.5}}, "picard.window"),
        ("deriv-check", {"deriv": {"eps": 0}}, "deriv.eps"),
        ("deriv-check", {"deriv": {"eps": -1e-5}}, "deriv.eps"),
        ("simulate", {"simulate": {"t0": 5.0}}, "simulate.t0"),
        ("simulate", {"simulate": {"t0": -1.0}}, "simulate.t0"),
        ("yosida-converge", {"yosida": {"ladder": [-2]}}, "yosida.ladder"),
        ("yosida-converge", {"yosida": {"ladder": ["a"]}}, "yosida.ladder"),
        ("particles-converge", {"particles_converge": {"rungs": []}}, "particles_converge.rungs"),
        ("particles-converge", {"particles_converge": {"rungs": ["a"]}}, "particles_converge.rungs"),
        ("simulate", {"initial": {"kind": "constant", "value": ["a"]}}, "initial.value"),
        ("simulate", {"model": {"tag": "ou", "params": {"a": "x"}}}, "model.params.a"),
        ("simulate", {"model": {"tag": "controlled_linear", "params": {"actions": 3}}}, "model.params.actions"),
        ("dpp-check", {"dpp": {"family": [{"kind": "uncontrolled"}]}}, "dpp.family"),
        ("law-check", {"law": {"families": [[{"kind": "constant", "u": []}]]}}, "law.families"),
        ("wasserstein", {"wasserstein": {"max_atoms": 10, "n_instances": 1}}, "wasserstein.max_atoms"),
        # the suite's weak-order criterion coarsens the grid by 8, 4 and 2
        ("suite", {"grid": {"T": 1.0, "steps": 4}}, "grid.steps"),
        ("suite", {"grid": {"T": 1.0, "steps": 12}}, "grid.steps"),
        ("ito-check", {"ito": {"t": 0.5, "s": 0.5}}, "ito.s"),
        ("deriv-check", {"deriv": {"n_atoms": 1}}, "deriv.n_atoms"),
        ("law-check", {"law": {"families": [[]]}}, "law.families"),
        # json reads NaN, Infinity and -Infinity; a bound fed one is vacuous
        ("ito-check", {"ito": {"dt_coeff": math.inf}}, "ito.dt_coeff"),
        ("picard", {"picard": {"tol": math.inf}}, "picard.tol"),
        ("simulate", {"grid": {"T": math.inf, "steps": 10}}, "grid.T"),
        ("picard", {"picard": {"window": math.inf}}, "picard.window"),
        ("simulate", {"model": {"tag": "ou", "params": {"a": math.nan}}}, "model.params.a"),
        ("simulate", {"initial": {"kind": "gaussian", "mean": math.nan}}, "initial.mean"),
        ("simulate", {"initial": {"kind": "constant", "value": [math.inf]}}, "initial.value"),
    ],
)
def test_values_outside_a_key_bound_exit_2_naming_the_key(tmp_path, capsys, subcommand, payload, key):
    path = write_cfg(tmp_path, {**tiny_cfg(), **payload})
    assert run(subcommand, path, str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"'{key}'" in err
    assert not os.path.exists(tmp_path / "out" / "report.json")


def test_a_domain_error_from_the_model_exits_2(tmp_path, capsys):
    # OU with a = 1 has eta = 1, so the Yosida index n = 0.5 is outside its domain
    cfg = {**tiny_cfg(), "model": {"tag": "ou", "params": {"a": 1.0}}, "yosida": {"ladder": [0.5]}}
    assert run("yosida-converge", write_cfg(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith("config error: Yosida index must exceed eta")
    assert not os.path.exists(tmp_path / "out" / "report.json")


@pytest.mark.parametrize("subcommand", ["simulate", "picard", "ito-check", "dpp-check", "law-check"])
def test_subcommands_run_on_a_one_step_grid(tmp_path, subcommand):
    cfg = {**tiny_cfg(), "grid": {"T": 1.0, "steps": 1}}
    assert run(subcommand, write_cfg(tmp_path, cfg), str(tmp_path / "out")) == 0
    assert read_report(str(tmp_path / "out"))["subcommand"] == subcommand


def test_yosida_reads_a_list_valued_a_from_the_built_model(tmp_path):
    results = []
    for a in (-1.0, [-1.0]):
        cfg = {**tiny_cfg(), "model": {"tag": "ou", "params": {"a": a, "s0": 0.5}}}
        out = str(tmp_path / f"out{len(results)}")
        assert run("yosida-converge", write_cfg(tmp_path, cfg), out) == 0
        results.append(read_report(out)["results"])
    assert results[0] == results[1]


def _schema_leaves(schema, path=""):
    for key, spec in schema.items():
        here = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            yield from _schema_leaves(spec, here)
        elif key != "*":
            yield here, spec


def test_readme_config_table_names_every_schema_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        rows = {
            line.split("|")[1].strip().strip("`"): line
            for line in fh
            if line.startswith("| `")
        }
    for leaf, _ in _schema_leaves(CONFIG_SCHEMA):
        top, *rest = leaf.split(".")
        assert top in rows, leaf
        assert all(f'"{name}"' in rows[top] for name in rest), leaf
    # and back: a row that lists its keys as {"a", "b", ...} lists schema keys only
    for top, line in rows.items():
        for listed in re.findall(r'\{("[^"]+"(?:, "[^"]+")*)\}', line.split("|")[2]):
            for name in re.findall(r'"([^"]+)"', listed):
                assert name in CONFIG_SCHEMA[top], f"{top}.{name}"
    # the default column: a top-level default is the cell's first code span
    defaults = {top: line.split("|")[4] for top, line in rows.items()}
    for top, default in DEFAULT_CONFIG.items():
        assert json.loads(re.search(r"`([^`]+)`", defaults[top]).group(1)) == default, top
    # a stage key's is a `name = value` span, the value as JSON, or an
    # expression for a default computed from the config
    for leaf, (_, _, default) in _schema_leaves(CONFIG_SCHEMA):
        top, *rest = leaf.split(".")
        if top in DEFAULT_CONFIG:
            assert default in (REQUIRED, UNSET, DEFAULT_CONFIG[top]), leaf
            continue
        documented = dict(re.findall(r"`(\w+) = ([^`]+)`", defaults[top]))
        assert rest[-1] in documented, leaf
        if not callable(default):
            assert json.loads(documented[rest[-1]]) == default, leaf


# ---------------------------------------------------------------------------
# The resolved config: every default filled in, the config every runner reads.


def test_the_resolved_default_config_is_valid_and_holds_every_default():
    cfg = load_config(None)
    resolved = resolve_config(cfg)
    validate_config(resolved)
    for leaf, (_, _, default) in _schema_leaves(CONFIG_SCHEMA):
        top, *rest = leaf.split(".")
        block = resolved[top] if rest else resolved
        if default is not UNSET:
            assert (rest[-1] if rest else top) in block, leaf
    assert resolved["ito"]["s"] == cfg["grid"]["T"]
    assert resolved["law"]["n_particles"] == min(cfg["particles"], 2000)


def test_resolve_config_leaves_its_input_and_hands_out_no_shared_default():
    cfg = load_config(None)
    before = json.dumps(cfg, sort_keys=True)
    first = resolve_config(cfg)
    assert json.dumps(cfg, sort_keys=True) == before
    first["yosida"]["ladder"].append(64)
    first["law"]["families"][0].append({"kind": "uncontrolled"})
    first["model"]["params"]["a"] = -2.0
    second = resolve_config(cfg)
    assert second["yosida"]["ladder"] == CONFIG_SCHEMA["yosida"]["ladder"][2] == [2, 8, 32]
    assert second["law"]["families"] == CONFIG_SCHEMA["law"]["families"][2]
    assert len(second["law"]["families"][0]) == 1
    assert second["model"] == DEFAULT_CONFIG["model"] == cfg["model"]


def small_stage_cfg():
    # every subcommand in a second or less; the keys left out resolve to defaults
    return {
        **tiny_cfg(),
        "particles_converge": {"rungs": [8, 16], "n_seeds": 1, "projections": 8},
        "wasserstein": {"n_instances": 5, "n_triples": 10},
        "hamiltonian": {"n_instances": 5},
    }


@pytest.mark.parametrize("subcommand", list(SUBCOMMANDS))
def test_a_resolved_config_written_out_reruns_to_the_same_results(tmp_path, subcommand):
    path = write_cfg(tmp_path, small_stage_cfg())
    resolved = write_cfg(tmp_path, resolve_config(load_config(path)), "resolved.json")
    out_user, out_resolved = str(tmp_path / "user"), str(tmp_path / "resolved")
    assert run(subcommand, path, out_user) in (0, 1)
    assert run(subcommand, resolved, out_resolved) in (0, 1)
    results = [json.dumps(read_report(out)["results"], sort_keys=True) for out in (out_user, out_resolved)]
    assert results[0] == results[1]
    # the whole report at the user config, pinned across versions
    report = read_report(out_user)
    del report["wall_time_s"]
    with open(os.path.join(os.path.dirname(__file__), "data", "subcommands_small.json")) as fh:
        expected = json.load(fh)[subcommand]
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_the_yosida_oracle_reads_the_size_of_s0_not_its_sign(tmp_path):
    # s0 = -0.5 drives noise of the same law as s0 = 0.5, so the distances
    # agree; the oracle read the signed config value, went negative, and the
    # run passed without checking its bound
    results = []
    for s0 in (0.5, -0.5):
        cfg = {**tiny_cfg(), "model": {"tag": "ou", "params": {"a": -1.0, "s0": s0}}}
        out = str(tmp_path / f"out{len(results)}")
        assert run("yosida-converge", write_cfg(tmp_path, cfg), out) in (0, 1)
        results.append(read_report(out)["results"])
    assert results[0]["oracle_bound_x10"] > 0.0
    assert results[0] == results[1]
