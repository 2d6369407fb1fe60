import json
import os

import pytest

from pathmkv.cli import (
    DEFAULT_CONFIG,
    load_config,
    main,
    run,
    validate_config,
)
from pathmkv.errors import ConfigurationError


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
    ],
)
def test_ito_functionals_outside_the_zoo_or_without_derivatives_exit_2(
    tmp_path, capsys, functionals, match
):
    path = write_cfg(tmp_path, {**small_cfg(), "ito": {"functionals": functionals}})
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
    from pathmkv.hilbert import HilbertVec, SpectralOperator
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
            HilbertVec(p),
            t,
            rr,
            HilbertVec(np.zeros(m)),
            HilbertVec(a2),
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
        worst_pg = max(worst_pg, float(np.abs(u - res.u_star.coords).max()))
    ok = worst_grid_excess <= 0.0 and worst_pg <= 1e-8
    return {
        "pass": bool(ok),
        "worst_grid_excess": worst_grid_excess,
        "worst_projected_gradient_gap": worst_pg,
    }


@pytest.mark.parametrize("seed", [20240915, 102, 132])
def test_investment_oracle_matches_pinned_per_instance_loop(seed):
    from pathmkv.cli import _run_investment

    assert _run_investment({"seed": seed}) == _reference_run_investment({"seed": seed})


def test_bad_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run("simulate", str(p), str(tmp_path / "out")) == 2


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


def test_thread_count_does_not_change_results(tmp_path):
    path = write_cfg(tmp_path, {**small_cfg(), "wasserstein": {"n_instances": 12, "n_triples": 10}})
    out_a, out_b = str(tmp_path / "t1"), str(tmp_path / "t4")
    assert run("wasserstein", path, out_a, threads=1) == 0
    assert run("wasserstein", path, out_b, threads=4) == 0
    ra, rb = read_report(out_a), read_report(out_b)
    del ra["wall_time_s"], rb["wall_time_s"]
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


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
    assert main(["deriv-check", "--config", path, "--out", out, "--threads", "0"]) == 2


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
