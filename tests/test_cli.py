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
