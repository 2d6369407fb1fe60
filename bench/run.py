"""Run one pathmkv benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload suite --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout (the program is imported from its
`src/`).  Every measurement happens in fresh worker processes (worker.py) with
BLAS pinned to one thread.  --trace 0 runs timed rounds for --seconds and
prints the end-to-end metrics; --trace 1 runs one untraced and one traced
round and prints the per-layer metrics.  Outputs are checked after timing;
the last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4  # set-up-only processes per run, after one unmeasured warm-up
RUN_BUDGET_S = 165  # every worker of one run ends within this, leaving time for the checks


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, out_dir, config, deadline, seconds=0.0, trace=False, setup_only=False) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)), "--out", out_dir]
    cmd += ["--config", config] if config else []
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=max(deadline - spawned_at, 1.0))
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(os.path.join(out_dir, "result.json")) as fh:
        return json.load(fh)


def read_reports(workload, round_dir) -> list:
    texts = []
    for rel in workloads.REPORTS[workload]:
        with open(os.path.join(round_dir, rel)) as fh:
            texts.append(fh.read())
    return texts


def check_outputs(workload, seed, reports) -> list:
    parsed = [json.loads(t) for t in reports]
    if workload == "suite":
        return checks.check_suite(parsed[0])
    if workload == "ensemble":
        return checks.check_ensemble(*parsed)
    sys.path.insert(0, SRC)
    import pathmkv

    return checks.check_transport(pathmkv, seed, parsed[0], workloads.transport_measures(pathmkv, seed))


def same_reports(workload, dir_a, dir_b) -> list:
    bad = []
    for rel, a, b in zip(workloads.REPORTS[workload], read_reports(workload, dir_a), read_reports(workload, dir_b)):
        if checks.without_wall_time(a) != checks.without_wall_time(b):
            bad.append(f"{rel} of {dir_b} differs from {dir_a} beyond wall_time_s")
    return bad


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pathmkv", "__init__.py")):
        print(f"no pathmkv sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    seed = workloads.root_seed(args.seed)
    run_dir = os.path.join(ROOT, ".bench_runs", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config = workloads.write_config(args.workload, seed, run_dir)
    job = dict(workload=args.workload, seed=seed, config=config, deadline=time.monotonic() + RUN_BUDGET_S)

    try:
        if args.trace:
            plain = spawn(out_dir=os.path.join(run_dir, "untraced"), **job)
            traced = spawn(out_dir=os.path.join(run_dir, "traced"), trace=True, **job)
            workers = [plain, traced]
        else:
            setups = [
                spawn(out_dir=os.path.join(run_dir, f"setup{k}"), setup_only=True, **job)["setup_s"]
                for k in range(SETUP_PROBES + 1)
            ][1:]
            plain = spawn(out_dir=os.path.join(run_dir, "timed"), seconds=args.seconds, **job)
            workers = [plain]
    except (WorkerError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    rounds = [r for w in workers for r in w["rounds"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    first = os.path.join(run_dir, "untraced" if args.trace else "timed", "round0")
    problems = check_outputs(args.workload, seed, read_reports(args.workload, first))
    for k in range(1, len(plain["rounds"])):
        problems += same_reports(args.workload, first, os.path.join(os.path.dirname(first), f"round{k}"))

    if args.trace:
        problems += same_reports(args.workload, first, os.path.join(run_dir, "traced", "round0"))
        trace = traced["trace"]
        traced_wall = traced["rounds"][0]["wall_s"]
        if abs(trace["accounted_s"] - traced_wall) > 1e-6:
            problems.append(f"self times sum to {trace['accounted_s']!r}, traced wall is {traced_wall!r}")
        if trace["missing"]:
            print(f"not wrapped (absent from pathmkv): {trace['missing']}", file=sys.stderr)
        values = dict(trace["metrics"])
        values["trace.overhead_s"] = traced_wall - plain["rounds"][0]["wall_s"]
        metrics = {k: metric(values[k], tracer.unit_of(k)) for k in tracer.PER_LAYER}
    else:
        setups.append(plain["setup_s"])
        metrics = {
            "wall_s": metric(statistics.median(r["wall_s"] for r in rounds), "s"),
            "cpu_s": metric(statistics.median(r["cpu_s"] for r in rounds), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(plain["peak_rss_mb"], "MB"),
        }

    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} (root seed {seed}): {len(rounds)} round(s), "
          f"{attempted} operations, {failed} failed, {len(problems)} check failure(s)")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
