"""One benchmark process: set up, run timed rounds of a workload, write result.json.

Started by run.py as a fresh interpreter with `src/` of the checkout as the
only PYTHONPATH entry.  Set-up runs from process start (the monotonic time
run.py passes in --spawned-at) until pathmkv is imported and the workload's
config is loaded.  With --setup-only the process exits there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="root seed (already mapped)")
    p.add_argument("--seconds", type=float, default=0.0, help="repeat rounds for about this long")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="config file to load (default config if absent)")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import pathmkv
    import pathmkv.cli as cli

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(pathmkv.__file__).startswith(src + os.sep):
        print(f"pathmkv imported from {pathmkv.__file__}, not from {src}", file=sys.stderr)
        return 2
    cli.load_config(args.config)
    setup_s = time.monotonic() - args.spawned_at

    result = {"setup_s": setup_s}
    if not args.setup_only:
        import workloads  # bench/ is sys.path[0] when this file runs as a script

        ctx = SimpleNamespace(cli=cli, pathmkv=pathmkv, seed=args.seed, config_path=args.config)
        if args.workload == "transport":
            ctx.inputs = workloads.transport_measures(pathmkv, args.seed)
        run_round = workloads.ROUNDS[args.workload]

        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()

        rounds = []
        began = time.monotonic()
        with open(os.path.join(args.out, "stdout.log"), "w") as log:
            while True:
                out_dir = os.path.join(args.out, f"round{len(rounds)}")
                os.makedirs(out_dir, exist_ok=True)
                stdout, sys.stdout = sys.stdout, log
                try:
                    cpu0, t0 = time.process_time(), time.perf_counter()
                    attempted, failed = run_round(ctx, out_dir)
                    t1, cpu1 = time.perf_counter(), time.process_time()
                finally:
                    sys.stdout = stdout
                rounds.append(
                    {"wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "attempted": attempted, "failed": failed}
                )
                # run the number of rounds whose total comes nearest to --seconds:
                # start another only if more than half of a median round fits
                typical = statistics.median(r["wall_s"] for r in rounds)
                if args.trace or time.monotonic() - began + typical / 2 > args.seconds:
                    break
        result["rounds"] = rounds
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.write(os.path.join(args.out, "spans.csv"), t0)
            metrics, accounted = tracer.metrics(t1 - t0)
            result["trace"] = {"metrics": metrics, "accounted_s": accounted, "missing": tracer.missing}
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
