"""End-to-end benchmark of the index advisor.

One run::

    python3 perfbench/run.py --workload advise-fig2 --seed 7 \
        --seconds 20 --trace 0

measures one workload (``advise-fig2``, ``advise-erp`` or
``serve-drift``) for about ``--seconds``, checks every answer, prints one
``metric <name> <value> <unit> n=<samples>`` line per metric and, last,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
traced variant and reports the per-layer metrics instead, writing its
spans to ``.perfbench/``.  A failed check prints ``"correct": false``
and exits 1.

Every workload, untraced and traced, in one command::

    python3 perfbench/run.py --all

Run from the repository root; the program is imported from ``src/``.
METRICS.md beside this file defines every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("advise-fig2", "advise-erp", "serve-drift")
TRACE_DIR = ROOT / ".perfbench"


def _metric(name: str, value: float, unit: str, samples: int) -> dict:
    print(f"metric {name} {value!r} {unit} n={samples}")
    return {"value": value, "unit": unit}


def end_to_end(run) -> dict:
    from metrics import END_TO_END, SERVICE_ONLY, WALL_CLOCK, percentile

    samples = run.samples
    recommends = samples["recommend"]
    reference = [run.probe.reference_seconds(*span) for span in run.spans]
    for name, value, samples_of in (
        ("recommend_p50_s", statistics.median(recommends), recommends),
        ("recommend_p90_s", percentile(recommends, 0.9), recommends),
        ("speed", run.probe.speed(), run.probe.samples),
    ):
        _metric(name, value, WALL_CLOCK[name], len(samples_of))
    values = {
        "setup_s": (
            statistics.median(samples["setup"]), len(samples["setup"])
        ),
        "recommend_p50_ref_s": (statistics.median(reference), len(reference)),
        "recommend_p90_ref_s": (percentile(reference, 0.9), len(reference)),
        "whatif_calls": (
            statistics.fmean(samples["whatif_calls"]),
            len(samples["whatif_calls"]),
        ),
        "relative_cost": (
            statistics.fmean(samples["relative_cost"]),
            len(samples["relative_cost"]),
        ),
        "peak_rss_mb": (run.peak_rss_mb, 1),
    }
    for name, key in (("sweep_p50_s", "sweep"), ("update_p50_s", "update")):
        if samples.get(key):
            _metric(name, statistics.median(samples[key]),
                    SERVICE_ONLY[name], len(samples[key]))
    _metric("error_rate", run.failed / run.attempted, "ratio", run.attempted)
    return {
        name: _metric(name, values[name][0], unit, values[name][1])
        for name, unit in END_TO_END.items()
    }


def per_layer(run) -> dict:
    from metrics import PER_LAYER

    requests = sum(
        span.count for span in run.recorder.spans if span.name == "request"
    )
    return {
        name: _metric(name, float(run.layers[name]), unit, requests)
        for name, unit in PER_LAYER.items()
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    from check import CheckError

    try:
        if workload == "serve-drift":
            run = workloads.serve(seed, seconds, traced=trace)
        elif trace:
            run = workloads.advise_traced(workload, seed)
        else:
            run = workloads.advise(workload, seed, seconds)
    except CheckError as error:
        print(f"check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    if not trace and not run.samples["recommend"]:
        print("no request succeeded", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1
    if trace:
        metrics = per_layer(run)
        run.recorder.write(TRACE_DIR / f"trace-{workload}-{seed}.jsonl")
    else:
        metrics = end_to_end(run)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 1 if run.problems else 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, in child processes (so
    each run's peak memory is its own); echoes their metric lines."""
    status = 0
    for trace in (0, 1):
        for workload in WORKLOADS:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = done.stdout.splitlines()
            print(f"== {workload} (trace {trace}): exit {done.returncode}")
            for line in lines:
                if line.startswith("metric "):
                    print("  " + line[len("metric "):])
            if done.returncode:
                print(done.stderr, file=sys.stderr)
                status = 1
            elif not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program at {ROOT / 'src' / 'repro'}: run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from inputs import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.all:
        return run_all(seed, args.seconds)
    if args.workload is None:
        parser.error("pass --workload or --all")
    return measure(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
