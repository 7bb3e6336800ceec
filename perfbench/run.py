"""qopf benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload ieee57-exact-eg --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output
is a JSON object carrying every end-to-end metric; with ``--trace 1`` it
carries every per-layer metric of a traced run instead.  The full result
(machine facts, every operation and its check, every timed sample) goes to
``perfbench/out/BENCH_<workload>_trace<k>_seed<n>.json``.  End-to-end
times are calibrated against a reference probe for the host's drifting
speed.  NOTES.md describes the workloads, metrics, checks and predictions.
"""

from __future__ import annotations

import os

# One process with BLAS pinned to one thread: the plain single-threaded
# baseline.  Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

SPEC = BENCH_DIR.parent / "BENCHMARK.json"


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine_facts(args) -> dict:
    import numpy
    import scipy
    from qopf import sim

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": getattr(sim, "_HAVE_NUMBA", None),
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qopf" / "__init__.py").is_file():
        print(f"error: no qopf sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    facts = machine_facts(args)
    outcome = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), OUT_DIR)
    units = declared_units(bool(args.trace))
    if set(outcome.metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(outcome.metrics)} differ from the declared "
                           f"{sorted(units)}")
    failed = [o for o in outcome.ops if not o["ok"]]
    result = {
        "correct": all(o["known_defect"] for o in failed),
        "attempted": len(outcome.ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"BENCH_{args.workload}_trace{args.trace}_seed{args.seed}.json"
    path.write_text(json.dumps({"facts": facts, "result": result, "operations": outcome.ops,
                                "details": outcome.details}, indent=1) + "\n",
                    encoding="utf-8")
    print(json.dumps({"facts": facts}))
    for o in outcome.ops:
        status = "ok" if o["ok"] else ("FAILED (known defect)" if o["known_defect"]
                                       else "FAILED")
        print(f"{o['name']}: {status}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
