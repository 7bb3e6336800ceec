"""Command-line entry point.

Subcommands mirror the pipeline stages: ``permute`` (parse, permute,
assemble and pad, printing the bandwidth/color statistics and the problem
sizes as a CSV row), ``xbm-stats`` (measurement-cost statistics of the
prepared observables), ``bounds`` (the analytical budget ledger of a run's
instance 0), ``solve`` (run the experiment protocol), ``fit`` (rank ansatz
architectures against reference solutions, in the run's node order), and
``report`` (re-emit a run directory).

Exit codes: 0 success, 1 validation/parse failure, 2 divergence, 3 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import harness, xbm
from .grid import CaseError, load_case
from .saddle import DivergenceError
from .sim import DEFAULT_LAYERS

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_IO = 3


def _cmd_permute(args) -> int:
    prepared = harness.prepare_case(load_case(args.case), args.rcm_runs, args.seed)
    s = prepared.stats
    print("case,n,edges,bw_before,bw_after,colors_before,colors_after,rows,dim,rows_padded")
    print(f"{prepared.case.name},{s.n},{s.edges},{s.bandwidth_before},{s.bandwidth_after},"
          f"{s.colors_before},{s.colors_after},{prepared.problem.m},"
          f"{prepared.permuted.dim},{prepared.permuted.m_stored}")
    return EXIT_OK


def _cmd_xbm_stats(args) -> int:
    problem = harness.prepare_case(load_case(args.case), args.rcm_runs, args.seed).permuted
    m0 = xbm.decompose(problem.m0)
    pieces = xbm.piece_table(problem.stack)
    union_colors = m0.colors | pieces.colors
    print(f"union colors C = {len(union_colors)} "
          f"(2C-1 = {2 * len(union_colors) - 1} rotated circuits)")
    print(f"sum_c max_m ||M_m^c||^2 = {pieces.sum_norm_sq:.6g}")
    gates = [circuit.gate_count if circuit else 0 for circuit in m0.circuits]
    print("observable,colors,pieces,max_gates,sum_norm_sq")
    print(f"M0,{len(m0.colors)},{len(m0)},{max(gates, default=0)},{m0.sum_norm_sq:.6g}")
    print("piece,color,part,gates,norm")
    for (color, part), n_gates, norm in zip(m0.pieces, gates, m0.norms):
        print(f"M0,{color},{part},{n_gates},{norm:.6g}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    config = harness.config_from_json(args.config)
    prepared = harness.prepare_instances(replace(config, instances=1),
                                         load_case(config.case_path))[0]
    ctx = harness.build_context(config, prepared.permuted)
    inputs = bounds_mod.inputs_from_context(
        ctx, alpha_bar=args.alpha_bar, beta_bar=args.beta_bar,
        rho=args.rho, epsilon=args.epsilon, dist0=args.dist0)
    report = bounds_mod.budget(inputs)
    print(f"P={inputs.p_count} Q={inputs.q_count} C={inputs.colors}")
    print(f"L = {report.lipschitz:.6g}")
    print(f"sigma^2 = {report.sigma_sq:.6g}")
    print(f"T (iterations) = {report.iterations}")
    print(f"S (shots/circuit/step) = {report.shots_per_circuit}")
    print(f"circuits/iteration = {report.circuits_per_iter}")
    print(f"total samples (exact product) = {report.total}")
    print(f"total samples (closed-form bound) = {report.total_bound}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    config = harness.config_from_json(args.config)
    report = harness.run_experiment(config)
    out_dir = config.out_dir or "qopf-run"
    written = harness.emit_report(report, out_dir)
    summary = report.summary()
    for name, row in summary.items():
        print(f"{name}: x_err={row['x_error']:.4f} lambda_err={row['lambda_error']:.4f} "
              f"viol=({row['violation_count']:.2f}, {row['violation_max']:.4f}%, "
              f"{row['violation_mean']:.4f}%)")
    print(f"wrote {len(written)} files to {out_dir}")
    diverged = [name for inst in report.instances for name, r in inst.items()
                if r.stop_reason == "diverged"]
    if diverged:
        print(f"divergence: {len(diverged)} runs hit the ceiling "
              f"({', '.join(sorted(set(diverged)))})", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def _cmd_fit(args) -> int:
    config = harness.config_from_json(args.config)
    case = load_case(config.case_path)
    prepared = harness.prepare_instances(config, case)
    reference = harness.reference_solution(config, case, [p.case for p in prepared])
    if reference is None:
        print("fit needs a reference solution file for cases above desk scale",
              file=sys.stderr)
        return EXIT_VALIDATION
    problem = prepared[0].permuted
    n_primal = int(math.log2(problem.dim))
    n_dual = int(math.log2(problem.m_stored))
    rows = harness.restricted_rows(problem)
    primal_targets, dual_targets = [], []
    for instance, ref in zip(prepared, reference.instances):
        if ref.v is not None:
            primal_targets.append(harness.primal_fit_target(instance, ref.v))
        lam_full = np.zeros(problem.m_stored)
        lam_full[rows] = ref.lam
        dual_targets.append(harness.dual_fit_target(lam_full, problem.m_stored))
    reports = []
    if primal_targets:
        candidates = [harness.AnsatzChoice(r, DEFAULT_LAYERS[r][0]) for r in range(1, 9)]
        reports += harness.fit_ansatz(candidates, primal_targets, n_primal, "primal",
                                      seed=config.seed, restarts=args.restarts,
                                      iters=args.iters)
    else:
        print("# reference carries no voltages; skipping the primal fit",
              file=sys.stderr)
    candidates = [harness.AnsatzChoice(r, DEFAULT_LAYERS[r][1]) for r in range(1, 9)]
    reports += harness.fit_ansatz(candidates, dual_targets, n_dual, "dual",
                                  seed=config.seed, restarts=args.restarts,
                                  iters=args.iters)
    print("role,row,layers,mean_cost")
    for rep in reports:
        print(f"{rep.role},{rep.choice.row},{rep.choice.layers},{rep.mean_cost:.3e}")
    return EXIT_OK


def _cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    path = run_dir / "report.json"
    with path.open("r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if args.format == "json":
        json.dump(doc, sys.stdout, indent=1)
        print()
        return EXIT_OK
    print("model,x_err,lambda_err,viol_count,viol_max,viol_mean")
    for name, row in doc.get("summary", {}).items():
        print(f"{name},{row['x_error']},{row['lambda_error']},"
              f"{row['violation_count']},{row['violation_max']},{row['violation_mean']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qopf",
                                     description="Doubly variational quantum OPF")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
            ("permute", _cmd_permute, "bandwidth/color statistics and problem sizes as CSV"),
            ("xbm-stats", _cmd_xbm_stats, "measurement statistics of the observables")):
        p = sub.add_parser(name, help=text)
        p.add_argument("case")
        p.add_argument("--rcm-runs", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)

    p = sub.add_parser("bounds", help="Lipschitz/variance/sample-budget ledger")
    p.add_argument("config")
    p.add_argument("--alpha-bar", type=float, default=None)
    p.add_argument("--beta-bar", type=float, default=None)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--dist0", type=float, default=1.0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("solve", help="run the experiment protocol")
    p.add_argument("config")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("fit", help="rank ansatz architectures against references")
    p.add_argument("config")
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--iters", type=int, default=400)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("report", help="re-emit a completed run directory")
    p.add_argument("run_dir")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CaseError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
