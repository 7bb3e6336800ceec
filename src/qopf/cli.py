"""Command-line entry point.

Subcommands mirror the pipeline stages: ``prepare`` (parse + permute +
assemble + pad, printing the problem statistics), ``permute``
(bandwidth/color statistics as a CSV row), ``xbm-stats`` (measurement-cost
statistics of the prepared observables), ``bounds`` (the analytical budget
ledger), ``solve`` (run the experiment protocol), ``fit`` (rank ansatz
architectures against reference solutions), and ``report`` (re-emit a run
directory).

Exit codes: 0 success, 1 validation/parse failure, 2 divergence, 3 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import harness, model, xbm
from .grid import CaseError, load_case, pad_to_qubits
from .saddle import DivergenceError
from .sim import DEFAULT_LAYERS

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_IO = 3


def _cmd_prepare(args) -> int:
    case = load_case(args.case)
    prepared = harness.prepare_case(case, args.rcm_runs, args.seed)
    stats = prepared.stats
    print(f"case {case.name}: N={stats.n} L_e={stats.edges} "
          f"M={prepared.problem.m} padded {prepared.permuted.dim}x{prepared.permuted.m_stored}")
    print(f"bandwidth {stats.bandwidth_before} -> {stats.bandwidth_after}, "
          f"colors {stats.colors_before} -> {stats.colors_after}")
    return EXIT_OK


def _cmd_permute(args) -> int:
    case = load_case(args.case)
    prepared = harness.prepare_case(case, args.rcm_runs, args.seed)
    s = prepared.stats
    print("case,n,edges,bw_before,bw_after,colors_before,colors_after")
    print(f"{case.name},{s.n},{s.edges},{s.bandwidth_before},{s.bandwidth_after},"
          f"{s.colors_before},{s.colors_after}")
    return EXIT_OK


def _cmd_xbm_stats(args) -> int:
    case = load_case(args.case)
    prepared = harness.prepare_case(case, args.rcm_runs, args.seed)
    problem = prepared.permuted
    m0_dec = xbm.decompose(problem.m0)
    rows = [("M0", m0_dec)]
    pieces = xbm.piece_table(problem.stack)
    union_colors = m0_dec.colors | pieces.colors
    sum_max_sq = sum(norm**2 for norm in pieces.norms)
    print(f"union colors C = {len(union_colors)} "
          f"(2C-1 = {2 * len(union_colors) - 1} rotated circuits)")
    print(f"sum_c max_m ||M_m^c||^2 = {sum_max_sq:.6g}")
    print("observable,colors,pieces,max_gates,sum_norm_sq")
    for name, dec in rows:
        gates = max((p.circuit.gate_count if p.circuit else 0) for p in dec.pieces)
        print(f"{name},{len(dec.colors)},{len(dec.pieces)},{gates},{dec.sum_norm_sq:.6g}")
    print("piece,color,part,gates,norm")
    for name, dec in rows:
        for p in dec.pieces:
            n_gates = p.circuit.gate_count if p.circuit else 0
            print(f"{name},{p.color},{p.part},{n_gates},{p.norm:.6g}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    config = harness.config_from_json(args.config)
    case = load_case(config.case_path)
    prepared = harness.prepare_case(case, config.rcm_runs, config.seed)
    problem = prepared.permuted
    ctx = model.LagrangianContext(
        problem,
        config.primal.spec(int(math.log2(problem.dim))),
        config.dual.spec(int(math.log2(problem.m_stored))),
    )
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
    instances = harness.generate_instances(
        case, config.instances, config.load_scale, config.seed,
        simplify=config.apply_simplifications)
    reference = harness.reference_solution(config, case, instances)
    if reference is None:
        print("fit needs a reference solution file for cases above desk scale",
              file=sys.stderr)
        return EXIT_VALIDATION
    problem = pad_to_qubits(harness.assemble_qcqp(instances[0]))
    n_primal = int(math.log2(problem.dim))
    n_dual = int(math.log2(problem.m_stored))
    rows = harness.restricted_rows(problem)
    primal_targets, dual_targets = [], []
    for ref in reference.instances[:len(instances)]:
        if ref.v is not None:
            primal_targets.append(harness.primal_fit_target(ref.v, problem.dim))
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

    p = sub.add_parser("prepare", help="parse, permute and assemble a case")
    p.add_argument("case")
    p.add_argument("--rcm-runs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("permute", help="bandwidth/color statistics as CSV")
    p.add_argument("case")
    p.add_argument("--rcm-runs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_permute)

    p = sub.add_parser("xbm-stats", help="measurement statistics of the observables")
    p.add_argument("case")
    p.add_argument("--rcm-runs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_xbm_stats)

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
