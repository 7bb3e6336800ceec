"""Command-line entry point.

Every subcommand but ``report`` reads a run config.  ``permute``,
``xbm-stats`` and ``bounds`` read the config's instance 0 as ``solve``
prepares it and print its bandwidth/color statistics, problem sizes and
rotated circuits per gradient as a CSV row, the measurement-cost
statistics of its observables, and its analytical budget ledger.  ``solve``
runs the experiment protocol, ``fit`` ranks ansatz architectures against
reference solutions in the run's node order, and ``report`` re-emits a run
directory.

Exit codes: 0 success, 1 validation/parse failure, 2 divergence, 3 I/O.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import bounds as bounds_mod
from . import harness, xbm
from .grid import CaseError, ValidationError, load_case
from .saddle import DivergenceError
from .sim import DEFAULT_LAYERS

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_IO = 3


def _instance_zero(args):
    """The case of the run config ``args.config``, and its instance 0 as a
    run solves it: prepared, and the Lagrangian context of the config's
    ansatz pair on it."""
    config = harness.config_from_json(args.config)
    case = load_case(config.case_path)
    prepared = harness.prepare_instances(replace(config, instances=1), case)[0]
    return case, prepared, harness.build_context(config, prepared.permuted)


def _cmd_permute(args) -> int:
    case, prepared, ctx = _instance_zero(args)
    s = prepared.stats
    print("case,n,edges,bw_before,bw_after,colors_before,colors_after,rows,dim,rows_padded,"
          "circuits_per_grad")
    print(f"{case.name},{s.n},{s.edges},{s.bandwidth_before},{s.bandwidth_after},"
          f"{s.colors_before},{s.colors_after},{prepared.problem.m},"
          f"{prepared.permuted.dim},{prepared.permuted.m_stored},"
          f"{sum(ctx.circuits_per_gradient())}")
    return EXIT_OK


def _cmd_xbm_stats(args) -> int:
    ctx = _instance_zero(args)[2]
    m0, colors = ctx.m0_decomposition, ctx.color_count
    print(f"union colors C = {colors} (2C-1 = {2 * colors - 1} rotated circuits)")
    print(f"sum_c max_m ||M_m^c||^2 = {ctx.joint_diagonals.sum_norm_sq:.6g}")
    gates = [xbm.gate_count(color, part) for color, part in m0.pieces]
    print("observable,colors,pieces,max_gates,sum_norm_sq")
    print(f"M0,{len(m0.colors)},{len(m0)},{max(gates, default=0)},{m0.sum_norm_sq:.6g}")
    print("piece,color,part,gates,norm")
    for (color, part), n_gates, norm in zip(m0.pieces, gates, m0.norms):
        print(f"M0,{color},{part},{n_gates},{norm:.6g}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    inputs = bounds_mod.inputs_from_context(
        _instance_zero(args)[2], alpha_bar=args.alpha_bar, beta_bar=args.beta_bar,
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
    prepared, instances, _ = harness.prepare_instances(config, case)
    reference = harness.reference_solution(config, prepared, instances)
    scored = [ref for ref in reference.instances[:config.instances] if ref is not None]
    if not scored:
        print("fit: no instance has a reference solution", file=sys.stderr)
        return EXIT_VALIDATION
    primal_targets, dual_targets = [], []
    for ref in scored:
        v, lam = prepared.to_solver(() if ref.v is None else ref.v, ref.lam)
        if ref.v is not None:
            primal_targets.append(v)
        dual_targets.append(harness.dual_fit_target(lam))
    reports = []
    if not primal_targets:
        print("# reference carries no voltages; skipping the primal fit",
              file=sys.stderr)
    for column, role, targets in ((0, "primal", primal_targets), (1, "dual", dual_targets)):
        if not targets:
            continue
        begin = time.perf_counter()
        candidates = [harness.AnsatzChoice(r, DEFAULT_LAYERS[r][column]) for r in range(1, 9)]
        n_qubits = int(math.log2(len(targets[0])))   # the solver's size, as to_solver pads
        reports += harness.fit_ansatz(candidates, targets, n_qubits, role, seed=config.seed,
                                      restarts=args.restarts, iters=args.iters)
        print(f"# {role} fit: {time.perf_counter() - begin:.2f} s", file=sys.stderr)
    print("role,row,layers,mean_cost")
    for rep in reports:
        print(f"{rep.role},{rep.choice.row},{rep.choice.layers},{rep.mean_cost:.3e}")
    return EXIT_OK


def _cmd_report(args) -> int:
    path = Path(args.run_dir) / "report.json"
    doc = harness.read_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(
            f"{path} is not a run report: a JSON object, not {type(doc).__name__}")
    if args.format == "json":
        json.dump(doc, sys.stdout, indent=1)
        print()
        return EXIT_OK
    summary = doc.get("summary", {})
    if not isinstance(summary, dict):
        raise ValidationError(
            f"{path}: the summary is a JSON object, not {type(summary).__name__}")
    for name, row in summary.items():
        missing = [key for _, key in harness.TABLE1_COLUMNS
                   if not isinstance(row, dict) or key not in row]
        if missing:
            raise ValidationError(f"{path}: summary row {name!r} lacks {', '.join(missing)}")
    csv.writer(sys.stdout, lineterminator="\n").writerows(harness.table1_rows(summary))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qopf",
                                     description="Doubly variational quantum OPF")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
            ("permute", _cmd_permute, "bandwidth/color statistics and problem sizes as CSV"),
            ("xbm-stats", _cmd_xbm_stats, "measurement statistics of the observables")):
        p = sub.add_parser(name, help=text)
        p.add_argument("config")
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
