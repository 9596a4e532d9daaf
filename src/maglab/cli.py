"""Command-line front end.

Exit codes: 0 success, 1 domain error (e.g. a non-positive-definite
similarity matrix), 2 usage or I/O error (bad arguments, a missing file,
a malformed spec).  Every subcommand can mirror its full
report as JSON via --json; the human-readable table is derived from the
same report object.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis, metric_core, negative_type
from .diversity import max_diversity
from .magnitude import scale_sweep, weighting
from .errors import MaglabError


class UsageError(Exception):
    """Command-line input the program cannot use, such as a malformed spec."""


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    summary: str
    report_path: Optional[str] = None


def _parse_scales(text: str):
    """Parse 'a:b:n' with optional 'log' suffix into a scale grid."""
    log = text.endswith("log")
    if log:
        text = text[:-3]
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("scale grid must look like a:b:n[log]")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if a <= 0 or b <= 0 or n < 1:
        raise argparse.ArgumentTypeError("scale grid endpoints must be positive")
    if n == 1:
        return [a]
    if log:
        return list(np.geomspace(a, b, n))
    return list(np.linspace(a, b, n))


def _json_object(text: str) -> dict:
    """Parse a --params value, which must be a JSON object."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise argparse.ArgumentTypeError("must be a JSON object")
    return obj


def _load_space(args) -> metric_core.FiniteMetricSpace:
    if getattr(args, "matrix", None):
        return metric_core.load_distance_csv(
            args.matrix, force=getattr(args, "force", False)
        )
    text = Path(args.spec).read_text()
    try:
        spec = metric_core.SpaceSpec.from_json(text)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{args.spec}: malformed spec: {exc}") from exc
    except KeyError as exc:
        raise UsageError(f"{args.spec}: spec has no {exc} field") from exc
    return metric_core.generate(spec)


def _emit(args, payload: dict) -> Optional[str]:
    path = getattr(args, "json", None)
    if path:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _add_space_source(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="headerless CSV distance matrix")
    group.add_argument("--spec", help="SpaceSpec JSON file")
    parser.add_argument(
        "--force", action="store_true",
        help="load a matrix even if metric validation fails",
    )


def _cmd_validate(args) -> CommandResult:
    d = np.loadtxt(args.matrix, delimiter=",", dtype=float, ndmin=2)
    report = metric_core.validate_metric(d)
    payload = {
        "ok": report.ok,
        "worst_triangle_violation": report.worst_triangle_violation,
        "worst_asymmetry": report.worst_asymmetry,
        "offending_triples": report.offending_triples,
    }
    path = _emit(args, payload)
    summary = (
        f"ok={report.ok} worst_triangle={report.worst_triangle_violation:.3g} "
        f"worst_asymmetry={report.worst_asymmetry:.3g}"
    )
    print(summary)
    return CommandResult(0 if report.ok else 1, summary, path)


def _cmd_magnitude(args) -> CommandResult:
    space = _load_space(args)
    report = weighting(space)
    path = _emit(args, report.to_dict())
    summary = (
        f"magnitude {report.magnitude:.12g}  residual {report.residual:.3g}  "
        f"positively_weighted {report.positively_weighted}"
    )
    print(summary)
    if report.ill_conditioned:
        print(
            "warning: condition estimate "
            f"{report.diagnostics.condition_estimate:.3g} exceeds 1e12"
        )
    return CommandResult(0, summary, path)


def _cmd_diversity(args) -> CommandResult:
    space = _load_space(args)
    report = max_diversity(space, tol=args.tol, max_iters=args.max_iters)
    path = _emit(args, report.to_dict())
    summary = (
        f"diversity in [{report.diversity:.12g}, {report.upper_bound:.12g}]  "
        f"support {len(report.support)}  iterations {report.iterations}  "
        f"converged {report.converged}"
    )
    print(summary)
    return CommandResult(0 if report.converged else 1, summary, path)


def _cmd_sweep(args) -> CommandResult:
    space = _load_space(args)
    sweep = scale_sweep(
        space, args.scales, with_diversity=args.with_diversity
    )
    path = _emit(args, sweep.to_dict())
    if args.csv:
        sweep.write_csv(args.csv)
    print(f"{'t':>12} {'lambda_min':>14} {'verdict':>22} {'magnitude':>14}")
    for r in sweep.records:
        mag = f"{r.magnitude:.8g}" if r.magnitude is not None else "-"
        print(f"{r.t:>12.6g} {r.lambda_min:>14.6g} {r.verdict:>22} {mag:>14}")
    summary = f"{len(sweep.records)} scales swept"
    return CommandResult(0, summary, path)


def _cmd_negtype(args) -> CommandResult:
    space = _load_space(args)
    report = negative_type.stability_scan(space)
    nt = report.negative_type_report
    path = _emit(args, report.to_dict())
    summary = (
        f"negative_type: {str(nt.negative_type).lower()}  "
        f"classification: {report.classification}"
    )
    print(summary)
    failing = report.first_failing_scale()
    if failing is not None:
        print(f"first failing scale: {failing:g}")
    return CommandResult(0, summary, path)


def _cmd_approx(args) -> CommandResult:
    if args.family in ("interval", "interval_net"):
        template = analysis.interval_family(args.length, "uniform")
    elif args.family in ("chebyshev", "interval_chebyshev"):
        template = analysis.interval_family(args.length, "chebyshev")
    else:
        params = args.params or {}
        params.setdefault("length", args.length)
        template = metric_core.SpaceSpec(args.family, params)
    study = analysis.approx_magnitude(
        template, args.levels, quadrature=args.quadrature
    )
    path = _emit(args, study.to_dict())
    if args.csv:
        study.write_csv(args.csv)
    for r in study.records:
        mag = f"{r.magnitude:.10g}" if r.magnitude is not None else f"FAILED: {r.failure}"
        gap = f"{r.gap:.3g}" if r.gap is not None else "-"
        print(f"level {r.level:>6}  points {r.n_points:>7}  gap {gap:>10}  {mag}")
    summary = (
        f"extrapolated limit {study.extrapolated_limit:.10g}  "
        f"monotone {study.monotone}"
        if study.extrapolated_limit is not None
        else "no positive definite levels"
    )
    print(summary)
    return CommandResult(0 if study.extrapolated_limit is not None else 1, summary, path)


def _cmd_fourier(args) -> CommandResult:
    if args.upper_bound:
        result = analysis.fourier_upper_bound_1d(
            args.ell, args.p, args.alpha, args.mollifier_radius, L=args.L, N=args.N
        )
        path = _emit(args, result.to_dict())
        summary = (
            f"magnitude upper bound {result.bound:.8g} "
            f"(quadrature error ~{result.error_estimate:.3g})"
        )
        print(summary)
        return CommandResult(0, summary, path)
    report = analysis.gamma_hat_1d(args.p, L=args.L, N=args.N)
    path = _emit(args, report.to_dict())
    summary = (
        f"p={args.p}  positive {report.positive}  "
        f"radially_decreasing {report.radially_decreasing}  "
        f"fitted_c {report.fitted_c:.6g}"
    )
    print(summary)
    return CommandResult(0, summary, path)


def _cmd_experiment(args) -> CommandResult:
    if args.which == "product-counterexample":
        report = analysis.product_counterexample_experiment()
        path = _emit(args, report.to_dict())
        summary = f"classification: {report.classification}"
        print(summary)
        failing = report.first_failing_scale()
        if failing is not None:
            print(f"first failing scale: {failing:g}")
        return CommandResult(0, summary, path)
    result = analysis.witness_search(
        p=args.p, n=args.n, budget=args.budget, seed=args.seed
    )
    path = _emit(args, result.to_dict())
    if result.found:
        summary = (
            f"witness found at scale {result.witness_scale:g} "
            f"(lambda_min {result.witness_lambda_min:.3g}, "
            f"{result.subsets_tested} subsets tested)"
        )
    else:
        summary = f"no witness found ({result.subsets_tested} subsets tested)"
    print(summary)
    return CommandResult(0, summary, path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maglab",
        description="Magnitude and maximum diversity of metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check metric axioms of a CSV matrix")
    p.add_argument("matrix")
    p.add_argument("--json")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("magnitude", help="weighting, magnitude, diagnostics")
    _add_space_source(p)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_magnitude)

    p = sub.add_parser("diversity", help="exact maximum diversity (Cholesky, NNLS)")
    _add_space_source(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_diversity)

    p = sub.add_parser("sweep", help="scale sweep of diagnostics and magnitude")
    _add_space_source(p)
    p.add_argument("--scales", type=_parse_scales, required=True,
                   help="a:b:n with optional log suffix, e.g. 0.25:4:9log")
    p.add_argument("--with-diversity", action="store_true")
    p.add_argument("--json")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("negtype", help="negative type test and stability scan")
    _add_space_source(p)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_negtype)

    p = sub.add_parser("approx", help="net-convergence magnitude study")
    p.add_argument("--family", required=True,
                   help="interval, chebyshev, or any SpaceSpec family")
    p.add_argument("--levels", required=True,
                   type=lambda s: [int(x) for x in s.split(",")])
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--params", type=_json_object,
                   help="extra family params as a JSON object")
    p.add_argument("--quadrature", action="store_true")
    p.add_argument("--json")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("fourier", help="transform of exp(-|x|^p); optional bound")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--L", type=float, default=40.0)
    p.add_argument("--N", type=int, default=2**16)
    p.add_argument("--upper-bound", action="store_true")
    p.add_argument("--ell", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--mollifier-radius", type=float, default=None)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser("experiment", help="prepackaged counterexample searches")
    p.add_argument("which", choices=["product-counterexample", "witness-search"])
    p.add_argument("--p", type=float, default=float("inf"))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_experiment)

    return parser


def run(argv) -> CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(int(exc.code or 0), "usage error" if exc.code else "help")
    if getattr(args, "mollifier_radius", None) is None and hasattr(args, "ell"):
        args.mollifier_radius = 2.0 * args.ell if args.ell > 0 else 1.0
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(2, str(exc))
    except MaglabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        diag = getattr(exc, "diagnostics", None)
        if diag is not None:
            print(f"lambda_min: {diag.lambda_min:.6g}", file=sys.stderr)
        return CommandResult(1, str(exc))


def main() -> None:
    sys.exit(run(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()
