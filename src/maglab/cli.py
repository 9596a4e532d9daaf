"""Command-line front end.

Exit codes: 0 success, 1 domain error (e.g. a non-positive-definite
similarity matrix, a space too large for memory, or a warning that the
interpreter raises as an error, as under `python -W error`), 2 usage or I/O error
(bad arguments, a missing file, a malformed spec, a closed stdout).  Each
subcommand maps its parsed arguments to a report, its text lines (an iterable,
made as they are printed) and an exit code, and prints nothing; `run` writes
the report to --json (and its records to --csv) before it prints the lines,
one at a time.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import analysis, metric_core, negative_type
from .diversity import max_diversity
from .magnitude import scale_sweep, weighting
from .errors import MaglabError


JSON_CHUNK = 256  # items of a report's list or array that one json.dumps call encodes


class UsageError(Exception):
    """Command-line input the program cannot use, such as a malformed spec."""


@dataclass(frozen=True)
class CommandResult:
    exit_code: int


def _parse_scales(text: str):
    """Parse 'a:b:n' with optional 'log' suffix into a scale grid."""
    log = text.endswith("log")
    if log:
        text = text[:-3]
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("scale grid must look like a:b:n[log]")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise argparse.ArgumentTypeError("scale grid endpoints must be finite")
    if n < 1:
        raise argparse.ArgumentTypeError(f"scale grid needs at least 1 scale, got {n}")
    if a <= 0 or b <= 0:
        raise argparse.ArgumentTypeError("scale grid endpoints must be positive")
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


def _malformed_csv(path, exc: ValueError) -> UsageError:
    return UsageError(f"{path}: malformed CSV: {exc}")


def _load_space(args) -> metric_core.FiniteMetricSpace:
    if args.matrix:
        try:
            return metric_core.load_distance_csv(args.matrix, force=args.force)
        except ValueError as exc:
            raise _malformed_csv(args.matrix, exc) from exc
    text = Path(args.spec).read_text()
    try:
        spec = metric_core.SpaceSpec.from_json(text)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{args.spec}: malformed spec: {exc}") from exc
    except KeyError as exc:
        raise UsageError(f"{args.spec}: spec has no {exc} field") from exc
    return metric_core.generate(spec)


def _write_csv(path, records) -> None:
    """One row per record dataclass, headed by its field names."""
    names = [f.name for f in fields(records[0])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([getattr(r, name) for name in names] for r in records)


def _write_json(path, report) -> None:
    """Write `json.dumps(report, default=_json_default) + "\n"` to path, byte
    for byte, holding one field's text at a time, or one chunk of JSON_CHUNK
    items of a longer list, tuple or array field; remove the file if a
    write fails partway."""
    fh = open(path, "w")
    try:
        with fh:
            fh.write("{")
            for i, (key, value) in enumerate(metric_core._json_default(report).items()):
                fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
                if isinstance(value, (list, tuple, np.ndarray)) and len(value) > JSON_CHUNK:
                    for j in range(0, len(value), JSON_CHUNK):
                        text = json.dumps(value[j:j + JSON_CHUNK],
                                          default=metric_core._json_default)
                        fh.write(f"{', ' if j else '['}{text[1:-1]}")
                    fh.write("]")
                else:
                    fh.write(json.dumps(value, default=metric_core._json_default))
            fh.write("}\n")
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):  # never /dev/stdout
            os.remove(path)
        raise


def _add_space_source(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="headerless CSV distance matrix")
    group.add_argument("--spec", help="SpaceSpec JSON file")
    parser.add_argument(
        "--force", action="store_true",
        help="load a matrix even if metric validation fails",
    )


def _cmd_validate(args):
    try:
        d = metric_core.read_distance_csv(args.matrix)
    except ValueError as exc:
        raise _malformed_csv(args.matrix, exc) from exc
    report = metric_core.validate_metric(d)
    line = (
        f"ok={report.ok} worst_triangle={report.worst_triangle_violation:.3g} "
        f"worst_asymmetry={report.worst_asymmetry:.3g}"
    )
    return report, [line], 0 if report.ok else 1


def _cmd_magnitude(args):
    report = weighting(_load_space(args))
    line = (
        f"magnitude {report.magnitude:.12g}  residual {report.residual:.3g}  "
        f"positively_weighted {report.positively_weighted}"
    )
    return report, [line], 0


def _cmd_diversity(args):
    report = max_diversity(_load_space(args))
    line = (
        f"diversity in [{report.diversity:.12g}, {report.upper_bound:.12g}]  "
        f"support {len(report.support)}  iterations {report.iterations}  "
        f"converged {report.converged}"
    )
    return report, [line], 0 if report.converged else 1


def _cmd_sweep(args):
    sweep = scale_sweep(_load_space(args), args.scales, with_diversity=args.with_diversity)
    return sweep, _sweep_lines(sweep.records), 0


def _sweep_lines(records):
    yield f"{'t':>12} {'lambda_min':>14} {'verdict':>22} {'magnitude':>14}"
    for r in records:
        if r.magnitude is not None:
            yield "%12.6g %14.6g %22s %14.8g" % (r.t, r.lambda_min, r.verdict, r.magnitude)
        else:
            yield "%12.6g %14.6g %22s %14s" % (r.t, r.lambda_min, r.verdict, "-")


def _failing_lines(report) -> list:
    failing = report.first_failing_scale()
    return [] if failing is None else [f"first failing scale: {failing:g}"]


def _cmd_negtype(args):
    report = negative_type.stability_scan(_load_space(args))
    line = (
        f"negative_type: {str(report.negative_type.negative_type).lower()}  "
        f"classification: {report.classification}"
    )
    return report, [line, *_failing_lines(report)], 0


def _cmd_approx(args):
    aliases = {"interval": "interval_net", "chebyshev": "interval_chebyshev_net"}
    family = aliases.get(args.family, args.family)
    params = args.params or {}
    params.setdefault("length", args.length)
    template = metric_core.SpaceSpec(family, params)
    study = analysis.approx_magnitude(
        template, args.levels, quadrature=args.quadrature
    )
    return study, _approx_lines(study), 1 if study.extrapolated_limit is None else 0


def _approx_lines(study):
    for r in study.records:
        mag = f"{r.magnitude:.10g}" if r.magnitude is not None else f"FAILED: {r.failure}"
        gap = f"{r.gap:.3g}" if r.gap is not None else "-"
        yield f"level {r.level:>6}  points {r.n_points:>7}  gap {gap:>10}  {mag}"
    if study.extrapolated_limit is None:
        yield "no positive definite levels"
    else:
        yield (
            f"extrapolated limit {study.extrapolated_limit:.10g}  "
            f"monotone {study.monotone}"
        )


def _cmd_fourier(args):
    if args.upper_bound:
        radius = args.mollifier_radius
        if radius is None:
            radius = 2.0 * args.ell if args.ell > 0 else 1.0
        result = analysis.fourier_upper_bound_1d(
            args.ell, args.p, args.alpha, radius, L=args.L, N=args.N
        )
        line = (
            f"magnitude upper bound {result.bound:.8g} "
            f"(quadrature error ~{result.error_estimate:.3g})"
        )
        return result, [line], 0
    report = analysis.gamma_hat_1d(args.p, L=args.L, N=args.N)
    line = (
        f"p={args.p}  positive {report.positive}  "
        f"radially_decreasing {report.radially_decreasing}  "
        f"fitted_c {report.fitted_c:.6g}"
    )
    return report, [line], 0


def _cmd_experiment(args):
    if args.which == "product-counterexample":
        report = analysis.product_counterexample_experiment()
        lines = [f"classification: {report.classification}", *_failing_lines(report)]
        return report, lines, 0
    result = analysis.witness_search(
        p=args.p, n=args.n, budget=args.budget, seed=args.seed
    )
    if result.found:
        line = (
            f"witness found at scale {result.witness_scale:g} "
            f"(lambda_min {result.witness_lambda_min:.3g}, "
            f"{result.subsets_tested} subsets tested)"
        )
    else:
        line = f"no witness found ({result.subsets_tested} subsets tested)"
    return result, [line], 0


@functools.cache  # parse_args keeps no state: each call returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maglab",
        description="Magnitude and maximum diversity of metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check metric axioms of a CSV matrix")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("magnitude", help="weighting, magnitude, diagnostics")
    _add_space_source(p)
    p.set_defaults(func=_cmd_magnitude)

    p = sub.add_parser("diversity", help="exact maximum diversity (Cholesky, NNLS)")
    _add_space_source(p)
    p.set_defaults(func=_cmd_diversity)

    p = sub.add_parser("sweep", help="scale sweep of diagnostics and magnitude")
    _add_space_source(p)
    p.add_argument("--scales", type=_parse_scales, required=True,
                   help="a:b:n with optional log suffix, e.g. 0.25:4:9log")
    p.add_argument("--with-diversity", action="store_true")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("negtype", help="negative type test and stability scan")
    _add_space_source(p)
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
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser("experiment", help="prepackaged counterexample searches")
    p.add_argument("which", choices=["product-counterexample", "witness-search"])
    p.add_argument("--p", type=float, default=float("inf"))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_experiment)

    for p in sub.choices.values():
        p.add_argument("--json")
    return parser


def run(argv) -> CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(int(exc.code or 0))
    try:
        report, lines, exit_code = args.func(args)
        if args.json:
            _write_json(args.json, report)
        if getattr(args, "csv", None):
            _write_csv(args.csv, report.records)
        for line in lines:
            print(line)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(2)
    except MaglabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if exc.diagnostics is not None:
            print(f"lambda_min: {exc.diagnostics.lambda_min:.6g}", file=sys.stderr)
        return CommandResult(1)
    except (MemoryError, Warning) as exc:  # too large for its dense matrix; a warning as error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CommandResult(1)
    return CommandResult(exit_code)


def main() -> None:
    exit_code = run(sys.argv[1:]).exit_code
    try:
        sys.stdout.flush()
    except OSError:  # a closed stdout: what is left goes to devnull, so that the
        # interpreter's own flush at exit prints no "Exception ignored" lines
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
