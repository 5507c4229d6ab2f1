"""Command-line front end.

Subcommands: net gen | net verify, scramble, psi profile | psi eval, covpoly,
qscan, figure-scan, simulate, verify.  Scan output is CSV (one float per
cell, repr-formatted so identical inputs give identical bytes); structured
reports are JSON with sorted keys.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from .counting import common_digits, joint_pdf, pair_profile
from .covkernel import cov_polynomial, horner, q_s_polynomial
from .digits import ConfigurationError, fraction_digits
from .estimators import MAX_POINTS, ExperimentConfig, run_experiment
from .nets import PointSet, faure_net, load_point_set, save_point_set, verify_net
from .scramble import replicate_blocks
from . import checks

PRIMES_TO_53 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
CRITICAL = "critical"  # marks a = (b-1)/b, resolved per swept base
# --x-grid point cap: 100x the largest grid a figure or scan needs (1001)
MAX_GRID_POINTS = 100_000
# Most points x (degree x bits of the grid's numbers)^2 a scan may take, the
# cost of its Horner passes: about 3.5 s on a 2-core VM; a figure needs 10^7
MAX_SCAN_WORK = 2 ** 39

# name -> (swept parameter, its values, fixed parameters); the fixed ones
# keep base, m, s, a order, which the CSV comment line prints
FIGURE_PRESETS = {
    "3a": ("base", PRIMES_TO_53, dict(m=3, s=3, a=CRITICAL)),
    "3b": ("m", tuple(range(1, 17)), dict(base=3, s=3, a=Fraction(2, 3))),
    "3c": ("s", tuple(range(1, 17)), dict(base=3, m=3, a=Fraction(2, 3))),
    "4": ("a", tuple(Fraction(j, 16) for j in range(1, 17)),
          dict(base=3, m=3, s=3)),
    "5a": ("base", PRIMES_TO_53, dict(m=3, s=3, a=Fraction(1))),
    "5b": ("m", tuple(range(1, 17)), dict(base=3, s=3, a=Fraction(1))),
    "5c": ("s", tuple(range(1, 17)), dict(base=3, m=3, a=Fraction(1))),
}


def figure_scan(name: str, grid: tuple[range, int]) -> str:
    """CSV of one preset sweep of the covariance polynomial scaled by
    1/(b^m - 1): one row per (swept value, grid x), fixed parameters
    recorded on the leading comment line."""
    vary, values, fixed = FIGURE_PRESETS[name]
    header = " ".join(f"{key}={val}" for key, val in fixed.items())
    lines = [f"# fixed: {header} scale=1/(b^m-1)", f"{vary},x,value"]
    polys = []
    for val in values:
        params = {**fixed, vary: val}
        b, m = params["base"], params["m"]
        a = Fraction(b - 1, b) if params["a"] == CRITICAL else params["a"]
        poly = cov_polynomial(b, m, params["s"], a)
        polys.append((poly.x_numerators, poly.x_denominator * (b ** m - 1),
                      f"{val},"))
    return "\n".join(lines + _scan_rows(polys, grid)) + "\n"


def _scan_rows(polys: Sequence[tuple[Sequence[int], int, str]],
               grid: tuple[range, int]) -> list[str]:
    """CSV rows "<prefix>x,value" at the grid points p/q for each integer
    polynomial (coeffs, den > 0, prefix) in polys.  The x labels are formatted
    once; a value is one int/int division, correctly rounded, reduced or not,
    as float(Fraction) is."""
    numerators, q = grid
    bits = max(q, abs(numerators[0]), abs(numerators[-1])).bit_length()
    work = len(numerators) * sum(((len(c) - 1) * bits) ** 2 for c, _, _ in polys)
    if work > MAX_SCAN_WORK:
        raise ConfigurationError(f"a scan of {len(numerators)} points of {bits} bits "
                                 f"takes {work} units of work, more than {MAX_SCAN_WORK}")
    labels = [f"{p / q!r}," for p in numerators]
    rows = []
    for coeffs, den, prefix in polys:
        nums, q_d = horner(coeffs, numerators, q)
        den *= q_d
        rows += [f"{prefix}{label}{num / den!r}"
                 for label, num in zip(labels, nums)]
    return rows


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_grid(text: str) -> tuple[range, int]:
    """lo:hi:step as (numerators, q): the points lo + i * step are p / q
    over the one denominator q = lo.den * step.den, in lowest terms or not."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must be lo:hi:step, got {text!r}")
    lo, hi, step = (_parse_fraction(p) for p in parts)
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad grid bounds in {text!r}")
    count = (hi - lo) // step + 1
    if count > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has {count} points, more than {MAX_GRID_POINTS}")
    num, inc = lo.numerator * step.denominator, step.numerator * lo.denominator
    return range(num, num + count * inc, inc), lo.denominator * step.denominator


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_points(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_point_set(fh)


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_net_gen(args) -> int:
    ps = faure_net(args.base, args.m, args.s, precision=args.precision)
    buf = io.StringIO()
    save_point_set(ps, buf)
    _write(buf.getvalue(), args.out)
    return 0


def _cmd_net_verify(args) -> int:
    ps = _load_points(args.file)
    t = ps.t if args.t is None else args.t
    report = verify_net(ps, t=t)
    _write(_json(report.to_dict()), None)
    return 0 if report.passed else 1


def _cmd_scramble(args) -> int:
    ps = _load_points(args.file)
    if args.reps * ps.n > MAX_POINTS:
        raise ConfigurationError(f"--reps {args.reps} replications of {ps.n} "
                                 f"points are more than {MAX_POINTS} points")
    blocks = replicate_blocks(ps, args.seed, args.reps, args.precision)
    for r, digits in enumerate(d for block in blocks for d in block):
        buf = io.StringIO()
        save_point_set(PointSet(b=ps.b, m=ps.m, s=ps.s, t=ps.t, digits=digits), buf)
        if args.out_prefix:
            _write(buf.getvalue(), f"{args.out_prefix}{r:03d}.txt")
        else:
            sys.stdout.write(buf.getvalue())
    return 0


def _cmd_psi_profile(args) -> int:
    profile = pair_profile(_load_points(args.file))
    _write(_json(profile.to_dict()), args.out)
    return 0


def _parse_point(text: str, b: int, precision: int):
    return fraction_digits([_parse_fraction(v) for v in text.split(",")], b, precision)


def _cmd_psi_eval(args) -> int:
    ps = _load_points(args.file)
    x = _parse_point(args.x, ps.b, ps.precision)
    y = _parse_point(args.y, ps.b, ps.precision)
    # x against y, then x against the file's s, before the profile is built
    parts = common_digits(x, y)
    common_digits(x, ps.digits[0])
    density = joint_pdf(pair_profile(ps), x, y)
    # a component at the precision agrees through every stored digit
    saturated = "AT_LEAST_P"
    doc = {
        "gamma": [saturated if p == ps.precision else p for p in parts],
        "gamma_total": saturated if ps.precision in parts else sum(parts),
        "pdf": str(density),
        "pdf_float": float(density),
        "precision": ps.precision,
    }
    _write(_json(doc), args.out)
    return 0


def _cmd_covpoly(args) -> int:
    poly = cov_polynomial(args.base, args.m, args.s, args.a)
    if args.x_grid is None:
        _write(_json(poly.to_dict()), args.out)
        return 0
    den = poly.x_denominator * (args.base ** args.m - 1
                                if args.scale == "inv-nm1" else 1)
    lines = ["x,value", *_scan_rows([(poly.x_numerators, den, "")], args.x_grid)]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_qscan(args) -> int:
    coeffs = q_s_polynomial(args.base, args.m, args.s)
    numerators, q = args.x_grid
    for p in numerators:
        if not 0 <= p <= q:
            raise ConfigurationError(
                f"x must lie in [0,1], got {Fraction(p, q)}")
    lines = ["x,value", *_scan_rows([(coeffs, 1, "")], args.x_grid)]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_figure_scan(args) -> int:
    names = [args.preset] if args.preset else sorted(FIGURE_PRESETS)
    # every CSV is built before the first is written: a failing preset
    # leaves no file behind
    texts = [(name, figure_scan(name, args.x_grid)) for name in names]
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    for name, csv_text in texts:
        if args.out_dir:
            _write(csv_text, os.path.join(args.out_dir, f"fig{name}.csv"))
        else:
            sys.stdout.write(csv_text)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc.setdefault("seed", args.seed)
    cfg = ExperimentConfig.from_dict(doc)
    report = run_experiment(cfg)
    _write(_json(report.to_dict()), args.out)
    if args.trace:
        rows = ["r,est_re,est_im,pair_term"]
        rows.extend(f"{r},{re!r},{im!r},{t!r}"
                    for r, re, im, t in report.trace_rows())
        _write("\n".join(rows) + "\n", args.trace)
    return 0


def _cmd_verify(args) -> int:
    report = checks.verify_all()
    if args.format == "json":
        _write(_json(report), args.out)
    else:
        lines = []
        for entry in report["checks"]:
            tag = "PASS" if entry["passed"] else "FAIL"
            lines.append(f"{tag} {entry['name']} ({entry['seconds']:.2f}s): "
                         f"{entry['detail']}")
        lines.append("all checks passed" if report["passed"]
                     else "FAILED: " + ", ".join(
                         e["name"] for e in report["checks"] if not e["passed"]))
        _write("\n".join(lines) + "\n", args.out)
    return 0 if report["passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcov",
        description="Scrambled digital nets and their pair-covariance analysis",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for all randomized subcommands")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report style of verify")
    sub = parser.add_subparsers(dest="command", required=True)

    p_net = sub.add_parser("net", help="generate or verify digital nets")
    net_sub = p_net.add_subparsers(dest="net_command", required=True)
    p_gen = net_sub.add_parser("gen", help="generate a base-b net")
    p_gen.add_argument("--base", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--s", type=int, required=True)
    p_gen.add_argument("--precision", type=int, default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(fn=_cmd_net_gen)
    p_ver = net_sub.add_parser("verify", help="check net equidistribution")
    p_ver.add_argument("--t", type=int, default=None,
                       help="quality parameter to test (default: the file's)")
    p_ver.add_argument("file")
    p_ver.set_defaults(fn=_cmd_net_verify)

    p_scr = sub.add_parser("scramble", help="scramble a point-set file")
    p_scr.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="overrides the global --seed")
    p_scr.add_argument("--reps", type=int, default=1,
                       help="number of replications, at least 1")
    p_scr.add_argument("--precision", type=int, default=None)
    p_scr.add_argument("--out-prefix", default=None,
                       help="write one file per replication with this prefix")
    p_scr.add_argument("file")
    p_scr.set_defaults(fn=_cmd_scramble)

    p_psi = sub.add_parser("psi", help="pair-profile and density inspection")
    psi_sub = p_psi.add_subparsers(dest="psi_command", required=True)
    p_prof = psi_sub.add_parser("profile", help="pair profile (prefix cells)")
    p_prof.add_argument("--out", default=None)
    p_prof.add_argument("file")
    p_prof.set_defaults(fn=_cmd_psi_profile)
    p_eval = psi_sub.add_parser("eval", help="density at a point pair")
    p_eval.add_argument("--x", required=True,
                        help="comma-separated rational coordinates")
    p_eval.add_argument("--y", required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("file")
    p_eval.set_defaults(fn=_cmd_psi_eval)

    p_cov = sub.add_parser("covpoly", help="covariance polynomial")
    p_cov.add_argument("--base", type=int, required=True)
    p_cov.add_argument("--m", type=int, required=True)
    p_cov.add_argument("--s", type=int, required=True)
    p_cov.add_argument("--a", type=_parse_fraction, required=True)
    p_cov.add_argument("--x-grid", type=_parse_grid, default=None,
                       help="lo:hi:step with rational entries")
    p_cov.add_argument("--scale", choices=("none", "inv-nm1"), default="none")
    p_cov.add_argument("--out", default=None)
    p_cov.set_defaults(fn=_cmd_covpoly)

    p_q = sub.add_parser("qscan", help="scan the beta-form witness")
    p_q.add_argument("--base", type=int, required=True)
    p_q.add_argument("--m", type=int, required=True)
    p_q.add_argument("--s", type=int, required=True)
    p_q.add_argument("--x-grid", type=_parse_grid, required=True)
    p_q.add_argument("--out", default=None)
    p_q.set_defaults(fn=_cmd_qscan)

    p_fig = sub.add_parser("figure-scan", help="preset parameter sweeps")
    p_fig.add_argument("--preset", choices=sorted(FIGURE_PRESETS),
                       default=None, help="default: emit every preset")
    p_fig.add_argument("--x-grid", type=_parse_grid,
                       default=_parse_grid("0:1:1/100"))
    p_fig.add_argument("--out-dir", default=None)
    p_fig.set_defaults(fn=_cmd_figure_scan)

    p_sim = sub.add_parser("simulate", help="replication experiment")
    p_sim.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="overrides the global --seed")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--trace", default=None,
                       help="CSV of per-replication estimates")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, OSError, ValueError, OverflowError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
