"""Command-line front end: evaluate, poles, residues, verification, tables.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 pole proximity, 4 numeric failure, 5 unsupported pole multiplicity.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import engine, suites
from .quadrature import EvalParams, QuadratureError
from .ratfun import AffineForm, MultiplePoleError, PoleSignal
from .theta import (
    ThetaFunction,
    TruncationError,
    ValidationError,
    builtin_registry,
    parse_theta_token,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_POLE = 3
EXIT_NUMERIC = 4
EXIT_MULTIPLICITY = 5


class CliError(Exception):
    """A bad request: the CLI prints the message and exits EXIT_PARSE."""


# longest theta tuple accepted (riemann at r = 8 integrates 1005 distinct words)
MAX_TUPLE = 8


def parse_theta_tuple(text: str) -> tuple[ThetaFunction, ...]:
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise CliError("empty theta tuple")
    if len(tokens) > MAX_TUPLE:
        raise CliError(
            f"theta tuple of length {len(tokens)}: at most {MAX_TUPLE} thetas are supported"
        )
    try:
        return tuple(parse_theta_token(t) for t in tokens)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def parse_point(text: str, nslots: int) -> tuple[complex, ...]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    point = None
    if len(tokens) == 2 * nslots:
        try:
            vals = [float(t) for t in tokens]
            point = tuple(complex(vals[2 * i], vals[2 * i + 1]) for i in range(nslots))
        except ValueError:
            pass
    if point is None:
        if len(tokens) != nslots:
            raise CliError(f"expected {nslots} slot values, got {len(tokens)}")
        out = []
        for t in tokens:
            try:
                out.append(complex(t[:-1] + "j" if t.endswith("i") else t))
            except ValueError:
                raise CliError(f"cannot parse complex number {t!r}") from None
        point = tuple(out)
    for z in point:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise CliError(f"slot value {z} is not finite")
    return point


def parse_hyperplane(text: str, nslots: int) -> AffineForm:
    """Syntax: comma-separated integer slot coefficients, colon, rational
    constant; "0,1,1:0" means s2 + s3 = 0 (the form s2 + s3 - 0)."""
    if ":" not in text:
        raise CliError("hyperplane must be '<c1,...,cr>:<constant>'")
    left, right = text.rsplit(":", 1)
    try:
        coeffs = [int(c) for c in left.split(",")]
        const = Fraction(right)
    except ValueError:
        raise CliError(f"cannot parse hyperplane {text!r}") from None
    if len(coeffs) != nslots:
        raise CliError(f"hyperplane has {len(coeffs)} coefficients for {nslots} slots")
    if all(c == 0 for c in coeffs):
        raise CliError("hyperplane needs a nonzero slot coefficient")
    return AffineForm.make(-const, coeffs)


def _params_from_args(args) -> EvalParams:
    try:
        return EvalParams(
            abs_tol=args.tol, quad_order=args.order, max_refine=args.max_refine
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.12g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g} {sign} {abs(z.imag):.12g}i"


def _row_header(nslots: int) -> list[str]:
    """Field names of a result row: each slot's parts, the value's, the
    error estimate and the pole flag."""
    slots = [f"s{i + 1}_{part}" for i in range(nslots) for part in ("re", "im")]
    return slots + ["re", "im", "err", "pole"]


def _row_fields(point, value: complex, err: float, pole: int) -> list:
    """The fields of one result row, in the order of _row_header."""
    return [x for si in point for x in (si.real, si.imag)] + [value.real, value.imag, err, pole]


def _csv(nslots: int, rows) -> str:
    """The header and one line per (point, value, err, pole) row, as CSV."""
    lines = [",".join(_row_header(nslots))]
    lines += [",".join(repr(x) for x in _row_fields(*row)) for row in rows]
    return "\n".join(lines)


def cmd_eval(args) -> int:
    thetas = parse_theta_tuple(args.theta)
    point = parse_point(args.s, len(thetas))
    params = _params_from_args(args)
    expr = engine.build_expression(thetas)
    warnings: list[str] = []
    near, dist = engine.nearest_pole(expr, point)
    if near is not None and dist < 1e-3:
        warnings.append(f"within {dist:.2e} of pole hyperplane {near} = 0")
    evaluate = engine.lstar_eval if args.lstar else engine.lambda_eval
    value, err = evaluate(expr, point, params)
    if args.format == "json":
        _emit(
            _json_dumps(
                {"re": value.real, "im": value.imag, "err": err, "warnings": warnings}
            ),
            args.out,
        )
    elif args.format == "csv":
        _emit(_csv(len(point), [(point, value, err, 0)]), args.out)
    else:
        names = ",".join(th.name for th in thetas)
        pt = ", ".join(_fmt_complex(si) for si in point)
        lines = [f"Lambda({names}; {pt})", f"  value          = {_fmt_complex(value)}"]
        lines.append(f"  error estimate = {err:.3e}")
        if near is not None:
            lines.append(f"  nearest pole   : {near} = 0  (distance {dist:.6g})")
        else:
            lines.append("  nearest pole   : none (entire)")
        for w in warnings:
            lines.append(f"  warning: {w}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_poles(args) -> int:
    thetas = parse_theta_tuple(args.theta)
    expr = engine.build_expression(thetas)
    forms = [str(h) for h in engine.poles(expr)]
    if args.format == "json":
        _emit(_json_dumps({"poles": forms}), args.out)
    else:
        if not forms:
            _emit("no poles (entire)", args.out)
        else:
            _emit("\n".join(f"{f} = 0" for f in forms), args.out)
    return EXIT_OK


def cmd_residue(args) -> int:
    thetas = parse_theta_tuple(args.theta)
    nslots = len(thetas)
    h = parse_hyperplane(args.hyperplane, nslots)
    point = parse_point(args.at, nslots)
    params = _params_from_args(args)
    expr = engine.build_expression(thetas)
    try:
        value, err = engine.residue(expr, h, point, params)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.format == "json":
        payload = {"re": value.real, "im": value.imag, "err": err, "hyperplane": str(h)}
        _emit(_json_dumps(payload), args.out)
    else:
        _emit(
            f"Res_{{{h} = 0}} Lambda({','.join(t.name for t in thetas)}) "
            f"at ({', '.join(_fmt_complex(x) for x in point)}) = {_fmt_complex(value)}"
            f"  (error estimate {err:.3e})",
            args.out,
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _params_from_args(args)
    try:
        results = suites.run_suite(args.suite, args.seed, args.trials, params)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    ok = all(c.passed for c in results)
    if args.format == "json":
        _emit(
            _json_dumps(
                {
                    "suite": args.suite,
                    "seed": args.seed,
                    "trials": args.trials,
                    "passed": ok,
                    "cases": [c.to_dict() for c in results],
                }
            ),
            args.out,
        )
    else:
        lines = []
        for c in results:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{tag}] {c.suite} :: {c.case}  (defect {c.defect:.3e}, tol {c.tolerance:.1e})"
            )
        lines.append(
            f"{sum(c.passed for c in results)}/{len(results)} cases passed"
        )
        _emit("\n".join(lines), args.out)
    return EXIT_OK if ok else EXIT_FAIL


# most cells a table evaluates
MAX_CELLS = 100000


def _check_cells(count: float) -> None:
    if not count <= MAX_CELLS:
        raise CliError(f"grid of {count:.6g} cells exceeds the 1e5 limit")


def _parse_axis(spec: str) -> list[float]:
    bits = spec.split(":")
    if len(bits) != 3:
        raise CliError(f"axis spec {spec!r} must be start:stop:step")
    try:
        start, stop, step = (float(b) for b in bits)
    except ValueError:
        raise CliError(f"cannot parse axis {spec!r}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise CliError(f"axis {spec!r} has a non-finite bound or step")
    if step <= 0:
        raise CliError("axis step must be positive")
    # counted as a float and checked before any list is built
    count = np.floor((stop - start) / step + 1e-9) + 1
    if count < 1:
        raise CliError(f"axis {spec!r} is empty")
    _check_cells(count)
    return [start + i * step for i in range(int(count))]


def _parse_grid(spec: str, nslots: int) -> list[list[complex]]:
    slots = spec.split(";")
    if len(slots) != nslots:
        raise CliError(f"grid has {len(slots)} slot specs for {nslots} slots")
    axes = []
    for slot in slots:
        if "/" in slot:
            re_spec, im_spec = slot.split("/", 1)
            res, ims = _parse_axis(re_spec), _parse_axis(im_spec)
        else:
            res, ims = _parse_axis(slot), [0.0]
        _check_cells(len(res) * len(ims))
        axes.append([complex(a, b) for a in res for b in ims])
    return axes


def cmd_table(args) -> int:
    thetas = parse_theta_tuple(args.theta)
    nslots = len(thetas)
    axes = _parse_grid(args.grid, nslots)
    _check_cells(math.prod(len(ax) for ax in axes))
    params = _params_from_args(args)
    expr = engine.build_expression(thetas)

    points = list(itertools.product(*axes))
    rows = [
        (point, 0j, 0.0, 1) if isinstance(result, PoleSignal) else (point, *result, 0)
        for point, result in zip(points, engine.lambda_eval_many(expr, points, params))
    ]
    if args.format == "json":
        header = _row_header(nslots)
        payload = [dict(zip(header, _row_fields(*row))) for row in rows]
        _emit(_json_dumps({"rows": payload}), args.out)
    else:
        _emit(_csv(nslots, rows), args.out)
    return EXIT_OK


def cmd_list_thetas(args) -> int:
    entries = [th.describe() for th in builtin_registry().values()]
    if args.format == "json":
        _emit(_json_dumps({"thetas": entries}), args.out)
    else:
        lines = []
        for e in entries:
            crit = (
                f"critical {e['critical_range'][0]}..{e['critical_range'][1]}"
                if e["critical_range"]
                else "no registered critical range"
            )
            lines.append(
                f"{e['name']:<14} weight {e['weight']:<5} sign {e['sign']:+d} "
                f"kernel p={e['kernel_power']} dual {e['dual']:<14} {crit}"
            )
        _emit("\n".join(lines), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state between calls, since every default is immutable."""
    ap = argparse.ArgumentParser(
        prog="itermellin",
        description="Evaluate multiple completed L-functions built from theta functions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, theta=True, numeric=True, formats=("human", "json")):
        """The options a command shares: the first format is the default."""
        if theta:
            p.add_argument("--theta", required=True, help="comma-separated theta tuple")
        if numeric:
            p.add_argument("--tol", type=float, default=EvalParams.abs_tol,
                           help="absolute tolerance")
            p.add_argument("--order", type=int, default=EvalParams.quad_order,
                           help="Gauss nodes per panel")
            p.add_argument("--max-refine", type=int, default=EvalParams.max_refine,
                           dest="max_refine")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("eval", help="evaluate at a point")
    common(p, formats=("human", "json", "csv"))
    p.add_argument("--s", required=True, help="slot values, e.g. 2,2 or 1+0.5i,2")
    p.add_argument("--lstar", action="store_true", help="apply the conductor rescaling")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("poles", help="list pole hyperplanes")
    common(p, numeric=False)
    p.set_defaults(fn=cmd_poles)

    p = sub.add_parser("residue", help="residue along a hyperplane")
    common(p)
    p.add_argument(
        "--hyperplane",
        required=True,
        help="slot coefficients and constant, e.g. 0,1:0 for s2 = 0",
    )
    p.add_argument("--at", required=True, help="point on the hyperplane")
    p.set_defaults(fn=cmd_residue)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, theta=False)
    p.add_argument("--suite", required=True, help="suite name or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table", help="evaluate over a grid, emit CSV/JSON")
    common(p, formats=("csv", "json"))
    p.add_argument(
        "--grid",
        required=True,
        help="per-slot axis specs 'start:stop:step[/imstart:imstop:imstep]' joined by ';'",
    )
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("list-thetas", help="list registered theta functions")
    common(p, theta=False, numeric=False)
    p.set_defaults(fn=cmd_list_thetas)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PoleSignal as exc:
        print(f"pole: evaluation point lies on {exc.form} = 0", file=sys.stderr)
        return EXIT_POLE
    except MultiplePoleError as exc:
        print(f"unsupported pole multiplicity: {exc}", file=sys.stderr)
        return EXIT_MULTIPLICITY
    except (QuadratureError, TruncationError, engine.DirectConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValidationError, engine.BrokenInversionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
