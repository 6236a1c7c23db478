"""Command-line front end: every analysis as a subcommand with CSV/JSON output.

Each invocation emits one record: the schema version, the command, its
inputs and its named results. Every real number is serialized
with 17 significant digits, so re-running a command reproduces the output
byte for byte. Domain outcomes such as NoExtremal are data, not errors: they
exit 0 with the outcome encoded in the record.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import direct_min, energetics, extremals, spectrum, variation
from .config import TWO_PI
from .errors import NoExtremalError
from .grids import TestFunction

__all__ = ["main"]

SCHEMA_VERSION = "2"

# samples of the critical catenoid's direction mu for its third variation
_THIRD_VARIATION_SAMPLES = 2049


class UsageError(Exception):
    """Bad command-line arguments; maps to exit status 2."""


def _scalar_token(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("boolean output is not part of the schema")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render_json(value, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        lines = [
            f'{pad}  {json.dumps(key)}: {_render_json(item, indent + 2)}'
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if any(isinstance(item, (list, tuple, dict)) for item in value):
            lines = [f"{pad}  {_render_json(item, indent + 2)}" for item in value]
            return "[\n" + ",\n".join(lines) + "\n" + pad + "]"
        return "[" + ", ".join(_render_json(item) for item in value) + "]"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    return _scalar_token(value)


def _results_table(results: Dict) -> Tuple[List[str], List[List]]:
    if "columns" in results:
        return list(results["columns"]), [list(row) for row in results["rows"]]
    return list(results.keys()), [list(results.values())]


def _emit(record: Dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = _render_json(record) + "\n"
    else:
        columns, rows = _results_table(record["results"])
        lines = [",".join(columns)]
        lines.extend(",".join(_scalar_token(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _record(command: str, inputs: Dict, results: Dict) -> Dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
    }


def _require_positive(value: float, flag: str) -> float:
    if value is None or not value > 0.0:
        raise UsageError(f"{flag} must be positive")
    return float(value)


def _critical_third_variation(e: extremals.Extremal) -> float:
    psi = TestFunction.sample(variation.mu, e.tau, _THIRD_VARIATION_SAMPLES)
    eta = variation.eta_from_psi(psi, e)
    return variation.third_variation(e, eta)


def _run_solve(args) -> Dict:
    h = _require_positive(args.h, "--h")
    inputs = {"h": h}
    cc = extremals.critical_constants()
    try:
        lower, upper = extremals.solve_branches(h)
    except NoExtremalError:
        results = {
            "outcome": "NoExtremal",
            "h_star": cc.h_star,
            "goldschmidt_area": TWO_PI,
        }
        return _record("solve", inputs, results)
    if lower.tau == upper.tau:
        results = {
            "outcome": "Critical",
            "tau_star": lower.tau,
            "c": lower.c,
            "area": extremals.area_closed_form(lower),
            "third_variation": _critical_third_variation(lower),
            "verdict": "critical: no extremum",
        }
        return _record("solve", inputs, results)
    results = {
        "outcome": "Subcritical",
        "tau1": lower.tau,
        "tau2": upper.tau,
        "c1": lower.c,
        "c2": upper.c,
        "area1": extremals.area_closed_form(lower),
        "area2": extremals.area_closed_form(upper),
        "verdict_lower": "local minimum",
        "verdict_upper": "saddle: no extremum",
    }
    return _record("solve", inputs, results)


def _run_critical(args) -> Dict:
    cc = extremals.critical_constants()
    return _record("critical", {}, {"tau_star": cc.tau_star, "h_star": cc.h_star})


def _run_goldschmidt(args) -> Dict:
    return _record(
        "goldschmidt",
        {},
        {"h_goldschmidt": energetics.goldschmidt_constant(), "disk_area": TWO_PI},
    )


def _run_spectrum(args) -> Dict:
    tau = _require_positive(args.tau, "--tau")
    if args.k < 1:
        raise UsageError("--k must be at least 1")
    if args.n < 256:
        raise UsageError("--n must be at least 256")
    result = spectrum.eigenvalues(tau, args.k, args.n)
    rows = [[tau, k + 1, float(lam)] for k, lam in enumerate(result.lambdas)]
    inputs = {"tau": tau, "k": args.k, "n": args.n}
    return _record("spectrum", inputs, {"columns": ["tau", "k", "lambda"], "rows": rows})


def _range_points(args) -> List[float]:
    h_min = _require_positive(args.h_min, "--h-min")
    h_max = h_min if args.h_max is None else float(args.h_max)
    if h_max < h_min:
        raise UsageError("--h-max must not be below --h-min")
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    if args.steps == 1:
        return [h_min]
    return [float(v) for v in np.linspace(h_min, h_max, args.steps)]


def _run_force(args) -> Dict:
    points = _range_points(args)
    rows = []
    for h in points:
        try:
            sample = energetics.force(h)
            rows.append([h, sample.force, sample.dforce_dh])
        except NoExtremalError:
            rows.append([h, None, None])
    inputs = {"h_min": points[0], "h_max": points[-1], "steps": len(points)}
    return _record("force", inputs, {"columns": ["h", "force", "dforce_dh"], "rows": rows})


def _run_sweep(args) -> Dict:
    points = _range_points(args)
    rows = []
    for h in points:
        try:
            lower, upper = extremals.solve_branches(h)
            row = [
                h,
                lower.tau,
                upper.tau,
                extremals.area_closed_form(lower),
                extremals.area_closed_form(upper),
            ]
        except NoExtremalError:
            row = [h, None, None, None, None]
        try:
            row.append(energetics.force(h).force)
        except NoExtremalError:
            row.append(None)
        rows.append(row)
    inputs = {"h_min": points[0], "h_max": points[-1], "steps": len(points)}
    columns = ["h", "tau1", "tau2", "area1", "area2", "force"]
    return _record("sweep", inputs, {"columns": columns, "rows": rows})


def _run_minimize(args) -> Dict:
    h = _require_positive(args.h, "--h")
    if args.n < 64:
        raise UsageError("--n must be at least 64")
    inputs = {"h": h, "n": args.n, "init": args.init}
    try:
        report = direct_min.minimize(h, args.n, args.init)
    except NoExtremalError as exc:
        results = {"outcome": "NoExtremal", "h_star": exc.h_star}
        return _record("minimize", inputs, results)
    results = {
        "outcome": report.outcome.value,
        "final_area": report.final_area,
        "iterations": report.iterations,
        "min_y": report.min_y,
    }
    return _record("minimize", inputs, results)


_HANDLERS = {
    "solve": _run_solve,
    "critical": _run_critical,
    "goldschmidt": _run_goldschmidt,
    "spectrum": _run_spectrum,
    "force": _run_force,
    "sweep": _run_sweep,
    "minimize": _run_minimize,
}


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soapfilm",
        description="Catenoid analysis of the soap film spanning two coaxial unit rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="both catenoid branches at one half-distance")
    p.add_argument("--h", type=float, required=True)
    _add_output_flags(p)

    p = sub.add_parser("critical", help="critical constants tau_star and h_star")
    _add_output_flags(p)

    p = sub.add_parser("goldschmidt", help="half-distance where the film ties the disks")
    _add_output_flags(p)

    p = sub.add_parser("spectrum", help="string eigenvalues on [-tau, tau]")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--k", type=int, default=5, help="number of eigenvalues (default 5)")
    p.add_argument("--n", type=int, default=spectrum._DEFAULT_STEPS)
    _add_output_flags(p)

    p = sub.add_parser("force", help="ring force over a range of half-distances")
    p.add_argument("--h-min", type=float, required=True, dest="h_min")
    p.add_argument("--h-max", type=float, default=None, dest="h_max")
    p.add_argument("--steps", type=int, default=1)
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="branch parameters, areas, force over a range")
    p.add_argument("--h-min", type=float, required=True, dest="h_min")
    p.add_argument("--h-max", type=float, required=True, dest="h_max")
    p.add_argument("--steps", type=int, default=100)
    _add_output_flags(p)

    p = sub.add_parser("minimize", help="relax a profile by projected Newton descent")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--n", type=int, default=512)
    p.add_argument(
        "--init",
        choices=tuple(preset.value for preset in direct_min.InitPreset),
        default="cylinder",
    )
    _add_output_flags(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        record = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(record, args.format, args.out)
    return 0
