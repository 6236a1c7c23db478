"""Command-line front end: every analysis as a subcommand with CSV/JSON output.

Each invocation emits one record: the schema version, the command, its
inputs and its named results. Every real number is serialized
with 17 significant digits, and in JSON an integral one ends in ".0", so
that it reads back as a float; re-running a command reproduces the output
byte for byte. Domain outcomes such as NoExtremal are data, not errors: they
exit 0 with the outcome encoded in the record. The library functions check
their own arguments: any DomainError, from them or from the CLI's range
checks, exits 2 with its message; other failures, an --out path that cannot
be written among them, exit 1 with theirs. Only the minimize handler imports
the modules that need numpy, and only help texts and parser errors import
and build argparse: a well-formed argv is read straight from the command
table.
"""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

from . import energetics, extremals
from .errors import DomainError, NoExtremalError, _count

__all__ = ["main"]

SCHEMA_VERSION = "2"


def _scalar_token(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("boolean output is not part of the schema")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render_json(value, indent: int = 0) -> str:
    # floats first: they are most of a record's leaves. An integral float
    # gets ".0", so that it reads back as a float; strings and keys are
    # escaped as json.dumps escapes them
    if isinstance(value, float):
        token = format(value, ".17g")
        return token if "." in token or "e" in token or "n" in token else token + ".0"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        lines = [
            f"{pad}  {encode_basestring_ascii(key)}: {_render_json(item, indent + 2)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        # scalars on one line, in one pass, floats inline as above to spare
        # a call per cell; a list holding any container puts each item on a
        # line of its own
        tokens = []
        for item in value:
            if type(item) is float:
                token = format(item, ".17g")
                if not ("." in token or "e" in token or "n" in token):
                    token += ".0"
            elif isinstance(item, (list, tuple, dict)):
                lines = [f"{pad}  {_render_json(item, indent + 2)}" for item in value]
                return "[\n" + ",\n".join(lines) + "\n" + pad + "]"
            else:
                token = _render_json(item)
            tokens.append(token)
        return "[" + ", ".join(tokens) + "]"
    if value is None:
        return "null"
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
        with open(out, "wb") as handle:
            handle.write(text.encode("utf-8"))


def _finite(flag: str, h: float) -> float:
    # JSON has no token for inf or NaN
    if not math.isfinite(h):
        raise DomainError(f"{flag} must be finite, got {h!r}")
    return h


def _run_solve(args) -> Tuple[Dict, Dict]:
    inputs = {"h": _finite("--h", args.h)}
    cc = extremals.critical_constants()
    try:
        lower, upper = extremals.solve_branches(args.h)
    except NoExtremalError:
        results = {
            "outcome": "NoExtremal",
            "h_star": cc.h_star,
            "goldschmidt_area": math.tau,
        }
        return inputs, results
    if lower.tau == upper.tau:
        results = {
            "outcome": "Critical",
            "tau_star": lower.tau,
            "c": lower.c,
            "area": extremals.area_closed_form(lower),
            # along eta = mu(s)*cosh(s) the cubic term's integrand is s^2/c^2
            "third_variation": math.tau * lower.tau**4 / (3.0 * lower.h),
            "verdict": "critical: no extremum",
        }
        return inputs, results
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
    return inputs, results


def _run_critical(args) -> Tuple[Dict, Dict]:
    cc = extremals.critical_constants()
    return {}, {"tau_star": cc.tau_star, "h_star": cc.h_star}


def _run_goldschmidt(args) -> Tuple[Dict, Dict]:
    return {}, {"h_goldschmidt": energetics.goldschmidt_constant(), "disk_area": math.tau}


def _run_spectrum(args) -> Tuple[Dict, Dict]:
    from .spectrum import eigenvalues
    result = eigenvalues(args.tau, args.k)
    rows = [[args.tau, k + 1, lam] for k, lam in enumerate(result.lambdas)]
    inputs = {"tau": args.tau, "k": args.k}
    return inputs, {"columns": ["tau", "k", "lambda"], "rows": rows}


def _range_points(args) -> List[float]:
    h_min = _finite("--h-min", args.h_min)
    h_max = h_min if args.h_max is None else _finite("--h-max", args.h_max)
    if h_max < h_min:
        raise DomainError("--h-max must not be below --h-min")
    if not math.isfinite(h_max - h_min):
        raise DomainError(f"--h-max - --h-min overflows the float range: {h_max!r} - {h_min!r}")
    steps = _count("--steps", args.steps, 1)
    if steps == 1:
        return [h_min]
    # numpy.linspace's arithmetic, bit for bit: i/div*delta where step underflows
    div, delta = steps - 1, h_max - h_min
    step = delta / div
    return [(i * step if step else i / div * delta) + h_min for i in range(div)] + [h_max]


def _run_force(args) -> Tuple[Dict, Dict]:
    points = _range_points(args)
    rows = []
    for h in points:
        try:
            sample = energetics.force(h)
            rows.append([h, sample.force, sample.dforce_dh])
        except NoExtremalError:
            rows.append([h, None, None])
    inputs = {"h_min": points[0], "h_max": points[-1], "steps": len(points)}
    return inputs, {"columns": ["h", "force", "dforce_dh"], "rows": rows}


def _run_sweep(args) -> Tuple[Dict, Dict]:
    points = _range_points(args)
    rows = []
    for h in points:
        try:
            lower, upper = extremals.solve_branches(h)
        except NoExtremalError:
            rows.append([h, None, None, None, None, None])
            continue
        # force has no value at the fold, where the two branches coincide
        force = None if lower.tau == upper.tau else energetics._force(lower).force
        area1, area2 = extremals.area_closed_form(lower), extremals.area_closed_form(upper)
        rows.append([h, lower.tau, upper.tau, area1, area2, force])
    inputs = {"h_min": points[0], "h_max": points[-1], "steps": len(points)}
    columns = ["h", "tau1", "tau2", "area1", "area2", "force"]
    return inputs, {"columns": columns, "rows": rows}


def _run_minimize(args) -> Tuple[Dict, Dict]:
    from . import direct_min
    inputs = {"h": args.h, "n": args.n, "init": args.init}
    try:
        report = direct_min.minimize(args.h, args.n, args.init)
    except NoExtremalError as exc:
        results = {"outcome": "NoExtremal", "h_star": exc.h_star}
        return inputs, results
    results = {
        "outcome": report.outcome.value,
        "final_area": report.final_area,
        "iterations": report.iterations,
        "min_y": report.min_y,
    }
    return inputs, results


# name -> (handler, help, arguments); every subcommand also takes the
# _OUTPUT_FLAGS. A handler returns the record's inputs and results.
_COMMANDS = {
    "solve": (_run_solve, "both catenoid branches at one half-distance", [
        ("--h", dict(type=float, required=True)),
    ]),
    "critical": (_run_critical, "critical constants tau_star and h_star", []),
    "goldschmidt": (_run_goldschmidt, "half-distance where the film ties the disks", []),
    "spectrum": (_run_spectrum, "string eigenvalues on [-tau, tau]", [
        ("--tau", dict(type=float, required=True)),
        ("--k", dict(type=int, default=5, help="number of eigenvalues (default 5)")),
    ]),
    "force": (_run_force, "ring force over a range of half-distances", [
        ("--h-min", dict(type=float, required=True)),
        ("--h-max", dict(type=float)),
        ("--steps", dict(type=int, default=1)),
    ]),
    "sweep": (_run_sweep, "branch parameters, areas, force over a range", [
        ("--h-min", dict(type=float, required=True)),
        ("--h-max", dict(type=float, required=True)),
        ("--steps", dict(type=int, default=100)),
    ]),
    "minimize": (_run_minimize, "relax a profile by projected Newton descent", [
        ("--h", dict(type=float, required=True)),
        ("--n", dict(type=int, default=512)),
        ("--init", dict(default="cylinder")),
    ]),
}
_OUTPUT_FLAGS = [
    ("--format", dict(choices=("json", "csv"), default="json")),
    ("--out", dict(help="output path (default: stdout)")),
]


def _build_parser():
    """The full build: the top-level parser with every subcommand's parser."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="soapfilm",
        description="Catenoid analysis of the soap film spanning two coaxial unit rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        for flag, options in arguments + _OUTPUT_FLAGS:
            subparser.add_argument(flag, **options)
    return parser


def _scan(argv: List[str]) -> Optional[SimpleNamespace]:
    """The namespace of a well-formed argv, read from the command table.

    Well-formed: a subcommand, then `--flag value` pairs of its own flags
    spelled in full, each value not starting with "-", converting with the
    flag's type and within its choices, and every required flag present.
    argparse reads such an argv to this same namespace; None for any other.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    options = dict(_COMMANDS[argv[0]][2] + _OUTPUT_FLAGS)
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None or text.startswith("-"):
            return None
        try:
            value = option.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in option and value not in option["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0])
    for flag, option in options.items():
        if option.get("required") and flag not in given:
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, option.get("default")))
    return args


def _parse(argv: List[str]):
    """argv read from the command table when it is well-formed, else by argparse.

    The full build is the reference: it prints every help text and every
    parser error, and it reads a well-formed argv to the namespace _scan does.
    """
    args = _scan(argv)
    return _build_parser().parse_args(argv) if args is None else args


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        inputs, results = _COMMANDS[args.command][0](args)
        record = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": inputs,
            "results": results,
        }
        _emit(record, args.format, args.out)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
