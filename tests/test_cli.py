import argparse
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import soapfilm.energetics
import soapfilm.extremals
from soapfilm import cli
from soapfilm.cli import _COMMANDS, _build_parser, _parse, _range_points, _render_json, main
from soapfilm.errors import DomainError, NoExtremalError
from soapfilm.extremals import critical_constants

from oracles import THIRD_VARIATION_CRITICAL, branch_root, mpmath_constants


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_subcritical_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "--h", "0.4")
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "2"
    assert record["command"] == "solve"
    assert record["inputs"]["h"] == 0.4
    assert "config" not in record["inputs"]
    results = record["results"]
    assert results["outcome"] == "Subcritical"
    np.testing.assert_allclose(results["tau1"], 0.4392042525017987, rtol=1e-10)
    np.testing.assert_allclose(results["tau2"], 2.5322482252938836, rtol=1e-10)
    np.testing.assert_allclose(results["area1"], 4.883793201931079, rtol=1e-10)
    np.testing.assert_allclose(results["area2"], 6.601303526004207, rtol=1e-10)
    assert results["area1"] < results["area2"]
    assert results["verdict_lower"] == "local minimum"
    assert results["verdict_upper"] == "saddle: no extremum"


def test_solve_reruns_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "solve", "--h", "0.37")
    _, second, _ = run_cli(capsys, "solve", "--h", "0.37")
    assert first == second


def test_solve_critical_reports_third_variation(capsys):
    code, out, _ = run_cli(capsys, "solve", "--h", "0.66274341934918157")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["outcome"] == "Critical"
    tau_star = mpmath_constants()[0]
    assert abs(results["tau_star"] - tau_star) <= 2.0 * math.ulp(tau_star)
    np.testing.assert_allclose(results["third_variation"], 6.54595, rtol=1e-4)
    # the closed form 2*pi*tau_star^4/(3*h_star), not a quadrature
    third = results["third_variation"]
    assert abs(third - THIRD_VARIATION_CRITICAL) <= 1e-14 * THIRD_VARIATION_CRITICAL
    assert results["verdict"] == "critical: no extremum"


def test_solve_supercritical_is_domain_outcome(capsys):
    code, out, _ = run_cli(capsys, "solve", "--h", "0.7")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["outcome"] == "NoExtremal"
    h_star = mpmath_constants()[1]
    assert abs(results["h_star"] - h_star) <= 2.0 * math.ulp(h_star)
    np.testing.assert_allclose(results["goldschmidt_area"], 2.0 * math.pi, rtol=1e-15)


def test_solve_at_the_least_positive_double(capsys):
    # c2 = h/tau_2 underflows to 0 and tau_1 rounds to h itself
    code, out, _ = run_cli(capsys, "solve", "--h", "5e-324")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["outcome"] == "Subcritical"
    assert (results["tau1"], results["c1"], results["c2"]) == (5e-324, 1.0, 0.0)
    tau2 = branch_root(math.log(5e-324), math.log(700.0), math.log(800.0))[1]
    assert abs(results["tau2"] - tau2) <= 2.0 * math.ulp(tau2)
    assert abs(results["area2"] / (2.0 * math.pi) - 1.0) <= 1e-12


def test_critical_subcommand(capsys):
    code, out, _ = run_cli(capsys, "critical")
    assert code == 0
    results = json.loads(out)["results"]
    tau_star, h_star, _ = mpmath_constants()
    assert abs(results["tau_star"] - tau_star) <= 2.0 * math.ulp(tau_star)
    assert abs(results["h_star"] - h_star) <= 2.0 * math.ulp(h_star)


def test_goldschmidt_csv(capsys):
    code, out, _ = run_cli(capsys, "goldschmidt", "--format", "csv")
    assert code == 0
    assert "\r" not in out
    lines = out.strip().splitlines()
    assert lines[0] == "h_goldschmidt,disk_area"
    h_g, disks = lines[1].split(",")
    np.testing.assert_allclose(float(h_g), mpmath_constants()[2], rtol=2e-15)
    np.testing.assert_allclose(float(disks), 2.0 * math.pi, rtol=1e-15)


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--tau", "2.0", "--k", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,k,lambda"
    assert len(lines) == 4
    lams = [float(line.split(",")[2]) for line in lines[1:]]
    assert lams[0] < 1.0
    assert lams == sorted(lams)


def test_spectrum_json_table(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--tau", "1.0", "--k", "2")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["columns"] == ["tau", "k", "lambda"]
    assert len(results["rows"]) == 2
    assert results["rows"][0][1] == 1


def test_force_range_with_supercritical_tail(capsys):
    code, out, _ = run_cli(
        capsys, "force", "--h-min", "0.2", "--h-max", "0.7", "--steps", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,force,dforce_dh"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) < 0.0
    assert lines[3].split(",")[1] == ""
    assert lines[3].split(",")[2] == ""


def test_force_json_uses_null(capsys):
    code, out, _ = run_cli(capsys, "force", "--h-min", "0.7")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["rows"][0][1] is None


def test_sweep_areas_ordered(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--h-min", "0.05", "--h-max", "0.66", "--steps", "100", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,tau1,tau2,area1,area2,force"
    assert len(lines) == 101
    for line in lines[1:]:
        _, tau1, tau2, area1, area2, f = line.split(",")
        assert float(area1) < float(area2)
        assert float(tau1) < float(tau2)
        assert float(f) < 0.0


def test_sweep_crossing_critical_leaves_blanks(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--h-min", "0.6", "--h-max", "0.7", "--steps", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    blank = [line for line in lines[1:] if line.endswith(",,,,")]
    assert len(blank) == 2


def test_sweep_solves_the_lower_branch_once_per_h(capsys, monkeypatch):
    # the force column comes from the lower extremal the row already holds:
    # force(h) bit for bit, or blank exactly where force raises, at the fold
    h_star = critical_constants().h_star
    solves = []
    for module in (soapfilm.extremals, soapfilm.energetics):
        def spy(h, original=module._lower_branch):
            solves.append(h)
            return original(h)
        monkeypatch.setattr(module, "_lower_branch", spy)
    argv = ["--h-min", repr(h_star - 2e-12), "--h-max", repr(h_star + 2e-12), "--steps", "41"]
    code, out, _ = run_cli(capsys, "sweep", *argv)
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert solves == [row[0] for row in rows]
    blanks = 0
    for h, *_, got in rows:
        try:
            want = soapfilm.energetics.force(h).force
        except NoExtremalError:
            want = None
        blanks += want is None
        assert got == want, h
    assert 0 < blanks < len(rows)


def test_minimize_json(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--h", "0.4", "--n", "128", "--init", "lower_catenoid")
    assert code == 0
    record = json.loads(out)
    assert record["inputs"]["init"] == "lower_catenoid"
    results = record["results"]
    assert results["outcome"] == "Converged"
    np.testing.assert_allclose(results["final_area"], 4.883793201931079, rtol=1e-4)
    assert results["iterations"] >= 0


def test_minimize_upper_preset_beyond_critical(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--h", "0.7", "--n", "128", "--init", "upper_catenoid")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["outcome"] == "NoExtremal"


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "solve", "--h", "-1")[0] == 2
    assert run_cli(capsys, "solve")[0] == 2
    assert run_cli(capsys, "spectrum", "--tau", "-2")[0] == 2
    assert run_cli(capsys, "spectrum", "--tau", "1.0", "--k", "0")[0] == 2
    assert run_cli(capsys, "force", "--h-min", "0.2", "--h-max", "0.1")[0] == 2
    assert run_cli(capsys, "force", "--h-min", "0.2", "--steps", "0")[0] == 2
    assert run_cli(capsys, "minimize", "--h", "0.4", "--n", "16")[0] == 2
    assert run_cli(capsys, "minimize", "--h", "0.4", "--init", "bogus")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    # rejected by the library alone, with its message on stderr
    code, out, err = run_cli(capsys, "solve", "--h", "0")
    assert (code, out) == (2, "")
    assert err == "usage error: half-distance must be positive, got 0.0\n"
    assert run_cli(capsys, "spectrum", "--tau", "inf")[0] == 2
    h_star = repr(critical_constants().h_star)
    assert run_cli(capsys, "minimize", "--h", h_star, "--n", "64", "--init", "upper_perturbed")[0] == 2


# JSON has no token for inf or NaN, so a non-finite half-distance, which
# float() reads from "inf", "1e400" or "nan", is rejected by its flag's name
NON_FINITE = [
    (["solve", "--h", "inf"], "--h"),
    (["solve", "--h", "1e400"], "--h"),
    (["solve", "--h", "nan"], "--h"),
    (["force", "--h-min", "inf"], "--h-min"),
    (["force", "--h-min", "0.1", "--h-max", "inf", "--steps", "3"], "--h-max"),
    (["force", "--h-min", "nan", "--h-max", "0.3"], "--h-min"),
    (["sweep", "--h-min", "0.1", "--h-max", "1e400", "--steps", "2"], "--h-max"),
]


@pytest.mark.parametrize("argv, flag", NON_FINITE, ids=[" ".join(a) for a, _ in NON_FINITE])
def test_a_non_finite_half_distance_exits_2_naming_its_flag(argv, flag, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {flag} must be finite, got ")


def test_internal_errors_exit_1(capsys, monkeypatch):
    def boom():
        raise RuntimeError("induced failure")

    monkeypatch.setattr(soapfilm.energetics, "goldschmidt_constant", boom)
    code, out, err = run_cli(capsys, "goldschmidt")
    assert code == 1
    assert out == ""
    assert "induced failure" in err


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "record.json"
    code, out, _ = run_cli(capsys, "critical", "--out", str(path))
    assert code == 0
    assert out == ""
    on_disk = path.read_text(encoding="utf-8")
    _, stdout_version, _ = run_cli(capsys, "critical")
    assert on_disk == stdout_version


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_unwritable_out_exits_1_with_its_message(where, tmp_path, capsys):
    path = tmp_path / "absent" / "record.json" if where == "missing directory" else tmp_path
    code, out, err = run_cli(capsys, "solve", "--h", "0.3", "--out", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno ") and err.endswith(f"{str(path)!r}\n")


@pytest.mark.parametrize("command", ["force", "sweep"])
@pytest.mark.parametrize("steps", [0, 2**20 + 1, 10**12])
def test_a_step_count_out_of_range_exits_2_before_any_point_is_built(command, steps, capsys):
    tracemalloc.start()
    try:
        argv = ["--h-min", "0.1", "--h-max", "0.2", "--steps", str(steps)]
        code, out, err = run_cli(capsys, command, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"usage error: --steps must be an integer in 1..1048576, got {steps}\n"
    # a list of 2**20 floats alone would take 8 MB
    assert peak < 2**20


def test_csv_and_json_numbers_identical(capsys):
    _, json_out, _ = run_cli(capsys, "solve", "--h", "0.4")
    _, csv_out, _ = run_cli(capsys, "solve", "--h", "0.4", "--format", "csv")
    record = json.loads(json_out)["results"]
    lines = csv_out.strip().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    for key, cell in zip(header, cells):
        value = record[key]
        if isinstance(value, float):
            assert cell == format(value, ".17g")
        else:
            assert cell == str(value)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(FINITE, FINITE, st.integers(2, 500))
@example(0.0, 5e-324, 4)
@example(-1e308, 1e308, 5)
def test_range_points_are_numpy_linspace_bit_for_bit(a, b, n):
    a, b = min(a, b), max(a, b)
    args = argparse.Namespace(h_min=a, h_max=b, steps=n)
    if not math.isfinite(b - a):
        # numpy's first point would be 0*inf, NaN: the range is refused
        with pytest.raises(DomainError, match="--h-max - --h-min overflows"):
            _range_points(args)
        return
    points = _range_points(args)
    # numpy's own special case is kept: a subnormal span whose step
    # underflows to 0; so compare bit patterns
    reference = np.linspace(a, b, n)
    assert np.array(points).tobytes() == reference.tobytes()


@pytest.mark.parametrize("command", ["force", "sweep"])
@pytest.mark.parametrize("steps", ["1", "3"])
def test_a_range_whose_span_overflows_exits_2_naming_both_flags(command, steps, capsys):
    # finite ends 2e308 apart: the span is inf, and each point would be NaN
    code, out, err = run_cli(capsys, command, "--h-min=-1e308", "--h-max", "1e308", "--steps", steps)
    assert (code, out) == (2, "")
    assert err == "usage error: --h-max - --h-min overflows the float range: 1e+308 - -1e+308\n"


def test_init_is_checked_against_the_presets(capsys):
    code, out, err = run_cli(capsys, "minimize", "--h", "0.4", "--init", "bogus")
    assert (code, out) == (2, "")
    for preset in ("cylinder", "lower_catenoid", "upper_catenoid", "upper_perturbed"):
        assert preset in err
    # preset names match exactly; other spellings are no preset
    assert run_cli(capsys, "minimize", "--h", "0.4", "--init", "CYLINDER")[:2] == (2, "")


def test_spectrum_takes_no_step_count(capsys):
    # The eigenvalues are the exact roots, so a step count would change no
    # output: the record's inputs are tau and k, and --n is no flag.
    code, out, _ = run_cli(capsys, "spectrum", "--tau", "1.2", "--k", "1")
    assert code == 0
    assert json.loads(out)["inputs"] == {"tau": 1.2, "k": 1}
    code, out, err = run_cli(capsys, "spectrum", "--tau", "1.2", "--n", "512")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --n 512" in err


# Help and parser-error bytes at COLUMNS=80, as the full eight-parser build
# prints them (Python 3.11's argparse wording). main reads a well-formed argv
# from the command table and sends every other one, these included, to that
# build; these catch any drift of the argv it sends there.
_USAGE = (
    "usage: soapfilm [-h]\n"
    "                {solve,critical,goldschmidt,spectrum,force,sweep,minimize} ...\n"
)
_TOP_HELP = _USAGE + """
Catenoid analysis of the soap film spanning two coaxial unit rings.

positional arguments:
  {solve,critical,goldschmidt,spectrum,force,sweep,minimize}
    solve               both catenoid branches at one half-distance
    critical            critical constants tau_star and h_star
    goldschmidt         half-distance where the film ties the disks
    spectrum            string eigenvalues on [-tau, tau]
    force               ring force over a range of half-distances
    sweep               branch parameters, areas, force over a range
    minimize            relax a profile by projected Newton descent

options:
  -h, --help            show this help message and exit
"""
_CHOICES = "(choose from 'solve', 'critical', 'goldschmidt', 'spectrum', 'force', 'sweep', 'minimize')"
_OPTIONS = """
options:
  -h, --help           show this help message and exit
"""
_OUTPUT_FLAGS = """  --format {json,csv}
  --out OUT            output path (default: stdout)
"""
_SOLVE_USAGE = "usage: soapfilm solve [-h] --h H [--format {json,csv}] [--out OUT]\n"
_RANGE_FLAGS = "  --h-min H_MIN\n  --h-max H_MAX\n  --steps STEPS\n" + _OUTPUT_FLAGS

GOLDEN = [
    (["-h"], 0, _TOP_HELP, ""),
    (["--help"], 0, _TOP_HELP, ""),
    ([], 2, "", _USAGE + "soapfilm: error: the following arguments are required: command\n"),
    (["bogus"], 2, "", _USAGE + f"soapfilm: error: argument command: invalid choice: 'bogus' {_CHOICES}\n"),
    (["solve", "-h"], 0, _SOLVE_USAGE + _OPTIONS + "  --h H\n" + _OUTPUT_FLAGS, ""),
    (["critical", "-h"], 0,
     "usage: soapfilm critical [-h] [--format {json,csv}] [--out OUT]\n" + _OPTIONS + _OUTPUT_FLAGS, ""),
    (["goldschmidt", "-h"], 0,
     "usage: soapfilm goldschmidt [-h] [--format {json,csv}] [--out OUT]\n" + _OPTIONS + _OUTPUT_FLAGS, ""),
    (["spectrum", "-h"], 0,
     "usage: soapfilm spectrum [-h] --tau TAU [--k K] [--format {json,csv}]\n"
     "                         [--out OUT]\n" + _OPTIONS
     + "  --tau TAU\n  --k K                number of eigenvalues (default 5)\n" + _OUTPUT_FLAGS, ""),
    (["force", "-h"], 0,
     "usage: soapfilm force [-h] --h-min H_MIN [--h-max H_MAX] [--steps STEPS]\n"
     "                      [--format {json,csv}] [--out OUT]\n" + _OPTIONS + _RANGE_FLAGS, ""),
    (["sweep", "-h"], 0,
     "usage: soapfilm sweep [-h] --h-min H_MIN --h-max H_MAX [--steps STEPS]\n"
     "                      [--format {json,csv}] [--out OUT]\n" + _OPTIONS + _RANGE_FLAGS, ""),
    (["minimize", "-h"], 0,
     "usage: soapfilm minimize [-h] --h H [--n N] [--init INIT]\n"
     "                         [--format {json,csv}] [--out OUT]\n" + _OPTIONS
     + "  --h H\n  --n N\n  --init INIT\n" + _OUTPUT_FLAGS, ""),
    (["solve"], 2, "", _SOLVE_USAGE + "soapfilm solve: error: the following arguments are required: --h\n"),
    (["solve", "--h", "abc"], 2, "",
     _SOLVE_USAGE + "soapfilm solve: error: argument --h: invalid float value: 'abc'\n"),
    (["solve", "--h"], 2, "", _SOLVE_USAGE + "soapfilm solve: error: argument --h: expected one argument\n"),
    (["solve", "--h", "0.3", "--format", "xml"], 2, "",
     _SOLVE_USAGE + "soapfilm solve: error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')\n"),
    (["solve", "--h", "0.3", "extra"], 2, "", _USAGE + "soapfilm: error: unrecognized arguments: extra\n"),
    (["--format", "json", "solve", "--h", "0.3"], 2, "",
     _USAGE + f"soapfilm: error: argument command: invalid choice: 'json' {_CHOICES}\n"),
    (["critical", "solve"], 2, "", _USAGE + "soapfilm: error: unrecognized arguments: solve\n"),
    (["sol", "--h", "0.3"], 2, "", _USAGE + f"soapfilm: error: argument command: invalid choice: 'sol' {_CHOICES}\n"),
]

# accepted spellings and the canonical argv each must print exactly as
SPELLINGS = [
    (["solve", "--h", "0.3", "--h", "0.4"], ["solve", "--h", "0.4"]),
    (["solve", "--h", "0.3", "--fo", "csv"], ["solve", "--h", "0.3", "--format", "csv"]),
    (["spectrum", "--ta", "1.0", "--k", "1"], ["spectrum", "--tau", "1.0", "--k", "1"]),
]


@pytest.mark.parametrize("argv, code, out, err", GOLDEN, ids=[" ".join(g[0]) or "(none)" for g in GOLDEN])
def test_help_and_parser_errors_are_golden(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("argv, canonical", SPELLINGS, ids=lambda v: " ".join(v))
def test_repeated_and_abbreviated_flags_print_as_the_canonical_argv(argv, canonical, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, *canonical)[1]


def _outcome(parse, argv, capsys):
    # NaN-aware: each value by its repr, since nan != nan
    try:
        result = {key: repr(value) for key, value in vars(parse(argv)).items()}
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


WELL_FORMED = [
    ["solve", "--h", "0.4"],
    ["critical"],
    ["goldschmidt"],
    ["spectrum", "--tau", "1.0", "--k", "1"],
    ["force", "--h-min", "0.3"],
    ["sweep", "--h-min", "0.2", "--h-max", "0.3", "--steps", "2"],
    ["minimize", "--h", "0.8", "--n", "64"],
]

# beyond GOLDEN, SPELLINGS and WELL_FORMED: a flag of another subcommand, an
# inline value, and values that look like negative numbers or flags
PARITY = [g[0] for g in GOLDEN] + [s[0] for s in SPELLINGS] + WELL_FORMED + [
    ["spectrum", "--tau", "1.2", "--n", "512"],
    ["solve", "--h=0.3"],
    ["solve", "--h", "-1"],
    ["solve", "--h", "-inf"],
    ["solve", "--h", "nan", "--out", "", "--format", "csv"],
]


@pytest.mark.parametrize("argv", PARITY, ids=lambda v: " ".join(v) or "(none)")
def test_the_scan_parses_as_the_full_build(argv, capsys, monkeypatch):
    # same namespace, or same exit code, stdout and stderr
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(_parse, argv, capsys) == _outcome(_build_parser().parse_args, argv, capsys)


_VALUES = st.sampled_from(
    ["", "-", "-1", "-inf", "nan", " 0.4", "1_0", "0x10", "abc", "xml", "csv", "0.4", "2"]
)

# values that each type converts
_TAKES = {float: ("0.4", "nan"), int: ("2", "1_0"), None: ("csv",)}


@st.composite
def _drawn_argv(draw):
    """A subcommand, then tokens from its vocabulary in any order: its own
    flags in full, each with a value its type takes, and often a few odd
    ones: flags exact, abbreviated or =-joined with any value, and flags or
    values left without a partner. Repeated flags come from the lists."""
    name = draw(st.sampled_from(list(_COMMANDS)))
    options = _COMMANDS[name][2] + cli._OUTPUT_FLAGS
    flag = st.sampled_from([f for f, _ in options] + ["--fo", "--ta", "--st", "--h", "--n", "-h"])
    pair = st.sampled_from([(f, v) for f, option in options for v in _TAKES[option.get("type")]])
    odd = st.one_of(
        st.tuples(flag, _VALUES),
        st.tuples(st.builds("{}={}".format, flag, _VALUES)),
        st.tuples(flag),
        st.tuples(_VALUES),
    )
    groups = draw(st.lists(pair, max_size=4)) + draw(st.lists(odd, max_size=2))
    return [name] + [text for group in draw(st.permutations(groups)) for text in group]


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_drawn_argv())
@example(argv=["solve", "--h", "-inf"])
@example(argv=["solve", "--h", "0.3", "--h", "nan"])
def test_drawn_argv_parse_as_the_full_build(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(_parse, argv, capsys) == _outcome(_build_parser().parse_args, argv, capsys)


def _strict_json(text):
    """json.loads, refusing the Infinity, -Infinity and NaN tokens Python reads beyond JSON."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


# beyond WELL_FORMED: the fold, a NoExtremal record, and ranges with blanks
JSON_RECORDS = WELL_FORMED + [
    ["solve", "--h", repr(critical_constants().h_star)],
    ["solve", "--h", "0.7"],
    ["force", "--h-min", "0.2", "--h-max", "0.7", "--steps", "3"],
    ["sweep", "--h-min", "0.6", "--h-max", "0.7", "--steps", "5"],
]


@pytest.mark.parametrize("argv", JSON_RECORDS, ids=" ".join)
def test_every_record_is_strict_json(argv, capsys):
    # GOLDEN's exits 0 print help texts, not records
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert _strict_json(out)["command"] == argv[0]


def _parsers_built(argv, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code = main(argv)
    capsys.readouterr()
    return code, built


@pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda v: v[0])
def test_a_well_formed_argv_builds_no_parser(argv, capsys, monkeypatch):
    assert _parsers_built(argv, capsys, monkeypatch) == (0, [])


# help, no or an unknown command, and malformed argv naming a subcommand:
# a bad value, an inline value, an abbreviated flag
FULL_BUILD = [
    (["-h"], 0), ([], 2), (["bogus"], 2),
    (["solve", "--h", "abc"], 2), (["solve", "--h=0.4"], 0), (["spectrum", "--ta", "1.0"], 0),
]


@pytest.mark.parametrize("argv, code", FULL_BUILD, ids=[" ".join(f[0]) or "(none)" for f in FULL_BUILD])
def test_every_other_argv_builds_every_parser(argv, code, capsys, monkeypatch):
    full = ["soapfilm"] + [f"soapfilm {name}" for name in _COMMANDS]
    assert _parsers_built(argv, capsys, monkeypatch) == (code, full)


@given(st.text())
def test_strings_render_as_json_dumps_renders_them(text):
    assert _render_json(text) == json.dumps(text)
    assert _render_json({text: text}) == "{\n  " + json.dumps(text) + ": " + json.dumps(text) + "\n}"


@given(st.floats())
@example(1.0)
@example(-0.0)
@example(1e16)
def test_floats_render_with_17_digits(x):
    # an integral float gets ".0", so that JSON reads it back as a float
    token = format(x, ".17g")
    if math.isfinite(x) and x == int(x) and "e" not in token:
        token += ".0"
    assert _render_json(x) == _render_json(np.float64(x)) == token
    assert _render_json([x, x]) == f"[{token}, {token}]"


@pytest.mark.parametrize(
    "argv",
    [["solve", "--h", "5e-324"], ["solve", "--h", "1"], ["spectrum", "--tau", "1", "--k", "1"]],
    ids=" ".join,
)
def test_every_float_reads_back_as_a_float(argv, capsys):
    # c1 = 1 and c2 = 0 at the least positive double; an integral --h or
    # --tau; k, in the inputs and the row, stays an integer
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    record = json.loads(out)

    def leaves(value):
        if isinstance(value, dict):
            return [leaf for item in value.values() for leaf in leaves(item)]
        if isinstance(value, list):
            return [leaf for item in value for leaf in leaves(item)]
        return [value]

    numbers = [leaf for leaf in leaves(record) if type(leaf) in (int, float)]
    integers = [leaf for leaf in numbers if type(leaf) is int]
    assert integers == ([1, 1] if argv[0] == "spectrum" else []), numbers
    assert 1.0 in numbers
