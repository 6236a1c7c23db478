import argparse
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import soapfilm.energetics
from soapfilm.cli import _range_points, main
from soapfilm.extremals import critical_constants

from oracles import mpmath_constants


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
    assert results["verdict"] == "critical: no extremum"


def test_solve_supercritical_is_domain_outcome(capsys):
    code, out, _ = run_cli(capsys, "solve", "--h", "0.7")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["outcome"] == "NoExtremal"
    h_star = mpmath_constants()[1]
    assert abs(results["h_star"] - h_star) <= 2.0 * math.ulp(h_star)
    np.testing.assert_allclose(results["goldschmidt_area"], 2.0 * math.pi, rtol=1e-15)


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
    code, out, _ = run_cli(capsys, "spectrum", "--tau", "2.0", "--k", "3", "--n", "512", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,k,lambda"
    assert len(lines) == 4
    lams = [float(line.split(",")[2]) for line in lines[1:]]
    assert lams[0] < 1.0
    assert lams == sorted(lams)


def test_spectrum_json_table(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--tau", "1.0", "--k", "2", "--n", "512")
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
    assert run_cli(capsys, "spectrum", "--tau", "1.0", "--n", "10")[0] == 2
    assert run_cli(capsys, "force", "--h-min", "0.2", "--h-max", "0.1")[0] == 2
    assert run_cli(capsys, "force", "--h-min", "0.2", "--steps", "0")[0] == 2
    assert run_cli(capsys, "minimize", "--h", "0.4", "--n", "16")[0] == 2
    assert run_cli(capsys, "minimize", "--h", "0.4", "--init", "bogus")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    # rejected by the library alone, with its message on stderr
    code, out, err = run_cli(capsys, "solve", "--h", "1e-308")
    assert (code, out) == (2, "")
    assert err == "usage error: half-distance must be at least 1e-307, got 1e-308\n"
    assert run_cli(capsys, "spectrum", "--tau", "inf")[0] == 2
    h_star = repr(critical_constants().h_star)
    assert run_cli(capsys, "minimize", "--h", h_star, "--n", "64", "--init", "upper_perturbed")[0] == 2


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
    points = _range_points(argparse.Namespace(h_min=a, h_max=b, steps=n))
    # numpy's own special cases are kept: a subnormal span whose step
    # underflows to 0, and a span that overflows (the first point is 0*inf,
    # NaN, which numpy warns about); so compare bit patterns
    with np.errstate(over="ignore", invalid="ignore"):
        reference = np.linspace(a, b, n)
    assert np.array(points).tobytes() == reference.tobytes()


def test_init_is_checked_against_the_presets(capsys):
    code, out, err = run_cli(capsys, "minimize", "--h", "0.4", "--init", "bogus")
    assert (code, out) == (2, "")
    for preset in ("cylinder", "lower_catenoid", "upper_catenoid", "upper_perturbed"):
        assert preset in err
    # preset names match exactly; other spellings are no preset
    assert run_cli(capsys, "minimize", "--h", "0.4", "--init", "CYLINDER")[:2] == (2, "")


def test_spectrum_echoes_the_default_n(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--tau", "1.2", "--k", "1")
    assert code == 0
    assert json.loads(out)["inputs"]["n"] == 2048
