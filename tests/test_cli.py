import json
import math

import numpy as np
import pytest

import soapfilm.energetics
from soapfilm.cli import main


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
    np.testing.assert_allclose(results["tau_star"], 1.1996786402577344, rtol=1e-12)
    np.testing.assert_allclose(results["third_variation"], 6.54595, rtol=1e-4)
    assert results["verdict"] == "critical: no extremum"


def test_solve_supercritical_is_domain_outcome(capsys):
    code, out, _ = run_cli(capsys, "solve", "--h", "0.7")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["outcome"] == "NoExtremal"
    np.testing.assert_allclose(results["h_star"], 0.6627434193491816, rtol=1e-12)
    np.testing.assert_allclose(results["goldschmidt_area"], 2.0 * math.pi, rtol=1e-15)


def test_critical_subcommand(capsys):
    code, out, _ = run_cli(capsys, "critical")
    assert code == 0
    results = json.loads(out)["results"]
    np.testing.assert_allclose(results["tau_star"], 1.1996786402577344, rtol=1e-12)
    np.testing.assert_allclose(results["h_star"], 0.6627434193491816, rtol=1e-12)


def test_goldschmidt_csv(capsys):
    code, out, _ = run_cli(capsys, "goldschmidt", "--format", "csv")
    assert code == 0
    assert "\r" not in out
    lines = out.strip().splitlines()
    assert lines[0] == "h_goldschmidt,disk_area"
    h_g, disks = lines[1].split(",")
    np.testing.assert_allclose(float(h_g), 0.5276973969631018, rtol=1e-10)
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
