"""numpy is imported only by code that uses arrays, argparse only by help and errors.

No module of the package imports numpy when it loads: the functions that use
arrays import it themselves. So importing any module, the scalar API, the
string eigenvalues and every CLI subcommand but minimize run in a fresh
interpreter without numpy (or scipy), as does the RK4 oracle shoot, while
numpy loads on the first array call. The CLI reads a well-formed argv from
its command table and imports argparse for any other. No import or scalar
call loads dataclasses, or the inspect it brings: the records are named
tuples. No subcommand and none of the scalar API loads the generic root
finder.
"""

import os

import pytest

from soapfilm.extremals import critical_constants

from fresh import loads
from test_cli import WELL_FORMED

SCALAR_API = (
    "import soapfilm; soapfilm.critical_constants(); "
    "lower, upper = soapfilm.solve_branches(0.3); "
    "soapfilm.area_closed_form(lower); soapfilm.area_closed_form(upper); "
    "soapfilm.force(0.3); soapfilm.goldschmidt_constant(); soapfilm.phi(1.0)"
)
EIGENVALUES = "import soapfilm; soapfilm.eigenvalues(1.2, 3)"
SHOOT = "from soapfilm.spectrum import shoot; shoot(1.3, 7.0)"

MODULE_IMPORTS = [
    "import soapfilm.grids, soapfilm.variation, soapfilm.direct_min",
    # the benchmark's import line, which imports every module
    "from soapfilm import cli, energetics, extremals, spectrum",
    "from soapfilm import *",
]

# the imports, then the first call, of each array entry point
ARRAY_CALLS = {
    "composite_simpson": (
        "from soapfilm import composite_simpson",
        "assert composite_simpson([1.0] * 5, 0.25) == 1.0",
    ),
    "q_form": (
        "from soapfilm import TestFunction, q_form",
        "assert q_form(TestFunction.sample(lambda s: 1.0 - s * s, 1.0, 65)) > 0.0",
    ),
    "discrete_area": (
        "import math; from soapfilm import Profile, discrete_area",
        "grid = [-0.3 + 0.6 * i / 63 for i in range(64)]; "
        "area = discrete_area(Profile(h=0.3, grid=grid, y=[1.0] * 64)); "
        "assert abs(area - 4.0 * math.pi * 0.3) < 1e-12",
    ),
    "minimize": (
        "from soapfilm import minimize",
        "assert minimize(0.3, 64, 'cylinder').outcome.value == 'Converged'",
    ),
}


def _cli(argv, code=0):
    argv = argv + ["--out", os.devnull]
    return f"from soapfilm import cli; assert cli.main({argv!r}) == {code}"


def test_scalar_api_loads_no_numpy():
    assert not loads(SCALAR_API, "numpy")


def test_scalar_api_loads_no_root_finder():
    # the package's name search finds every scalar name before rootfind
    assert not loads(SCALAR_API, "soapfilm.rootfind")


def test_eigenvalues_load_no_numpy():
    assert not loads(EIGENVALUES, "numpy")


def test_shoot_loads_no_numpy():
    # RK4 steps one scalar at a time
    assert not loads(SHOOT, "numpy")


def test_cli_import_loads_no_numpy():
    assert not loads("from soapfilm import cli", "numpy")


@pytest.mark.parametrize("module", ["numpy", "scipy"])
@pytest.mark.parametrize("code", MODULE_IMPORTS)
def test_importing_the_modules_loads_no_numpy(code, module):
    assert not loads(code, module)


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
@pytest.mark.parametrize("code", [SCALAR_API, EIGENVALUES, *MODULE_IMPORTS])
def test_imports_and_scalar_calls_load_no_dataclasses(code, module):
    assert not loads(code, module)


@pytest.mark.parametrize("imports, call", ARRAY_CALLS.values(), ids=ARRAY_CALLS.keys())
def test_the_first_array_call_loads_numpy(imports, call):
    assert not loads(imports, "numpy")
    assert loads(f"{imports}; {call}", "numpy")


@pytest.mark.parametrize(
    "argv",
    [
        ["critical"],
        ["solve", "--h", "0.3"],
        ["solve", "--h", "0.9"],
        ["solve", "--h", repr(critical_constants().h_star)],
        ["goldschmidt"],
        ["force", "--h-min", "0.1", "--h-max", "0.7", "--steps", "7"],
        ["sweep", "--h-min", "0.05", "--h-max", "0.66", "--steps", "12"],
        ["spectrum", "--tau", "1.2", "--k", "2"],
    ],
    ids=" ".join,
)
def test_scalar_subcommand_loads_no_numpy(argv):
    assert not loads(_cli(argv), "numpy")


@pytest.mark.parametrize(
    "argv",
    [
        ["critical"],
        ["solve", "--h", "0.3"],
        ["goldschmidt"],
        ["force", "--h-min", "0.1", "--h-max", "0.7", "--steps", "7"],
        ["sweep", "--h-min", "0.05", "--h-max", "0.66", "--steps", "12"],
    ],
    ids=lambda argv: argv[0],
)
def test_scalar_subcommand_loads_no_root_finder(argv):
    # tau_star, the branches and h_G are Newton steps of their own
    assert not loads(_cli(argv), "soapfilm.rootfind")


def test_spectrum_subcommand_loads_no_root_finder():
    # the eigenvalues' secant loop is written inline
    assert not loads(_cli(["spectrum", "--tau", "1.2", "--k", "2"]), "soapfilm.rootfind")


@pytest.mark.parametrize(
    "argv",
    [["minimize", "--h", "0.45", "--n", "64", "--init", "upper_perturbed"]],
    ids=lambda argv: argv[0],
)
def test_array_subcommand_imports_numpy_on_demand(argv):
    assert loads(_cli(argv), "numpy")


def test_a_rejected_minimize_argument_exits_before_numpy_loads():
    assert not loads(_cli(["minimize", "--h", "nan", "--n", "64"], code=2), "numpy")


@pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda argv: argv[0])
def test_a_well_formed_argv_loads_no_argparse(argv):
    assert not loads(_cli(argv), "argparse")


def test_an_argv_argparse_reads_loads_it():
    assert loads(_cli(["solve", "--h", "abc"], code=2), "argparse")
