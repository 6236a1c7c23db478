"""numpy is imported only by code that uses arrays, argparse only by help and errors.

The package resolves its public names on first use, so the scalar API, the
string eigenvalues and every CLI subcommand but minimize run in a fresh
interpreter without numpy, while the array paths still import it on demand.
The CLI reads a well-formed argv from its command table and imports
argparse for any other.
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


def _cli(argv, code=0):
    argv = argv + ["--out", os.devnull]
    return f"from soapfilm import cli; assert cli.main({argv!r}) == {code}"


def test_scalar_api_loads_no_numpy():
    assert not loads(SCALAR_API, "numpy")


def test_eigenvalues_load_no_numpy():
    assert not loads(EIGENVALUES, "numpy")


def test_cli_import_loads_no_numpy():
    assert not loads("from soapfilm import cli", "numpy")


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
    [["minimize", "--h", "0.45", "--n", "64", "--init", "upper_perturbed"]],
    ids=lambda argv: argv[0],
)
def test_array_subcommand_imports_numpy_on_demand(argv):
    assert loads(_cli(argv), "numpy")


@pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda argv: argv[0])
def test_a_well_formed_argv_loads_no_argparse(argv):
    assert not loads(_cli(argv), "argparse")


def test_an_argv_argparse_reads_loads_it():
    assert loads(_cli(["solve", "--h", "abc"], code=2), "argparse")
