"""The CLI's `fit` and `select` reports are byte-for-byte their recording.

Each case runs `geeclust.cli.main` in-process, in a temporary working
directory that holds the example data under relative file names, since the
text and JSON reports embed the `--data` value.  The expected stdout of a
case is `tests/cli_output/<case>.txt` (the CSV cases end their lines with
"\\r\\n", as the `csv` module writes them) and the expected exit codes are
`tests/cli_output/exit_codes.json`.  To record them again after an intended
change, run from the repository root

    PYTHONPATH=src python tests/test_cli_output.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from geeclust import build_paper_marginals, derive_threshold, write_csv
from geeclust.cli import main

RECORDING = Path(__file__).resolve().parent / "cli_output"

MODEL = ["--response", "LOOSENING", "--cluster", "ID", "--within", "AREA2"]
FIT = ["fit", "--data", "paper.csv", *MODEL, "--factors", "AREA1:desc,AGE1:desc"]
# derived.csv is the example data plus two columns.  CONST is a column of
# zeros: no factor coding of it exists, so every select candidate holding it
# fails.  LONG_NAME is AGE > 25, under a name longer than the text table's
# first column.
SELECT = ["select", "--data", "derived.csv", *MODEL,
          "--factors", "AREA1:desc,AGE1:desc,CONST:desc",
          "--structures", "independent,exchangeable"]
LONG_NAME = "AGE_OVER_TWENTY_FIVE_YEARS"

CASES = {
    f"{argv[0]}_{variant}_{fmt}": [*argv, flag, variant, "--format", fmt]
    for argv, flag, variants in (
        (FIT, "--corr", ("independent", "exchangeable")),
        (SELECT, "--mode", ("exhaustive", "stepwise")),
    )
    for variant in variants
    for fmt in ("text", "json", "csv")
}
CASES["fit_long_label_text"] = ["fit", "--data", "derived.csv", *MODEL,
                                "--covariates", LONG_NAME]


def write_data(directory):
    ds = build_paper_marginals(0)
    write_csv(ds, directory / "paper.csv")
    derived = derive_threshold(ds, "AREA1", 5.0, "CONST")
    write_csv(derive_threshold(derived, "AGE", 25.0, LONG_NAME), directory / "derived.csv")


def run(argv):
    """The exit code and stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_output")
    write_data(directory)
    return directory


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_unchanged(case, data_dir, monkeypatch):
    monkeypatch.chdir(data_dir)
    code, out = run(CASES[case])
    assert out.encode() == (RECORDING / f"{case}.txt").read_bytes()
    assert code == json.loads((RECORDING / "exit_codes.json").read_text())[case]


if __name__ == "__main__":
    RECORDING.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_data(Path(tmp))
        for case, argv in CASES.items():
            codes[case], out = run(argv)
            (RECORDING / f"{case}.txt").write_bytes(out.encode())
    (RECORDING / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
