"""Each demo prints exactly its recorded output.

The demos run in-process with `runpy`, in a temporary working directory
because demo 01 writes `example.csv`.  The expected text lives in
`tests/demo_output/<demo>.txt`; to record it again after an intended change,
run the demo from the repository root and redirect its stdout there, e.g.

    PYTHONPATH=src python demos/02_univariable_fit.py > tests/demo_output/02_univariable_fit.txt
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_unchanged(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    expected = (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text()
    assert capsys.readouterr().out == expected
