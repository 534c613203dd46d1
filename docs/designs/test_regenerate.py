"""Rerun every design document in this directory in full and compare the
reports with the checked-in ones byte for byte, at one and two workers.

Run from the repository root with ``python3 -m pytest docs/designs``. The
full runs take about a minute on two CPUs, so Tier-1 (``tests/``) leaves
them out and runs each design at 4 replications instead.
"""

import pathlib

import pytest

from twqr.cli import main

HERE = pathlib.Path(__file__).resolve().parent
DESIGNS = sorted(HERE.glob("*.json"))


def test_designs_are_checked_in():
    assert DESIGNS


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("design", DESIGNS, ids=lambda path: path.stem)
def test_checked_in_reports_regenerate(tmp_path, capsys, design, threads):
    assert main(["simulate", str(design), "--out", str(tmp_path), "--threads", threads]) == 0
    capsys.readouterr()
    for name in ("report.csv", "report.json"):
        assert (tmp_path / name).read_bytes() == (HERE / design.stem / name).read_bytes()
