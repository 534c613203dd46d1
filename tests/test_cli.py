"""End-to-end tests for the command-line interface and its JSON documents."""

import ast
import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from helpers import grid_panel, random_panel, reference_interior_point

import twqr
from twqr import cli, errors
from twqr import montecarlo as mc
from twqr import panel as panel_module
from twqr.cli import main
from twqr.crve import CrveKind, t_test
from twqr.jacobian import alpha
from twqr.montecarlo import (
    REPORT_COLUMNS,
    DgpWeights,
    MonteCarloConfig,
    generate_dgp,
    true_beta,
)
from twqr.panel import load_csv, write_csv
from twqr.solver import DEFAULT_GAP_TOL, DEFAULT_MAX_ITER

REPO = pathlib.Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO / "docs" / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / name, encoding="utf-8") as fh:
        schema = json.load(fh)
    Draft202012Validator.check_schema(schema)
    return schema


def validate_against(name, instance):
    Draft202012Validator(load_schema(name)).validate(instance)


def panel_csv(tmp_path, seed=41, G=12, H=12, d=3):
    cfg = MonteCarloConfig(G=G, H=H, d=d, tau=0.5,
                           weights=DgpWeights(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
                           reps=1, seed=seed)
    path = tmp_path / "panel.csv"
    write_csv(generate_dgp(cfg, 0), path)
    return path


def sim_config(tmp_path, **overrides):
    doc = {
        "G": 12, "H": 12, "d": 2, "tau": 0.5,
        "weights": {"wUx": 1.0, "wVx": 1.0, "wWx": 1.0,
                    "wUe": 1.0, "wVe": 1.0, "wWe": 1.0},
        "reps": 30, "seed": 5,
        "methods": ["ctw", "cg", "ch", "ci", "ctw2"],
    }
    doc.update(overrides)
    validate_against("simulate_config.schema.json", doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_fit_json_output(tmp_path, capsys):
    path = panel_csv(tmp_path)
    rc = main(["fit", str(path), "--crve", "ctw", "--crve", "ci", "--null", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    validate_against("fit_response.schema.json", doc)
    assert doc["diagnostics"]["n"] == 144
    assert doc["diagnostics"]["converged"] is True
    assert len(doc["beta_hat"]) == 3
    assert doc["null_values"] == [1.0, 1.0, 1.0]
    assert doc["bandwidth"]["source"] == "rule_of_thumb"
    assert set(doc["methods"]) == {"ctw", "ci"}
    for block in doc["methods"].values():
        assert all(np.isfinite(block["p_values"]))
        assert all(0.0 <= p <= 1.0 for p in block["p_values"])
    # slopes are near 1 on this design, so their tests against 1 rarely reject
    assert abs(doc["beta_hat"][2] - 1.0) < 0.5
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(["fit", str(bom), "--crve", "ctw", "--crve", "ci", "--null", "1"]) == 0
    assert capsys.readouterr().out == out
    # one null value per coefficient reaches null_values and the t statistics
    assert main(["fit", str(path), "--crve", "cg", "--null", "0.5,-1,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["null_values"] == [0.5, -1.0, 2.0]
    block = doc["methods"]["cg"]
    for j, b0 in enumerate(doc["null_values"]):
        assert block["t_stats"][j] == (doc["beta_hat"][j] - b0) / block["std_errors"][j]


def test_fit_csv_output(tmp_path, capsys):
    path = panel_csv(tmp_path)
    rc = main(["fit", str(path), "--crve", "ctw", "--format", "csv"])
    assert rc == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["coefficient", "method", "beta_hat", "null_value",
                      "std_error", "t_stat", "p_value"]
    assert len(rows) == 1 + 3  # header + one row per coefficient
    for row in rows[1:]:
        assert row[1] == "ctw"
        float(row[2]), float(row[6])  # parseable floats


def test_fit_bandwidth_override(tmp_path, capsys):
    path = panel_csv(tmp_path)
    rc = main(["fit", str(path), "--bandwidth", "0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bandwidth"] == {"value": 0.5, "source": "override"}
    assert main(["fit", str(path), "--bandwidth", "-0.5"]) == 2


def test_fit_custom_columns(tmp_path, capsys):
    path = tmp_path / "named.csv"
    path.write_text(
        "firm,year,outcome,const,size\n"
        "a,2001,1.0,1.0,0.3\n" "a,2002,1.4,1.0,0.9\n"
        "b,2001,0.7,1.0,-0.2\n" "b,2002,2.1,1.0,1.4\n"
        "c,2001,0.9,1.0,0.1\n" "c,2002,1.8,1.0,1.1\n",
        encoding="utf-8")
    rc = main(["fit", str(path), "--g-col", "firm", "--h-col", "year",
               "--y-col", "outcome", "--x-cols", "const,size"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["G"] == 3
    assert doc["diagnostics"]["H"] == 2
    assert len(doc["beta_hat"]) == 2


# --- invariances of the whole fit, on files read in several ranges ---

ALL_KINDS = [a for kind in CrveKind for a in ("--crve", kind.value)]


@pytest.fixture
def ranged_fit(monkeypatch, capsys):
    """``twqr fit`` with all five kinds, its JSON parsed, on CSVs cut into
    ranges of 4 KiB, read on ``cpus`` CPUs."""
    monkeypatch.setattr(panel_module, "_RANGE_BYTES", 4096)

    def fit(path, *flags, cpus=2):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                               create=True):
            assert len(panel_module._ranges(path)) > 4
            assert main(["fit", str(path), *ALL_KINDS, *flags]) == 0
        return capsys.readouterr().out

    return fit


def test_fit_output_is_identical_on_one_and_two_cpus(tmp_path, ranged_fit):
    path = panel_csv(tmp_path, G=30, H=20)
    assert ranged_fit(path, cpus=1) == ranged_fit(path, cpus=2)


def test_fit_transposed_labels_swap_cg_and_ch(tmp_path, ranged_fit):
    path = panel_csv(tmp_path, G=30, H=20)
    doc = json.loads(ranged_fit(path))
    swapped = json.loads(ranged_fit(path, "--g-col", "h", "--h-col", "g", "--x-cols", "x1,x2,x3"))
    for kind in ("ctw", "ci", "ctw2"):
        assert swapped["methods"][kind] == doc["methods"][kind]
    assert (swapped["methods"]["cg"], swapped["methods"]["ch"]) == (doc["methods"]["ch"],
                                                                    doc["methods"]["cg"])
    assert (swapped["beta_hat"], swapped["bandwidth"]) == (doc["beta_hat"], doc["bandwidth"])
    diag = dict(doc["diagnostics"], G=doc["diagnostics"]["H"], H=doc["diagnostics"]["G"])
    assert swapped["diagnostics"] == diag


def test_fit_is_invariant_to_row_order_and_labels(tmp_path, ranged_fit):
    """A row-shuffled copy with other labels gives the same numbers within
    1e-12 relative; the fit only rounds differently. p-values are left out:
    at |t| near 6 a relative error e in t moves p by about t^2 e."""
    cfg = MonteCarloConfig(G=30, H=20, d=5, tau=0.5, reps=1, seed=42,
                           weights=DgpWeights(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    source = generate_dgp(cfg, 0)
    order = np.random.default_rng(42).permutation(source.n)
    shuffled = dataclasses.replace(
        source, g_idx=source.g_idx[order], h_idx=source.h_idx[order], y=source.y[order],
        x=source.x[order], g_labels=tuple(f"firm {(7 * g) % 31}" for g in range(30)),
        h_labels=tuple(2030 - h for h in range(20)))
    docs = []
    for name, panel in (("source.csv", source), ("shuffled.csv", shuffled)):
        write_csv(panel, tmp_path / name)
        docs.append(json.loads(ranged_fit(tmp_path / name)))
    doc, other = docs

    def close(a, b):
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=0.0)

    close(doc["beta_hat"], other["beta_hat"])
    close(doc["bandwidth"]["value"], other["bandwidth"]["value"])
    close(doc["diagnostics"]["objective"], other["diagnostics"]["objective"])
    for key in ("n", "d", "G", "H", "kernel_hits", "converged"):
        assert other["diagnostics"][key] == doc["diagnostics"][key]
    for kind, block in doc["methods"].items():
        close(block["std_errors"], other["methods"][kind]["std_errors"])
        close(block["t_stats"], other["methods"][kind]["t_stats"])
        for key in ("clip_count_I", "clip_count_II"):
            assert other["methods"][kind][key] == block[key]


def test_fit_one_regressor_is_solved_exactly(tmp_path, capsys):
    # the non-Gaussian demo's design: one regressor x = U_g V_h of mixed sign
    rng = np.random.default_rng(19)
    x = np.outer(rng.standard_normal(15), rng.standard_normal(12) + 1.0).reshape(-1, 1)
    path = tmp_path / "one.csv"
    write_csv(grid_panel(15, 12, x, x[:, 0] + rng.uniform(-1.0, 1.0, 180)), path)
    assert main(["fit", str(path), "--x-cols", "x1", "--crve", "cg"]) == 0
    doc = json.loads(capsys.readouterr().out)
    validate_against("fit_response.schema.json", doc)
    diag = doc["diagnostics"]
    assert diag["d"] == 1 and len(doc["beta_hat"]) == 1
    assert diag["solver_iterations"] == 1
    assert diag["converged"] is True
    panel = load_csv(path, {"g": "g", "h": "h", "y": "y", "x": ["x1"]})
    _, _, ref_obj, *_ = reference_interior_point(
        panel.x, panel.y, 0.5, DEFAULT_GAP_TOL, DEFAULT_MAX_ITER)
    assert diag["objective"] <= ref_obj


def test_fit_collinear_design_is_a_numeric_error(tmp_path, capsys):
    lines = ["g,h,y,x1,x2"]
    rng = np.random.default_rng(2)
    for g in range(4):
        for h in range(4):
            x1 = rng.standard_normal()
            lines.append(f"{g},{h},{rng.standard_normal()},{x1},{2 * x1}")
    path = tmp_path / "collinear.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["fit", str(path)])
    assert rc == 3
    assert "RankDeficient" in capsys.readouterr().err


def huge_csv(tmp_path):
    """A panel whose x'x overflows: columns of magnitude 1e200."""
    lines = ["g,h,y,x1,x2"]
    rng = np.random.default_rng(3)
    for g in range(8):
        for h in range(8):
            lines.append(f"{g},{h},{rng.standard_normal()!r},{1e200!r},"
                         f"{rng.standard_normal() * 1e200!r}")
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_fit_overflowing_design_is_a_numeric_error(tmp_path, capsys):
    # x'x overflows at this scale; the solver stops unconverged and the
    # bandwidth step reports it, instead of a traceback and exit 1
    assert main(["fit", str(huge_csv(tmp_path))]) == 3
    assert "error: NonpositiveBandwidth" in capsys.readouterr().err


# an unconverged fit whose coefficients overflow the scores' x @ beta
OVERFLOWING_SCORES_CSV = """g,h,y,x1,x2
1,1,4,1,-3
1,2,1e308,-3,-2
2,1,-3,2.1,-2
2,2,2,5,3
3,1,-1,-667.6,207.8
3,2,0.5,1,1
"""


def test_fit_overflowing_design_prints_only_the_error_line(tmp_path):
    # the overflows are handled (the solver stops, the bandwidth or the
    # sandwich rejects the result), so no RuntimeWarning reaches the
    # user's terminal
    scores_csv = tmp_path / "overflowing_scores.csv"
    scores_csv.write_text(OVERFLOWING_SCORES_CSV, encoding="utf-8")
    code = "import sys; from twqr.cli import main; sys.exit(main(sys.argv[1:]))"
    for path, error in ((huge_csv(tmp_path), "NonpositiveBandwidth"),
                        (scores_csv, "SingularJacobian")):
        out = subprocess.run([sys.executable, "-c", code, "fit", str(path)],
                             env=subprocess_env(PYTHONWARNINGS="default"),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 3
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {error}"), out.stderr


def grid_rows(cell):
    """Data rows of the 4 x 4 grid, ``cell(g, h)`` giving the fields after g, h."""
    return [",".join(map(str, (g, h, *cell(g, h)))) for g in range(4) for h in range(4)]


# the interior point leaves a NaN duality gap on this file at tau = 1e-300
NAN_GAP = ["0,0,0.8357662828985978,1.0,8.573252413734077e-283,-0.16423371710140222",
           "0,1,0.8072917511581998,0.27754961933588457,0.4060583553756852,-6.033750599102422e-108",
           "1,0,-0.7280326170662328,1.0,-2.6009533972042522,0.6281884144978979",
           "1,1,2.1599913669674904,0.45976573912382857,2.0,-0.2997743721563384"]


# files that fuzzing found, each a header, its rows and the fit's flags: an
# unconverged fit whose residuals or sandwich overflow, which printed a
# RuntimeWarning, and the second then also exited 1 with a ValueError from
# the sandwich; a subnormal bandwidth whose Jacobian overflows, which
# exited 1 with a ValueError or a LinAlgError from factoring it, or printed
# a RuntimeWarning; a bandwidth formula whose denominator underflows, which
# exited 1 with a ZeroDivisionError; and a NaN duality gap, which JSON has
# no token for, printed in either format
EXTREME_FITS = {
    "sandwich inf - inf": (
        "g,h,y,x1,x2",
        ["2,1,-4.635893504464508e-188,3.029167981958116,3.029167981958116",
         "3,3,-7.056467404369838e+298,-4.635893504464508e-188,-8.3283e-32",
         "1,2,-2.00001,-1.0272775032491224,5.41317930878801"], []),
    "sandwich overflow": (
        "g,h,y,x1,x2",
        ["3,0,2.609919140205487e+16,-1.1332572934238669e+17,2.609919140205487e+16",
         "3,3,-1.7976931348623157e+308,-3.1911354316342388e+16,-1.10564e+16",
         "0,1,0.1,3.5285573262784027,-2.938629556533882",
         "1,1,-2.3188523017283007,-1.1571239761860035,-5.735111383206814e-45"], []),
    "inf residual median": (
        "g,h,y,x1,x2",
        ["3,1,-1.7976931348623157e+308,2.3211804512984307e-253,0.87223",
         "1,3,-3.95984418445911e+16,-3.8445369563634504,7.183515025564166"], []),
    "residual minus median": (
        "g,h,y,x1,x2",
        ["3,0,10.0,7.113257971544822e-58,4.5",
         "1,3,1.9,-5.317006333184286,2.771185611574227",
         "0,3,7.4137439645625705,2.0433689856986554e-187,2.00001",
         "3,2,-1.7976931348623155e+308,-0.0,0.5",
         "0,2,-1.1754943508222875e-38,3.423714779284264,5.96e-08"], []),
    "inf jacobian reached the factor": (
        "g,h,y,x1,x2",
        ["0,0,4.0,1.0,3.0", "0,1,1.0,-12413386208.357344,3.0"],
        ["--tau", "0.9999999999999999", "--bandwidth", "5e-324", "--crve", "ci"]),
    "nan jacobian reached eigvalsh": (
        "g,h,y,x1,x2,x3",
        ["0,0,0.3174862793025328,1.0,0.3805848463518137,2.0",
         "0,1,3.0,1.0,1.0,1.0",
         "0,2,-0.1278844974917028,1.0,0.8370068493604125,-1.0292318007195802"],
        ["--tau", "0.9999999999999999", "--bandwidth", "1e-320", "--crve", "ci"]),
    "perfect fit, jacobian overflow": (
        "g,h,y,x1,x2",
        grid_rows(lambda g, h: (1 + (7 * g + 3 * h) % 5, 1, (7 * g + 3 * h) % 5)),
        ["--bandwidth", "1e-320"]),
    "one regressor, jacobian overflow": (
        "g,h,y,x1",
        grid_rows(lambda g, h: ((7 * g + 3 * h) % 5 + 0.5, 1)),
        ["--bandwidth", "1e-320"]),
    "bandwidth denominator underflow": (
        "g,h,y,x1",
        ["0,0,1.0,1e-8", "0,1,2.0,2e-8", "1,0,-1.0,1e-8", "1,1,0.5,3e-8"],
        ["--tau", "1e-300"]),
    "nan duality gap, json": ("g,h,y,x1,x2,x3", NAN_GAP, ["--tau", "1e-300"]),
    "nan duality gap, csv": ("g,h,y,x1,x2,x3", NAN_GAP, ["--tau", "1e-300", "--format", "csv"]),
}


@pytest.mark.parametrize("header, rows, flags", EXTREME_FITS.values(), ids=EXTREME_FITS)
def test_fit_extreme_unconverged_design_is_a_numeric_error(tmp_path, capsys, header, rows, flags):
    # under the suite's filters a RuntimeWarning would raise
    path = tmp_path / "extreme.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    assert main(["fit", str(path), *flags]) == 3
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_fit_zero_kernel_hits_is_a_numeric_error(tmp_path, capsys):
    # no residual lies within so tiny a bandwidth, so the Jacobian is zero
    path = panel_csv(tmp_path)
    assert main(["fit", str(path), "--bandwidth", "1e-300"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "SingularJacobian" in err


NUMERIC_ERRORS = {name for name, cls in vars(errors).items()
                  if isinstance(cls, type) and issubclass(cls, errors.NumericError)}


@pytest.mark.parametrize("kind", [kind.value for kind in CrveKind])
@pytest.mark.parametrize("G, H", [(2, 2), (2, 7), (1, 5), (1, 1)])
def test_fit_with_one_or_two_clusters_exits_0_or_3(tmp_path, capsys, G, H, kind):
    # too few clusters for an estimator, a singular Jacobian or a zero
    # standard error are numeric errors, never a traceback
    path = tmp_path / "small.csv"
    for d in (1, 2, 4):
        for seed in range(3):
            write_csv(random_panel(np.random.default_rng(seed), G, H, d), path)
            code = main(["fit", str(path), "--crve", kind])
            out, err = capsys.readouterr()
            if code == 0:
                assert kind in json.loads(out)["methods"]
                continue
            assert code == 3 and out == "", err
            [line] = err.splitlines()
            assert line.startswith("error: ") and line.split(":")[1].strip() in NUMERIC_ERRORS
            if G * H == 1 and d == 1:  # one cell has no residual scale
                assert line.startswith("error: DegenerateScale: need at least 2 cells")


@pytest.mark.parametrize("order", [["cg", "ctw"], ["ctw", "cg"], ["ci", "cg", "ctw"]])
def test_fit_raises_the_first_failing_kind_in_crve_order(tmp_path, capsys, order):
    # G = 1: cg and ctw both fail, each with its own message; ci succeeds
    messages = {"cg": "error: TooFewClusters: row clustering requires G >= 2",
                "ctw": "error: TooFewClusters: two-way CRVE requires G >= 2 and H >= 2"}
    path = tmp_path / "one_row.csv"
    write_csv(random_panel(np.random.default_rng(0), 1, 5, 2), path)
    assert main(["fit", str(path), *(f"--crve={kind}" for kind in order)]) == 3
    out, err = capsys.readouterr()
    first = next(kind for kind in order if kind in messages)
    assert out == "" and err.splitlines() == [messages[first]]


# (G, H, d, tau, weights, null value, seed, rep): every one converges and
# has rejections and acceptances between them
PARITY_REPLICATIONS = [
    (12, 12, 3, 0.5, (1, 1, 1, 1, 1, 1), 1.0, 41, 1),
    (12, 12, 3, 0.5, (1, 1, 1, 1, 1, 1), 1.5, 41, 0),
    (15, 10, 4, 0.75, (0, 0, 1, 0, 0, 1), 1.2, 3, 5),
    (15, 10, 4, 0.75, (1, 0, 1, 1, 0, 1), 1.0, 3, 0),
    (10, 15, 2, 0.25, (1, 1, 1, 1, 1, 1), 1.3, 7, 1),
]


def test_fit_and_replication_outcome_reject_alike(tmp_path, capsys):
    # twqr fit on a replication's panel tests its last coefficient as the
    # size experiment does: one inference function behind both
    decisions = set()
    for G, H, d, tau, weights, null, seed, rep in PARITY_REPLICATIONS:
        cfg = MonteCarloConfig(G=G, H=H, d=d, tau=tau, weights=DgpWeights(*weights),
                               reps=1, seed=seed, null_value=null)
        path = tmp_path / f"rep{seed}_{rep}.csv"
        write_csv(generate_dgp(cfg, rep), path)
        kinds = [kind.value for kind in cfg.methods]
        assert main(["fit", str(path), "--tau", repr(tau), "--null", repr(null),
                     *(f"--crve={kind}" for kind in kinds)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"]["converged"]
        fit_row = [int(doc["methods"][kind]["p_values"][d - 1] < 0.05) for kind in kinds]
        assert fit_row == mc._replication_outcome(cfg, rep).tolist()
        decisions.update(fit_row)
    assert decisions == {0, 1}


def test_instrumented_stage_names_stay_bound():
    # perfbench/run.py's instrument wraps these names by getattr in both
    # modules; a name that is no longer bound would break every traced run
    tree = ast.parse((REPO / "perfbench" / "run.py").read_text(encoding="utf-8"))
    [instrument] = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "instrument"]
    wrapped = {"mc": set(), "cli": set()}
    for call in ast.walk(instrument):
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "wrap":
            target, name = call.args[0].id, call.args[1].value
            for module in (wrapped if target == "caller" else [target]):
                wrapped[module].add(name)
    stages = {"fit_qr", "score_matrix", "rule_of_thumb_bandwidth", "powell_jacobian",
              "omega_variant", "sandwich", "t_test"}
    assert stages <= wrapped["mc"] and stages <= wrapped["cli"]
    for module, names in ((mc, wrapped["mc"]), (cli, wrapped["cli"])):
        assert [name for name in sorted(names) if not callable(getattr(module, name, None))] == []


def test_fit_usage_errors(tmp_path, capsys):
    path = panel_csv(tmp_path)
    assert main(["fit", str(path), "--tau", "1.5"]) == 2
    assert main(["fit", str(tmp_path / "missing.csv")]) == 2
    assert main(["fit", str(path), "--null", "1,2"]) == 2  # needs 1 or d values
    # JSON has no token for a non-finite null value or bandwidth
    for flags in (["--null", "nan"], ["--null", "inf"], ["--null", "0,-inf,0"],
                  ["--null", "one"], ["--null", "0,,1"],
                  ["--bandwidth", "inf"], ["--bandwidth", "nan"]):
        capsys.readouterr()
        assert main(["fit", str(path), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "InvalidConfig" in err
    # --null is checked before the file is read
    bad = tmp_path / "bad.csv"
    bad.write_text("g,h,y,x1\na,1,oops,1.0\n", encoding="utf-8")
    assert main(["fit", str(bad), "--null", "1,2"]) == 2
    assert "InvalidConfig" in capsys.readouterr().err
    # and so is --tau
    assert main(["fit", str(tmp_path / "missing.csv"), "--tau", "1.5"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: InvalidTau")
    # --x-cols that names no column
    assert main(["fit", str(path), "--x-cols", ","]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: InputError: schema must name at least one x column"]


def test_fit_short_row_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("g,h,y,x1\na,1,1.0,1.0\na,2,2.0\n", encoding="utf-8")
    assert main(["fit", str(path)]) == 2
    err = capsys.readouterr().err
    assert "ParseFailure" in err
    assert "column 'x1' at data row 2" in err


def _file(tmp_path, name, text, encoding="utf-8"):
    path = tmp_path / name
    path.write_bytes(text.encode(encoding))
    return str(path)


UNTERMINATED_QUOTE = "\n".join(
    ["g,h,y,x1", '1,"1,2.0,3.0'] + [f"{i},1,1.0,2.0" for i in range(20_000)]) + "\n"
UNREADABLE = {
    "fit on a directory": lambda tmp: ["fit", str(tmp)],
    "latin-1 csv": lambda tmp: [
        "fit", _file(tmp, "l1.csv", "g,h,y,x1\n\xe9,1,1.0,2.0\n\xe9,2,2.0,1.0\n", "latin-1")],
    "unterminated quote": lambda tmp: ["fit", _file(tmp, "quote.csv", UNTERMINATED_QUOTE)],
    "latin-1 design": lambda tmp: [
        "simulate", _file(tmp, "l1.json", '{"G": 12, "\xe9": 1}', "latin-1")],
    "simulate --out names a file": lambda tmp: [
        "simulate", str(sim_config(tmp, reps=1)), "--out", _file(tmp, "a_file", "")],
    "demo --out names a file": lambda tmp: [
        "demo-nongaussian", "--G", "5", "--H", "5", "--reps", "500",
        "--out", _file(tmp, "a_file", "")],
}


@pytest.mark.parametrize("argv", UNREADABLE.values(), ids=UNREADABLE)
def test_unreadable_input_or_unwritable_output_is_an_input_error(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")


_CSV_TOKENS = st.one_of(
    st.sampled_from([b"", b'"', b'"1"', b'"1', b"1_0", b"1e400", b"-1e400", b"nan", b"inf",
                     b" 2", b"1,2", b"\xe9", "\xe9".encode(), b"\xff\xfe", b"\r"]),
    st.integers(-3, 3).map(lambda v: str(v).encode()),
    st.floats().map(lambda v: repr(v).encode()),
    st.text(max_size=3).map(str.encode),
)
_VALUE = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))
_CELL = st.tuples(st.integers(0, 3), st.integers(0, 3), _VALUE, _VALUE, _VALUE)


def _csv_row(cell):
    return ",".join(map(repr, cell)).encode()


# well-formed rows of distinct cells, so that some files fit, or well-formed
# rows mixed with rows of arbitrary tokens
_CSV_ROWS = st.one_of(
    st.lists(_CELL, max_size=16, unique_by=lambda cell: cell[:2]).map(
        lambda cells: [_csv_row(cell) for cell in cells]),
    st.lists(st.one_of(_CELL.map(_csv_row),
                       st.lists(_CSV_TOKENS, min_size=3, max_size=7).map(b",".join)),
             max_size=12),
)


# the extreme levels and subnormal or huge bandwidths reach the Jacobian's
# factor and the bandwidth formula's underflow
_TAU = st.one_of(st.sampled_from([0.5, 1e-300, 1.0 - 2.0**-53]),
                 st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
_BANDWIDTH = st.sampled_from([None, 5e-324, 1e-320, 1e-300, 1e300, 1.7e308])


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


# derandomized: the same files every run, so the suite stays deterministic
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_CSV_ROWS, tau=_TAU, bandwidth=_BANDWIDTH)
def test_fit_on_arbitrary_csv_exits_0_2_or_3(tmp_path, capsys, rows, tau, bandwidth):
    # under the suite's filters a RuntimeWarning would raise, so this also
    # checks that no warning escapes
    path = tmp_path / "fuzz.csv"
    path.write_bytes(b"\n".join([b"g,h,y,x1,x2", *rows]) + b"\n")
    flags = ["--tau", repr(tau)]
    if bandwidth is not None:
        flags += ["--bandwidth", repr(bandwidth)]
    capsys.readouterr()
    code = main(["fit", str(path), *flags])
    assert code in (0, 2, 3)
    if code == 0:  # strict JSON: no NaN or Infinity
        json.loads(capsys.readouterr().out, parse_constant=_no_constant)


def test_simulate_single_rep_smoke(tmp_path, capsys):
    cfg = sim_config(tmp_path, reps=1)
    out = tmp_path / "out"
    rc = main(["simulate", str(cfg), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    validate_against("rejection_report.schema.json", doc)
    report = doc["reports"][0]
    for key, p in report["frequencies"].items():
        assert p in (0.0, 1.0)
        assert report["mc_se"][key] == 0.0
        assert report["reps_used"][key] == 1
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5  # one row per method
    assert list(rows[0]) == list(REPORT_COLUMNS)


def test_simulate_grid_and_seed_override(tmp_path, capsys):
    cfg = sim_config(tmp_path, reps=20, methods=["ctw"],
                     grid=[{"tau": 0.25}, {"weights": {"wUx": 0.0, "wUe": 0.0}}])
    out = tmp_path / "out"
    rc = main(["simulate", str(cfg), "--out", str(out), "--seed", "99"])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    validate_against("rejection_report.schema.json", doc)
    assert len(doc["reports"]) == 2
    first, second = doc["reports"]
    assert first["config"]["seed"] == 99 and second["config"]["seed"] == 99
    assert first["config"]["tau"] == 0.25
    # deep merge keeps untouched weights from the base document
    assert second["config"]["weights"]["wUx"] == 0.0
    assert second["config"]["weights"]["wVx"] == 1.0


def test_simulate_byte_identical_across_thread_counts(tmp_path, capsys):
    cfg = sim_config(tmp_path, reps=24)
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert main(["simulate", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["simulate", str(cfg), "--out", str(out4), "--threads", "4"]) == 0
    capsys.readouterr()
    assert (out1 / "report.csv").read_bytes() == (out4 / "report.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out4 / "report.json").read_bytes()


def test_simulate_thread_env_fallback(tmp_path, capsys, monkeypatch):
    cfg = sim_config(tmp_path, reps=12, methods=["ctw"])
    out_env, out_one = tmp_path / "env", tmp_path / "one"
    monkeypatch.setenv("TWQR_THREADS", "3")
    assert main(["simulate", str(cfg), "--out", str(out_env)]) == 0
    monkeypatch.delenv("TWQR_THREADS")
    assert main(["simulate", str(cfg), "--out", str(out_one)]) == 0
    capsys.readouterr()
    assert (out_env / "report.csv").read_bytes() == (out_one / "report.csv").read_bytes()
    for env, flags in (("zero", []), ("0", []), ("3", ["--threads", "0"])):
        monkeypatch.setenv("TWQR_THREADS", env)
        capsys.readouterr()
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "bad"), *flags]) == 2
        assert "InvalidConfig" in capsys.readouterr().err


def test_simulate_input_errors(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["simulate", str(bad_json)]) == 2
    missing_key = tmp_path / "missing.json"
    missing_key.write_text(json.dumps({"G": 12, "H": 12}), encoding="utf-8")
    assert main(["simulate", str(missing_key)]) == 2
    assert main(["simulate", str(tmp_path / "absent.json")]) == 2
    unknown_key = tmp_path / "unknown.json"
    doc = json.loads(sim_config(tmp_path).read_text(encoding="utf-8"))
    doc["bogus"] = 1
    unknown_key.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", str(unknown_key)]) == 2
    capsys.readouterr()
    # a document or a grid entry that is not an object, and an empty grid
    for bad, message in (([], "config document must be a JSON object"),
                         ({**doc, "grid": [[]]}, "each grid entry must be a JSON object"),
                         ({**doc, "grid": []}, "'grid' must be a non-empty list")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: InvalidConfig: {message}")
    assert not (tmp_path / "out").exists()


SCHEMA_VIOLATIONS = {
    "non-integral G": {"G": 4.7},
    "non-integral reps": {"reps": 30.5},
    "bool reps": {"reps": True},
    "string G": {"G": "12"},
    "negative seed": {"seed": -1},
    "nan null_value": {"null_value": float("nan")},
    "bare string methods": {"methods": "ctw"},
    "duplicate methods": {"methods": ["ctw", "ctw"]},
    "non-object weights": {"weights": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]},
    "grid entry with a non-integral reps": {"grid": [{"tau": 0.25}, {"reps": 4.7}]},
}


@pytest.mark.parametrize("change", SCHEMA_VIOLATIONS.values(), ids=SCHEMA_VIOLATIONS)
def test_simulate_rejects_schema_violations(tmp_path, capsys, change):
    doc = {**json.loads(sim_config(tmp_path, reps=4).read_text(encoding="utf-8")), **change}
    if not any(v != v for v in change.values() if isinstance(v, float)):
        # the schema states each rule; JSON itself has no NaN
        assert not Draft202012Validator(load_schema("simulate_config.schema.json")).is_valid(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "InvalidConfig" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_seed_overrides_grid_entries(tmp_path, capsys):
    cfg = sim_config(tmp_path, reps=4, methods=["ctw"], grid=[{"seed": 5}, {"tau": 0.25}])
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--out", str(out), "--seed", "99"]) == 0
    capsys.readouterr()
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [r["config"]["seed"] for r in doc["reports"]] == [99, 99]
    # without --seed the grid entry's own seed stands
    assert main(["simulate", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [r["config"]["seed"] for r in doc["reports"]] == [5, 5]


def test_simulate_rejects_negative_seed_override(tmp_path, capsys):
    cfg = sim_config(tmp_path, reps=4, grid=[{"tau": 0.25}])
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
    assert "InvalidConfig" in capsys.readouterr().err


def test_simulate_config_schema_matches_montecarlo_config():
    schema = load_schema("simulate_config.schema.json")
    names = {f.name for f in dataclasses.fields(MonteCarloConfig)}
    required = {f.name for f in dataclasses.fields(MonteCarloConfig)
                if f.default is dataclasses.MISSING}
    assert set(schema["properties"]) - {"grid"} == names
    assert set(schema["required"]) == required
    assert set(schema["$defs"]["override"]["properties"]) == names
    weight_names = {f.name for f in dataclasses.fields(DgpWeights)}
    assert set(schema["$defs"]["weights"]["properties"]) == weight_names
    # report.json echoes every field of the config
    echoed = load_schema("rejection_report.schema.json")["$defs"]["config"]
    assert set(echoed["properties"]) == set(echoed["required"]) == names
    assert set(echoed["properties"]["weights"]["properties"]) == weight_names


def test_demo_outputs_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    args = ["demo-nongaussian", "--G", "16", "--H", "16",
            "--reps", "500", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    summary = json.loads((out1 / "summary.json").read_text(encoding="utf-8"))
    validate_against("nongaussian_summary.schema.json", summary)
    assert summary["reps"] == 500
    with open(out1 / "empirical.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 500
    assert list(rows[0]) == ["index", "value"]
    float(rows[0]["value"])
    for name in ("empirical.csv", "reference.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_demo_rejects_negative_c(tmp_path, capsys):
    rc = main(["demo-nongaussian", "--c", "-1", "--reps", "500",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "InvalidConfig" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--c", "nan"], ["--c", "inf"]])
def test_demo_rejects_bad_seed_and_c(tmp_path, capsys, flags):
    rc = main(["demo-nongaussian", *flags, "--reps", "500", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "InvalidConfig" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_demo_creates_out_before_any_replication(tmp_path, capsys):
    not_a_directory = _file(tmp_path, "a_file", "")
    with mock.patch.object(cli, "nongaussian_demo",
                           side_effect=AssertionError("the demo ran")) as demo:
        assert main(["demo-nongaussian", "--reps", "500", "--out", not_a_directory]) == 2
    demo.assert_not_called()
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


# --- import path ---

def subprocess_env(**extra):
    """This process's environment with the tested ``twqr`` first on the path."""
    src = str(pathlib.Path(twqr.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]), **extra)


_PRINT_SCIPY_STATS_OR_INTEGRATE = (
    "print(sorted(m for m in sys.modules "
    "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'])))")


def test_cli_import_loads_no_scipy_stats_or_integrate():
    code = "import sys, twqr.cli; " + _PRINT_SCIPY_STATS_OR_INTEGRATE
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_demo_loads_no_scipy_stats_or_integrate(tmp_path):
    code = ("import sys; from twqr.cli import main; "
            "assert main(sys.argv[1:]) == 0; " + _PRINT_SCIPY_STATS_OR_INTEGRATE)
    argv = ["demo-nongaussian", "--G", "8", "--H", "8", "--reps", "500",
            "--out", str(tmp_path / "demo")]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=subprocess_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "demo" / "summary.json").exists()


def test_fit_output_independent_of_blas_threads(tmp_path):
    # with OpenBLAS 0.3.31 this panel's fit bytes differ between one and two
    # threads, so the outputs match only if the fit pins one thread
    path = panel_csv(tmp_path, G=60, H=60, d=20)
    argv = ["fit", str(path)] + [a for k in ("ctw", "cg", "ch", "ci", "ctw2")
                                 for a in ("--crve", k)]
    code = "import sys; from twqr.cli import main; sys.exit(main(sys.argv[1:]))"
    outs = [subprocess.run([sys.executable, "-c", code, *argv],
                           env=subprocess_env(OPENBLAS_NUM_THREADS=threads),
                           capture_output=True, text=True, check=True, timeout=120).stdout
            for threads in ("1", "2")]
    assert json.loads(outs[0])["diagnostics"]["converged"] is True
    assert outs[0] == outs[1]


def test_normal_functions_match_scipy_stats_bit_for_bit():
    from scipy.stats import norm

    taus = np.concatenate([np.linspace(1e-4, 1.0 - 1e-4, 5001),
                           np.logspace(-300, -1, 200), 1.0 - np.logspace(-16, -1, 200)])
    cfg = MonteCarloConfig(G=2, H=2, d=3, tau=0.5, reps=1, seed=0,
                           weights=DgpWeights(1.0, 1.0, 1.0, 0.5, 2.0, 1.0))
    for tau in map(float, taus):
        z = norm.ppf(tau)
        assert alpha(tau) == float((1.0 - z) ** 2 * norm.pdf(z))
        beta0 = 1.0 + cfg.weights.sigma_e * float(z)
        assert true_beta(cfg, tau).tobytes() == np.array([beta0, 1.0, 1.0]).tobytes()
    var = SimpleNamespace(std_errors=np.ones(1))
    ts = np.concatenate([np.linspace(-40.0, 40.0, 8001), np.logspace(-300, 3, 400),
                         -np.logspace(-300, 3, 400), [0.0, -0.0, np.inf, -np.inf]])
    for t in map(float, ts):
        fit = SimpleNamespace(beta_hat=np.array([t]))
        assert t_test(fit, var, 0).p_value == 2.0 * float(norm.sf(abs(t)))
