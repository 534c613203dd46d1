"""End-to-end tests for the command-line interface and its JSON documents."""

import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import twqr
from twqr.cli import main
from twqr.crve import t_test
from twqr.jacobian import alpha
from twqr.montecarlo import (
    REPORT_COLUMNS,
    DgpWeights,
    MonteCarloConfig,
    generate_dgp,
    true_beta,
)
from twqr.panel import write_csv

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"


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


def test_fit_overflowing_design_prints_only_the_error_line(tmp_path):
    # the overflows are handled (the solver stops, the bandwidth is
    # rejected), so no RuntimeWarning reaches the user's terminal
    code = "import sys; from twqr.cli import main; sys.exit(main(sys.argv[1:]))"
    out = subprocess.run([sys.executable, "-c", code, "fit", str(huge_csv(tmp_path))],
                         env=subprocess_env(PYTHONWARNINGS="default"),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 3
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: NonpositiveBandwidth"), out.stderr


def test_fit_zero_kernel_hits_is_a_numeric_error(tmp_path, capsys):
    # no residual lies within so tiny a bandwidth, so the Jacobian is zero
    path = panel_csv(tmp_path)
    assert main(["fit", str(path), "--bandwidth", "1e-300"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "SingularJacobian" in err


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


def test_fit_short_row_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("g,h,y,x1\na,1,1.0,1.0\na,2,2.0\n", encoding="utf-8")
    assert main(["fit", str(path)]) == 2
    err = capsys.readouterr().err
    assert "ParseFailure" in err
    assert "column 'x1' at data row 2" in err


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
