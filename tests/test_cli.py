"""Command-line interface: outputs, config precedence, error paths."""

from __future__ import annotations

import json
import math

import pytest

from mehgrisk.cli import RunConfig, main
from mehgrisk.fieldfit import PUBLISHED_A, PUBLISHED_B, RiskField


def run(*argv: str) -> int:
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_fit_paper_dataset(tmp_path):
    out = tmp_path / "out"
    assert run("fit", "--paper-dataset", "--out", str(out)) == 0
    field = RiskField.from_json(out / "field.json")
    assert field.a == PUBLISHED_A
    assert field.b == PUBLISHED_B
    report = read_json(out / "fit_report.json")
    assert report["source"] == "builtin"
    concs = [row["concentration"] for row in report["per_concentration"]]
    assert concs == [0.27, 2.43, 3.33]
    assert "t^4" in report["slope_descending"]


def test_analyze_outputs(tmp_path):
    out = tmp_path / "out"
    assert run(
        "analyze", "--paper-dataset", "--out", str(out),
        "--grid", "64", "--seed", "42",
    ) == 0
    report = read_json(out / "analysis.json")
    assert abs(report["mean_risk"] - 5.5599) < 1e-3
    assert abs(report["probability"] - 0.9523) < 1e-3
    assert report["region_area_method"] == "reduction"
    assert report["certificate"]["has_critical_points"] is False
    for name in ("contours.svg", "region.svg"):
        text = (out / name).read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_analyze_high_threshold(tmp_path):
    out = tmp_path / "out"
    assert run(
        "analyze", "--paper-dataset", "--out", str(out),
        "--grid", "32", "--threshold", "100",
    ) == 0
    report = read_json(out / "analysis.json")
    assert report["probability"] == 0.0
    assert report["region_area"] == 0.0


def test_analyze_deterministic(tmp_path):
    args = ("analyze", "--paper-dataset", "--grid", "32", "--seed", "7")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert (a / "analysis.json").read_bytes() == (b / "analysis.json").read_bytes()
    assert (a / "contours.svg").read_bytes() == (b / "contours.svg").read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"threshold": 2.0, "grid": 32, "seed": 3}))
    out1 = tmp_path / "one"
    assert run(
        "analyze", "--paper-dataset", "--config", str(cfg),
        "--out", str(out1),
    ) == 0
    assert read_json(out1 / "analysis.json")["threshold"] == 2.0
    out2 = tmp_path / "two"
    assert run(
        "analyze", "--paper-dataset", "--config", str(cfg),
        "--threshold", "3.0", "--out", str(out2),
    ) == 0
    assert read_json(out2 / "analysis.json")["threshold"] == 3.0


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"treshold": 2.0}))
    assert run("analyze", "--paper-dataset", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "treshold" in err


def test_source_errors(tmp_path, capsys):
    assert run("analyze", "--out", str(tmp_path)) == 2
    assert "error:" in capsys.readouterr().err
    table = tmp_path / "t.csv"
    table.write_text("hq,1,2,3,4,5\n0.5,1,2,3,4,5\n")
    assert run(
        "analyze", "--paper-dataset", "--input", str(table),
        "--out", str(tmp_path),
    ) == 2
    assert run("fit", "--input", str(tmp_path / "missing.csv")) == 2
    capsys.readouterr()


def test_bad_table_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("hq,1,2,3,4,5\n0.5,1,2,3\n")
    assert run("fit", "--input", str(bad), "--out", str(tmp_path)) == 2
    assert "row 2" in capsys.readouterr().err


def test_fit_synthetic_table_round_trip(tmp_path):
    # Table generated by an affine field must be recovered exactly.
    a = (1.0, 1.0, 0.0, 0.0, 0.0)
    b = (2.0, -1.0, 0.5, 0.0, 0.0)
    src = RiskField(a, b)
    lines = ["hq,1,2,3,4,5"]
    for conc in (0.5, 1.5, 2.5):
        cells = [f"{conc}"] + [
            repr(src.evaluate(t, conc)) for t in (1, 2, 3, 4, 5)
        ]
        lines.append(",".join(cells))
    table = tmp_path / "table.csv"
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run("fit", "--input", str(table), "--out", str(out)) == 0
    fitted = RiskField.from_json(out / "field.json")
    for got, want in zip(fitted.a + fitted.b, a + b):
        assert abs(got - want) < 1e-8
    report = read_json(out / "fit_report.json")
    assert report["source"] == "table.csv"


def test_field_json_as_input(tmp_path):
    out1 = tmp_path / "fit"
    assert run("fit", "--paper-dataset", "--out", str(out1)) == 0
    out2 = tmp_path / "geom"
    assert run(
        "geometry", "--input", str(out1 / "field.json"), "--out", str(out2)
    ) == 0
    report = read_json(out2 / "geometry.json")
    assert report["is_hadamard"] is True
    assert len(report["zero_loci"]) == 3


def test_geometry_domain_restriction(tmp_path):
    out = tmp_path / "out"
    assert run(
        "geometry", "--paper-dataset", "--domain", "4,5,0.2,3.5",
        "--out", str(out),
    ) == 0
    report = read_json(out / "geometry.json")
    assert report["search_interval"] == [4.0, 5.0]
    assert report["zero_loci"] == []
    assert (out / "curvature.svg").exists()


def test_flow_outputs(tmp_path):
    out = tmp_path / "out"
    assert run(
        "flow", "--paper-dataset", "--starts", "3,1,2,2",
        "--out", str(out),
    ) == 0
    report = read_json(out / "flow.json")
    assert len(report["trajectories"]) == 2
    for row in report["trajectories"]:
        assert row["exit_reason"] == "left_domain"
        assert row["risk_end"] > row["risk_start"]
    assert (out / "flow_00.csv").exists()
    assert (out / "flow_01.csv").exists()
    assert (out / "flow.svg").read_text().startswith("<svg")


def test_exposure_outputs(tmp_path):
    out = tmp_path / "out"
    assert run("exposure", "--paper-dataset", "--out", str(out)) == 0
    report = read_json(out / "exposure.json")
    rows = report["rows"]
    assert len(rows) == 12   # four groups at three concentrations
    babies = [
        r for r in rows
        if r["group"] == "babies" and r["concentration_mg_per_kg"] == 0.27
    ]
    assert len(babies) == 1
    assert abs(babies[0]["risk_coefficient"] - 0.804) < 0.05
    assert babies[0]["acceptable"] is True
    worst = [
        r for r in rows
        if r["group"] == "babies" and r["concentration_mg_per_kg"] == 3.33
    ][0]
    assert worst["acceptable"] is False
    csv_text = (out / "exposure.csv").read_text()
    assert csv_text.splitlines()[0].startswith("group,")
    assert ",yes" in csv_text and ",no" in csv_text


def test_report_bundle(tmp_path):
    out = tmp_path / "out"
    assert run(
        "report", "--paper-dataset", "--grid", "32", "--seed", "1",
        "--out", str(out),
    ) == 0
    bundle = read_json(out / "report.json")
    for key in ("fit", "analysis", "geometry", "flow", "exposure"):
        assert key in bundle
    assert math.isclose(
        bundle["analysis"]["mean_risk"], 5.5599, rel_tol=1e-3
    )


def test_env_var_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("MEHGRISK_OUT", str(env_dir))
    assert run("fit", "--paper-dataset") == 0
    assert (env_dir / "field.json").exists()
    flag_dir = tmp_path / "flagout"
    assert run("fit", "--paper-dataset", "--out", str(flag_dir)) == 0
    assert (flag_dir / "field.json").exists()


def test_bad_domain_and_levels(tmp_path, capsys):
    assert run("analyze", "--paper-dataset", "--domain", "1,2,3") == 2
    assert run("analyze", "--paper-dataset", "--levels", "a,b") == 2
    assert run("analyze", "--paper-dataset", "--grid", "4") == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag", ["--threshold=nan", "--threshold=inf", "--levels=1,nan", "--levels=-inf"]
)
def test_nonfinite_threshold_and_levels_exit_2(flag, tmp_path, fresh_python):
    proc = fresh_python(
        "-m", "mehgrisk", "analyze", "--paper-dataset", "--grid", "16",
        flag, "--out", str(tmp_path), seconds=30.0,
    )
    assert proc.returncode == 2, proc.stderr
    assert "must be finite" in proc.stderr


def test_run_config_rejects_nonfinite():
    with pytest.raises(ValueError, match="threshold must be finite"):
        RunConfig(threshold=math.nan)
    with pytest.raises(ValueError, match="levels must be finite"):
        RunConfig(levels=(1.0, math.inf))
    for step in (math.nan, math.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match="flow_step must be finite"):
            RunConfig(flow_step=step)
    with pytest.raises(ValueError, match="flow_max_steps must be at least 1"):
        RunConfig(flow_max_steps=0)


@pytest.mark.parametrize(
    "key, value", [("flow_step", math.nan), ("flow_max_steps", 0)]
)
def test_flow_config_out_of_range_exit_2(key, value, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert run(
        "flow", "--paper-dataset", "--config", str(cfg), "--out", str(out)
    ) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_fit_nonfinite_table_writes_no_json(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text(
        "hq,1,2,3,4,5\n0.27,1,2,3,4,5\n2.43,1,nan,3,4,5\n3.33,2,3,4,5,6\n"
    )
    out = tmp_path / "out"
    assert run("fit", "--input", str(table), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "field.json" in err and "not JSON compliant" in err
    assert list(out.iterdir()) == []
