"""Command-line interface: outputs, config precedence, error paths."""

from __future__ import annotations

import collections
import json
import math
import re
from pathlib import Path

import pytest

from mehgrisk import cli
from mehgrisk.cli import RunConfig, build_config, main, make_parser
from mehgrisk.fieldfit import PUBLISHED_A, PUBLISHED_B, RiskField, RiskTable


def run(*argv: str) -> int:
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_fit_paper_dataset(tmp_path):
    out = tmp_path / "out"
    assert run("fit", "--paper-dataset", "--out", str(out)) == 0
    field = RiskField.from_json_dict(read_json(out / "field.json"))
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
    # Bytes that are not UTF-8 gave an error without the file's name.
    bad.write_bytes(b"hq,1,2,3,4,5\n0.5,\xff,2,3,4,5\n")
    out = tmp_path / "out"
    assert run("fit", "--input", str(bad), "--out", str(out)) == 2
    assert f"error: {bad}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("four.csv", "hq,1,2,3,4\n0.3,0,1,2,3\n2.4,0,4,5,6\n",
         "need exactly 5 nodes and values, got 4 and 4"),
        ("four.json", json.dumps({"concentrations": [0.3, 2.4],
                                  "nodes": [1, 2, 3, 4],
                                  "values": [[0, 1, 2, 3], [0, 4, 5, 6]]}),
         "need exactly 5 nodes and values, got 4 and 4"),
        ("one.csv", "hq,1,2,3,4,5\n0.3,0,1,2,3,4\n",
         "need at least two concentrations to regress"),
        ("equal.csv", "hq,1,2,3,4,5\n0.3,0,1,2,3,4\n0.3,0,4,5,6,7\n",
         "all x values equal; slope undefined"),
        ("node6.csv", "hq,1,2,3,4,6\n0.3,0,1,2,3,4\n2.4,0,4,5,6,7\n",
         "nodes must lie within the stage range [1, 5]"),
    ],
    ids=["four-nodes-csv", "four-nodes-json", "one-row", "equal-rows", "node-6"],
)
def test_table_fit_errors_name_the_file(tmp_path, capsys, name, text, message):
    # A table that parses but cannot be fitted gave an error without a file.
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out"
    assert run("fit", "--input", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


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
    fitted = RiskField.from_json_dict(read_json(out / "field.json"))
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
    # The search range is [1, 6] widened to the field's stage range, so a
    # narrower domain keeps the three zero stages, none of them inside it.
    out = tmp_path / "out"
    assert run(
        "geometry", "--paper-dataset", "--domain", "4,5,0.2,3.5",
        "--out", str(out),
    ) == 0
    report = read_json(out / "geometry.json")
    assert report["search_interval"] == [1.0, 6.0]
    assert len(report["zero_loci"]) == 3
    assert not any(locus["in_domain"] for locus in report["zero_loci"])
    assert report["max_curvature_on_domain"] < 0.0
    assert (out / "curvature.svg").exists()


def test_geometry_default_domain_given_or_not_writes_the_same_bytes(tmp_path):
    # The zero stages used to be searched on the --domain stage range when
    # one was given and on [1, 6] otherwise, so the default domain given
    # explicitly lost the third critical age.
    outs = [tmp_path / "implicit", tmp_path / "explicit"]
    assert run("geometry", "--paper-dataset", "--out", str(outs[0])) == 0
    assert run(
        "geometry", "--paper-dataset", "--domain", "1,5,0.2,3.5",
        "--out", str(outs[1]),
    ) == 0
    files = [{p.name: p.read_bytes() for p in out.iterdir()} for out in outs]
    assert sorted(files[0]) == ["curvature.svg", "geometry.json"]
    assert files[0] == files[1]
    assert len(read_json(outs[1] / "geometry.json")["zero_loci"]) == 3


def test_report_domain_below_stage_one(tmp_path):
    # The stage axis's age labels used to refuse stage 0: the report
    # exited 2 and left the six JSON files written before the first plot.
    out = tmp_path / "out"
    assert run(
        "report", "--paper-dataset", "--domain", "0,5,0.2,3.5", "--grid", "32",
        "--out", str(out),
    ) == 0
    assert len(list(out.iterdir())) == 21
    assert read_json(out / "geometry.json")["search_interval"] == [0.0, 6.0]
    assert ">-4y</text>" in (out / "contours.svg").read_text()


def test_geometry_zero_stage_below_stage_one_is_extrapolated(tmp_path):
    # g = (t - 0.5)^2 + 1, so g' = 2t - 1 vanishes at stage 0.5, whose age
    # lies on the first segment of the stage map extended: 1 + 5 (0.5 - 1).
    path = tmp_path / "field.json"
    path.write_text(json.dumps({
        "a": [1.25, -1.0, 1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0, 0.0, 0.0],
        "domain": {"t": [0.0, 5.0], "c": [0.2, 3.5]},
    }))
    out = tmp_path / "out"
    assert run("geometry", "--input", str(path), "--out", str(out)) == 0
    (locus,) = read_json(out / "geometry.json")["zero_loci"]
    assert abs(locus["stage"] - 0.5) < 1e-9
    assert abs(locus["age_years"] + 1.5) < 1e-8
    assert locus["in_domain"] and locus["extrapolated"]
    assert locus["label"] == "-1.5 y (extrapolated)"
    assert (out / "curvature.svg").exists()


# A fresh interpreter whose curvature plot fails with an OverflowError,
# as a float overflow in a writer does, and then runs the CLI.
_FAILING_CURVATURE = """
import sys
from mehgrisk import cli, svgplot
def fail(*args):
    raise OverflowError(34, "Numerical result out of range")
svgplot.curvature_profile_svg = fail
sys.exit(cli.main(sys.argv[1:]))
"""


def test_failing_writer_exit_2_leaves_nothing(tmp_path, fresh_python):
    # geometry.json is written before the curvature plot fails: the run
    # ends with exit 2 and an error naming the file, not a traceback and
    # exit 1, and takes geometry.json and the directories it made away.
    out = tmp_path / "made" / "out"
    proc = fresh_python(
        "-c", _FAILING_CURVATURE, "geometry", "--paper-dataset",
        "--out", str(out), seconds=30.0,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"error: {out / 'curvature.svg'}: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_geometry_of_a_slope_past_the_range_is_refused(tmp_path, capsys):
    # q = g' reaches about 1.3e155 on the search range, past 2^250: the
    # field is refused where it is loaded, naming its file, and nothing
    # is written.  The curvature plot used to scale q by a power of two.
    path = tmp_path / "q.json"
    path.write_text(json.dumps({
        "a": [0, 0, 0, -4e152, 1e152], "b": [0, 0, 0, 0, 0],
        "domain": {"t": [1.0, 5.0], "c": [0.2, 3.5]},
    }))
    out = tmp_path / "out"
    assert run("geometry", "--input", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: field outside the supported range: ")
    assert "past 2^250" in err
    assert not out.exists()


def test_domain_past_the_range_is_refused_naming_domain(tmp_path, capsys):
    # The built-in field on stages up to 1e156 passes 2^250; the error
    # named no setting.
    out = tmp_path / "out"
    assert run("analyze", "--paper-dataset", "--domain", "1,1e156,0.2,3.5",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: domain: field outside the supported range: ")
    assert not out.exists()


def test_failing_writer_keeps_an_existing_directory(tmp_path, monkeypatch, capsys):
    # Only what the run made is removed: a directory that was there
    # before stays, with its other files and an earlier run's region.svg,
    # which the failing writer never opened.
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    (out / "region.svg").write_text("earlier")

    def failing(*args, **kwargs):
        raise ValueError("no room")

    monkeypatch.setattr(cli.svgplot, "region_plot_svg", failing)
    assert run("analyze", "--paper-dataset", "--grid", "16", "--out", str(out)) == 2
    assert f"{out / 'region.svg'}: no room" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "region.svg"]
    assert (out / "region.svg").read_text() == "earlier"


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


def test_exposure_is_computed_once_per_profile(tmp_path, monkeypatch):
    # Each row's exposure comes with its verdict; cmd_exposure used to
    # compute it a second time, 24 calls for the 12 built-in profiles.
    calls = collections.Counter()
    exposure_of = cli.exposure.exposure

    def counted(profile):
        calls["exposure"] += 1
        return exposure_of(profile)

    monkeypatch.setattr(cli.exposure, "exposure", counted)
    assert run("exposure", "--paper-dataset", "--out", str(tmp_path)) == 0
    assert calls == {"exposure": 12}


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
    "flag",
    [
        "--threshold=nan", "--threshold=inf", "--levels=1,nan", "--levels=-inf",
        "--domain=1,inf,0.2,3.5",
    ],
)
def test_nonfinite_threshold_and_levels_exit_2(flag, tmp_path, fresh_python):
    proc = fresh_python(
        "-m", "mehgrisk", "analyze", "--paper-dataset", "--grid", "16",
        flag, "--out", str(tmp_path), seconds=30.0,
    )
    assert proc.returncode == 2, proc.stderr
    name = flag.split("=")[0]   # followed by a list item's index, if any
    assert f"{name}: " in proc.stderr or f"{name}[" in proc.stderr
    assert "expected a finite number" in proc.stderr


@pytest.mark.parametrize(
    "command, domain",
    [
        ("analyze", "1,5,0.2,0.20000000000000004"),
        ("geometry", "1,1.0000000000000002,0.2,3.5"),
        ("analyze", "1,5,0,5e-324"),
    ],
    ids=["analyze-c-ulp", "geometry-t-ulp", "analyze-c-subnormal"],
)
def test_narrow_domain_exit_2(command, domain, tmp_path, fresh_python):
    # The first two wrote their JSON, then looped without end drawing
    # ticks (analyze grew by about 40 MB/s); the third failed with a bare
    # "math domain error" and left analysis.json behind.
    out = tmp_path / "out"
    proc = fresh_python(
        "-m", "mehgrisk", command, "--paper-dataset", f"--domain={domain}",
        "--grid", "16", "--out", str(out), seconds=10.0,
    )
    assert proc.returncode == 2, proc.stderr
    assert "--domain: " in proc.stderr and "narrower than" in proc.stderr
    assert not out.exists()


def test_narrow_domain_names_config_key_and_field_file(tmp_path, capsys):
    narrow = {"t": [1.0, 5.0], "c": [0.2, 0.2 + 1e-12]}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"domain": [1.0, 5.0, *narrow["c"]]}))
    field = tmp_path / "field.json"
    data = RiskField(PUBLISHED_A, PUBLISHED_B).as_json_dict()
    field.write_text(json.dumps(data | {"domain": narrow}))
    out = tmp_path / "out"
    for argv, where in (
        (["--paper-dataset", "--config", str(cfg)], f"{cfg}: domain: "),
        (["--input", str(field)], f"{field}: "),
    ):
        assert run("analyze", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert where in err and "c span 1e-12 is narrower than" in err
        assert not out.exists()


def test_run_config_rejects_nonfinite():
    with pytest.raises(ValueError, match="threshold: expected a finite number, got nan"):
        RunConfig(threshold=math.nan)
    with pytest.raises(ValueError, match=r"levels\[1\]: expected a finite number, got inf"):
        RunConfig(levels=(1.0, math.inf))
    for step in (math.nan, math.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match="flow_step: expected a finite number > 0, got "):
            RunConfig(flow_step=step)
    with pytest.raises(ValueError, match=re.escape(
            f"flow_max_steps: expected an integer in [1, {cli.MAX_FLOW_STEPS}], got 0")):
        RunConfig(flow_max_steps=0)


def test_run_config_stores_the_output_directory_as_a_path():
    assert RunConfig(out="d").out == Path("d")


def test_run_config_rejects_a_domain_that_is_no_rectangle():
    # A tuple was accepted and failed later with an AttributeError.
    with pytest.raises(ValueError, match=re.escape(
            "domain: expected a Rectangle, got (1.0, 5.0, 0.2, 3.5)")):
        RunConfig(domain=(1.0, 5.0, 0.2, 3.5))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("grid", 16.5, f"grid: expected an integer in [16, {cli.MAX_GRID}], got 16.5"),
        ("seed", 1.5, "seed: expected an integer >= 0, got 1.5"),
        ("samples", True,
         f"samples: expected an integer in [1, {cli.MAX_MC_SAMPLES}], got True"),
        ("flow_starts", ((2.0, "1"),), "flow_starts[0][1]: expected a number, got '1'"),
        ("input", b"x.csv", "input: expected a string, got b'x.csv'"),
        ("out", 3, "out: expected a path or a nonempty string, got 3"),
    ],
    ids=["grid-float", "seed-float", "samples-true", "start-string",
         "input-bytes", "out-int"],
)
def test_run_config_checks_field_types(key, value, message):
    # Grid, seed, samples and the paths were accepted, and a string start
    # failed in flow.
    with pytest.raises(ValueError) as err:
        RunConfig(**{key: value})
    assert str(err.value) == message


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
    assert "row 3, column 3: not a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "flow"])
def test_nonfinite_table_exit_2_before_any_output(command, tmp_path, fresh_python):
    # analyze used to hang in adaptive Simpson on the all-NaN field, and
    # flow wrote flow_00.csv..flow_08.csv with NaN rows before failing.
    table = tmp_path / "t.csv"
    table.write_text(
        "hq,1,2,3,4,5\n0.27,1,2,3,4,5\n2.43,1,nan,3,4,5\n3.33,2,3,4,5,6\n"
    )
    out = tmp_path / "out"
    proc = fresh_python(
        "-m", "mehgrisk", command, "--input", str(table), "--grid", "16",
        "--out", str(out), seconds=30.0,
    )
    assert proc.returncode == 2, proc.stderr
    assert "row 3, column 3: not a finite number" in proc.stderr
    assert not out.exists()


def test_nonfinite_field_json_exit_2(tmp_path, fresh_python):
    # An inf coefficient used to send analyze into the same endless
    # adaptive Simpson recursion as a nan table cell.
    data = RiskField(PUBLISHED_A, PUBLISHED_B).as_json_dict()
    data["a"][2] = math.inf
    path = tmp_path / "field.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    proc = fresh_python(
        "-m", "mehgrisk", "analyze", "--input", str(path), "--grid", "16",
        "--out", str(out), seconds=30.0,
    )
    assert proc.returncode == 2, proc.stderr
    assert "field.json: a[2]: expected a finite number, got inf" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_wide_stage_range_root_search_ends(command, tmp_path, fresh_python):
    # dR/dc has a root near t = 9.5e7, where floats are 1.5e-8 apart: the
    # root bisection never narrowed its bracket below 1e-10 and looped.
    path = tmp_path / "field.json"
    path.write_text(json.dumps({
        "a": [-5126710857801191.0, -0.6723293209494665, 0.5708686913050158,
              0.0, 0.0],
        "b": [0, 0, 0, 0, 0],
        "domain": {"t": [1.0, 2e8], "c": [0.2, 3.5]},
    }))
    out = tmp_path / "out"
    proc = fresh_python(
        "-m", "mehgrisk", command, "--input", str(path), "--out", str(out),
        seconds=30.0,
    )
    assert proc.returncode == 0, proc.stderr
    cert = read_json(out / "analysis.json")["certificate"]
    assert cert["slope_roots"] == [94765727.77632576]


@pytest.mark.parametrize("samples", [0, -5])
def test_samples_below_one_exit_2(samples, tmp_path, capsys):
    # 0 used to raise ZeroDivisionError and -5 "negative dimensions".
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"samples": samples}))
    out = tmp_path / "out"
    assert run(
        "analyze", "--paper-dataset", "--config", str(cfg), "--out", str(out)
    ) == 2
    message = f"samples: expected an integer in [1, {cli.MAX_MC_SAMPLES}], got {samples}"
    assert f"{cfg}: {message}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(samples=samples)


@pytest.mark.parametrize("samples", [cli.MAX_MC_SAMPLES + 1, 1e15])
def test_samples_above_bound_exit_2(samples, tmp_path, capsys):
    # 1e15 samples would run for months; the bound is checked before any
    # work, and no estimate of either size is drawn here.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"samples": samples}))
    out = tmp_path / "out"
    assert run(
        "analyze", "--paper-dataset", "--config", str(cfg), "--out", str(out)
    ) == 2
    assert f"{cfg}: samples: expected an integer in [1, {cli.MAX_MC_SAMPLES}], got {int(samples)}" in (
        capsys.readouterr().err
    )
    assert not out.exists()
    assert RunConfig(samples=cli.MAX_MC_SAMPLES).samples == cli.MAX_MC_SAMPLES


def test_nonfinite_flow_start_exit_2(tmp_path, capsys):
    # The first start's flow_00.csv used to be written before the NaN
    # start failed.
    out = tmp_path / "out"
    assert run(
        "flow", "--paper-dataset", "--starts", "2,1,nan,1", "--out", str(out)
    ) == 2
    assert "--starts[1][0]: expected a finite number, got nan" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_flow_start_outside_domain_writes_nothing(tmp_path, capsys):
    # The first start's flow_00.csv used to be written before the second
    # start was found to lie outside the domain.
    out = tmp_path / "out"
    assert run(
        "flow", "--paper-dataset", "--starts", "2,1,9,1", "--out", str(out)
    ) == 2
    err = capsys.readouterr().err
    assert "start point (9.0, 1.0) lies outside the domain" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("samples", 2.7), ("grid", 16.9), ("seed", 0.5),
        ("flow_max_steps", 100.25), ("grid", "32"), ("samples", None),
        ("seed", True), ("grid", [32]),
    ],
)
def test_config_integers_not_truncated(key, value, tmp_path, capsys):
    # 2.7 samples and a 16.9 grid used to run as 2 and 16.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert run(
        "analyze", "--paper-dataset", "--config", str(cfg), "--out", str(out)
    ) == 2
    assert f"{key}: expected an integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_config_integral_values_accepted(tmp_path):
    cfg = tmp_path / "run.json"
    for grid, samples in ((32, 1000), (32.0, 1000.0)):
        cfg.write_text(json.dumps({
            "grid": grid, "samples": samples, "seed": 7.0,
            "flow_max_steps": 50.0,
        }))
        args = make_parser().parse_args(
            ["analyze", "--paper-dataset", "--config", str(cfg)]
        )
        config = build_config(args)
        assert (config.grid, config.samples) == (32, 1000)
        assert (config.seed, config.flow_max_steps) == (7, 50)
        assert all(
            type(v) is int
            for v in (config.grid, config.samples, config.seed,
                      config.flow_max_steps)
        )
    cfg.write_text(json.dumps({"grid": 32.0, "samples": 1000.0}))
    out = tmp_path / "out"
    assert run(
        "analyze", "--paper-dataset", "--config", str(cfg), "--out", str(out)
    ) == 0
    assert read_json(out / "analysis.json")["region_area_monte_carlo"][
        "samples"
    ] == 1000


def test_report_start_outside_domain_writes_nothing(tmp_path, capsys):
    # report used to write field.json, fit_report.json, analysis.json,
    # geometry.json and three SVGs before cmd_flow refused the start.
    out = tmp_path / "out"
    assert run(
        "report", "--paper-dataset", "--starts", "2,1,9,1", "--out", str(out)
    ) == 2
    err = capsys.readouterr().err
    assert "start point (9.0, 1.0) lies outside the domain" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_flow_nonfinite_summary_writes_nothing(tmp_path, fresh_python):
    # Coefficients of 1e70 are in range, but RK4's inner stages leave the
    # domain and overflow there on every trajectory; flow used to write
    # flow_00.csv..flow_08.csv (inf and nan rows) and flow.svg before
    # flow.json refused the non-finite summary.  (Past 2^250 the field is
    # refused at load.)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "a": [1e70] * 5, "b": [0.0] * 5,
        "domain": {"t": [1.0, 5.0], "c": [0.2, 3.5]},
    }))
    out = tmp_path / "out"
    proc = fresh_python(
        "-m", "mehgrisk", "flow", "--input", str(path), "--out", str(out),
        seconds=30.0,
    )
    assert proc.returncode == 2, proc.stderr
    assert "flow.json: Out of range float values" in proc.stderr
    assert not out.exists()


def test_report_loads_and_fits_the_table_once(tmp_path, monkeypatch):
    calls = collections.Counter()
    from_csv = RiskTable.from_csv.__func__
    build_field = cli.build_field

    def counted_from_csv(cls, path):
        calls["from_csv"] += 1
        return from_csv(cls, path)

    def counted_build_field(*args, **kwargs):
        calls["build_field"] += 1
        return build_field(*args, **kwargs)

    monkeypatch.setattr(RiskTable, "from_csv", classmethod(counted_from_csv))
    monkeypatch.setattr(cli, "build_field", counted_build_field)
    table = tmp_path / "table.csv"
    table.write_text(
        "hq,1,2,3,4,5\n0.4,0,1.1,0.52,0.31,0.6\n1.6,0,4.8,2.1,1.3,2.4\n"
        "2.9,0,8.7,3.9,2.2,4.1\n"
    )
    out = tmp_path / "out"
    assert run("report", "--input", str(table), "--grid", "16", "--out", str(out)) == 0
    assert calls == {"from_csv": 1, "build_field": 1}
    concs = [
        row["concentration"]
        for row in read_json(out / "fit_report.json")["per_concentration"]
    ]
    assert concs == [0.4, 1.6, 2.9]


@pytest.mark.parametrize(
    "command, value",
    [
        pytest.param("analyze", 1e308, id="analyze"),
        pytest.param("report", 1e308, id="report"),
        pytest.param("fit", 1e308, id="fit"),
        pytest.param("report", 1e200, id="report-1e200"),
        pytest.param("report", 1e150, id="report-1e150"),
    ],
)
def test_overflowing_field_writes_nothing(command, value, tmp_path, fresh_python):
    # Each field passes 2^250 on its search range and is refused at load;
    # fit used to write the 1e308 one.  1e150 and 1e200 used to pass the
    # load and fail in the flow summary, after the curvature had scaled
    # its squares.  analyze used to leave an empty output directory, and
    # report every file it wrote before the first document that refused
    # the values; numpy printed its overflow warnings first.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "a": [value] * 5, "b": [0.0] * 5,
        "domain": {"t": [1.0, 5.0], "c": [0.2, 3.5]},
    }))
    out = tmp_path / "out"
    proc = fresh_python(
        "-m", "mehgrisk", command, "--input", str(path), "--grid", "16",
        "--out", str(out), seconds=60.0,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {path}: field outside the supported range: ")
    assert proc.stderr.endswith(", past 2^250 = 1.81e+75\n")
    assert not out.exists()


def test_huge_field_geometry_is_written(tmp_path):
    # Coefficients of 1e70, near 2^250 on the search range, square past
    # 1e147 in the curvature denominator; at 1e200, now refused, geometry
    # exited 2 with "geometry.json: Out of range float values" (K was nan).
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "a": [1e70] * 5, "b": [0.0] * 5,
        "domain": {"t": [1.0, 5.0], "c": [0.2, 3.5]},
    }))
    assert run("geometry", "--input", str(path), "--out", str(tmp_path)) == 0
    report = read_json(tmp_path / "geometry.json")
    assert report["is_hadamard"] and report["max_curvature_on_domain"] <= 0.0
    assert math.isfinite(report["max_curvature_on_domain"])


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_wide_concentration_domain_mean_is_finite(command, tmp_path, fresh_python):
    # R = h(t) on c in [0, 1e75], near the 2^250 the field's range allows:
    # the whole run, mean included, is finite and written.  On c in
    # [0, 1e300], now refused, mean_risk used to square the c bounds and
    # die with an OverflowError traceback and exit 1.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "a": [0.0] * 5, "b": list(PUBLISHED_B),
        "domain": {"t": [1.0, 5.0], "c": [0.0, 1e75]},
    }))
    out = tmp_path / "out"
    proc = fresh_python(
        "-m", "mehgrisk", command, "--input", str(path), "--grid", "16",
        "--out", str(out), seconds=60.0,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert math.isfinite(read_json(out / "analysis.json")["mean_risk"])


def test_wide_concentration_domain_vertices_are_finite(tmp_path):
    # Vertices are rounded to 9 decimals by np.round, which scales by 1e9:
    # at c = 1e75 that stays finite.  On c in [0, 1e300], now refused, the
    # level-1 line's vertex at c = 1e300 became inf, and analyze exited 2
    # refusing analysis.json.  RuntimeWarnings fail tests here.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "a": [0.0] * 5, "b": list(PUBLISHED_B),
        "domain": {"t": [1.0, 5.0], "c": [0.0, 1e75]},
    }))
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(path), "--grid", "16",
                 "--out", str(out)]) == 0
    levels = read_json(out / "analysis.json")["levels"]
    vertices = [x for level in levels for line in level["polylines"]
                for vertex in line for x in vertex]
    assert 1e75 in vertices
    assert all(map(math.isfinite, vertices))


@pytest.mark.parametrize("command", ["geometry", "analyze"])
def test_roots_closer_than_the_old_split_depth(command, tmp_path):
    # g' = 2.7e-258 t^2 + 4 t^3 has roots at 0 and -6.75e-259: the root
    # isolation stopped splitting at depth 80 with both in one bracket,
    # and bisection refused it, "bracket does not straddle a sign change".
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "a": [0, 0, 0, 9.059516844553991e-259, 1], "b": [0, 0, 0, 0, 0],
        "domain": {"t": [0, 1], "c": [0, 1]},
    }))
    out = tmp_path / "out"
    assert run(command, "--input", str(path), "--grid", "16", "--out", str(out)) == 0
    if command == "geometry":
        (locus,) = read_json(out / "geometry.json")["zero_loci"]
        assert 0.0 < locus["stage"] < 1e-258


@pytest.mark.parametrize("command", ["fit", "analyze", "geometry", "flow", "report"])
@pytest.mark.parametrize("side", ["t", "c"])
def test_domain_side_whose_span_overflows_is_refused(command, side, tmp_path, capsys):
    # A side [-1e308, 1e308] spans more than the largest float: analyze and
    # report died in the Monte Carlo draws with an OverflowError traceback,
    # flow blamed its default start, and fit and geometry exited 0.
    bounds = {"t": [1.0, 5.0], "c": [0.2, 3.5], side: [-1e308, 1e308]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"a": [1, 0, 0, 0, 0], "b": [0] * 5, "domain": bounds}))
    out = tmp_path / "out"
    assert run(command, "--input", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: domain: {side} span 1e+308 - -1e+308 overflows a float\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_stage_range_whose_chords_overflow_when_squared(command, tmp_path, capsys):
    # R = c on t in [1, 1e156]: a chord's squared length overflowed in the
    # level-curve tracer, and both commands exited 1 with a traceback.
    # Stages past 2^250 are refused where the field is loaded; the tracer
    # on the longest stage range accepted is tested in test_analysis.py.
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "a": [1, 0, 0, 0, 0], "b": [0] * 5,
        "domain": {"t": [1, 1e156], "c": [0.2, 3.5]},
    }))
    out = tmp_path / "out"
    assert run(command, "--input", str(path), "--grid", "64", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: field outside the supported range: ")
    assert not out.exists()


PROFILE_HEADER = (
    "group,age_min,age_max,body_weight_kg,intake_g_per_month,"
    "portions_per_month,concentration_mg_per_kg,rfd,substitution_fraction\n"
)


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("p.csv", PROFILE_HEADER + "men,12,60,73.44,262.6,2.6,nan,0.0003,0.6\n",
         "p.csv, row 2, column 'concentration_mg_per_kg': not a finite number"),
        ("p.csv", PROFILE_HEADER + "men,12,60,inf,262.6,2.6,1,0.0003,0.6\n",
         "p.csv, row 2, column 'body_weight_kg': not a finite number"),
        ("p.json", "[1, 2]", "p.json, entry 0: expected a JSON object, got 1"),
        ("p.json", "[{", "p.json: invalid JSON: "),
        ("p.csv", PROFILE_HEADER + "m\xe9n,12,60,73.44,262.6,2.6,1,0.0003,0.6\n",
         "p.csv: "),
    ],
    ids=["csv-nan", "csv-inf", "json-not-object", "json-invalid", "csv-not-utf8"],
)
def test_bad_profile_file_exit_2(name, text, message, tmp_path, fresh_python):
    # A nan or inf cell used to pass the sign checks and fail only at
    # exposure.json, after the output directory was made; [1, 2] raised
    # TypeError (exit 1); invalid JSON, and bytes that are not UTF-8, did
    # not name the file.
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    out = tmp_path / "out"
    proc = fresh_python(
        "-m", "mehgrisk", "exposure", "--input", str(path), "--out", str(out),
        seconds=30.0,
    )
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert not out.exists()


def test_report_makes_the_output_directory_after_encoding(tmp_path, monkeypatch):
    # Every document is encoded before the directory exists, so a value
    # that cannot be written fails before any file is.
    events = []
    json_text = cli.json_text
    mkdir = cli.Path.mkdir

    def traced_json_text(data, path):
        events.append("json_text")
        return json_text(data, path)

    def traced_mkdir(self, *args, **kwargs):
        events.append("mkdir")
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(cli, "json_text", traced_json_text)
    monkeypatch.setattr(cli.Path, "mkdir", traced_mkdir)
    out = tmp_path / "out"
    assert run("report", "--paper-dataset", "--grid", "32", "--out", str(out)) == 0
    assert events.count("mkdir") == 1
    assert events.index("mkdir") == len(events) - 1
    assert events.count("json_text") == 6
    assert (out / "report.json").exists()


@pytest.mark.parametrize("kind", ["field", "table"])
def test_json_input_read_once(kind, tmp_path, monkeypatch):
    # A field or table JSON used to be opened and parsed twice per load.
    if kind == "field":
        data = RiskField(PUBLISHED_A, PUBLISHED_B).as_json_dict()
    else:
        data = {"concentrations": [0.4, 1.6, 2.9], "nodes": [1, 2, 3, 4, 5],
                "values": [[0, 1.1, 0.52, 0.31, 0.6], [0, 4.8, 2.1, 1.3, 2.4],
                           [0, 8.7, 3.9, 2.2, 4.1]]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    opened = []
    real_open = open

    def counted_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted_open)
    args = make_parser().parse_args(["fit", "--input", str(path)])
    field_obj, concentrations = cli._load_field(build_config(args))
    assert opened.count(str(path)) == 1
    if kind == "field":
        assert (field_obj.a, concentrations) == (PUBLISHED_A, ())
    else:
        assert concentrations == (0.4, 1.6, 2.9)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{", "input.json: invalid JSON: "),
        ('{"a": [1, 2], "b": [0, 0, 0, 0, 0], "domain": {"t": [1, 5], '
         '"c": [0.2, 3.5]}}', "input.json: a: expected a list of 5, got [1, 2]"),
        ('{"a": [1, 2, 3, 4, 5], "b": [0, 0, 0, 0, 0]}',
         "input.json: missing key 'domain'"),
        ('{"nodes": [1, 2, 3, 4, 5]}',
         "input.json: missing key 'concentrations'"),
        ('[1, 2]', "input.json: expected a JSON object, got [1, 2]"),
    ],
)
def test_bad_json_input_names_the_file(text, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert run("analyze", "--input", str(path), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_FIELD_DOC = RiskField(PUBLISHED_A, PUBLISHED_B).as_json_dict()
_TABLE_DOC = {"concentrations": [0.27, 2.43, 3.33], "nodes": [1, 2, 3, 4, 5],
              "values": [[0, 0.804, 0.342, 0.204, 0.388],
                         [0, 7.237, 3.077, 1.834, 3.49],
                         [0, 9.918, 4.216, 2.513, 4.783]]}
_PROFILE_ENTRY = {"group": "men", "age_min": 12, "age_max": 60,
                  "body_weight_kg": 73.44, "intake_g_per_month": 262.6,
                  "portions_per_month": 2.6, "concentration_mg_per_kg": 0.27,
                  "rfd": 0.0003, "substitution_fraction": 0.6037}


@pytest.mark.parametrize(
    "command, document, message",
    [
        ("fit", {**_FIELD_DOC, "a": "12345"},
         ": a: expected a list of 5, got '12345'"),
        ("fit", {**_FIELD_DOC, "b": [-0.04, True, -0.06, 0.007, 0.006]},
         ": b[1]: expected a number, got True"),
        ("fit", {**_FIELD_DOC, "note": 1}, ": unknown key 'note'"),
        ("fit", {**_TABLE_DOC, "concentrations": [0.27, "2.43", 3.33]},
         ": concentrations[1]: expected a number, got '2.43'"),
        ("fit", {**_TABLE_DOC, "nodes": "12345"},
         ": nodes: expected a list, got '12345'"),
        ("exposure", [{**_PROFILE_ENTRY, "age_min": True}],
         ", entry 0: age_min: expected a number, got True"),
        ("exposure", [{**_PROFILE_ENTRY, "group": 5}],
         ", entry 0: group: expected a string, got 5"),
        ("exposure", [{**_PROFILE_ENTRY, "note": 1}],
         ", entry 0: unknown key 'note'"),
    ],
    ids=["field-a-string", "field-b-true", "field-unknown-key",
         "table-concentration-string", "table-nodes-string",
         "profile-age-true", "profile-group-number", "profile-unknown-key"],
)
def test_json_input_values_are_type_checked(
    command, document, message, tmp_path, capsys
):
    # Input documents pass the config file's checks.  "12345" became
    # a = [1, 2, 3, 4, 5], true became 1.0, a string cell was parsed, an
    # age of true read as 1.0, a group of 5 became "5", and an unknown
    # key was ignored: each exited 0.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "out"
    assert run(command, "--input", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {path}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"levels": ["x"]}', "levels[0]: expected a number, got 'x'"),
        ('{"levels": 3}', "levels: expected a list, got 3"),
        ('{"domain": [1, 2, 3]}', "domain: expected a list of 4, got"),
        ('{"domain": "abcd"}', "domain: expected a list of 4, got"),
        ('{"threshold": null}', "threshold: expected a number, got None"),
        ('{"flow_starts": [[1]]}',
         "flow_starts[0]: expected a list of 2, got [1]"),
        ('{"out": 7}', "out: expected a string, got 7"),
        ('{"flow_step": "1e-3"}', "flow_step: expected a number, got '1e-3'"),
        ('{"paper_dataset": "no"}',
         "paper_dataset: expected true or false, got 'no'"),
        ('{"seed": -1}', "seed: expected an integer >= 0, got -1"),
        ('{"threshold": 1' + "0" * 400 + "}",
         "threshold: expected a number in the float range, got 1" + "0" * 400),
        ("[1, 2]", "config must be a JSON object"),
        ("{", "invalid JSON: "),
        ("\xff\xfe{", "invalid JSON: "),
    ],
    ids=[
        "levels-item", "levels-scalar", "domain-3", "domain-string",
        "threshold-null", "starts-short", "out-int", "step-string",
        "paper-dataset-string", "seed-negative", "threshold-huge-int", "not-object",
        "invalid-json", "invalid-utf8",
    ],
)
def test_bad_config_value_exit_2(text, message, tmp_path, monkeypatch, capsys):
    # The first seven raised a TypeError or IndexError (exit 1); a string
    # flow_step was parsed, "no" ran fit on the built-in dataset, a
    # negative seed failed in numpy without naming the setting, an integer
    # past the float range raised OverflowError (exit 1), and bytes that are
    # not UTF-8 gave a message without the file name.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MEHGRISK_OUT", raising=False)
    cfg = tmp_path / "c.json"
    cfg.write_bytes(text.encode("latin-1"))
    assert run("fit", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: {message}" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize(
    "command", ["fit", "analyze", "geometry", "flow", "exposure", "report"]
)
def test_defaults_declared_once(command, monkeypatch):
    monkeypatch.delenv("MEHGRISK_OUT", raising=False)
    assert build_config(make_parser().parse_args([command])) == RunConfig()


# Each flag's value as its text and as a JSON value.
FLAG_VALUES = {
    "paper_dataset": (None, True), "input": ("t.csv", "t.csv"),
    "domain": ("1,4,0.5,3", [1, 4, 0.5, 3]), "levels": ("1,2.5", [1, 2.5]),
    "threshold": ("2.5", 2.5), "grid": ("32", 32), "seed": ("7", 7),
    "out": ("d", "d"), "flow_starts": ("2,1,3,2", [[2, 1], [3, 2]]),
}


def test_flag_and_config_key_agree(tmp_path):
    flagged = [opt for opt in cli.OPTIONS.values() if opt.flag]
    assert {opt.key for opt in flagged} == FLAG_VALUES.keys()
    cfg = tmp_path / "c.json"
    for opt in flagged:
        text, value = FLAG_VALUES[opt.key]
        cfg.write_text(json.dumps({opt.key: value}))
        by_flag = build_config(make_parser().parse_args(
            ["report", opt.flag] + ([text] if text is not None else [])
        ))
        by_key = build_config(
            make_parser().parse_args(["report", "--config", str(cfg)])
        )
        assert by_flag == by_key != RunConfig(), opt.key


# A bad value of each setting whose flag parses its text: the flag's
# text, the same value in JSON, and the error's tail after the setting's
# name.  A switch or a string flag has no bad text.
BAD_VALUES = {
    "domain": ("1,inf,0.2,3.5", [1, math.inf, 0.2, 3.5],
               ": t_max: expected a finite number, got inf"),
    "levels": ("1,nan", [1, math.nan], "[1]: expected a finite number, got nan"),
    "threshold": ("inf", math.inf, ": expected a finite number, got inf"),
    "grid": ("2049", 2049, f": expected an integer in [16, {cli.MAX_GRID}], got 2049"),
    "seed": ("-1", -1, ": expected an integer >= 0, got -1"),
    "flow_starts": ("2,1,nan,1", [[2, 1], [math.nan, 1]],
                    "[1][0]: expected a finite number, got nan"),
}


@pytest.mark.parametrize(
    "opt", [opt for opt in cli.OPTIONS.values() if opt.parse], ids=lambda opt: opt.key
)
def test_bad_value_same_error_by_flag_key_and_run_config(opt, tmp_path, capsys):
    # Each setting is checked once: the flag, the config key and RunConfig
    # give the same error, each naming its source once.
    assert BAD_VALUES.keys() == {o.key for o in cli.OPTIONS.values() if o.parse}
    text, value, tail = BAD_VALUES[opt.key]
    out = tmp_path / "out"
    assert run("report", opt.flag, text, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {opt.flag}{tail}\n"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({opt.key: value}))
    assert run("report", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {opt.key}{tail}\n"
    assert not out.exists()
    # RunConfig takes the value as the program holds it: for a domain, the
    # Rectangle, which refuses the bound itself.
    with pytest.raises(ValueError) as err:
        RunConfig(**{opt.key: opt.read(value) if opt.read else value})
    assert str(err.value) == (tail[2:] if opt.key == "domain" else opt.key + tail)


def test_grid_bound(tmp_path, capsys):
    # Level curves allocate grid^2 nodes per array, so the bound is
    # checked before any work; nothing of that size is allocated here.
    message = f"expected an integer in [16, {cli.MAX_GRID}], got {cli.MAX_GRID + 1}"
    with pytest.raises(ValueError, match=re.escape(f"grid: {message}")):
        RunConfig(grid=cli.MAX_GRID + 1)
    assert RunConfig(grid=cli.MAX_GRID).grid == cli.MAX_GRID
    out = tmp_path / "out"
    assert run(
        "analyze", "--paper-dataset", "--grid", str(cli.MAX_GRID + 1),
        "--out", str(out),
    ) == 2
    assert f"--grid: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_flow_max_steps_bound(tmp_path, fresh_python):
    # Each kept sample holds about 176 B, so the bound is checked before
    # any work.  The built-in field's flows leave its domain within a few
    # thousand steps of the default size, so even a missing bound would
    # allocate nothing of the bound's size here.
    too_many = cli.MAX_FLOW_STEPS + 1
    message = (f"flow_max_steps: expected an integer in [1, {cli.MAX_FLOW_STEPS}], "
               f"got {too_many}")
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(flow_max_steps=too_many)
    assert RunConfig(flow_max_steps=cli.MAX_FLOW_STEPS).flow_max_steps == (
        cli.MAX_FLOW_STEPS
    )
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"flow_max_steps": too_many}))
    out = tmp_path / "out"
    proc = fresh_python(
        "-m", "mehgrisk", "flow", "--paper-dataset", "--config", str(cfg),
        "--out", str(out), seconds=30.0,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"{cfg}: {message}" in proc.stderr
    assert not out.exists()


def test_flow_default_starts_in_the_fields_domain(tmp_path):
    # The default starts used to be spread over the default domain, so a
    # field JSON on t in [1, 3] failed at the start (4.0, 1.025).
    data = RiskField(PUBLISHED_A, PUBLISHED_B).as_json_dict()
    data["domain"]["t"] = [1.0, 3.0]
    path = tmp_path / "field.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert run("flow", "--input", str(path), "--out", str(out)) == 0
    rows = read_json(out / "flow.json")["trajectories"]
    starts = [row["start"] for row in rows]
    assert len(starts) == 9 and max(t for t, _ in starts) == 2.5
