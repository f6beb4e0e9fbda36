"""The bundle comparator: equal text, keys and integers; floats to a tolerance."""

from __future__ import annotations

import json

import pytest

from bundle_compare import compare_bundles, main


def bundle(path, analysis: dict, svg: str = '<svg><path d="M 1.50 2"/></svg>\n',
           indent: int | None = None):
    """A bundle of analysis.json, compact or indented, and plot.svg."""
    path.mkdir()
    (path / "analysis.json").write_text(json.dumps(
        analysis, sort_keys=True, indent=indent,
        separators=(",", ": ") if indent else (",", ":")) + "\n")
    (path / "plot.svg").write_text(svg)
    return path


BASE = {"area": 12.5, "method": "reduction", "samples": 10,
        "levels": [{"polylines": [[1.0, 2.0], [3.0, 4.0]]}]}


def test_identical_bundles_agree(tmp_path, capsys):
    # Equal documents, then the old one indented and the new one compact:
    # the comparator reads values, not the whitespace between them.
    for indent in (None, 2):
        old = bundle(tmp_path / f"old-{indent}", BASE, indent=indent)
        new = bundle(tmp_path / f"new-{indent}", BASE)
        texts = {(path / "analysis.json").read_text() for path in (old, new)}
        assert len(texts) == (1 if indent is None else 2)
        assert main([str(old), str(new), "--rel-tol", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 float keys differ, 3 are equal" in out
        assert "MISMATCH" not in out


def test_float_within_tolerance_is_reported_per_key(tmp_path, capsys):
    changed = json.loads(json.dumps(BASE))
    changed["area"] = 12.5 * (1 + 1e-11)
    changed["levels"][0]["polylines"][1][0] = 3.0 * (1 + 4e-12)
    old = bundle(tmp_path / "old", BASE)
    new = bundle(tmp_path / "new", changed)
    assert main([str(old), str(new), "--rel-tol", "1e-9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("analysis.json.area: 1e-11 (12.5 -> ")
    assert lines[2].startswith("analysis.json.levels[].polylines[][]: 4e-12 (3.0 -> ")
    assert lines[3] == "2 float keys differ, 1 are equal"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(area=12.5 * (1 + 1e-6)), "analysis.json.area: 12.5 vs"),
        (lambda d: d.update(method="monte_carlo"), "analysis.json.method: 'reduction'"),
        (lambda d: d.update(samples=11), "analysis.json.samples: 10 vs 11"),
        (lambda d: d.update(samples=10.0), "analysis.json.samples: 10 vs 10.0"),
        (lambda d: d.pop("samples"), "analysis.json: keys"),
        (lambda d: d["levels"][0]["polylines"].pop(), "analysis.json.levels[].polylines[]: length 2 vs 1"),
    ],
    ids=["float", "string", "integer", "integer-to-float", "key", "length"],
)
def test_json_mismatches(edit, message, tmp_path):
    changed = json.loads(json.dumps(BASE))
    edit(changed)
    result = compare_bundles(bundle(tmp_path / "old", BASE),
                             bundle(tmp_path / "new", changed))
    assert len(result.mismatches) == 1
    assert result.mismatches[0].startswith(message), result.mismatches


@pytest.mark.parametrize(
    "svg, rel_tol, ok",
    [
        ('<svg><path d="M 1.5000000000001 2"/></svg>\n', 1e-9, True),
        ('<svg><path d="M 1.6 2"/></svg>\n', 1e-9, False),
        ('<svg><path d="M 1.5 3"/></svg>\n', 1e-9, False),
        ('<svg><path d="L 1.5 2"/></svg>\n', 1e-9, False),
        ('<svg><path d="M 1.51 2"/></svg>\n', 0.0, True),
        ('<svg><path d="M 1.52 2"/></svg>\n', 0.0, False),
    ],
    ids=["float-within", "float-beyond", "integer", "text",
         "two-places-within", "two-places-beyond"],
)
def test_text_files_compare_numbers_and_text(svg, rel_tol, ok, tmp_path):
    # The old bundle's SVG prints 1.50.
    result = compare_bundles(bundle(tmp_path / "old", BASE),
                             bundle(tmp_path / "new", BASE, svg), rel_tol)
    assert (not result.mismatches) == ok, result.mismatches


def test_missing_file_fails(tmp_path, capsys):
    old = bundle(tmp_path / "old", BASE)
    new = bundle(tmp_path / "new", BASE)
    (new / "plot.svg").unlink()
    assert main([str(old), str(new)]) == 1
    assert "MISMATCH plot.svg: only in one bundle" in capsys.readouterr().out


def test_text_that_does_not_line_up_reports_both_number_counts(tmp_path):
    # A polyline that lost a vertex: its coordinates no longer pair up.
    result = compare_bundles(
        bundle(tmp_path / "old", BASE, '<svg><polyline points="1,2 3,4 5,6"/></svg>\n'),
        bundle(tmp_path / "new", BASE, '<svg><polyline points="1,2 5,6"/></svg>\n'))
    assert result.mismatches == [
        "plot.svg: text differs outside its numbers (6 numbers vs 4)"]
