"""Command-line front end.

Subcommands cover the full pipeline: fit (build or load the field),
analyze (integrals, region, certificate, level curves), geometry
(curvature and critical ages), flow (gradient trajectories), exposure
(survey risk verdicts) and report (everything, bundled).  All numeric
output is JSON with sorted keys and no timestamps, so identical inputs
and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, dynamics, exposure, geometry, svgplot
from .fieldfit import (
    DEFAULT_DOMAIN,
    Rectangle,
    RiskField,
    RiskTable,
    build_field,
    from_json_data,
    json_text,
    published_field,
    read_json,
    survey_risk_table,
)

ENV_OUT = "MEHGRISK_OUT"

DEFAULT_LEVELS = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)

_CONFIG_KEYS = {
    "paper_dataset", "input", "domain", "levels", "threshold", "grid",
    "seed", "out", "samples", "flow_starts", "flow_step", "flow_max_steps",
}


@dataclass(frozen=True)
class RunConfig:
    use_paper_dataset: bool = False
    input_path: str | None = None
    domain: Rectangle = DEFAULT_DOMAIN
    domain_overridden: bool = False
    levels: tuple[float, ...] = DEFAULT_LEVELS
    threshold: float = 1.0
    grid: int = 256
    seed: int = 0
    mc_samples: int = 10**6
    flow_starts: tuple[tuple[float, float], ...] = ()
    flow_step: float = 1e-3
    flow_max_steps: int = 20000
    output_dir: Path = dc_field(default_factory=lambda: Path("mehgrisk_out"))

    def __post_init__(self) -> None:
        if self.grid < 16:
            raise ValueError("grid must be at least 16")
        if not self.levels:
            raise ValueError("levels must be nonempty")
        if not all(math.isfinite(level) for level in self.levels):
            raise ValueError("levels must be finite")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if not (math.isfinite(self.flow_step) and self.flow_step > 0):
            raise ValueError("flow_step must be finite and positive")
        if self.flow_max_steps < 1:
            raise ValueError("flow_max_steps must be at least 1")
        if self.mc_samples < 1:
            raise ValueError("samples must be at least 1")
        if not all(math.isfinite(x) for start in self.flow_starts for x in start):
            raise ValueError("flow starts must be finite")
        if self.use_paper_dataset and self.input_path:
            raise ValueError("choose either --paper-dataset or --input, not both")

    def require_source(self) -> None:
        if not self.use_paper_dataset and not self.input_path:
            raise ValueError("no dataset: pass --paper-dataset or --input PATH")

    def default_flow_starts(self) -> tuple[tuple[float, float], ...]:
        if self.flow_starts:
            return self.flow_starts
        dom = self.domain
        fracs = (0.25, 0.5, 0.75)
        return tuple(
            (
                dom.t_min + ft * (dom.t_max - dom.t_min),
                dom.c_min + fc * (dom.c_max - dom.c_min),
            )
            for ft in fracs
            for fc in fracs
        )


def _parse_floats(text: str, expected: int | None, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated numbers, got {text!r}")
    if expected is not None and len(values) != expected:
        raise ValueError(f"{what}: expected {expected} values, got {len(values)}")
    return values


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid config JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config key {sorted(unknown)[0]!r}")
    return data


def _config_int(merged: dict, key: str, default: int) -> int:
    """An integer setting; 256.0 counts as 256, while 2.7 or "2" is refused."""
    value = merged.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{key}: expected an integer, got {value!r}")


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file and flags; flags win."""
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    if args.paper_dataset:
        merged["paper_dataset"] = True
    if args.input is not None:
        merged["input"] = args.input
    if args.domain is not None:
        merged["domain"] = list(_parse_floats(args.domain, 4, "--domain"))
    if args.levels is not None:
        merged["levels"] = list(_parse_floats(args.levels, None, "--levels"))
    if args.threshold is not None:
        merged["threshold"] = args.threshold
    if args.grid is not None:
        merged["grid"] = args.grid
    if args.seed is not None:
        merged["seed"] = args.seed
    if args.out is not None:
        merged["out"] = args.out
    starts = getattr(args, "starts", None)
    if starts is not None:
        pairs = _parse_floats(starts, None, "--starts")
        if len(pairs) % 2 != 0:
            raise ValueError("--starts: expected t,c pairs")
        merged["flow_starts"] = [
            [pairs[i], pairs[i + 1]] for i in range(0, len(pairs), 2)
        ]

    domain = DEFAULT_DOMAIN
    overridden = False
    if "domain" in merged:
        d = merged["domain"]
        domain = Rectangle(d[0], d[1], d[2], d[3])
        overridden = True
    out_dir = merged.get("out") or os.environ.get(ENV_OUT) or "mehgrisk_out"
    return RunConfig(
        use_paper_dataset=bool(merged.get("paper_dataset", False)),
        input_path=merged.get("input"),
        domain=domain,
        domain_overridden=overridden,
        levels=tuple(merged.get("levels", DEFAULT_LEVELS)),
        threshold=float(merged.get("threshold", 1.0)),
        grid=_config_int(merged, "grid", 256),
        seed=_config_int(merged, "seed", 0),
        mc_samples=_config_int(merged, "samples", 10**6),
        flow_starts=tuple(
            (float(p[0]), float(p[1])) for p in merged.get("flow_starts", ())
        ),
        flow_step=float(merged.get("flow_step", 1e-3)),
        flow_max_steps=_config_int(merged, "flow_max_steps", 20000),
        output_dir=Path(out_dir),
    )


def _input_file(config: RunConfig) -> tuple[Path | None, bool]:
    """The input file and whether it is JSON; (None, False) for the
    built-in dataset.  A missing source or file raises ValueError."""
    config.require_source()
    if config.use_paper_dataset:
        return None, False
    path = Path(config.input_path)
    if not path.exists():
        raise ValueError(f"{path}: no such file")
    return path, path.suffix.lower() == ".json"


def _load_field(config: RunConfig) -> tuple[RiskField, tuple[float, ...]]:
    """The field to analyse and the concentrations of the table it was
    fitted to; a field JSON comes with no table, so with none."""
    path, is_json = _input_file(config)
    if path is None:
        field_obj = published_field().with_domain(config.domain)
        return field_obj, survey_risk_table().concentrations
    if is_json:
        data = read_json(path)
        if isinstance(data, dict) and "a" in data and "b" in data:
            field_obj = from_json_data(
                RiskField.from_json_dict, data, path, "field"
            )
            if config.domain_overridden:
                field_obj = field_obj.with_domain(config.domain)
            return field_obj, ()
        table = from_json_data(RiskTable.from_json_dict, data, path, "table")
    else:
        table = RiskTable.from_csv(path)
    return build_field(table, config.domain), table.concentrations


# What a command produces: JSON documents and writers of the other
# files (SVG, CSV), each keyed by its file name.
Output = tuple[dict[str, dict], dict[str, Callable[[Path], None]]]


def _write(
    config: RunConfig, documents: dict, writers: dict
) -> dict[str, str]:
    """Encode every document, then make the output directory, write the
    documents and run the writers; return the documents' texts.  A NaN or
    inf value fails, naming its file, before anything is written."""
    out = config.output_dir
    texts = {
        name: json_text(doc, out / name) for name, doc in documents.items()
    }
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
    for name, write in writers.items():
        write(out / name)
    return texts


def _fit_report(
    config: RunConfig, field_obj: RiskField, concentrations: tuple[float, ...]
) -> dict:
    if config.use_paper_dataset:
        source = "builtin"
    else:
        source = Path(config.input_path).name
    per_conc = []
    for conc in concentrations:
        r = field_obj.g * conc + field_obj.h   # R(t, conc), a quartic in t
        per_conc.append(
            {
                "concentration": conc,
                "coefficients": list(r.coefficients),
                "descending": r.format_descending("t"),
            }
        )
    return {
        "source": source,
        "field": field_obj.as_json_dict(),
        "slope_descending": field_obj.g.format_descending("t"),
        "intercept_descending": field_obj.h.format_descending("t"),
        "per_concentration": per_conc,
    }


def cmd_fit(
    config: RunConfig, field_obj: RiskField, concentrations: tuple[float, ...]
) -> Output:
    return {
        "field.json": field_obj.as_json_dict(),
        "fit_report.json": _fit_report(config, field_obj, concentrations),
    }, {}


def cmd_analyze(config: RunConfig, field_obj: RiskField) -> Output:
    # One marching-squares pass per distinct level, the threshold included.
    wanted = tuple(dict.fromkeys(config.levels + (config.threshold,)))
    sets = analysis.level_curves(field_obj, levels=wanted, grid=config.grid)
    by_level = dict(zip(wanted, sets))
    curves = [by_level[level] for level in config.levels]
    report = analysis.build_analysis_report(
        field_obj,
        curves,
        threshold=config.threshold,
        seed=config.seed,
        mc_samples=config.mc_samples,
    )
    return {"analysis.json": report}, {
        "contours.svg": partial(svgplot.contour_plot_svg, field_obj, curves),
        "region.svg": partial(
            svgplot.region_plot_svg, field_obj, config.threshold,
            by_level[config.threshold],
        ),
    }


def _geometry_search(config: RunConfig) -> tuple[float, float]:
    if config.domain_overridden:
        return (config.domain.t_min, config.domain.t_max)
    return geometry.DEFAULT_SEARCH


def cmd_geometry(config: RunConfig, field_obj: RiskField) -> Output:
    search = _geometry_search(config)
    report = geometry.build_geometry_report(field_obj, search=search)
    zero_stages = tuple(z["stage"] for z in report["zero_loci"])
    return {"geometry.json": report}, {
        "curvature.svg": partial(
            svgplot.curvature_profile_svg, field_obj, search=search,
            zero_stages=zero_stages,
        ),
    }


def cmd_flow(config: RunConfig, field_obj: RiskField) -> Output:
    trajectories = [
        dynamics.flow(
            field_obj, start, step=config.flow_step,
            max_steps=config.flow_max_steps,
        )
        for start in config.default_flow_starts()
    ]
    summary = []
    for traj in trajectories:
        first = traj.samples[0]
        last = traj.samples[-1]
        summary.append(
            {
                "start": [first[1], first[2]],
                "end": [last[1], last[2]],
                "steps": len(traj.samples) - 1,
                "tau_end": last[0],
                "risk_start": first[3],
                "risk_end": last[3],
                "exit_reason": traj.exit_reason,
            }
        )
    writers = {
        f"flow_{idx:02d}.csv": partial(dynamics.write_trajectory_csv, traj)
        for idx, traj in enumerate(trajectories)
    }
    writers["flow.svg"] = partial(
        svgplot.flow_portrait_svg, field_obj, trajectories
    )
    return {"flow.json": {"step": config.flow_step, "trajectories": summary}}, writers


def _exposure_records(config: RunConfig) -> list[exposure.ProfileRecord]:
    path, is_json = _input_file(config)
    if path is None:
        return exposure.survey_profiles()
    if is_json:
        return exposure.load_profiles_json(path)
    return exposure.load_profiles_csv(path)


def _write_exposure_csv(rows: list[dict], path: Path) -> None:
    """exposure.csv: the rows of exposure.json, in its column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(
                [
                    row["group"], f"{row['age_min']:g}", f"{row['age_max']:g}",
                    f"{row['concentration_mg_per_kg']:g}",
                    f"{row['exposure_mg_per_kg_day']:.9g}",
                    f"{row['risk_coefficient']:.6g}",
                    "yes" if row["acceptable"] else "no",
                ]
            )


def cmd_exposure(config: RunConfig) -> Output:
    rows = []
    for rec in _exposure_records(config):
        e = exposure.exposure(rec.profile)
        verdict = exposure.risk_coefficient(e, rec.profile.reference_dose)
        rows.append(
            {
                "group": rec.group,
                "age_min": rec.age_min,
                "age_max": rec.age_max,
                "concentration_mg_per_kg": rec.profile.concentration,
                "exposure_mg_per_kg_day": e,
                "risk_coefficient": verdict.risk_coefficient,
                "acceptable": verdict.acceptable,
            }
        )
    return {"exposure.json": {"rows": rows}}, {
        "exposure.csv": partial(_write_exposure_csv, rows),
    }


# report.json's keys, sorted, and the files whose documents they hold.
_BUNDLE = {"analysis": "analysis.json", "exposure": "exposure.json",
           "fit": "fit_report.json", "flow": "flow.json",
           "geometry": "geometry.json"}


def cmd_report(config: RunConfig) -> None:
    """Write every command's files, then report.json, which bundles the
    JSON documents."""
    field_obj, concentrations = _load_field(config)
    outputs = [
        cmd_fit(config, field_obj, concentrations),
        cmd_analyze(config, field_obj),
        cmd_geometry(config, field_obj),
        cmd_flow(config, field_obj),
    ]
    if config.use_paper_dataset:
        outputs.append(cmd_exposure(config))
    documents: dict = {}
    writers: dict = {}
    for docs, files in outputs:
        documents |= docs
        writers |= files
    texts = _write(config, documents, writers)
    # A document's text, indented one level, is its text inside the bundle.
    members = (
        f'  "{key}": ' + texts[name][:-1].replace("\n", "\n  ")
        for key, name in _BUNDLE.items()
        if name in texts
    )
    text = "{\n" + ",\n".join(members) + "\n}\n"
    (config.output_dir / "report.json").write_text(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--paper-dataset", action="store_true",
        help="use the built-in published survey dataset",
    )
    parser.add_argument("--input", help="input table/field/profile file")
    parser.add_argument(
        "--domain", help="analysis rectangle as tmin,tmax,cmin,cmax"
    )
    parser.add_argument("--levels", help="contour levels L1,L2,...")
    parser.add_argument("--threshold", type=float, help="risk threshold")
    parser.add_argument("--grid", type=int, help="contour grid resolution")
    parser.add_argument("--seed", type=int, help="Monte Carlo seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--config", help="JSON config file (flags win)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mehgrisk",
        description="Methylmercury dietary risk field toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "fit": "build the risk field from a hazard-quotient table",
        "analyze": "mean risk, critical region, certificate, level curves",
        "geometry": "surface curvature and zero-curvature critical ages",
        "flow": "integrate gradient-flow trajectories",
        "exposure": "per-group exposure and risk verdicts",
        "report": "run the full pipeline and bundle all outputs",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name in ("flow", "report"):
            p.add_argument(
                "--starts", help="flow start points t1,c1,t2,c2,..."
            )
    return parser


# Commands that take the loaded field alone.
_FIELD_COMMANDS = {
    "analyze": cmd_analyze,
    "geometry": cmd_geometry,
    "flow": cmd_flow,
}


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        # numpy's overflow warnings are noise: _write refuses every NaN or
        # inf they leave, naming its file, before the first write.
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "report":
                cmd_report(config)
            elif args.command == "exposure":
                _write(config, *cmd_exposure(config))
            elif args.command == "fit":
                _write(config, *cmd_fit(config, *_load_field(config)))
            else:
                command = _FIELD_COMMANDS[args.command]
                _write(config, *command(config, _load_field(config)[0]))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
