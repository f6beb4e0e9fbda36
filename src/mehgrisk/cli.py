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
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from . import analysis, dynamics, exposure, geometry, svgplot
from .fieldfit import (
    DEFAULT_DOMAIN,
    Rectangle,
    RiskField,
    RiskTable,
    build_field,
    published_field,
    survey_risk_table,
    write_json,
)
from .polynomial import Polynomial

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
        grid=int(merged.get("grid", 256)),
        seed=int(merged.get("seed", 0)),
        mc_samples=int(merged.get("samples", 10**6)),
        flow_starts=tuple(
            (float(p[0]), float(p[1])) for p in merged.get("flow_starts", ())
        ),
        flow_step=float(merged.get("flow_step", 1e-3)),
        flow_max_steps=int(merged.get("flow_max_steps", 20000)),
        output_dir=Path(out_dir),
    )


def _load_field(config: RunConfig) -> RiskField:
    config.require_source()
    if config.use_paper_dataset:
        return published_field().with_domain(config.domain)
    path = Path(config.input_path)
    if not path.exists():
        raise ValueError(f"{path}: no such file")
    if path.suffix.lower() == ".json":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: invalid JSON: {exc}") from None
        if isinstance(data, dict) and "a" in data and "b" in data:
            loaded = RiskField.from_json(path)
            if config.domain_overridden:
                loaded = loaded.with_domain(config.domain)
            return loaded
        table = RiskTable.from_json(path)
    else:
        table = RiskTable.from_csv(path)
    return build_field(table, config.domain)


def _out_dir(config: RunConfig) -> Path:
    config.output_dir.mkdir(parents=True, exist_ok=True)
    return config.output_dir


def _fit_report(config: RunConfig, field_obj: RiskField) -> dict:
    g = field_obj.concentration_slope()
    h = field_obj.concentration_intercept()
    per_conc = []
    if config.use_paper_dataset:
        source = "builtin"
        table = survey_risk_table()
        concs = table.concentrations
    else:
        source = Path(config.input_path).name
        concs = ()
        path = Path(config.input_path)
        if path.suffix.lower() != ".json":
            concs = RiskTable.from_csv(path).concentrations
    for conc in concs:
        coeffs = tuple(
            ak * conc + bk for ak, bk in zip(field_obj.a, field_obj.b)
        )
        per_conc.append(
            {
                "concentration": conc,
                "coefficients": list(coeffs),
                "descending": Polynomial(coeffs).format_descending("t"),
            }
        )
    return {
        "source": source,
        "field": field_obj.as_json_dict(),
        "slope_descending": g.format_descending("t"),
        "intercept_descending": h.format_descending("t"),
        "per_concentration": per_conc,
    }


def cmd_fit(config: RunConfig) -> dict:
    field_obj = _load_field(config)
    out = _out_dir(config)
    field_obj.to_json(out / "field.json")
    report = _fit_report(config, field_obj)
    write_json(report, out / "fit_report.json")
    return report


def cmd_analyze(config: RunConfig) -> dict:
    field_obj = _load_field(config)
    out = _out_dir(config)
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
    write_json(report, out / "analysis.json")
    svgplot.contour_plot_svg(field_obj, curves, out / "contours.svg")
    boundary = by_level[config.threshold]
    svgplot.region_plot_svg(
        field_obj, config.threshold, boundary, out / "region.svg"
    )
    return report


def _geometry_search(config: RunConfig) -> tuple[float, float]:
    if config.domain_overridden:
        return (config.domain.t_min, config.domain.t_max)
    return geometry.DEFAULT_SEARCH


def cmd_geometry(config: RunConfig) -> dict:
    field_obj = _load_field(config)
    out = _out_dir(config)
    search = _geometry_search(config)
    report = geometry.build_geometry_report(field_obj, search=search)
    write_json(report, out / "geometry.json")
    svgplot.curvature_profile_svg(
        field_obj,
        out / "curvature.svg",
        search=search,
        zero_stages=tuple(z["stage"] for z in report["zero_loci"]),
    )
    return report


def cmd_flow(config: RunConfig) -> dict:
    field_obj = _load_field(config)
    out = _out_dir(config)
    starts = config.default_flow_starts()
    trajectories = []
    summary = []
    for idx, start in enumerate(starts):
        traj = dynamics.flow(
            field_obj, start, step=config.flow_step,
            max_steps=config.flow_max_steps,
        )
        trajectories.append(traj)
        dynamics.write_trajectory_csv(traj, out / f"flow_{idx:02d}.csv")
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
    svgplot.flow_portrait_svg(field_obj, trajectories, out / "flow.svg")
    report = {"step": config.flow_step, "trajectories": summary}
    write_json(report, out / "flow.json")
    return report


def _exposure_records(config: RunConfig) -> list[exposure.ProfileRecord]:
    config.require_source()
    if config.use_paper_dataset:
        return exposure.survey_profiles()
    path = Path(config.input_path)
    if not path.exists():
        raise ValueError(f"{path}: no such file")
    if path.suffix.lower() == ".json":
        return exposure.load_profiles_json(path)
    return exposure.load_profiles_csv(path)


def cmd_exposure(config: RunConfig) -> dict:
    records = _exposure_records(config)
    out = _out_dir(config)
    rows = []
    for rec in records:
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
    report = {"rows": rows}
    write_json(report, out / "exposure.json")
    with open(out / "exposure.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [
            "group", "age_min", "age_max", "concentration_mg_per_kg",
            "exposure_mg_per_kg_day", "risk_coefficient", "acceptable",
        ]
        writer.writerow(header)
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
    return report


def cmd_report(config: RunConfig) -> dict:
    fit = cmd_fit(config)
    analyze = cmd_analyze(config)
    geom = cmd_geometry(config)
    flow_report = cmd_flow(config)
    bundle: dict = {
        "fit": fit,
        "analysis": analyze,
        "geometry": geom,
        "flow": flow_report,
    }
    if config.use_paper_dataset:
        bundle["exposure"] = cmd_exposure(config)
    write_json(bundle, _out_dir(config) / "report.json")
    return bundle


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


_DISPATCH = {
    "fit": cmd_fit,
    "analyze": cmd_analyze,
    "geometry": cmd_geometry,
    "flow": cmd_flow,
    "exposure": cmd_exposure,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        _DISPATCH[args.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
