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
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import analysis, dynamics, exposure, geometry, svgplot
from .fieldfit import (
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
from .fieldfit import (   # the checks
    _arg, _boolean, _count, _finite, _integer, _list, _number, _path,
    _positive, _rectangle, _string,
)

ENV_OUT = "MEHGRISK_OUT"

MAX_GRID = 2048   # input validation: level curves take O(grid) memory per level
# Each kept flow sample costs about 176 B (a tuple of four floats and its
# slot), about 210 B while the trajectory is built, so 10^6 steps cap one
# trajectory near 200 MB.
MAX_FLOW_STEPS = 10**6
# The Monte Carlo cross-check streams about 1.1e8 samples a second on two
# threads of a 2-vCPU Xeon (7.8e7 on one), so 10^9 samples take about 9 s;
# 1e15 would run for months, in constant memory.
MAX_MC_SAMPLES = 10**9


@dataclass(frozen=True)
class RunConfig:
    use_paper_dataset: bool = False
    input_path: str | None = None
    domain: Rectangle | None = None   # None: the input's own domain
    levels: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)
    threshold: float = 1.0
    grid: int = 256
    seed: int = 0
    mc_samples: int = 10**6
    flow_starts: tuple[tuple[float, float], ...] = ()
    flow_step: float = 1e-3
    flow_max_steps: int = 20000
    output_dir: Path = Path("mehgrisk_out")

    def __post_init__(self) -> None:
        # Each checked field, named in an error by its config key.
        for key, check in (
            ("paper_dataset", _boolean),
            ("input", lambda v: None if v is None else _string(v)),
            ("domain", lambda v: None if v is None else _rectangle(v)),
            ("levels", _list(_finite)),
            ("threshold", _finite), ("grid", _count(16, MAX_GRID)),
            ("seed", _count(0)), ("samples", _count(1, MAX_MC_SAMPLES)),
            ("flow_starts", _list(_list(_finite, 2))),
            ("flow_step", _positive),
            ("flow_max_steps", _count(1, MAX_FLOW_STEPS)),
            ("out", _path),
        ):
            name = OPTIONS[key].field
            object.__setattr__(self, name, _arg(key, check, getattr(self, name)))
        if not self.levels:
            raise ValueError("levels must be nonempty")
        if self.use_paper_dataset and self.input_path:
            raise ValueError("choose either --paper-dataset or --input, not both")

    def require_source(self) -> None:
        if not self.use_paper_dataset and not self.input_path:
            raise ValueError("no dataset: pass --paper-dataset or --input PATH")


def _comma_numbers(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _comma_pairs(text: str) -> list[list[float]]:
    values = _comma_numbers(text)
    return [values[i:i + 2] for i in range(0, len(values), 2)]


@dataclass(frozen=True)
class Option:
    """A setting: its config key, RunConfig field and check; its flag, if
    any, with the parse of the flag's text into a JSON value (None: the
    text), help and commands (None: all).  A _boolean flag is a switch."""

    key: str
    field: str
    check: Callable
    flag: str | None = None
    parse: Callable[[str], object] | None = None
    help: str | None = None
    commands: tuple[str, ...] | None = None


OPTIONS = {opt.key: opt for opt in (
    Option("paper_dataset", "use_paper_dataset", _boolean, "--paper-dataset",
           help="use the built-in published survey dataset"),
    Option("input", "input_path", _string, "--input",
           help="input table/field/profile file"),
    Option("domain", "domain", lambda v: Rectangle(*_list(_number, 4)(v)),
           "--domain", _comma_numbers,
           "analysis rectangle as tmin,tmax,cmin,cmax"),
    Option("levels", "levels", _list(_number), "--levels", _comma_numbers,
           "contour levels L1,L2,..."),
    Option("threshold", "threshold", _number, "--threshold", float,
           "risk threshold"),
    Option("grid", "grid", _integer, "--grid", int, "contour grid resolution"),
    Option("seed", "seed", _integer, "--seed", int, "Monte Carlo seed"),
    Option("out", "output_dir", _string, "--out", help="output directory"),
    Option("flow_starts", "flow_starts", _list(_list(_number, 2)), "--starts",
           _comma_pairs, "flow start points t1,c1,t2,c2,...",
           ("flow", "report")),
    Option("samples", "mc_samples", _integer),
    Option("flow_step", "flow_step", _number),
    Option("flow_max_steps", "flow_max_steps", _integer),
)}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge MEHGRISK_OUT, the config file and the flags, a later source
    winning.  Each value is checked where it enters: a bad one raises
    ValueError naming the flag, or the config file and key."""
    given = [(OPTIONS["out"], os.environ.get(ENV_OUT, ""), ENV_OUT, None)]
    if args.config:
        data = read_json(args.config)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        for key, value in data.items():
            if key not in OPTIONS:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            given.append((OPTIONS[key], value, f"{args.config}: {key}", None))
    for opt in OPTIONS.values():
        text = opt.flag and getattr(args, opt.flag[2:].replace("-", "_"), None)
        if text is not None:
            given.append((opt, text, opt.flag, opt.parse))

    def check(opt: Option, parse, value):
        checked = opt.check(parse(value) if parse else value)
        if checked is not None:
            RunConfig(**{opt.field: checked})   # its range checks
        return checked

    values = {}
    for opt, value, where, parse in given:
        checked = _arg(where, partial(check, opt, parse), value)
        if checked is not None:
            values[opt.field] = checked
    return RunConfig(**values)


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
    data = read_json(path) if is_json else None
    table = None
    if path is None:
        field_obj, table = published_field(), survey_risk_table()
    elif isinstance(data, dict) and "a" in data and "b" in data:
        field_obj = from_json_data(RiskField.from_json_dict, data, path)
    else:
        table = (from_json_data(RiskTable.from_json_dict, data, path) if is_json
                 else RiskTable.from_csv(path))
        field_obj = from_json_data(build_field, table, path)
    if config.domain is not None:
        field_obj = field_obj.with_domain(config.domain)
    return field_obj, table.concentrations if table else ()


# What a command produces: JSON documents and writers of the other
# files (SVG, CSV), each keyed by its file name.
Output = tuple[dict[str, dict], dict[str, Callable[[Path], None]]]


def _texts(config: RunConfig, documents: dict) -> dict[str, str]:
    """Each document's JSON text.  A NaN or inf value fails, naming its
    file, before anything is written."""
    return {
        name: json_text(doc, config.output_dir / name)
        for name, doc in documents.items()
    }


def _write(config: RunConfig, texts: dict, writers: dict) -> None:
    """Make the output directory, write the texts, then run the writers.
    One that fails is an error naming its file, and removes what this run
    made: the files that were not there before, and the directories."""
    out = config.output_dir
    made = [path for path in (out, *out.parents) if not path.exists()]
    out.mkdir(parents=True, exist_ok=True)
    files = {name: partial(Path.write_text, data=text)
             for name, text in texts.items()} | writers
    new = [out / name for name in files if not (out / name).exists()]
    try:
        for name, write in files.items():
            write(out / name)
    except (ArithmeticError, ValueError, OSError) as exc:
        for path in new:
            path.unlink(missing_ok=True)
        for path in made:
            path.rmdir()
        raise ValueError(f"{out / name}: {exc}") from None


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
                "descending": r.format_descending(),
            }
        )
    return {
        "source": source,
        "field": field_obj.as_json_dict(),
        "slope_descending": field_obj.g.format_descending(),
        "intercept_descending": field_obj.h.format_descending(),
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
    # One level-curve pass per distinct level, the threshold included.
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


def cmd_geometry(config: RunConfig, field_obj: RiskField) -> Output:
    return {"geometry.json": geometry.build_geometry_report(field_obj)}, {
        "curvature.svg": partial(svgplot.curvature_profile_svg, field_obj),
    }


def cmd_flow(config: RunConfig, field_obj: RiskField) -> Output:
    # By default, a 3 x 3 grid of starts inside the field's domain.
    dom, fracs = field_obj.domain, (0.25, 0.5, 0.75)
    starts = config.flow_starts or [
        (dom.t_min + ft * (dom.t_max - dom.t_min),
         dom.c_min + fc * (dom.c_max - dom.c_min))
        for ft in fracs
        for fc in fracs
    ]
    trajectories = [
        dynamics.flow(
            field_obj, start, step=config.flow_step,
            max_steps=config.flow_max_steps,
        )
        for start in starts
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
    texts = _texts(config, documents)
    # A document's text, indented one level, is its text inside the bundle.
    members = (
        f'  "{key}": ' + texts[name][:-1].replace("\n", "\n  ")
        for key, name in _BUNDLE.items()
        if name in texts
    )
    text = "{\n" + ",\n".join(members) + "\n}\n"
    writers["report.json"] = partial(Path.write_text, data=text)
    _write(config, texts, writers)


@cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: building it costs more than
    parsing with it, and parsing leaves it as it was."""
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
        for opt in OPTIONS.values():
            if opt.flag and name in (opt.commands or commands):
                p.add_argument(
                    opt.flag, help=opt.help, default=None,
                    action="store_true" if opt.check is _boolean else "store",
                )
        p.add_argument("--config", help="JSON config file (flags win)")
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
            else:
                if args.command == "exposure":
                    documents, writers = cmd_exposure(config)
                elif args.command == "fit":
                    documents, writers = cmd_fit(config, *_load_field(config))
                else:
                    command = _FIELD_COMMANDS[args.command]
                    documents, writers = command(config, _load_field(config)[0])
                _write(config, _texts(config, documents), writers)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
