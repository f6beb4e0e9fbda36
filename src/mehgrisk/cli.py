"""Command-line front end.

Subcommands cover the full pipeline: fit (build or load the field),
analyze (integrals, region, certificate, level curves), geometry
(curvature and critical ages), flow (gradient trajectories), exposure
(survey risk verdicts) and report (everything, bundled).  All numeric
output is compact JSON with sorted keys, one line and a newline, and no
timestamps, so identical inputs and seed give byte-identical files;
`python -m json.tool FILE` prints one indented.  report.json holds each
other JSON file's text unchanged under its key.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections.abc import Callable
from contextlib import suppress
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
    _arg, _boolean, _count, _expected, _finite, _integer, _list, _number,
    _path, _positive, _rectangle, _string,
)

ENV_OUT = "MEHGRISK_OUT"

MAX_GRID = 2048   # input validation: level curves take O(grid) memory per level
# Each kept flow sample is one float64 row of 32 B, about 89 B at peak
# while the trajectory is built (tracemalloc), so 10^6 steps cap one
# trajectory near 32 MB, 89 MB at peak.
MAX_FLOW_STEPS = 10**6
# The Monte Carlo cross-check streams about 1.1e8 samples a second on two
# threads of a 2-vCPU Xeon (7.8e7 on one), so 10^9 samples take about 9 s;
# 1e15 would run for months, in constant memory.
MAX_MC_SAMPLES = 10**9


@dataclass(frozen=True)
class RunConfig:
    """The settings of a run, each field named by its config key and
    checked by its Option."""

    paper_dataset: bool = False
    input: str | None = None
    domain: Rectangle | None = None   # None: the input's own domain
    levels: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)
    threshold: float = 1.0
    grid: int = 256
    seed: int = 0
    samples: int = analysis.MC_SAMPLES
    flow_starts: tuple[tuple[float, float], ...] = ()
    flow_step: float = dynamics.FLOW_STEP
    flow_max_steps: int = 20000
    out: Path = Path("mehgrisk_out")

    def __post_init__(self) -> None:
        for key, opt in OPTIONS.items():
            object.__setattr__(self, key, _arg(key, opt.check, getattr(self, key)))
        if self.paper_dataset and self.input:
            raise ValueError("choose either --paper-dataset or --input, not both")


def _flag_number(text: str):
    """A flag's text as an int, else a float, else as text for its check to refuse."""
    for parse in (int, float):
        with suppress(ValueError):
            return parse(text)
    return text


def _comma_numbers(text: str) -> list:
    return [_flag_number(x) for x in text.split(",")]


def _comma_pairs(text: str) -> list[list]:
    values = _comma_numbers(text)
    return [values[i:i + 2] for i in range(0, len(values), 2)]


def _unset_or(check: Callable) -> Callable:
    """check, with None let through as unset."""
    return lambda value: None if value is None else check(value)


def _levels(value) -> tuple[float, ...]:
    levels = _list(_finite)(value)
    if not levels:
        raise _expected("a nonempty list", value)
    return levels


@dataclass(frozen=True)
class Option:
    """A setting: its config key, which names its RunConfig field, and the
    check of its value; its flag, if any, with the parse of the flag's
    text into a JSON value (None: the text), help and commands (None:
    all).  A _boolean flag is a switch.  read, if given, first turns a
    JSON value into one the check takes, or into None for unset."""

    key: str
    check: Callable
    flag: str | None = None
    parse: Callable[[str], object] | None = None
    help: str | None = None
    commands: tuple[str, ...] | None = None
    read: Callable | None = None


OPTIONS = {opt.key: opt for opt in (
    Option("paper_dataset", _boolean, "--paper-dataset",
           help="use the built-in published survey dataset"),
    Option("input", _unset_or(_string), "--input",
           help="input table/field/profile file", read=_string),
    Option("domain", _unset_or(_rectangle), "--domain", _comma_numbers,
           "analysis rectangle as tmin,tmax,cmin,cmax",
           read=lambda v: Rectangle(*_list(_number, 4)(v))),
    Option("levels", _levels, "--levels", _comma_numbers,
           "contour levels L1,L2,..."),
    Option("threshold", _finite, "--threshold", _flag_number, "risk threshold"),
    Option("grid", _count(16, MAX_GRID), "--grid", _flag_number,
           "contour grid resolution", read=_integer),
    Option("seed", _count(0), "--seed", _flag_number, "Monte Carlo seed",
           read=_integer),
    Option("out", _path, "--out", help="output directory", read=_string),
    Option("flow_starts", _list(_list(_finite, 2)), "--starts", _comma_pairs,
           "flow start points t1,c1,t2,c2,...", ("flow", "report")),
    Option("samples", _count(1, MAX_MC_SAMPLES), read=_integer),
    Option("flow_step", _positive),
    Option("flow_max_steps", _count(1, MAX_FLOW_STEPS), read=_integer),
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
        if parse:
            value = parse(value)
        if opt.read:
            value = opt.read(value)
            if value is None:   # "": unset
                return None
        return opt.check(value)

    values = {}
    for opt, value, where, parse in given:
        checked = _arg(where, partial(check, opt, parse), value)
        if checked is not None:
            values[opt.key] = checked
    return RunConfig(**values)


def _input_file(config: RunConfig) -> tuple[Path | None, bool]:
    """The input file and whether it is JSON; (None, False) for the
    built-in dataset.  A missing source or file raises ValueError."""
    if config.paper_dataset:
        return None, False
    if not config.input:
        raise ValueError("no dataset: pass --paper-dataset or --input PATH")
    path = Path(config.input)
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
        field_obj = _arg("domain", field_obj.with_domain, config.domain)
    return field_obj, table.concentrations if table else ()


# What a command produces: JSON documents and writers of the other
# files (SVG, CSV), each keyed by its file name.
Output = tuple[dict[str, dict], dict[str, Callable[[Path], None]]]


def _texts(config: RunConfig, documents: dict) -> dict[str, str]:
    """Each document's JSON text.  A NaN or inf value fails, naming its
    file, before anything is written."""
    return {
        name: json_text(doc, config.out / name)
        for name, doc in documents.items()
    }


def _write(config: RunConfig, texts: dict, writers: dict) -> None:
    """Make the output directory, write the texts, then run the writers.
    One that fails is an error naming its file, and removes what this run
    made: the files that were not there before, and the directories."""
    out = config.out
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
    source = "builtin" if config.paper_dataset else Path(config.input).name
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
        mc_samples=config.samples,
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
        first, last = traj.samples[[0, -1]].tolist()
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
        verdict = exposure.profile_risk(rec.profile)
        rows.append(
            {
                "group": rec.group,
                "age_min": rec.age_min,
                "age_max": rec.age_max,
                "concentration_mg_per_kg": rec.profile.concentration,
                "exposure_mg_per_kg_day": verdict.exposure,
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
    if config.paper_dataset:
        outputs.append(cmd_exposure(config))
    documents: dict = {}
    writers: dict = {}
    for docs, files in outputs:
        documents |= docs
        writers |= files
    texts = _texts(config, documents)
    # A document's text, without its newline, is its text inside the bundle.
    members = (f'"{key}":{texts[name][:-1]}'
               for key, name in _BUNDLE.items() if name in texts)
    text = "{" + ",".join(members) + "}\n"
    writers["report.json"] = partial(Path.write_text, data=text)
    _write(config, texts, writers)


# Each command's help and run.  A run looks its cmd_ function up in the
# module when it is called, so a wrapper set on the module is what runs.
# It returns the command's Output, but report writes its own files.
COMMANDS = {
    "fit": ("build the risk field from a hazard-quotient table",
            lambda config: cmd_fit(config, *_load_field(config))),
    "analyze": ("mean risk, critical region, certificate, level curves",
                lambda config: cmd_analyze(config, _load_field(config)[0])),
    "geometry": ("surface curvature and zero-curvature critical ages",
                 lambda config: cmd_geometry(config, _load_field(config)[0])),
    "flow": ("integrate gradient-flow trajectories",
             lambda config: cmd_flow(config, _load_field(config)[0])),
    "exposure": ("per-group exposure and risk verdicts",
                 lambda config: cmd_exposure(config)),
    "report": ("run the full pipeline and bundle all outputs",
               lambda config: cmd_report(config)),
}


@cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: building it costs more than
    parsing with it, and parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="mehgrisk",
        description="Methylmercury dietary risk field toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for opt in OPTIONS.values():
            if opt.flag and name in (opt.commands or COMMANDS):
                p.add_argument(
                    opt.flag, help=opt.help, default=None,
                    action="store_true" if opt.check is _boolean else "store",
                )
        p.add_argument("--config", help="JSON config file (flags win)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        # numpy's overflow warnings are noise: _write refuses every NaN or
        # inf they leave, naming its file, before the first write.
        with np.errstate(over="ignore", invalid="ignore"):
            output = COMMANDS[args.command][1](config)
            if output is not None:
                _write(config, _texts(config, output[0]), output[1])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
