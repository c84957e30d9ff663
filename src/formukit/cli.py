"""Command-line entry point.

Subcommands: simulate, design, predict, store {ingest,list,retrieve}, bench,
eval. Configuration comes from an optional JSON file (--config) with flags
overriding it; the API key for live runs comes only from the environment.
All outputs land in a run-stamped subdirectory of the output directory.

Exit codes: 0 success (including non-converged designs); 2 ValidationError,
or an OSError or ValueError met reading a file; 3 TransportError; 4 ParseError.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time
import urllib.parse
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DuplicateTimeError, FormukitError, ParseError, TransportError, ValidationError
from .types import (
    DEFAULT_GEO_SIGMA,
    DEFAULT_N_BINS,
    DEFAULT_OUTPUT_GRID_HR,
    DEFAULT_START_D50_UM,
    FEATURE_NAMES,
    DissolutionConditions,
    DissolutionProfile,
    FormulationInput,
    LLMConfig,
    open_input,
    read_json,
)

if TYPE_CHECKING:                       # each command imports the modules it runs
    from .llm import LLMClient
    from .store import RecordStore

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TRANSPORT = 3
EXIT_PARSE = 4


def _from_json(kind, obj, where: str):
    """A ``kind`` dataclass whose fields are the keys of the JSON object ``obj``."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object, got {obj!r}")
    try:
        return kind(**obj)
    except TypeError as exc:                  # an unknown key, or a wrong-typed value met a check
        raise ValidationError(f"{where}: {exc}") from exc


@dataclass
class AppConfig:
    llm: LLMConfig = field(default_factory=LLMConfig)
    conditions: DissolutionConditions = field(default_factory=DissolutionConditions)
    store_path: str = "formukit_store.jsonl"
    output_dir: str = "formukit_out"
    seed: int = 0

    def __post_init__(self):
        seed = self.seed
        if type(seed) is bool or not isinstance(seed, (int, float)) or (
                isinstance(seed, float) and not seed.is_integer()):
            raise ValidationError(f"seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        if not (isinstance(self.store_path, str) and isinstance(self.output_dir, str)):
            raise ValidationError("store_path and output_dir must be strings")

    @classmethod
    def load(cls, path: str | None) -> "AppConfig":
        if path is None:
            return cls()
        obj = read_json(path)
        config = _from_json(cls, obj, path)        # its two sections are read next
        for name, kind in (("llm", LLMConfig), ("conditions", DissolutionConditions)):
            setattr(config, name, _from_json(kind, obj.get(name, {}), f"{path}: {name}"))
        return config


def _run_dir(config: AppConfig, args) -> Path:
    """A fresh run directory: --run-id must not name a non-empty one, and a
    taken default (timestamp) id gets a numeric suffix."""
    base = Path(config.output_dir)
    stamp = args.run_id or time.strftime("run-%Y%m%d-%H%M%S", time.gmtime())
    path = base / stamp
    if args.run_id and path.is_dir() and any(path.iterdir()):
        raise ValidationError(f"run directory {path} is not empty; pick another --run-id")
    for suffix in itertools.count(1):
        try:
            path.mkdir(parents=True, exist_ok=bool(args.run_id))
            return path
        except FileExistsError:
            path = base / f"{stamp}-{suffix}"


def _given(args, names) -> dict:
    """{name: value} for each of ``names`` whose flag (with that ``dest``) was given."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _load_features(args, required=("d50_um",)) -> dict[str, float]:
    """The --input file's features, overridden by the feature flags given."""
    from .store import read_features

    obj, where = {}, "the feature flags"
    if args.input:
        obj, where = read_json(args.input), f"input file {args.input}"
    return read_features(obj, where, required, given=_given(args, FEATURE_NAMES))


def _numbers(flag: str, text: str | None, count: int | None = None) -> tuple | None:
    """The numbers of ``flag``'s comma list, ``count`` of them if given; None if it is empty."""
    if not text:
        return None
    try:
        values = tuple(float(tok) for tok in text.split(","))
        if count in (None, len(values)):
            return values
    except ValueError:
        pass
    raise ValidationError(f"{flag} takes {count or 'only'} comma-separated numbers, got {text!r}")


def _write_profile_csv(path: Path, profile: DissolutionProfile) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time_hr", "released_pct"])
        writer.writerows([repr(t), repr(v)] for t, v in profile.points())


def _read_profile_file(path: str) -> DissolutionProfile:
    """A CSV profile, read as a columns/data table with the rows whose first cell is blank
    left out, or a file read as a model response (exit 4 without a table)."""
    from .prompts import parse_profile_response, profile_from_table

    try:
        with open_input(path) as fh:
            text = fh.read()
        if not path.endswith(".csv"):
            return parse_profile_response(text)
    except (DuplicateTimeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    header, *rows = list(csv.reader(text.splitlines())) or [[]]
    if header[:2] != ["time_hr", "released_pct"]:
        raise ValidationError(f"{path}: expected header time_hr,released_pct")
    return profile_from_table(
        {"columns": header, "data": [row for row in rows if not row or row[0].strip()]}, path)


def _emit_profile(out: Path, profile: DissolutionProfile) -> None:
    """Write profile.csv and profile.json to ``out`` and print the table."""
    from .prompts import render_profile_json

    _write_profile_csv(out / "profile.csv", profile)
    (out / "profile.json").write_text(render_profile_json(profile) + "\n", encoding="utf-8")
    print("time_hr,released_pct")
    for t, v in profile.points():
        print(f"{t:g},{v:.4f}")


def _open_store(config: AppConfig, args) -> RecordStore:
    from .store import RecordStore

    return RecordStore(getattr(args, "store", None) or config.store_path)


def cmd_simulate(config: AppConfig, args) -> int:
    from .dissolution import derived_metrics, psd_from_lognormal, simulate_dissolution

    features = FormulationInput(**_load_features(args))
    psd = psd_from_lognormal(features.d50_um, args.geo_sigma, args.n_bins)
    grid = _numbers("--grid", args.grid) or DEFAULT_OUTPUT_GRID_HR
    profile = simulate_dissolution(features.drug(), features.morphology(), psd,
                                   config.conditions, grid)
    out = _run_dir(config, args)
    if args.svg:
        from .svgplot import profile_overlay_svg

        (out / "profile.svg").write_text(
            profile_overlay_svg(None, {"simulated": profile}), encoding="utf-8")
    ssa, vol_eq = derived_metrics(psd, features.morphology(), features.drug())
    print(f"simulated release for d50={features.d50_um:g} um "
          f"(geo_sigma={args.geo_sigma:g}, {args.n_bins} bins); "
          f"derived SSA {ssa:.4g} m^2/g, vol-eq size {vol_eq:.4g} um")
    _emit_profile(out, profile)
    print(f"outputs: {out}")
    return EXIT_OK


def cmd_design(config: AppConfig, args) -> int:
    from .inverse import (DEFAULT_LOGNORMAL_BOUNDS, DesignSpec, LognormalParameterization,
                          design_psd, design_report)

    target = _read_profile_file(args.target)
    bounds = (_numbers("--d50-bounds", args.d50_bounds, 2) or DEFAULT_LOGNORMAL_BOUNDS[0],
              _numbers("--sigma-bounds", args.sigma_bounds, 2) or DEFAULT_LOGNORMAL_BOUNDS[1])
    features = FormulationInput(**{"d50_um": args.start_d50, **_load_features(args, ())})
    spec = DesignSpec(
        target=target,
        drug=features.drug(),
        morph=features.morphology(),
        conditions=config.conditions,
        parameterization=LognormalParameterization(args.start_d50, args.start_sigma,
                                                   n_bins=args.n_bins, bounds=bounds),
    )
    result = design_psd(spec, seed=config.seed, n_starts=args.n_starts)
    out = _run_dir(config, args)
    report = design_report(result, spec)
    payload = {
        "parameters": result.parameters,
        "d50_um": result.psd.d50_um,
        "residual_mse_pct2": result.residual_mse,
        "iterations": result.iterations,
        "converged": result.converged,
        "start_index": result.start_index,
        "achieved": [list(point) for point in result.achieved.points()],
    }
    (out / "design.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    (out / "design_report.txt").write_text(report, encoding="utf-8")
    _write_profile_csv(out / "achieved.csv", result.achieved)
    print(report)
    print(f"outputs: {out}")
    return EXIT_OK


def _run_dir_and_client(config: AppConfig, args, transcript: str) -> tuple[Path, LLMClient]:
    """The run directory and a client that records to its ``transcript`` file; the
    backend is built first, so that one which can make no call leaves no directory."""
    from .llm import LLMClient, TranscriptRecorder, make_backend

    backend = make_backend(args.backend, config.llm, replay_path=getattr(args, "replay", None),
                           conditions=config.conditions)
    out = _run_dir(config, args)
    return out, LLMClient(config=config.llm, backend=backend,
                          recorder=TranscriptRecorder(out / transcript),
                          seed=config.seed)


def _reject_unread(args, *flags) -> None:
    """ValidationError naming a flag given that the run would not read: --replay
    without --backend replay, or one of ``flags``, each (flag, value, read, reader)."""
    replay = ("--replay", args.replay, args.backend == "replay", "--backend replay")
    for flag, value, read, reader in (replay, *flags):
        if value is not None and not read:
            raise ValidationError(f"{flag} is read only with {reader}")


def _examples_for_predict(config: AppConfig, args, strategy, features: FormulationInput):
    if not strategy.needs_examples:
        return None
    if strategy.name == "RAG":
        store = _open_store(config, args)
        hits = store.retrieve(features, k=args.k)
        return [record for record, _ in hits]
    if args.examples:
        from .store import load_records

        return load_records(args.examples)
    raise ValidationError(f"strategy {args.strategy} requires --examples FILE")


def cmd_predict(config: AppConfig, args) -> int:
    from .prompts import STRATEGY_ALIASES, build_prompt, parse_profile_response, validate_profile

    if args.strategy not in STRATEGY_ALIASES:
        raise ValidationError(f"unknown strategy {args.strategy!r}")
    strategy = STRATEGY_ALIASES[args.strategy]
    _reject_unread(args, ("--examples", args.examples, strategy.name in ("FS", "FS_CoT"),
                          "the fs and fs-cot strategies"),
                   ("--store", args.store, strategy.name == "RAG", "the rag strategy"))
    features = FormulationInput(**_load_features(args))
    examples = _examples_for_predict(config, args, strategy, features)
    prompt = build_prompt(strategy, features, examples=examples)
    out, client = _run_dir_and_client(config, args, "transcript.jsonl")
    profile, report = parse_profile_response(client.complete(prompt).response, full_output=True)
    findings = validate_profile(profile)
    (out / "parse_report.json").write_text(json.dumps({
        "parse": report.to_dict(),
        "rule_findings": [{"rule": f.rule, "severity": f.severity, "message": f.message}
                          for f in findings],
    }, indent=2) + "\n", encoding="utf-8")
    print(f"strategy {strategy.value} via {args.backend} backend")
    _emit_profile(out, profile)
    for finding in findings:
        print(f"[{finding.severity}] {finding.rule}: {finding.message}")
    print(f"outputs: {out}")
    return EXIT_OK


def cmd_store_ingest(config: AppConfig, args) -> int:
    from .store import load_records

    store = _open_store(config, args)
    records = load_records(args.file)
    store.ingest(*records, overwrite=args.overwrite)
    print(f"ingested {len(records)} record(s) into {store.path} (store size {len(store)})")
    return EXIT_OK


def cmd_store_list(config: AppConfig, args) -> int:
    store = _open_store(config, args)
    print(f"{'id':<20} {'d50_um':>8} {'ssa_m2_g':>9} {'provenance':>12}  source")
    for record in store.records:
        print(f"{record.id:<20} {record.features.d50_um:>8g} "
              f"{record.features.ssa_m2_g:>9g} {record.provenance:>12}  {record.source}")
    print(f"{len(store)} record(s)")
    return EXIT_OK


def cmd_store_retrieve(config: AppConfig, args) -> int:
    store = _open_store(config, args)
    query = _given(args, FEATURE_NAMES)
    hits = store.retrieve(FormulationInput(**query), k=args.k, feature_subset=tuple(query))
    print(f"{'rank':<5} {'id':<20} {'score':>10} {'d50_um':>8}")
    for rank, (record, score) in enumerate(hits, start=1):
        print(f"{rank:<5} {record.id:<20} {score:>10.6f} {record.features.d50_um:>8g}")
    return EXIT_OK


def cmd_bench(config: AppConfig, args) -> int:
    from . import evaluate as ev
    from .store import load_records
    from .svgplot import profile_overlay_svg

    _reject_unread(args)
    dataset = load_records(args.dataset)
    # Each id names its SVG overlay's file (a record's id is XML 1.0 text, so UTF-8).
    overlays = {r.id: f"overlay_{urllib.parse.quote(r.id, safe='')}.svg" for r in dataset}
    for rec_id, name in overlays.items():
        if len(name) > 255:
            raise ValidationError(f"record id {rec_id!r} names no overlay: a file name takes "
                                  f"at most 255 bytes")
    store = _open_store(config, args) if args.store else None
    out, client = _run_dir_and_client(config, args, "transcripts.jsonl")
    result = ev.run_benchmark(dataset, client=client, store=store)
    (out / "report.txt").write_text(result.report.to_text(), encoding="utf-8")
    (out / "report.csv").write_text(result.report.to_csv(), encoding="utf-8")
    (out / "report.json").write_text(result.report.to_json(), encoding="utf-8")
    (out / "residuals.csv").write_text(result.residuals_csv(), encoding="utf-8")
    for rec_id, reference in result.references.items():
        curves = {s: result.predictions[s][rec_id]
                  for s in result.predictions if rec_id in result.predictions[s]}
        if curves:
            svg = profile_overlay_svg(reference, curves, title=f"record {rec_id}")
            (out / overlays[rec_id]).write_text(svg, encoding="utf-8")
    print(result.report.to_text())
    print(f"outputs: {out}")
    if all(not row.evaluable for row in result.report.rows):
        print("error: every strategy was unevaluable (all parses failed)", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def cmd_eval(config: AppConfig, args) -> int:
    reference = _read_profile_file(args.reference)
    predicted = _read_profile_file(args.predicted)
    from . import evaluate as ev                  # numpy loads only once both files are read

    pair = ev.align_profiles(reference, predicted)
    metrics = {"mse_pct2": ev.mse(pair), "r_squared": ev.r_squared(pair), "n": pair.n}
    out = _run_dir(config, args)
    (out / "eval.json").write_text(json.dumps(metrics, indent=2) + "\n", encoding="utf-8")
    print(f"MSE: {metrics['mse_pct2']:.6g} %^2")
    print(f"R^2: {metrics['r_squared']:.6g}")
    print(f"n:   {metrics['n']}")
    print(f"outputs: {out}")
    return EXIT_OK


def _command(sub, name: str, func, *, run_dir=True, **kwargs) -> argparse.ArgumentParser:
    """The parser of a subcommand that runs ``func``, with --config and, unless
    ``run_dir`` is false, the flags of the run directory it writes."""
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(func=func)
    parser.add_argument("--config", help="JSON config file")
    if run_dir:
        parser.add_argument("--output-dir", help="base directory for run outputs")
        parser.add_argument("--run-id", help="name of the run subdirectory (default: timestamp)")
    return parser


#: The feature flags, as (flag, field, help); each command adds the ones it reads.
FEATURE_FLAGS = (
    ("--d50", "d50_um", "mass-median particle size [um]"),
    ("--aspect-ratio", "aspect_ratio", "particle aspect ratio [-], >= 1"),
    ("--roundness", "roundness", "particle roundness [-], (0, 1]"),
    ("--solubility", "solubility_mg_ml", "drug solubility [mg/mL]"),
    ("--diffusivity", "diffusivity_m2_s", "diffusion coefficient [m^2/s]"),
    ("--density", "true_density_g_ml", "true density [g/mL]"),
    ("--ssa", "ssa_m2_g", "specific surface area [m^2/g]"),
    ("--vol-eq", "vol_eq_um", "volume-equivalent particle size [um]"),
)
#: The features the solver reads: the size, the shape and the drug.
SOLVER_FEATURES = ("d50_um", "aspect_ratio", "solubility_mg_ml", "diffusivity_m2_s",
                   "true_density_g_ml")


def _add_feature_flags(parser: argparse.ArgumentParser, names, required=()) -> None:
    for flag, name, text in FEATURE_FLAGS:
        if name in names:
            parser.add_argument(flag, dest=name, type=float, required=name in required, help=text)


def _add_input(parser: argparse.ArgumentParser, names) -> None:
    parser.add_argument("--input", help="formulation JSON file: any of the eight features by "
                        "canonical or verbatim key, bare or in an \"Input\" block; the feature "
                        "flags override it, and an unknown key exits 2")
    _add_feature_flags(parser, names)


def _add_condition_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--medium-volume", dest="medium_volume_ml", type=float,
                        help="dissolution medium volume [mL]")
    parser.add_argument("--dose", dest="dose_mg", type=float, help="drug dose [mg]")
    parser.add_argument("--rpm", dest="paddle_rpm", type=float, help="paddle speed [rev/min]")
    parser.add_argument("--velocity-factor", dest="velocity_factor", type=float,
                        help="fraction of paddle tip speed felt by particles [-]")
    # None when absent, so a config's sink_override stands
    parser.add_argument("--sink", dest="sink_override", action="store_true", default=None,
                        help="force sink conditions (C_b = 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formukit",
        description="Solid-dosage formulation toolkit: simulate release curves "
                    "[% vs hr], design particle size distributions [um], run "
                    "prompt strategies and benchmark them (MSE [%^2], R^2).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "simulate", cmd_simulate,
                 help="simulate a release curve from particle properties",
                 description="Simulate a release curve [% vs hr]; also prints the derived "
                             "SSA [m^2/g] and volume-equivalent size [um].")
    _add_input(p, SOLVER_FEATURES)
    _add_condition_flags(p)
    p.add_argument("--geo-sigma", type=float, default=DEFAULT_GEO_SIGMA,
                   help="geometric standard deviation of the log-normal PSD [-]")
    p.add_argument("--n-bins", type=int, default=DEFAULT_N_BINS, help="PSD bin count")
    p.add_argument("--grid", help="comma-separated output times [hr], e.g. 0,0.5,1")
    p.add_argument("--svg", action="store_true", help="also write an SVG plot")

    # no abbreviations, so a --d50 is not read as --d50-bounds
    p = _command(sub, "design", cmd_design, allow_abbrev=False,
                 help="inverse-design a PSD for a target release curve")
    _add_input(p, SOLVER_FEATURES[1:])                  # it starts from --start-d50
    _add_condition_flags(p)
    p.add_argument("--target", required=True,
                   help="target profile file (CSV time_hr,released_pct or JSON table)")
    p.add_argument("--start-d50", type=float, default=DEFAULT_START_D50_UM,
                   help="starting d50 [um]")
    p.add_argument("--start-sigma", type=float, default=DEFAULT_GEO_SIGMA,
                   help="starting geometric standard deviation [-]")
    p.add_argument("--d50-bounds", dest="d50_bounds", help="d50 bounds LO,HI [um]")
    p.add_argument("--sigma-bounds", dest="sigma_bounds", help="geo-sigma bounds LO,HI [-]")
    p.add_argument("--n-bins", type=int, default=DEFAULT_N_BINS, help="PSD bin count")
    p.add_argument("--n-starts", dest="n_starts", type=int, default=4,
                   help="number of optimizer starts")
    p.add_argument("--seed", type=int, help="seed for the random starts (default: config seed)")

    p = _command(sub, "predict", cmd_predict,
                 help="predict a release curve through an LLM backend")
    _add_input(p, FEATURE_NAMES)
    p.add_argument("--strategy", required=True,
                   help="zs | zs-cot | fs | fs-cot | rag")
    p.add_argument("--backend", default="mock", choices=("live", "mock", "replay"))
    p.add_argument("--examples", help="example records file for few-shot (JSONL or JSON)")
    p.add_argument("--store", help="record store for RAG retrieval (JSONL)")
    p.add_argument("--replay", help="transcript JSONL for the replay backend")
    p.add_argument("-k", type=int, default=3, help="retrieved examples for RAG")
    p.add_argument("--seed", type=int, help="seed for retry jitter (default: config seed)")

    p = sub.add_parser("store", help="manage the formulation record store")
    store_sub = p.add_subparsers(dest="store_cmd", required=True)
    ps = _command(store_sub, "ingest", cmd_store_ingest, run_dir=False,
                  help="ingest records from a file")
    ps.add_argument("--file", required=True, help="records file (JSONL canonical or JSON verbatim)")
    ps.add_argument("--store", help="store path (JSONL)")
    ps.add_argument("--overwrite", action="store_true", help="replace records with existing ids")
    ps = _command(store_sub, "list", cmd_store_list, run_dir=False, help="list store contents")
    ps.add_argument("--store", help="store path (JSONL)")
    ps = _command(store_sub, "retrieve", cmd_store_retrieve, run_dir=False,
                  help="retrieve nearest records")
    ps.add_argument("--store", help="store path (JSONL)")
    _add_feature_flags(ps, ("d50_um", "aspect_ratio", "roundness", "ssa_m2_g", "vol_eq_um"),
                       required=("d50_um",))
    ps.add_argument("-k", type=int, default=3, help="number of records to return")

    p = _command(sub, "bench", cmd_bench, help="run the five-strategy benchmark on a dataset")
    p.add_argument("--dataset", required=True,
                   help="measured records (JSONL canonical or JSON verbatim)")
    p.add_argument("--backend", default="mock", choices=("live", "mock", "replay"))
    p.add_argument("--replay", help="transcript JSONL for the replay backend")
    p.add_argument("--store", help="record store for RAG (defaults to the dataset)")
    p.add_argument("--seed", type=int, help="seed for retry jitter (default: config seed)")

    p = _command(sub, "eval", cmd_eval, help="MSE [%%^2] and R^2 between two profile files")
    p.add_argument("--reference", required=True, help="measured profile (CSV or JSON)")
    p.add_argument("--predicted", required=True, help="predicted profile (CSV or JSON)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = AppConfig.load(args.config)
        # the flags given override their config values, through the same checks
        config = replace(config, **_given(args, ("output_dir", "seed")), conditions=replace(
            config.conditions, **_given(args, (f.name for f in fields(DissolutionConditions)))))
        return args.func(config, args)
    except TransportError as exc:
        code, kind, message = EXIT_TRANSPORT, "transport error", str(exc)
    except ParseError as exc:
        code, kind, message = EXIT_PARSE, "parse error", str(exc)
    except (FormukitError, OSError, ValueError) as exc:
        code, kind, message = EXIT_USAGE, "error", str(exc)
    # one line, even where the message quotes a line break from the input
    print(f"{kind}: {message if message.isprintable() else repr(message)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
