"""Configuration-driven orchestration: prepare, tune, train, evaluate, report.

One INI file describes one experiment: where the raw interactions and
feature files live, how to preprocess them, which model to run with
which trainer and grid, and where artifacts go. Every command is a
function here; the CLI in cli.py is a thin argument layer over them.

LAYOUT states the file's layout once, for parse_config, config_to_dict
(so manifest.json) and serialize_config: each key belongs to one section,
and an unknown section or key is a ConfigError. A key left out takes its
default, which lives on the dataclasses alone.

Determinism contract: with a fixed config, fixed seeds and threads=1,
manifest, checkpoint, metrics and report bytes are identical across
runs. Wall-clock numbers are quarantined in timings.json and trace.tsv
so the deterministic artifacts stay byte-comparable.
"""

import configparser
import io
import json
import math
import os
import resource
import string
import time
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

from . import __version__
from . import dataset as ds
from . import evaluation as ev
from . import training as tr
from .modality import (MISSING_POLICIES, MODALITIES, FeatureFormatError,
                       MissingFeatureError, MultimodalStore, load_features)
from .models import (
    MODEL_TAGS,
    ModelConfig,
    ModelData,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
# unused here; perfbench/spans.py and a test patch train_loop by this name
from .schema import train_loop  # noqa: F401

METRIC_LABELS = {"recall": "Recall", "ndcg": "nDCG", "efd": "EFD",
                 "gini": "Gini", "aplt": "APLT", "icov": "iCov"}


class ConfigError(ValueError):
    """Experiment configuration is malformed or references missing files."""


@dataclass
class ExperimentConfig:
    interactions: str
    features: dict               # modality -> path, ${VARS} unresolved
    model: ModelConfig
    trainer: tr.TrainerConfig = field(default_factory=tr.TrainerConfig)
    missing_policy: str = "error"
    kcore: int = 5
    train_ratio: float = 0.8
    split_seed: int = 0
    grid_lrs: tuple = tr.DEFAULT_GRID_LRS
    grid_regs: tuple = tr.DEFAULT_GRID_REGS
    cutoffs: tuple = (10, 20)
    out_dir: str = "runs/experiment"
    grid: tr.GridSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.features:
            raise ConfigError("at least one modality feature file required")
        for m in sorted(self.features):
            if m not in MODALITIES:
                raise ConfigError(f"[data] feature.{m}: unknown modality {m!r}, "
                                  f"expected one of {MODALITIES}")
        if self.missing_policy not in MISSING_POLICIES:
            raise ConfigError(
                f"missing policy {self.missing_policy!r} not in {MISSING_POLICIES}"
            )
        if self.kcore < 1:
            raise ConfigError(f"kcore must be >= 1, got {self.kcore}")
        if not 0.0 < self.train_ratio < 1.0:
            raise ConfigError(f"train_ratio must be in (0, 1), got {self.train_ratio}")
        self.cutoffs = tuple(int(k) for k in self.cutoffs)
        if not self.cutoffs or any(k < 1 for k in self.cutoffs):
            raise ConfigError(f"cutoffs must be positive, got {self.cutoffs}")
        self.grid_lrs = tuple(float(x) for x in self.grid_lrs)
        self.grid_regs = tuple(float(x) for x in self.grid_regs)
        try:
            self.grid = tr.GridSpec(lrs=self.grid_lrs, regs=self.grid_regs)
        except ValueError as exc:
            raise ConfigError(f"[grid]: {exc}") from None
        self.features = dict(self.features)
        if "$" in self.out_dir:
            raise ConfigError(
                "environment substitution applies to data paths only; "
                f"output dir {self.out_dir!r} must be literal (or use --out)"
            )


def resolve_path(raw: str) -> str:
    """Expand ${VAR} references from the environment."""
    try:
        return string.Template(raw).substitute(os.environ)
    except KeyError as exc:
        raise ConfigError(
            f"path {raw!r} references unset environment variable {exc}"
        ) from None


def validate_paths(config: ExperimentConfig):
    """Every referenced input file must exist before any work starts."""
    paths = {"interactions": resolve_path(config.interactions)}
    for m, p in sorted(config.features.items()):
        paths[f"features[{m}]"] = resolve_path(p)
    for label, path in paths.items():
        if not os.path.isfile(path):
            raise ConfigError(f"{label}: no such file {path!r}")


# ------------------------------------------------------------ serialization

def _format_value(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list):
        return ", ".join(_format_value(x) for x in v)
    if v is None:
        return "none"
    return str(v)


def _csv(cast):
    return lambda text: tuple(cast(x) for x in text.split(","))


def _parse_float(text):
    if not math.isfinite(value := float(text)):
        raise ConfigError(f"expected a finite number, got {text.strip()!r}")
    return value


_parse_floats = _csv(_parse_float)


# a dataclass field's parser by its type; the one tuple, modality_weights, may be none
_PARSERS = {int: int, float: _parse_float, str: str,
            tuple: lambda text: None if text.lower() == "none" else _parse_floats(text)}


def _fields_of(cls, skip=()):
    """[section] keys of a dataclass: its fields but `skip`, parsed by type."""
    hints = typing.get_type_hints(cls)
    return {f.name: (f.name, _PARSERS[hints[f.name]]) for f in fields(cls)
            if f.name not in skip}


# The INI layout in file order: section -> key -> (field, parser of the
# text), the field being ExperimentConfig's or, in a _NESTED section, its
# dataclass's. "features" is no key: [data] holds one feature.<m> per modality.
_NESTED = {"model": ModelConfig, "trainer": tr.TrainerConfig}
LAYOUT = {
    "data": {"interactions": ("interactions", str),
             "features": ("features", None),
             "missing": ("missing_policy", str)},
    "prepare": {"kcore": ("kcore", int), "train_ratio": ("train_ratio", _parse_float),
                "seed": ("split_seed", int)},
    "model": _fields_of(ModelConfig),
    # grid_search sets lr and reg per grid point: [grid] alone states them
    "trainer": _fields_of(tr.TrainerConfig, skip=("lr", "reg")),
    "grid": {"lrs": ("grid_lrs", _parse_floats), "regs": ("grid_regs", _parse_floats)},
    "evaluation": {"cutoffs": ("cutoffs", _csv(int))},
    "output": {"dir": ("out_dir", str)},
}


def serialize_config(config: ExperimentConfig) -> str:
    """Render config_to_dict to INI text; parse_config inverts this exactly."""
    cp = configparser.ConfigParser()
    for name, section in config_to_dict(config).items():
        if name == "data":  # one key per modality: feature.<m> = path
            section.update((f"feature.{m}", path)
                           for m, path in section.pop("features").items())
        cp[name] = {key: _format_value(v) for key, v in section.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_config(text: str) -> ExperimentConfig:
    """The config of INI text laid out as LAYOUT says. A key that is absent
    takes its dataclass default; an unknown section or key, or a value
    that does not parse, is a ConfigError naming the section and the key."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config syntax: {exc}") from None
    given = {"features": {}, **{section: {} for section in _NESTED}}
    for section in cp.sections():
        if section not in LAYOUT:
            raise ConfigError(f"config has unknown section [{section}]")
        into = given[section] if section in _NESTED else given
        for key, value in cp[section].items():
            if section == "data" and key.startswith("feature."):
                given["features"][key.split(".", 1)[1]] = value
                continue
            name, parse = LAYOUT[section].get(key, (None, None))
            if parse is None:
                raise ConfigError(f"[{section}] has unknown key {key!r}")
            try:
                into[name] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    if "interactions" not in given:
        raise ConfigError("[data] needs an interactions path")
    for section, cls in _NESTED.items():
        try:
            given[section] = cls(**given[section])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}]: {exc}") from None
    return ExperimentConfig(**given)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _plain(v):
    """A config value as JSON holds it: tuples as lists, dicts by key."""
    if isinstance(v, dict):
        return dict(sorted(v.items()))
    return list(v) if isinstance(v, tuple) else v


def config_to_dict(config: ExperimentConfig) -> dict:
    """Every LAYOUT section with every key's value, as manifest.json holds it."""
    body = {}
    for section, keys in LAYOUT.items():
        owner = getattr(config, section) if section in _NESTED else config
        body[section] = {key: _plain(getattr(owner, name))
                         for key, (name, _) in keys.items()}
    return body


# ------------------------------------------------------------ pipeline steps

class StageClock:
    """Wall seconds per named stage, summed over the stage's runs."""

    def __init__(self):
        self.seconds = {}

    def run(self, stage, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[stage] = (self.seconds.get(stage, 0.0)
                                   + time.perf_counter() - start)


def prepare_split(config: ExperimentConfig, clock: StageClock) -> ds.Split:
    try:
        log = clock.run("parse", ds.parse_interactions,
                        resolve_path(config.interactions))
        indexed = clock.run("index", ds.index_log, log)
        dataset = clock.run("kcore", ds.k_core_filter, indexed, config.kcore)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return clock.run("split", ds.holdout_split, dataset, seed=config.split_seed,
                     train_ratio=config.train_ratio)


def load_store(config: ExperimentConfig, split: ds.Split,
               clock: StageClock) -> MultimodalStore:
    bound, paths = [], {}
    for m, raw in sorted(config.features.items()):
        paths[m] = path = resolve_path(raw)
        try:
            bound.append(clock.run("load_features", load_features, path, modality=m))
        except FeatureFormatError as exc:
            raise ConfigError(f"feature file {path!r}: {exc}") from None
    try:
        return clock.run("bind", MultimodalStore, split.dataset.item_ids, bound,
                         missing=config.missing_policy)
    except MissingFeatureError as exc:
        raise ConfigError(f"feature files {paths}: {exc.args[0]}") from None


def cmd_prepare(config: ExperimentConfig):
    """Filter, split, bind features; write split TSVs and stats JSON.

    prepared/timings.json holds each stage's wall seconds, the process's
    peak RSS so far and the minor page faults taken here, apart from the
    deterministic artifacts.
    """
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    validate_paths(config)
    clock = StageClock()
    split = prepare_split(config, clock)
    store = load_store(config, split, clock)
    prepared = os.path.join(config.out_dir, "prepared")
    clock.run("write", ds.write_split, split, prepared)
    ds.write_json(os.path.join(prepared, "stats.json"), asdict(ds.stats(split.dataset)))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    ds.write_json(os.path.join(prepared, "timings.json"), {
        "seconds": clock.seconds, "peak_rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
        "minor_faults": usage.ru_minflt - faults})
    return split, store


def cmd_tune(config: ExperimentConfig, split: ds.Split,
             store: MultimodalStore, run_dir, threads=1) -> tr.GridResult:
    """Grid-search lr x reg, selecting by validation Recall@20; writes tune.json."""
    mdata = ModelData.from_split(split, store)
    tdata = tr.TrainData.from_split(split)
    eval_fn = ev.recall_eval_fn(split, "validation", k=20, threads=threads)
    result = tr.grid_search(partial(build_model, config.model, mdata),
                            config.grid, tdata, config.trainer, eval_fn)
    os.makedirs(run_dir, exist_ok=True)
    ds.write_json(os.path.join(run_dir, "tune.json"), {
        "best": _selection(result),
        "table": [{"config_index": i, "lr": lr, "reg": reg,
                   "epoch": epoch, "value": value}
                  for i, lr, reg, epoch, value in result.table]})
    return result


def _selection(chosen: tr.GridResult) -> dict:
    """The grid winner as tune.json's "best" and manifest.json's "chosen"."""
    return {"lr": chosen.lr, "reg": chosen.reg,
            "config_index": chosen.config_index,
            "best_epoch": chosen.best_epoch, "best_value": chosen.best_value}


def cmd_train(config: ExperimentConfig, split: ds.Split, run_dir,
              chosen: tr.GridResult):
    """Write manifest, trace, timings and checkpoint of the grid's winner.

    `chosen` hands over the winning grid run's model and TrainResult, which
    are written as they are: retraining that configuration with the same
    seed would repeat the run exactly, so nothing trains here. timings.json
    holds the winner's training seconds and minor page faults, and the
    seconds spent building the tuned models' kNN item graphs (0 for a model
    without one).
    """
    model, result = chosen.model, chosen.result
    # wall-clock numbers go to timings.json, so manifest bytes stay reproducible
    os.makedirs(run_dir, exist_ok=True)
    ds.write_json(os.path.join(run_dir, "manifest.json"), {
        "config": config_to_dict(config), "seed": config.trainer.seed,
        "version": __version__, "stats": asdict(ds.stats(split.dataset)),
        "chosen": _selection(chosen)})
    ds.write_json(os.path.join(run_dir, "timings.json"),
                  {"train_seconds": result.seconds, "epochs": len(result.trace),
                   "train_minor_faults": result.minor_faults,
                   "graph_seconds": model.data.graph_seconds})
    lines = ["epoch\tloss\tval_recall20\tseconds\n"]
    for row in result.trace:
        val = "" if row.val_metric is None else f"{row.val_metric:.6f}"
        lines.append(f"{row.epoch}\t{row.loss:.6f}\t{val}\t{row.seconds:.6f}\n")
    ds.write_text(os.path.join(run_dir, "trace.tsv"), "".join(lines))
    save_checkpoint(model, os.path.join(run_dir, "checkpoint"))
    return model, result


def cmd_evaluate(config: ExperimentConfig, split: ds.Split,
                 store: MultimodalStore, run_dir, model=None, threads=1):
    """Score the test part and write metrics, recommendations, and a report."""
    if model is None:
        mdata = ModelData.from_split(split, store)
        model = build_model(config.model, mdata, seed=config.trainer.seed)
        try:
            load_checkpoint(model, os.path.join(run_dir, "checkpoint"))
        except ValueError as exc:  # the INI no longer describes the trained model
            raise ConfigError(f"{run_dir}: {exc}") from None
    report, ranking = ev.evaluate_model(
        model, split, part="test", cutoffs=config.cutoffs, threads=threads)
    os.makedirs(run_dir, exist_ok=True)
    values = {f"{metric}@{k}": report.get(metric, k)
              for k in config.cutoffs for metric in ev.METRIC_ORDER}
    body = {"tag": config.model.tag, "cutoffs": list(config.cutoffs),
            "values": values}
    ds.write_json(os.path.join(run_dir, "metrics.json"), body)
    ds.write_text(os.path.join(run_dir, "metrics.tsv"), "metric\tk\tvalue\n" + "".join(
        f"{metric}\t{k}\t{report.get(metric, k)!r}\n"
        for k in config.cutoffs for metric in ev.METRIC_ORDER))
    ev.write_recommendations_tsv(
        ranking, os.path.join(run_dir, "recommendations.tsv"))
    md, _ = render_report([(config.model.tag, report)], config.cutoffs)
    ds.write_text(os.path.join(run_dir, "report.md"), md)
    return report


def check_trained_split(config: ExperimentConfig, run_dir):
    """ConfigError unless run_dir was trained on the split config prepares."""
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        raise ConfigError(f"{path} is missing: train the run before evaluating it")
    with open(path, encoding="utf-8") as fh:
        trained = json.load(fh)["config"]["prepare"]
    for key, value in config_to_dict(config)["prepare"].items():
        if trained.get(key) != value:
            raise ConfigError(f"{run_dir} was trained with [prepare] {key} = "
                              f"{trained.get(key)!r}, not {value!r}")


def run_dir(config: ExperimentConfig) -> str:
    """The directory of config's model run: out_dir/<model tag>."""
    return os.path.join(config.out_dir, config.model.tag)


def _run_model(config: ExperimentConfig, split, store, threads):
    """tune -> write the winner -> evaluate, one model.

    The grid's winning model lives only until this returns, so the next
    model's grid never runs beside it.
    """
    out = run_dir(config)
    chosen = cmd_tune(config, split, store, out, threads=threads)
    model, _ = cmd_train(config, split, out, chosen)
    return cmd_evaluate(config, split, store, out, model=model,
                        threads=threads)


def run_single(config: ExperimentConfig, threads=1):
    """prepare -> tune -> checkpoint the winner -> evaluate, one model."""
    split, store = cmd_prepare(config)
    return _run_model(config, split, store, threads)


def cmd_benchmark(config: ExperimentConfig, models=None, threads=1):
    """Run the roster over one prepared split and emit the combined report.
    models=None runs every model; a roster names each of its models once."""
    roster = MODEL_TAGS if models is None else tuple(models)
    if not roster:
        raise ConfigError("model roster is empty")
    for at, tag in enumerate(roster):
        if tag not in MODEL_TAGS:
            raise ConfigError(f"unknown model tag {tag!r} in roster")
        if tag in roster[:at]:
            raise ConfigError(f"model tag {tag!r} repeated in roster")
    split, store = cmd_prepare(config)
    rows = []
    for tag in roster:
        run_cfg = replace(config, model=replace(config.model, tag=tag))
        rows.append((tag, _run_model(run_cfg, split, store, threads)))
    md, tsv = render_report(rows, config.cutoffs)
    ds.write_text(os.path.join(config.out_dir, "report.md"), md)
    ds.write_text(os.path.join(config.out_dir, "report.tsv"), tsv)
    return rows


def cmd_report(run_dirs, out_path=None) -> str:
    """Merge per-run metrics.json files into one comparison table."""
    if not run_dirs:
        raise ConfigError("report needs at least one run directory")
    rows, cutoffs = [], None
    for d in run_dirs:
        path = os.path.join(d, "metrics.json")
        if not os.path.isfile(path):
            raise ConfigError(f"{d!r} has no metrics.json")
        with open(path, encoding="utf-8") as fh:
            body = json.load(fh)
        these = tuple(body["cutoffs"])
        if cutoffs is None:
            cutoffs = these
        elif these != cutoffs:
            raise ConfigError(
                f"conflicting cutoff sets: {cutoffs} vs {these} in {d!r}"
            )
        report = ev.MetricReport()
        for key, value in body["values"].items():
            metric, k = key.rsplit("@", 1)
            report.set(metric, int(k), value)
        rows.append((body["tag"], report))
    md, _ = render_report(rows, cutoffs)
    if out_path is not None:
        ds.write_text(out_path, md)
    return md


# ------------------------------------------------------------------ reports

def _format_metric(metric, value):
    return f"{value:.2f}" if metric == "icov" else f"{value:.4f}"


def render_report(rows, cutoffs):
    """Markdown and TSV tables, metrics grouped per cutoff.

    Columns follow accuracy-then-beyond-accuracy order. With two or more
    rows the best value per column is boldfaced and the second best
    underlined (ties share the marker).
    """
    cutoffs = tuple(cutoffs)
    columns = [(metric, k) for k in cutoffs for metric in ev.METRIC_ORDER]
    header = "| Model | " + " | ".join(
        f"{METRIC_LABELS[m]}@{k}" for m, k in columns) + " |"
    rule = "|---" * (len(columns) + 1) + "|"
    mark = {}
    if len(rows) > 1:
        for col in columns:
            vals = sorted({report.get(*col) for _, report in rows},
                          reverse=True)
            mark[col] = (vals[0], vals[1] if len(vals) > 1 else None)
    lines = [header, rule]
    tsv_lines = ["model\tmetric\tk\tvalue"]
    for label, report in rows:
        cells = []
        for metric, k in columns:
            v = report.get(metric, k)
            s = _format_metric(metric, v)
            if mark:
                best, second = mark[(metric, k)]
                if v == best:
                    s = f"**{s}**"
                elif second is not None and v == second:
                    s = f"<u>{s}</u>"
            cells.append(s)
            tsv_lines.append(f"{label}\t{metric}\t{k}\t{v!r}")
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n", "\n".join(tsv_lines) + "\n"


def audit_run_dir(run_dir) -> list:
    """Names of required artifacts missing from a completed run directory."""
    required = (
        "manifest.json",
        "trace.tsv",
        os.path.join("checkpoint", "checkpoint.json"),
        "metrics.json",
        "recommendations.tsv",
        "report.md",
    )
    return [name for name in required
            if not os.path.isfile(os.path.join(run_dir, name))]
