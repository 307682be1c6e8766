"""Configuration-driven orchestration: prepare, tune, train, evaluate, report.

One INI file describes one experiment: where the raw interactions and
feature files live, how to preprocess them, which model to run with
which trainer and grid, and where artifacts go. Every command is a
function here; the CLI in cli.py is a thin argument layer over them.

Determinism contract: with a fixed config, fixed seeds and threads=1,
manifest, checkpoint, metrics and report bytes are identical across
runs. Wall-clock numbers are quarantined in timings.json and trace.tsv
so the deterministic artifacts stay byte-comparable.
"""

import configparser
import io
import json
import os
import string
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

from . import __version__
from . import dataset as ds
from . import evaluation as ev
from . import training as tr
from .modality import MISSING_POLICIES, MultimodalStore, load_features
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

DEFAULT_CUTOFFS = (10, 20)
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
    cutoffs: tuple = DEFAULT_CUTOFFS
    out_dir: str = "runs/experiment"
    grid: tr.GridSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.features:
            raise ConfigError("at least one modality feature file required")
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
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ", ".join(_format_value(x) for x in v)
    if v is None:
        return "none"
    return str(v)


def _parse_typed(text, ftype):
    text = text.strip()
    if ftype is bool:
        if text.lower() not in ("true", "false"):
            raise ConfigError(f"expected true/false, got {text!r}")
        return text.lower() == "true"
    if ftype is int:
        return int(text)
    if ftype is float:
        return float(text)
    return text


_SCALARS = {"int": int, "float": float, "bool": bool, "str": str}


def _field_type(f):
    """Scalar type of a dataclass field, tolerant of string annotations."""
    if isinstance(f.type, str):
        return _SCALARS.get(f.type)
    return f.type if f.type in (int, float, bool, str) else None


def serialize_config(config: ExperimentConfig) -> str:
    """Render to INI text; parse_config inverts this exactly."""
    cp = configparser.ConfigParser()
    cp["data"] = {"interactions": config.interactions,
                  "missing": config.missing_policy}
    for m in sorted(config.features):
        cp["data"][f"feature.{m}"] = config.features[m]
    cp["prepare"] = {
        "kcore": str(config.kcore),
        "train_ratio": repr(config.train_ratio),
        "seed": str(config.split_seed),
    }
    cp["model"] = {
        f.name: _format_value(getattr(config.model, f.name))
        for f in fields(ModelConfig)
    }
    cp["trainer"] = {
        f.name: _format_value(getattr(config.trainer, f.name))
        for f in fields(tr.TrainerConfig)
    }
    cp["grid"] = {"lrs": _format_value(config.grid_lrs),
                  "regs": _format_value(config.grid_regs)}
    cp["evaluation"] = {"cutoffs": _format_value(config.cutoffs)}
    cp["output"] = {"dir": config.out_dir}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config syntax: {exc}") from None
    for section in ("data", "model"):
        if section not in cp:
            raise ConfigError(f"config is missing the [{section}] section")
    data = cp["data"]
    if "interactions" not in data:
        raise ConfigError("[data] needs an interactions path")
    features = {key.split(".", 1)[1]: value
                for key, value in data.items() if key.startswith("feature.")}

    def value(section, key, parse, default=None):
        """[section] key through parse, or default when absent; a value that
        does not parse is a ConfigError naming the section and the key."""
        if section not in cp or key not in cp[section]:
            return default
        try:
            return parse(cp[section][key])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None

    def csv(cast):
        return lambda text: tuple(cast(x) for x in text.split(","))

    def weights(text):
        return None if text.strip().lower() == "none" else csv(float)(text)

    def typed_section(section, cls, **extra):
        kwargs = dict(extra)
        known = {f.name: f for f in fields(cls)}
        for key in cp[section]:
            if key not in known:
                raise ConfigError(f"[{section}] has unknown key {key!r}")
            ftype = _field_type(known[key])
            kwargs[key] = value(section, key, weights if key == "modality_weights"
                                else partial(_parse_typed, ftype=ftype) if ftype else str)
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}]: {exc}") from None

    model = typed_section("model", ModelConfig)
    trainer = typed_section("trainer", tr.TrainerConfig) if "trainer" in cp \
        else tr.TrainerConfig()

    try:
        return ExperimentConfig(
            interactions=data["interactions"],
            features=features,
            model=model,
            trainer=trainer,
            missing_policy=data.get("missing", "error"),
            kcore=value("prepare", "kcore", int, 5),
            train_ratio=value("prepare", "train_ratio", float, 0.8),
            split_seed=value("prepare", "seed", int, 0),
            grid_lrs=value("grid", "lrs", csv(float), tr.DEFAULT_GRID_LRS),
            grid_regs=value("grid", "regs", csv(float), tr.DEFAULT_GRID_REGS),
            cutoffs=value("evaluation", "cutoffs", csv(int), DEFAULT_CUTOFFS),
            out_dir=cp["output"]["dir"] if "output" in cp else "runs/experiment",
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "data": {"interactions": config.interactions,
                 "features": dict(sorted(config.features.items())),
                 "missing": config.missing_policy},
        "prepare": {"kcore": config.kcore, "train_ratio": config.train_ratio,
                    "seed": config.split_seed},
        "model": asdict(config.model),
        "trainer": asdict(config.trainer),
        "grid": {"lrs": list(config.grid_lrs), "regs": list(config.grid_regs)},
        "evaluation": {"cutoffs": list(config.cutoffs)},
        "output": {"dir": config.out_dir},
    }


# ------------------------------------------------------------ artifact files

def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path, body):
    _write(path, json.dumps(body, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------ pipeline steps

def prepare_split(config: ExperimentConfig) -> ds.Split:
    log = ds.parse_interactions(resolve_path(config.interactions))
    try:
        dataset = ds.k_core_filter(ds.index_log(log), config.kcore)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ds.holdout_split(dataset, seed=config.split_seed,
                            train_ratio=config.train_ratio)


def load_store(config: ExperimentConfig, split: ds.Split) -> MultimodalStore:
    bound = []
    for m, raw in sorted(config.features.items()):
        path = resolve_path(raw)
        feats = load_features(path, text=path.endswith(".tsv"), modality=m)
        if feats.modality != m:
            raise ConfigError(
                f"feature file {path!r} declares modality "
                f"{feats.modality!r}, config says {m!r}"
            )
        bound.append(feats)
    return MultimodalStore(split.dataset.item_ids, bound,
                           missing=config.missing_policy)


def cmd_prepare(config: ExperimentConfig):
    """Filter, split, bind features; write split TSVs and stats JSON."""
    validate_paths(config)
    split = prepare_split(config)
    store = load_store(config, split)
    prepared = os.path.join(config.out_dir, "prepared")
    ds.write_split(split, prepared)
    _write_json(os.path.join(prepared, "stats.json"),
                asdict(ds.stats(split.dataset)))
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
    _write_json(os.path.join(run_dir, "tune.json"), {
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
    seed would repeat the run exactly, so nothing trains here.
    """
    model, result = chosen.model, chosen.result
    # wall-clock numbers go to timings.json, so manifest bytes stay reproducible
    os.makedirs(run_dir, exist_ok=True)
    _write_json(os.path.join(run_dir, "manifest.json"), {
        "config": config_to_dict(config), "seed": config.trainer.seed,
        "version": __version__, "stats": asdict(ds.stats(split.dataset)),
        "chosen": _selection(chosen)})
    _write_json(os.path.join(run_dir, "timings.json"),
                {"train_seconds": result.seconds, "epochs": len(result.trace)})
    lines = ["epoch\tloss\tval_recall20\tseconds\n"]
    for row in result.trace:
        val = "" if row.val_metric is None else f"{row.val_metric:.6f}"
        lines.append(f"{row.epoch}\t{row.loss:.6f}\t{val}\t{row.seconds:.6f}\n")
    _write(os.path.join(run_dir, "trace.tsv"), "".join(lines))
    save_checkpoint(model, os.path.join(run_dir, "checkpoint"))
    return model, result


def cmd_evaluate(config: ExperimentConfig, split: ds.Split,
                 store: MultimodalStore, run_dir, model=None, threads=1):
    """Score the test part and write metrics, recommendations, and a report."""
    if model is None:
        mdata = ModelData.from_split(split, store)
        model = build_model(config.model, mdata, seed=config.trainer.seed)
        load_checkpoint(model, os.path.join(run_dir, "checkpoint"))
    report, ranking = ev.evaluate_model(
        model, split, part="test", cutoffs=config.cutoffs, threads=threads)
    os.makedirs(run_dir, exist_ok=True)
    values = {f"{metric}@{k}": report.get(metric, k)
              for k in config.cutoffs for metric in ev.METRIC_ORDER}
    body = {"tag": config.model.tag, "cutoffs": list(config.cutoffs),
            "values": values}
    _write_json(os.path.join(run_dir, "metrics.json"), body)
    _write(os.path.join(run_dir, "metrics.tsv"), "metric\tk\tvalue\n" + "".join(
        f"{metric}\t{k}\t{report.get(metric, k)!r}\n"
        for k in config.cutoffs for metric in ev.METRIC_ORDER))
    ev.write_recommendations_tsv(
        ranking, os.path.join(run_dir, "recommendations.tsv"))
    md, _ = render_report([(config.model.tag, report)], config.cutoffs)
    _write(os.path.join(run_dir, "report.md"), md)
    return report


def _run_model(config: ExperimentConfig, split, store, threads):
    """tune -> write the winner -> evaluate, one model.

    The grid's winning model lives only until this returns, so the next
    model's grid never runs beside it.
    """
    run_dir = os.path.join(config.out_dir, config.model.tag)
    chosen = cmd_tune(config, split, store, run_dir, threads=threads)
    model, _ = cmd_train(config, split, run_dir, chosen)
    return cmd_evaluate(config, split, store, run_dir, model=model,
                        threads=threads)


def run_single(config: ExperimentConfig, threads=1):
    """prepare -> tune -> checkpoint the winner -> evaluate, one model."""
    split, store = cmd_prepare(config)
    return _run_model(config, split, store, threads)


def cmd_benchmark(config: ExperimentConfig, models=None, threads=1):
    """Run the roster over one prepared split and emit the combined report."""
    roster = tuple(models) if models else MODEL_TAGS
    for tag in roster:
        if tag not in MODEL_TAGS:
            raise ConfigError(f"unknown model tag {tag!r} in roster")
    split, store = cmd_prepare(config)
    rows = []
    for tag in roster:
        run_cfg = replace(config, model=replace(config.model, tag=tag))
        rows.append((tag, _run_model(run_cfg, split, store, threads)))
    md, tsv = render_report(rows, config.cutoffs)
    _write(os.path.join(config.out_dir, "report.md"), md)
    _write(os.path.join(config.out_dir, "report.tsv"), tsv)
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
        _write(out_path, md)
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
