import glob
import importlib.util
import inspect
import json
import os
import pathlib
import typing
from dataclasses import fields, replace

import numpy as np
import pytest

from fusionrec import evaluation as ev
from fusionrec import experiment as ex
from fusionrec import training as tr
from fusionrec.cli import main
from fusionrec.modality import ModalityFeatures, write_features
from fusionrec.models import ModelConfig, ModelData
from fusionrec.models import base as fm_base
from fusionrec.models import lattice as fm_lattice

N_USERS, N_ITEMS = 15, 35


def write_config(config, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(ex.serialize_config(config))


def write_corpus(root):
    """Tiny raw corpus: modular interaction pattern, two feature files.

    Every user rates 10 items at stride 3, so every item lands well above
    the 2-core threshold and every user keeps >= 20 ranking candidates.
    """
    rng = np.random.default_rng(7)
    lines = []
    for u in range(N_USERS):
        for j in range(10):
            lines.append(f"u{u}\ti{(u * 3 + j) % N_ITEMS}\t5\t{100 + j}")
    inter = os.path.join(root, "interactions.tsv")
    with open(inter, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    ids = [f"i{i}" for i in range(N_ITEMS)]
    vis = ModalityFeatures("visual", 4, ids,
                           rng.normal(size=(N_ITEMS, 4)).astype(np.float32))
    write_features(vis, os.path.join(root, "visual.bin"))
    with open(os.path.join(root, "textual.tsv"), "w", encoding="utf-8") as fh:
        for i in ids:
            vals = "\t".join(repr(float(x)) for x in rng.normal(size=3))
            fh.write(f"{i}\t{vals}\n")
    return inter


def base_config(root, out_dir, **over):
    defaults = dict(
        interactions=os.path.join(root, "interactions.tsv"),
        features={"visual": os.path.join(root, "visual.bin"),
                  "textual": os.path.join(root, "textual.tsv")},
        model=ModelConfig(tag="vbpr", embedding_dim=8, knn_k=3),
        trainer=tr.TrainerConfig(epochs=2, batch_size=32, eval_every=1),
        kcore=2,
        grid_lrs=(0.01, 0.05),
        grid_regs=(1e-5,),
        cutoffs=(5, 10),
        out_dir=str(out_dir),
    )
    defaults.update(over)
    return ex.ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(root)
    return root


@pytest.fixture(scope="module")
def single_run(corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("single"))
    config = base_config(corpus, out)
    report = ex.run_single(config)
    return config, report


@pytest.fixture(scope="module")
def bench_run(corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bench"))
    config = base_config(corpus, out)
    rows = ex.cmd_benchmark(config, models=("vbpr", "bm3"))
    return config, rows


# -------------------------------------------------------------- config text

def test_config_roundtrip_is_exact(corpus):
    config = base_config(
        corpus, "runs/x",
        model=ModelConfig(tag="mmgcn", embedding_dim=16, layers=1,
                          modality_weights=(0.25, 0.75)),
        trainer=tr.TrainerConfig(epochs=7, batch_size=64, optimizer="sgd",
                                 seed=3, eval_every=2),
        missing_policy="zero_fill",
        kcore=3,
        train_ratio=0.75,
        split_seed=11,
        grid_lrs=(0.001, 0.0123),
        grid_regs=(1e-05, 0.01),
        cutoffs=(5, 10, 20),
    )
    assert ex.parse_config(ex.serialize_config(config)) == config


def test_config_roundtrip_keeps_env_references(corpus):
    config = base_config(corpus, "runs/x",
                         interactions="${DATA_ROOT}/interactions.tsv",
                         features={"visual": "${DATA_ROOT}/visual.bin"})
    back = ex.parse_config(ex.serialize_config(config))
    assert back.interactions == "${DATA_ROOT}/interactions.tsv"
    assert back.features["visual"] == "${DATA_ROOT}/visual.bin"


def test_env_substitution_happens_at_resolve_time(corpus, tmp_path,
                                                  monkeypatch):
    monkeypatch.setenv("DATA_ROOT", corpus)
    config = base_config(corpus, str(tmp_path / "out"),
                         interactions="${DATA_ROOT}/interactions.tsv",
                         features={"visual": "${DATA_ROOT}/visual.bin"})
    assert ex.resolve_path(config.interactions) == \
        os.path.join(corpus, "interactions.tsv")
    split, store = ex.cmd_prepare(config)
    assert split.dataset.n_users == N_USERS


def test_unset_env_variable_is_a_config_error():
    with pytest.raises(ex.ConfigError, match="NO_SUCH_VAR_XYZ"):
        ex.resolve_path("${NO_SUCH_VAR_XYZ}/a.tsv")


def test_parse_rejects_malformed_input():
    with pytest.raises(ex.ConfigError, match="syntax"):
        ex.parse_config("not an ini file at all [")
    with pytest.raises(ex.ConfigError, match=r"\[data\]"):
        ex.parse_config("[model]\ntag = vbpr\n")
    # the others are former switches: MMGCN always learns its id embeddings
    # and applies LeakyReLU, and VBPR has no item bias
    for key, value in (("not_a_field", "true"), ("use_id_embeddings", "true"),
                       ("with_bias", "false"), ("activation", "linear")):
        with pytest.raises(ex.ConfigError, match=rf"^\[model\] has unknown key '{key}'$"):
            ex.parse_config(
                "[data]\ninteractions = a\nfeature.visual = b\n"
                f"[model]\ntag = mmgcn\n{key} = {value}\n")


def test_malformed_numbers_are_config_errors(corpus, tmp_path, capsys):
    head = "[data]\ninteractions = a\nfeature.visual = b\n[model]\ntag = vbpr\n"
    for extra, key in (("[evaluation]\ncutoffs = 10, abc\n", "cutoffs"),
                       ("[grid]\nlrs = 0.01, fast\n", "lrs"),
                       ("embedding_dim = wide\n", "embedding_dim"),
                       ("modality_weights = 1, heavy\n", "modality_weights"),
                       ("[grid]\nlrs = nan\n", "lrs"),
                       ("[grid]\nregs = 0.001, inf\n", "regs"),
                       ("mm_weight = nan\n", "mm_weight"),
                       ("leaky_slope = -inf\n", "leaky_slope"),
                       ("modality_weights = 1, inf\n", "modality_weights"),
                       ("[prepare]\ntrain_ratio = nan\n", "train_ratio")):
        with pytest.raises(ex.ConfigError, match=key):
            ex.parse_config(head + extra)
    ini = tmp_path / "exp.ini"
    ini.write_text(ex.serialize_config(base_config(corpus, str(tmp_path / "out")))
                   .replace("cutoffs = 5, 10", "cutoffs = 10, abc"))
    assert "cutoffs = 10, abc" in ini.read_text()
    assert main(["--config", str(ini), "prepare"]) == 1
    capsys.readouterr()
    ini.write_text(ex.serialize_config(base_config(corpus, str(tmp_path / "out")))
                   .replace("lrs = 0.01, 0.05", "lrs = 0.01, nan"))
    assert "lrs = 0.01, nan" in ini.read_text()
    assert main(["--config", str(ini), "train"]) == 1
    assert "[grid] lrs: expected a finite number, got 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "prepared").exists()


@pytest.mark.parametrize("lrs", [", ".join(f"0.0{n:02d}" for n in range(1, 12)),
                                 "-0.1"], ids=["11-points", "negative-lr"])
@pytest.mark.parametrize("command", ["tune", "train"])
def test_bad_grid_is_a_config_error_before_prepare(corpus, tmp_path, capsys,
                                                   lrs, command):
    # an 11-point grid (11 lrs x 1 reg) or a nonpositive lr
    out = tmp_path / "out"
    ini = tmp_path / "exp.ini"
    ini.write_text(ex.serialize_config(base_config(corpus, str(out)))
                   .replace("lrs = 0.01, 0.05", f"lrs = {lrs}"))
    assert f"lrs = {lrs}" in ini.read_text()
    with pytest.raises(ex.ConfigError, match=r"^\[grid\]: "):
        ex.load_config(str(ini))
    assert main(["--config", str(ini), command]) == 1
    assert "[grid]" in capsys.readouterr().err
    assert not (out / "prepared").exists()


def test_unknown_feature_modality_is_a_config_error_before_prepare(corpus, tmp_path,
                                                                   capsys):
    # the log and every path are valid: only the modality name is wrong
    out = tmp_path / "out"
    config = base_config(corpus, str(out))
    ini = tmp_path / "exp.ini"
    ini.write_text(ex.serialize_config(config).replace(
        "[data]\n", f"[data]\nfeature.smell = {config.features['visual']}\n"))
    assert "feature.smell" in ini.read_text()
    assert main(["--config", str(ini), "prepare"]) == 1
    assert "[data] feature.smell: unknown modality 'smell'" in capsys.readouterr().err
    assert not (out / "prepared").exists()


def test_unknown_header_modality_is_a_malformed_file(corpus, tmp_path, capsys):
    # a binary file whose header names no known modality exits 1, naming the file
    path = tmp_path / "visual.bin"
    raw = pathlib.Path(corpus, "visual.bin").read_bytes()
    path.write_bytes(raw.replace(b'"visual"', b'"haptic"', 1))
    config = base_config(corpus, str(tmp_path / "out"),
                         features={"visual": str(path)})
    ini = tmp_path / "exp.ini"
    write_config(config, ini)
    assert main(["--config", str(ini), "prepare"]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "declares modality 'haptic'" in err


@pytest.mark.parametrize("key, text", [("kcore", "x"), ("train_ratio", "most"),
                                       ("seed", "1.5")])
def test_malformed_prepare_number_names_its_key(key, text):
    head = "[data]\ninteractions = a\nfeature.visual = b\n[model]\ntag = vbpr\n"
    with pytest.raises(ex.ConfigError, match=rf"^\[prepare\] {key}: "):
        ex.parse_config(head + f"[prepare]\n{key} = {text}\n")


@pytest.mark.parametrize("old, new, message", [
    ("feature.textual =", "featur.textual =", "[data] has unknown key 'featur.textual'"),
    ("kcore = 2", "kcores = 2", "[prepare] has unknown key 'kcores'"),
    ("lrs = ", "lr = ", "[grid] has unknown key 'lr'"),
    ("[trainer]\n", "[trainer]\nlr = 0.5\n", "[trainer] has unknown key 'lr'"),
    ("cutoffs = ", "cutoff = ", "[evaluation] has unknown key 'cutoff'"),
    ("[output]\ndir = ", "[output]\ndirectory = ", "[output] has unknown key 'directory'"),
    ("[evaluation]", "[evalution]", "config has unknown section [evalution]"),
    ("prune_ratio = 0.8", "prune_ratio = 1.0", "[model]: prune_ratio must be in [0, 1)"),
], ids=["data", "prepare", "grid", "trainer-lr", "evaluation", "output", "section",
        "prune-ratio-one"])
def test_misspelled_key_or_section_is_a_config_error_before_prepare(
        corpus, tmp_path, monkeypatch, capsys, old, new, message):
    monkeypatch.chdir(tmp_path)  # a dropped [output] dir would write under runs/
    text = ex.serialize_config(base_config(corpus, str(tmp_path / "out")))
    assert old in text
    ini = tmp_path / "exp.ini"
    ini.write_text(text.replace(old, new))
    with pytest.raises(ex.ConfigError) as err:
        ex.load_config(str(ini))
    assert str(err.value).startswith(message)
    assert main(["--config", str(ini), "prepare"]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.rglob("prepared"))


def test_output_section_without_dir_takes_the_default(corpus):
    config = base_config(corpus, "runs/x")
    text = ex.serialize_config(config).replace("dir = runs/x\n", "")
    assert "[output]\n" in text and "dir =" not in text
    default = {f.name: f.default for f in fields(ex.ExperimentConfig)}["out_dir"]
    assert ex.parse_config(text) == replace(config, out_dir=default)


def test_every_config_field_has_one_ini_key():
    # [model] and [trainer] hold their dataclasses; feature.<m> keys fill features
    named = [name for section, keys in ex.LAYOUT.items()
             if section not in ("model", "trainer") for name, _ in keys.values()]
    init = [f.name for f in fields(ex.ExperimentConfig) if f.init]
    assert sorted(named + ["model", "trainer"]) == sorted(init)


def test_parsers_cover_exactly_the_nested_field_types():
    # a type no [model] or [trainer] field has would be a parser nothing reads
    annotated = {t for cls in (ModelConfig, tr.TrainerConfig)
                 for t in typing.get_type_hints(cls).values()}
    assert set(ex._PARSERS) == annotated


def test_config_validation(corpus):
    with pytest.raises(ex.ConfigError, match="modality"):
        base_config(corpus, "o", features={})
    with pytest.raises(ex.ConfigError, match="cutoffs"):
        base_config(corpus, "o", cutoffs=(0, 10))
    with pytest.raises(ex.ConfigError, match="train_ratio"):
        base_config(corpus, "o", train_ratio=1.0)
    with pytest.raises(ex.ConfigError, match="policy"):
        base_config(corpus, "o", missing_policy="ignore")
    with pytest.raises(ex.ConfigError, match="kcore"):
        base_config(corpus, "o", kcore=0)
    # env substitution is for data paths; a templated out dir would create
    # a directory literally named ${...}
    with pytest.raises(ex.ConfigError, match="data paths only"):
        base_config(corpus, "${RUN_ROOT}/out")


def test_save_and_load_config_file(corpus, tmp_path):
    config = base_config(corpus, str(tmp_path / "out"))
    path = str(tmp_path / "exp.ini")
    write_config(config, path)
    assert ex.load_config(path) == config


# ----------------------------------------------------------------- prepare

def test_missing_feature_file_fails_before_any_work(corpus, tmp_path):
    out = tmp_path / "never"
    config = base_config(
        corpus, str(out),
        features={"visual": os.path.join(corpus, "absent.bin")})
    with pytest.raises(ex.ConfigError, match="absent.bin"):
        ex.cmd_prepare(config)
    assert not out.exists()


def test_kcore_emptying_the_corpus_is_a_config_error(corpus, tmp_path):
    config = base_config(corpus, str(tmp_path / "out"), kcore=50)
    with pytest.raises(ex.ConfigError, match="removed every interaction"):
        ex.cmd_prepare(config)


def test_prepare_writes_split_and_stats(corpus, tmp_path):
    config = base_config(corpus, str(tmp_path / "out"))
    split, store = ex.cmd_prepare(config)
    prepared = tmp_path / "out" / "prepared"
    for name in ("train.tsv", "validation.tsv", "test.tsv",
                 "split.json", "stats.json"):
        assert (prepared / name).is_file(), name
    stats = json.loads((prepared / "stats.json").read_text())
    assert stats["n_users"] == N_USERS
    assert stats["min_user_degree"] >= config.kcore
    assert stats["min_item_degree"] >= config.kcore
    assert store.matrix("visual").shape == (split.dataset.n_items, 4)


def test_prepare_writes_stage_timings_apart(corpus, tmp_path):
    config = base_config(corpus, str(tmp_path / "out"))
    ex.cmd_prepare(config)
    timings = json.loads((tmp_path / "out" / "prepared" / "timings.json").read_text())
    assert sorted(timings["seconds"]) == ["bind", "index", "kcore", "load_features",
                                          "parse", "split", "write"]
    assert all(s >= 0 for s in timings["seconds"].values())
    assert timings["peak_rss_mb"] > 0
    assert isinstance(timings["minor_faults"], int) and timings["minor_faults"] >= 0


def test_feature_modality_mismatch_is_rejected(corpus, tmp_path):
    config = base_config(
        corpus, str(tmp_path / "out"),
        features={"textual": os.path.join(corpus, "visual.bin")})
    with pytest.raises(ex.ConfigError, match="declares modality"):
        ex.cmd_prepare(config)


# ------------------------------------------------------------ run artifacts

def test_tune_selects_from_grid_and_writes_table(single_run):
    config, _ = single_run
    body = json.loads(
        open(os.path.join(config.out_dir, "vbpr", "tune.json")).read())
    assert body["best"]["lr"] in config.grid_lrs
    assert body["best"]["reg"] in config.grid_regs
    # 2 grid points x 2 epochs at eval_every=1
    assert len(body["table"]) == 4
    values = [row["value"] for row in body["table"]]
    assert body["best"]["best_value"] == max(values)


@pytest.mark.parametrize("tag", ["freedom", "lattice"])
def test_tune_builds_each_modality_knn_graph_once(corpus, tmp_path, monkeypatch,
                                                  tag):
    real, dims = fm_base.knn_graph, []

    def counted(feats, k):
        dims.append(feats.shape[1])
        return real(feats, k)

    monkeypatch.setattr(fm_base, "knn_graph", counted)
    monkeypatch.setattr(fm_lattice, "knn_graph", counted)
    config = base_config(corpus, tmp_path, model=ModelConfig(tag=tag, knn_k=3))
    split, store = ex.cmd_prepare(config)
    chosen = ex.cmd_tune(config, split, store, str(tmp_path / tag))
    assert len(config.grid_lrs) * len(config.grid_regs) == 2
    assert sorted(dims) == [3, 4]  # textual, visual: once each
    # the shared graphs are the ones each model would build for itself
    model, data = chosen.model, chosen.model.data
    if tag == "lattice":
        for m in data.modalities:  # the shared objects themselves, not copies
            assert model.initial[m] is data.modality_graph(m, 3, real)
        wanted = {m: real(data.features[m], 3) for m in data.modalities}
        got = model.initial
    else:
        fresh = ModelData(data.n_users, data.n_items, data.pairs, dict(data.features))
        wanted = {"merged": fm_base.item_graph(fresh, 3, None)}
        got = {"merged": model.item_graph}
    for m, want in wanted.items():
        for attr in ("rows", "cols", "vals"):
            have = getattr(got[m], attr)
            assert have.dtype == getattr(want, attr).dtype
            assert have.tobytes() == getattr(want, attr).tobytes(), (m, attr)


def test_timings_hold_the_knn_graph_seconds(corpus, tmp_path):
    config = base_config(corpus, str(tmp_path),
                         model=ModelConfig(tag="freedom", embedding_dim=8, knn_k=3))
    ex.run_single(config)
    with open(tmp_path / "freedom" / "timings.json", encoding="utf-8") as fh:
        assert json.load(fh)["graph_seconds"] > 0


def test_manifest_is_deterministic_and_timings_live_apart(single_run):
    config, _ = single_run
    run_dir = os.path.join(config.out_dir, "vbpr")
    manifest = json.loads(open(os.path.join(run_dir, "manifest.json")).read())
    assert set(manifest) == {"config", "seed", "version", "stats", "chosen"}
    assert manifest["config"]["model"]["tag"] == "vbpr"
    assert manifest["chosen"]["lr"] in config.grid_lrs
    assert manifest["stats"]["n_users"] == N_USERS
    timings = json.loads(open(os.path.join(run_dir, "timings.json")).read())
    assert timings["train_seconds"] > 0
    assert timings["graph_seconds"] == 0
    assert isinstance(timings["train_minor_faults"], int)
    assert timings["train_minor_faults"] >= 0


def test_trace_has_one_row_per_epoch(single_run):
    config, _ = single_run
    lines = open(os.path.join(config.out_dir, "vbpr", "trace.tsv")).read() \
        .strip().split("\n")
    assert lines[0] == "epoch\tloss\tval_recall20\tseconds"
    assert len(lines) == 1 + config.trainer.epochs


def test_metrics_files_cover_every_cutoff(single_run):
    config, report = single_run
    run_dir = os.path.join(config.out_dir, "vbpr")
    body = json.loads(open(os.path.join(run_dir, "metrics.json")).read())
    want_keys = {f"{m}@{k}" for k in config.cutoffs for m in ev.METRIC_ORDER}
    assert set(body["values"]) == want_keys
    assert body["values"]["recall@10"] == report.get("recall", 10)
    tsv = open(os.path.join(run_dir, "metrics.tsv")).read().strip().split("\n")
    assert len(tsv) == 1 + len(want_keys)


def test_recommendations_rows_are_ranked(single_run):
    config, _ = single_run
    rows = [line.split("\t") for line in
            open(os.path.join(config.out_dir, "vbpr",
                              "recommendations.tsv")).read().strip().split("\n")]
    ranks = {}
    for u, i, rank, score in rows:
        ranks.setdefault(int(u), []).append((int(rank), float(score)))
    for u, pairs in ranks.items():
        assert [r for r, _ in pairs] == list(range(1, len(pairs) + 1))
        scores = [s for _, s in pairs]
        assert scores == sorted(scores, reverse=True)


def test_completed_run_dir_passes_audit(single_run):
    config, _ = single_run
    assert ex.audit_run_dir(os.path.join(config.out_dir, "vbpr")) == []


def test_audit_names_missing_artifacts(tmp_path):
    missing = ex.audit_run_dir(str(tmp_path))
    assert "manifest.json" in missing
    assert "metrics.json" in missing
    assert len(missing) == 6


# ------------------------------------------------------------------ reports

def hand_report(values):
    report = ev.MetricReport()
    for metric, value in values.items():
        report.set(metric, 10, value)
    return report


def test_report_marks_best_and_second_by_hand():
    a = hand_report({"recall": 0.5, "ndcg": 0.25, "efd": 1.5,
                     "gini": 0.8, "aplt": 0.3, "icov": 62.5})
    b = hand_report({"recall": 0.25, "ndcg": 0.5, "efd": 1.5,
                     "gini": 0.7, "aplt": 0.4, "icov": 50.0})
    md, tsv = ex.render_report([("alpha", a), ("beta", b)], (10,))
    lines = md.strip().split("\n")
    assert lines[0] == ("| Model | Recall@10 | nDCG@10 | EFD@10 | Gini@10 "
                        "| APLT@10 | iCov@10 |")
    assert lines[2] == ("| alpha | **0.5000** | <u>0.2500</u> | **1.5000** "
                        "| **0.8000** | <u>0.3000</u> | **62.50** |")
    assert lines[3] == ("| beta | <u>0.2500</u> | **0.5000** | **1.5000** "
                        "| <u>0.7000</u> | **0.4000** | <u>50.00</u> |")
    assert "alpha\trecall\t10\t0.5" in tsv


def test_single_row_report_has_no_markers():
    a = hand_report({"recall": 0.5, "ndcg": 0.25, "efd": 1.5,
                     "gini": 0.8, "aplt": 0.3, "icov": 62.5})
    md, _ = ex.render_report([("alpha", a)], (10,))
    assert "**" not in md and "<u>" not in md


def test_benchmark_report_lists_roster_in_order(bench_run):
    config, rows = bench_run
    assert [tag for tag, _ in rows] == ["vbpr", "bm3"]
    md = open(os.path.join(config.out_dir, "report.md")).read()
    body_rows = [line for line in md.strip().split("\n")[2:]]
    assert body_rows[0].startswith("| vbpr |")
    assert body_rows[1].startswith("| bm3 |")
    assert ex.audit_run_dir(os.path.join(config.out_dir, "vbpr")) == []
    assert ex.audit_run_dir(os.path.join(config.out_dir, "bm3")) == []


def test_cmd_report_reproduces_benchmark_table(bench_run):
    config, _ = bench_run
    dirs = [os.path.join(config.out_dir, tag) for tag in ("vbpr", "bm3")]
    md = ex.cmd_report(dirs)
    assert md == open(os.path.join(config.out_dir, "report.md")).read()


def test_cmd_report_rejects_bad_merges(bench_run, tmp_path):
    config, _ = bench_run
    with pytest.raises(ex.ConfigError, match="at least one"):
        ex.cmd_report([])
    with pytest.raises(ex.ConfigError, match="no metrics.json"):
        ex.cmd_report([str(tmp_path)])
    other = tmp_path / "other"
    other.mkdir()
    body = {"tag": "zz", "cutoffs": [7],
            "values": {f"{m}@7": 0.1 for m in ev.METRIC_ORDER}}
    (other / "metrics.json").write_text(json.dumps(body))
    with pytest.raises(ex.ConfigError, match="conflicting cutoff"):
        ex.cmd_report([os.path.join(config.out_dir, "vbpr"), str(other)])


def test_unknown_roster_tag_is_rejected(corpus, tmp_path):
    config = base_config(corpus, str(tmp_path / "out"))
    with pytest.raises(ex.ConfigError, match="unknown model tag"):
        ex.cmd_benchmark(config, models=("vbpr", "nope"))


# -------------------------------------------------------------- determinism

def test_same_config_reproduces_artifact_bytes(corpus, tmp_path):
    config = base_config(corpus, str(tmp_path / "out"), grid_lrs=(0.01,))

    def run_and_snapshot():
        ex.run_single(config)
        run_dir = os.path.join(config.out_dir, "vbpr")
        names = ["manifest.json", "metrics.json", "metrics.tsv",
                 "recommendations.tsv", "report.md", "tune.json",
                 os.path.join("checkpoint", "checkpoint.json")]
        names += sorted(
            os.path.join("checkpoint", os.path.basename(p))
            for p in glob.glob(os.path.join(run_dir, "checkpoint", "*.bin")))
        return {n: open(os.path.join(run_dir, n), "rb").read()
                for n in names}

    first = run_and_snapshot()
    second = run_and_snapshot()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name


def test_benchmark_trains_each_grid_point_once_and_keeps_the_winner(
        corpus, tmp_path, monkeypatch):
    """cmd_benchmark checkpoints the winning grid run instead of retraining.

    Every train_loop call is recorded with the parameters it left behind;
    the checkpoint and trace.tsv must be those of the winner's grid run.
    """
    from fusionrec import schema

    runs = []
    real = schema.train_loop

    def recording(spec, model, data, trainer, **kwargs):
        result = real(spec, model, data, trainer, **kwargs)
        params = {n: t.data.copy() for n, t in model.params().named().items()}
        runs.append((model.tag, params, result))
        return result

    monkeypatch.setattr(schema, "train_loop", recording)
    monkeypatch.setattr(ex, "train_loop", recording)
    roster = ("vbpr", "freedom")
    config = base_config(corpus, str(tmp_path / "out"), grid_lrs=(0.05, 0.01))
    ex.cmd_benchmark(config, models=roster)
    n_points = len(config.grid_lrs) * len(config.grid_regs)
    assert [tag for tag, _, _ in runs] == [t for t in roster for _ in range(n_points)]
    for m, tag in enumerate(roster):
        run_dir = os.path.join(config.out_dir, tag)
        with open(os.path.join(run_dir, "tune.json"), encoding="utf-8") as fh:
            tune = json.load(fh)
        idx = tune["best"]["config_index"]
        # the winner is not the last point trained, so writing whatever model
        # trained last would fail below
        assert idx < n_points - 1
        _, params, result = runs[m * n_points + idx]
        for name, data in params.items():
            with open(os.path.join(run_dir, "checkpoint", f"{name}.bin"), "rb") as fh:
                assert fh.read() == data.astype("<f4").tobytes(), (tag, name)
        with open(os.path.join(run_dir, "trace.tsv"), encoding="utf-8") as fh:
            rows = [line.split("\t") for line in fh.read().splitlines()[1:]]
        tuned = [r for r in tune["table"] if r["config_index"] == idx]
        assert [int(r[0]) for r in rows] == [r["epoch"] for r in tuned]
        assert [r[2] for r in rows] == [f"{r['value']:.6f}" for r in tuned]
        assert [r[1] for r in rows] == [f"{row.loss:.6f}" for row in result.trace]
        with open(os.path.join(run_dir, "timings.json"), encoding="utf-8") as fh:
            timings = json.load(fh)
        assert timings["train_seconds"] == result.seconds
        assert timings["train_minor_faults"] == result.minor_faults


# ---------------------------------------------------------------------- cli

def test_cli_prepare_and_report_succeed(corpus, tmp_path, capsys):
    out = str(tmp_path / "out")
    ini = str(tmp_path / "exp.ini")
    write_config(base_config(corpus, out, grid_lrs=(0.01,)), ini)
    assert main(["--config", ini, "prepare"]) == 0
    assert main(["--config", ini, "benchmark", "--models", "vbpr"]) == 0
    assert main(["report", os.path.join(out, "vbpr")]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-3].startswith("| Model |")
    assert lines[-1].startswith("| vbpr |")
    merged = str(tmp_path / "merged")
    assert main(["--out", merged, "report", os.path.join(out, "vbpr")]) == 0
    with open(os.path.join(merged, "report.md"), encoding="utf-8") as fh:
        assert fh.read().startswith("| Model |")


def test_tuning_without_evaluations_fails_before_training(corpus, tmp_path,
                                                           monkeypatch):
    from fusionrec import schema

    trained = []
    monkeypatch.setattr(schema, "train_loop",
                        lambda *args, **kwargs: trained.append(args))
    with pytest.raises(ValueError, match="eval_every"):
        ex.run_single(base_config(corpus, str(tmp_path / "out"),
                                  trainer=tr.TrainerConfig(epochs=1, batch_size=32,
                                                           eval_every=0)))
    assert trained == []


@pytest.mark.parametrize("command", ["tune", "train"])
def test_eval_every_below_one_is_a_config_error_before_prepare(corpus, tmp_path,
                                                               capsys, command):
    out = tmp_path / "out"
    text = ex.serialize_config(base_config(corpus, str(out)))
    assert "eval_every = 1\n" in text
    ini = tmp_path / "exp.ini"
    ini.write_text(text.replace("eval_every = 1\n", "eval_every = 0\n"))
    assert main(["--config", str(ini), command]) == 1
    assert "eval_every must be >= 1, got 0" in capsys.readouterr().err
    assert not (out / "prepared").exists()


def test_evaluate_rejects_a_checkpoint_of_another_model_config(corpus, tmp_path,
                                                               capsys):
    # [model] edited after training: the checkpoint's shapes still fit
    out = tmp_path / "out"
    config = base_config(corpus, str(out),
                         model=ModelConfig(tag="freedom", embedding_dim=8, knn_k=3))
    text = ex.serialize_config(config)
    ini = tmp_path / "exp.ini"
    ini.write_text(text)
    assert main(["--config", str(ini), "train"]) == 0
    assert main(["--config", str(ini), "evaluate"]) == 0
    capsys.readouterr()
    assert "knn_k = 3\n" in text and "mm_weight = 0.1\n" in text
    ini.write_text(text.replace("knn_k = 3\n", "knn_k = 5\n")
                   .replace("mm_weight = 0.1\n", "mm_weight = 0.7\n"))
    assert main(["--config", str(ini), "evaluate"]) == 1
    assert "checkpoint config knn_k = 3 != model knn_k = 5" in capsys.readouterr().err


def test_evaluate_refuses_a_run_trained_on_another_split(corpus, tmp_path, capsys):
    # another split's test items are partly the checkpoint's training items
    out = tmp_path / "out"
    ini = tmp_path / "exp.ini"
    write_config(base_config(corpus, str(out)), str(ini))
    assert main(["--config", str(ini), "evaluate"]) == 1  # nothing trained yet
    assert "manifest.json is missing" in capsys.readouterr().err
    assert main(["--config", str(ini), "--seed", "1", "train"]) == 0
    prepared = {p: p.read_bytes() for p in sorted((out / "prepared").rglob("*"))
                if p.is_file()}
    capsys.readouterr()
    assert main(["--config", str(ini), "--seed", "7", "evaluate"]) == 1
    assert "trained with [prepare] seed = 1, not 7" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in sorted((out / "prepared").rglob("*"))
            if p.is_file()} == prepared
    assert main(["--config", str(ini), "--seed", "1", "evaluate"]) == 0


def test_cli_validation_failures_exit_1(corpus, tmp_path, capsys):
    assert main(["--config", str(tmp_path / "none.ini"), "prepare"]) == 1
    assert main(["prepare"]) == 1          # --config required
    assert main(["report"]) == 1           # usage error
    ini = str(tmp_path / "exp.ini")
    write_config(base_config(corpus, str(tmp_path / "out")), ini)
    assert main(["--config", ini, "benchmark", "--models", "nope"]) == 1
    assert main(["--threads", "0", "--config", ini, "tune"]) == 1
    assert main(["--threads", "-3", "--config", ini, "tune"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("roster, message", [
    (",", "model roster is empty"),
    ("vbpr,vbpr", "model tag 'vbpr' repeated in roster"),
])
def test_cli_empty_or_repeated_roster_exits_1_before_prepare(
        corpus, tmp_path, capsys, monkeypatch, roster, message):
    # only a missing --models means every model
    called = []
    monkeypatch.setattr(ex, "cmd_prepare", lambda *a, **k: called.append("prepare"))
    monkeypatch.setattr(ex, "_run_model", lambda *a, **k: called.append("run"))
    ini = str(tmp_path / "exp.ini")
    write_config(base_config(corpus, str(tmp_path / "out")), ini)
    assert main(["--config", ini, "benchmark", "--models", roster]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert called == []


def test_malformed_input_files_exit_1(corpus, tmp_path, capsys):
    """A malformed log or feature file is a validation error: exit 1, and
    stderr names the line or the file."""
    log = tmp_path / "interactions.tsv"
    log.write_text("u0\ti0\t5\t100\nu1\n", encoding="utf-8")
    truncated = tmp_path / "visual.bin"
    truncated.write_bytes((pathlib.Path(corpus) / "visual.bin").read_bytes()[:-5])
    partial = tmp_path / "textual.tsv"
    partial.write_text("".join((pathlib.Path(corpus) / "textual.tsv")
                               .read_text(encoding="utf-8").splitlines(True)[:-1]),
                       encoding="utf-8")
    config = base_config(corpus, str(tmp_path / "out"))
    cases = [
        (replace(config, interactions=str(log)),
         ["error: line 2: expected 2-4 tab-separated fields, got 1"]),
        (replace(config, features={**config.features, "visual": str(truncated)}),
         ["error: ", repr(str(truncated)), "truncated at record"]),
        (replace(config, features={**config.features, "textual": str(partial)}),
         ["error: ", repr(str(partial)), "1 items lack textual features"]),
    ]
    ini = str(tmp_path / "exp.ini")
    for bad, wanted in cases:
        write_config(bad, ini)
        assert main(["--config", ini, "prepare"]) == 1
        err = capsys.readouterr().err
        assert all(text in err for text in wanted), err


def test_cli_runtime_failures_exit_2(corpus, tmp_path, capsys):
    config = base_config(
        corpus, str(tmp_path / "out"),
        trainer=tr.TrainerConfig(epochs=1, batch_size=8, lr=1e30,
                                 optimizer="sgd", eval_every=1),
        grid_lrs=(1e30,))
    ini = str(tmp_path / "exp.ini")
    write_config(config, ini)
    assert main(["--config", ini, "train"]) == 2
    err = capsys.readouterr().err
    assert "runtime failure" in err


def test_cli_seed_override_reaches_split_and_trainer(corpus, tmp_path,
                                                     capsys):
    out = str(tmp_path / "out")
    ini = str(tmp_path / "exp.ini")
    write_config(base_config(corpus, out), ini)
    assert main(["--config", ini, "--seed", "7", "prepare"]) == 0
    sidecar = json.loads(
        open(os.path.join(out, "prepared", "split.json")).read())
    assert sidecar["seed"] == 7
    capsys.readouterr()


def test_benchmark_trace_names_exist():
    """perfbench wraps program names by hand; each one must still exist.

    Installing the tracer raises TraceError on a missing name, so a refactor
    that drops or moves a wrapped function fails here, not only in the
    traced benchmark run. perfbench/run.py also reads cmd_benchmark's
    `threads` default.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(root, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer("contract")
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert "threads" in inspect.signature(ex.cmd_benchmark).parameters
