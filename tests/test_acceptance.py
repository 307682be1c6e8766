"""Acceptance gate: one test per shipping criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Each test states its tolerance inline and is self-contained up to
the shared brute-force oracles in oracles.py.
"""

import glob
import math
import os
import shutil
import time

import numpy as np
import pytest

import fusionrec.dataset as ds
import fusionrec.evaluation as ev
import fusionrec.tensor as T
import fusionrec.training as tr
from fusionrec.models import ModelConfig, ModelData, build_model
from fusionrec.modality import ModalityFeatures, write_features
from fusionrec.schema import (
    Coordinate,
    Early,
    Joint,
    Late,
    NoFusion,
    PipelineError,
    PipelineSpec,
    train_loop,
    validate,
)
import fusionrec.experiment as ex
from fdcheck import assert_gradients_match
import oracles


# ----------------------------------------------------- 1. metric oracles

def _random_instance(rng):
    n_users = int(rng.integers(2, 51))
    n_items = int(rng.integers(10, 101))
    k = int(rng.integers(1, min(10, n_items) + 1))
    recs, relevant = {}, {}
    for u in range(n_users):
        recs[u] = rng.permutation(n_items)[:k].tolist()
        n_rel = int(rng.integers(0, 6))
        relevant[u] = set(rng.choice(n_items, size=n_rel,
                                     replace=False).tolist())
    n_pairs = int(rng.integers(n_users, n_users * 4))
    train_pairs = [(int(rng.integers(n_users)), int(rng.integers(n_items)))
                   for _ in range(n_pairs)]
    return n_items, k, recs, relevant, train_pairs


def test_criterion_1_metric_oracle_equivalence():
    """Six metrics vs brute force on 200 random instances, |diff| < 1e-9, < 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        n_items, k, recs, relevant, train_pairs = _random_instance(rng)
        profile = ev.PopularityProfile.from_train(train_pairs, n_items)
        counts = {}
        for _, i in train_pairs:
            counts[i] = counts.get(i, 0) + 1
        catalog = list(range(n_items))
        got = (
            ev.recall_at_k(recs, relevant, k),
            ev.ndcg_at_k(recs, relevant, k),
            ev.efd_at_k(recs, relevant, k, profile),
            ev.gini_at_k(recs, k, n_items),
            ev.aplt_at_k(recs, k, profile),
            ev.item_coverage(recs, k, n_items),
        )
        want = (
            oracles.recall_ref(recs, relevant, k),
            oracles.ndcg_ref(recs, relevant, k),
            oracles.efd_ref(recs, relevant, k, counts, len(train_pairs)),
            oracles.gini_ref(recs, k, catalog),
            oracles.aplt_ref(recs, k, profile.long_tail),
            oracles.icov_ref(recs, k, n_items),
        )
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, f"max |impl - oracle| = {worst:.3g}"
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"criterion 1: PASS (200 instances, max diff {worst:.2e}, "
          f"{elapsed:.2f}s)")


# ----------------------------------------------------- 2. hand values

def test_criterion_2_hand_values():
    """nDCG/Gini/EFD/BPR fixtures against their closed forms."""
    # nDCG: k=3, two relevant items hit at ranks 1 and 3.
    # DCG = 1 + 1/log2(4) = 1.5; ideal puts both at ranks 1, 2 so
    # IDCG = 1 + 1/log2(3) and nDCG = 1.5 / 1.63093 = 0.91972.
    got = ev.ndcg_at_k({0: [5, 9, 7]}, {0: {5, 7}}, 3)
    want = 1.5 / (1.0 + 1.0 / math.log2(3.0))
    assert abs(got - want) < 1e-12
    assert abs(got - 0.9197) < 1e-4

    # Gini: every list is the same single item, so exposure is a monopoly
    # over an 8-item catalog and the equality index is exactly 1/8.
    recs = {u: [3] for u in range(5)}
    assert ev.gini_at_k(recs, 1, 8) == 1.0 / 8.0

    # EFD: k=1 and one hit on an item trained once among 8 interactions,
    # so p = 1/8 and EFD = -log2(1/8) = 3.
    train = [(0, 0)] + [(u % 3, 1 + u % 4) for u in range(7)]
    profile = ev.PopularityProfile.from_train(train, 6)
    assert profile.probability(0) == 1.0 / 8.0
    assert abs(ev.efd_at_k({0: [0]}, {0: {0}}, 1, profile) - 3.0) < 1e-9

    # BPR at zero margin: softplus(0) = ln 2.
    tape = T.Tape()
    scores = T.constant(np.array([[0.7], [0.3]]), dtype=np.float64)
    loss = tr.bpr_loss(tape, scores, scores)
    assert abs(loss.item() - 0.6931) < 1e-4
    print("criterion 2: PASS (nDCG 0.9197, Gini 1/8, EFD 3.0, BPR ln 2)")


# ----------------------------------------------------- 3. gradient suite

ALL_OPS = (
    "matmul", "matmul_nt", "spmm", "spmm_weighted", "add", "sub", "mul",
    "div", "scale", "sigmoid", "softplus", "log", "exp", "relu",
    "leaky_relu", "maximum", "l2_normalize", "concat", "row_concat",
    "row_gather", "dropout", "sum", "sumsq", "mean", "rowsum", "softmax",
    "stop_gradient",
)


def _every_primitive_loss(params, extras):
    """One scalar whose graph records every tape primitive."""
    A, B, C, D, v, w_vals = params
    Q, adj, structure, shift, half = extras
    tape = T.Tape()
    t1 = tape.matmul(A, B)                              # (3, 3)
    t2 = tape.matmul_nt(C, D)                           # (3, 3)
    t3 = tape.add(t1, t2)
    t4 = tape.sub(t1, t2)
    t5 = tape.mul(t3, t4)
    t6 = tape.div(t3, tape.exp(t4))
    t7 = tape.scale(t5, 0.5)
    t8 = tape.sigmoid(t7)
    t9 = tape.softplus(t4)
    t10 = tape.log(tape.add(t8, shift))                 # argument >= 1
    t11 = tape.relu(tape.add(t4, shift))
    t12 = tape.leaky_relu(t4)
    t13 = tape.maximum(t11, half)                       # rows stay positive
    t14 = tape.l2_normalize(t13)
    t15 = tape.concat([t14, t8])                        # (3, 6)
    t16 = tape.row_concat([t3, t4])                     # (6, 3)
    t17 = tape.row_gather(t16, np.array([0, 2, 4, 5, 1]))
    t18 = tape.dropout(t17, 0.0, np.random.default_rng(0))
    t19 = tape.softmax(v)
    t20 = tape.spmm(adj, t16)                           # (4, 3)
    t21 = tape.spmm_weighted(structure, w_vals, t16)
    t22 = tape.cosine_similarity(t17, tape.row_gather(t16, np.arange(5)))
    # the stopped branch only sees Q, which is deliberately not a
    # finite-difference parameter: the tape must leave Q.grad at None
    t23 = tape.stop_gradient(tape.mul(Q, Q))
    total = tape.sum(t15)
    for piece in (tape.mean(t18), tape.sum(tape.rowsum(t21)),
                  tape.sum(t19), tape.sum(t20), tape.sum(t22),
                  tape.sum(t6), tape.sum(t9), tape.sum(t10),
                  tape.sum(t12), tape.sum(t23), tape.sumsq(t14)):
        total = tape.add(total, piece)
    return tape, total


def _model_fd_case(tag):
    rng = np.random.default_rng(13)
    n_users, n_items = 5, 8
    pairs = [(u, int(i)) for u in range(n_users)
             for i in rng.choice(n_items, size=3, replace=False)]
    feats = {"textual": rng.normal(size=(n_items, 2)),
             "visual": rng.normal(size=(n_items, 3))}
    data = ModelData(n_users, n_items, np.array(pairs), feats)
    kwargs = dict(embedding_dim=3, layers=1, knn_k=2, item_graph_layers=1)
    if tag == "bm3":
        kwargs["dropout_p"] = 0.25
    if tag == "lattice":
        kwargs["blend"] = 0.5
    model = build_model(ModelConfig(tag=tag, **kwargs), data, seed=21,
                        dtype=np.float64)
    tdata = tr.TrainData.from_pairs(n_users, n_items, data.pairs)
    batch = tr.sample_triples(tdata, 6, np.random.default_rng(31))
    if tag == "bm3":
        model.make_frozen_views(batch, np.random.default_rng(41))
    if tag == "lattice":
        masks = {}
        for m in data.modalities:
            h = data.features[m] @ model.proj[m].data
            unit = h / np.linalg.norm(h, axis=1, keepdims=True)
            masks[m] = model._topk_mask(unit @ unit.T)
        model.frozen_masks = masks
    if tag == "freedom":
        model.on_epoch_start(np.random.default_rng(51), 1)
    return model, batch


def test_criterion_3_gradient_suite():
    """Every primitive and every model loss vs central FD, rel err < 1e-4, < 60 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    def p(*shape):
        return T.parameter(rng.normal(size=shape), dtype=np.float64)

    params = [p(3, 4), p(4, 3), p(3, 4), p(3, 4), p(1, 4), p(5, 1)]
    dense = np.zeros((4, 6))
    for r, c, val in ((0, 1, 1.0), (1, 3, 2.0), (2, 0, 0.5), (3, 5, 1.5),
                      (0, 4, 1.0)):
        dense[r, c] = val
    adj = T.SparseMatrix.from_dense(dense)
    structure = T.SparseMatrix.from_dense((dense > 0).astype(np.float64))
    extras = (
        T.parameter(rng.normal(size=(2, 2)), dtype=np.float64),  # Q, unchecked
        adj,
        structure,
        T.constant(np.full((3, 3), 1.0), dtype=np.float64),
        T.constant(np.full((3, 3), 0.1), dtype=np.float64),
    )
    tape, loss = _every_primitive_loss(params, extras)
    assert set(tape.op_names) == set(ALL_OPS)

    def build_loss():
        _, out = _every_primitive_loss(params, extras)
        return out

    assert_gradients_match(build_loss, params, rtol=1e-4)
    # the stopped branch must not leak a gradient into Q
    for prm in params:
        prm.zero_grad()
    tape2, loss2 = _every_primitive_loss(params, extras)
    tape2.backward(loss2)
    assert extras[0].grad is None

    for tag in ("vbpr", "mmgcn", "grcn", "lattice", "bm3", "freedom"):
        model, batch = _model_fd_case(tag)

        def model_loss():
            tape = T.Tape()
            return tr.total_loss(tape, model, batch,
                                 np.random.default_rng(0), reg=1e-3)

        assert_gradients_match(model_loss, model.tensors(), rtol=1e-4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(f"criterion 3: PASS ({len(ALL_OPS)} primitives + 6 model losses, "
          f"{elapsed:.1f}s)")


# ----------------------------------------------------- 4. corpus statistics

def test_criterion_4_sparsity_statistics():
    """stats() reproduces the five benchmark sparsity figures to two decimals."""
    triples = (
        (4905, 2420, 53258, "99.55"),
        (19412, 11924, 167597, "99.93"),
        (22363, 12101, 198502, "99.93"),
        (35598, 18357, 296337, "99.95"),
        (39387, 23033, 278677, "99.97"),
    )
    for n_users, n_items, n_inter, want in triples:
        n = np.arange(n_inter, dtype=np.int64)
        users = n % n_users
        items = (n // n_users + users * 7) % n_items
        d = ds.Dataset(
            user_ids=[f"u{x}" for x in range(n_users)],
            item_ids=[f"i{x}" for x in range(n_items)],
            interactions=np.stack([users, items], axis=1),
            ratings=np.ones(n_inter, dtype=np.float32),
            timestamps=np.zeros(n_inter, dtype=np.int64),
        )
        st = ds.stats(d)
        assert (st.n_users, st.n_items, st.n_interactions) == \
            (n_users, n_items, n_inter)
        assert f"{st.sparsity_percent:.2f}" == want
    print("criterion 4: PASS (five corpora, sparsity exact to 2 decimals)")


# ----------------------------------------------------- 5. schema legality

MODEL_CLASSIFICATION = {
    "vbpr": (Coordinate, Late, "sum"),
    "mmgcn": (Coordinate, Early, "sum"),
    "grcn": (Coordinate, Early, "concat"),
    "lattice": (Coordinate, Early, "weighted_sum"),
    "bm3": (Coordinate, Late, "sum"),
    "freedom": (Coordinate, Late, "sum"),
}


def test_criterion_5_schema_legality_and_model_classification():
    """Illegal couplings rejected; all six models carry their declared class."""
    mods = ("visual",)
    for fusion in (Early("sum"), Late("sum")):
        with pytest.raises(PipelineError):
            validate(PipelineSpec(Joint(8), fusion, mods))
    with pytest.raises(PipelineError):
        validate(PipelineSpec(Coordinate(8), NoFusion(), mods))
    validate(PipelineSpec(Joint(8), NoFusion(), mods))
    validate(PipelineSpec(Coordinate(8), Early("concat"), mods))

    rng = np.random.default_rng(3)
    pairs = [(u, int(i)) for u in range(5)
             for i in rng.choice(8, size=3, replace=False)]
    data = ModelData(5, 8, np.array(pairs),
                     {"textual": rng.normal(size=(8, 2)),
                      "visual": rng.normal(size=(8, 3))})
    for tag, (rep_cls, fus_cls, op) in MODEL_CLASSIFICATION.items():
        model = build_model(
            ModelConfig(tag=tag, embedding_dim=3, layers=1, knn_k=2), data)
        assert isinstance(model.spec.representation, rep_cls), tag
        assert isinstance(model.spec.fusion, fus_cls), tag
        assert model.spec.fusion.op == op, tag
        validate(model.spec)
    print("criterion 5: PASS (illegal pairs rejected, 6/6 classifications)")


# ----------------------------------------------------- 6. learning signal

def _separable_case(model_seed, zero_features):
    syn = ds.generate_synthetic(50, 200, density=0.15, seed=11,
                                modalities=("visual",), dims={"visual": 16},
                                noise=0.0)
    d = ds.k_core_filter(syn.dataset, 5)
    split = ds.holdout_split(d, seed=0, train_ratio=0.8)
    keep = [syn.dataset.item_ids.index(i) for i in d.item_ids]
    feats = syn.features["visual"][keep]
    if zero_features:
        feats = np.zeros_like(feats)
    mdata = ModelData(d.n_users, d.n_items, split.train, {"visual": feats})
    model = build_model(ModelConfig(tag="vbpr", embedding_dim=32), mdata,
                        seed=model_seed)
    trainer = tr.TrainerConfig(epochs=50, batch_size=1024, lr=0.05, reg=1e-5,
                               seed=model_seed, eval_every=10)
    eval_fn = ev.recall_eval_fn(split, "validation", k=10, threads=1)
    result = train_loop(model.spec, model, tr.TrainData.from_split(split),
                        trainer, eval_fn=eval_fn)
    best = max(v for _, v in result.evals)
    return best, split, d


def test_criterion_6_learning_signal():
    """Recall@10 >= 5x chance on separable data in 50 epochs; features beat
    the zero-feature ablation on every one of 5 paired seeds; < 2 min."""
    t0 = time.perf_counter()
    best, split, d = _separable_case(0, zero_features=False)
    train_pos = split.user_positives("train")
    val_pos = split.user_positives("validation")
    chance = float(np.mean([
        10.0 / (d.n_items - len(train_pos.get(u, ())))
        for u, rel in val_pos.items() if rel
    ]))
    assert best >= 5.0 * chance, \
        f"recall {best:.4f} under 5x chance {5 * chance:.4f}"

    wins = []
    for seed in range(5):
        featured, _, _ = _separable_case(seed, zero_features=False)
        ablated, _, _ = _separable_case(seed, zero_features=True)
        wins.append(featured > ablated)
    assert all(wins), f"paired feature wins: {wins}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"learning-signal suite took {elapsed:.1f}s"
    print(f"criterion 6: PASS (recall {best:.3f} vs chance {chance:.3f}, "
          f"5/5 paired wins, {elapsed:.1f}s)")


# ----------------------------------------------------- 7. protocol rules

def test_criterion_7_protocol_conformance():
    """k-core fixpoint, split rounding, grid cap, Recall@20 selection."""
    # k-core: result matches the brute-force fixpoint and is idempotent
    rng = np.random.default_rng(9)
    flat = rng.choice(30 * 60, size=400, replace=False)
    lines = [f"u{x // 60}\ti{x % 60}" for x in flat]
    raw = ds.index_log(ds.parse_interactions(lines))
    core = ds.k_core_filter(raw, 5)
    got_pairs = {(core.user_ids[u], core.item_ids[i])
                 for u, i in core.interactions}
    want_pairs = {(f"u{x // 60}", f"i{x % 60}") for x in flat}
    oracle = set(oracles.kcore_bruteforce(
        [(f"u{x // 60}", f"i{x % 60}") for x in flat], 5))
    assert got_pairs == oracle and got_pairs <= want_pairs
    st = ds.stats(core)
    assert st.min_user_degree >= 5 and st.min_item_degree >= 5
    again = ds.k_core_filter(core, 5)
    assert again.n_interactions == core.n_interactions

    # split: floor(0.8 n) to train (min 1), ceil of the rest to validation
    pairs = [(u, (u * 9 + t) % 45) for u in range(9) for t in range(u + 1)]
    d = ds.Dataset([f"u{x}" for x in range(9)], [f"i{x}" for x in range(45)],
                   np.array(pairs, dtype=np.int64),
                   np.ones(len(pairs), dtype=np.float32),
                   np.zeros(len(pairs), dtype=np.int64))
    split = ds.holdout_split(d, seed=5, train_ratio=0.8)
    parts = [set(map(tuple, part.tolist()))
             for part in (split.train, split.validation, split.test)]
    assert parts[0] | parts[1] | parts[2] == set(pairs)
    assert sum(len(p) for p in parts) == len(pairs)
    for u in range(9):
        deg = u + 1
        n_train = max(1, int(np.floor(0.8 * deg)))
        held = deg - n_train
        by = [sum(1 for uu, _ in p if uu == u) for p in parts]
        assert by[0] == n_train
        assert by[1] == int(np.ceil(held / 2))
        assert by[2] == held - by[1]

    # grid: an 11-point grid is rejected before training
    with pytest.raises(ValueError, match="grid"):
        tr.GridSpec(lrs=(1, 2, 3, 4, 5, 6), regs=(1, 2))
    tr.GridSpec(lrs=(1, 2, 3, 4, 5), regs=(1, 2))  # exactly 10 is fine

    # selection: highest validation value wins, ties to the lower index
    rng = np.random.default_rng(3)
    mpairs = [(u, int(i)) for u in range(5)
              for i in rng.choice(8, size=3, replace=False)]
    mdata = ModelData(5, 8, np.array(mpairs),
                      {"visual": rng.normal(size=(8, 3))})
    tdata = tr.TrainData.from_pairs(5, 8, mdata.pairs)
    counter = {"n": 0}
    values = {0: 0.2, 1: 0.8, 2: 0.8}

    def factory(seed):
        model = build_model(ModelConfig(tag="vbpr", embedding_dim=3),
                            mdata, seed=seed)
        model._sel_idx = counter["n"]
        counter["n"] += 1
        return model

    grid = tr.GridSpec(lrs=(0.1, 0.2, 0.3), regs=(1e-5,))
    trainer = tr.TrainerConfig(epochs=1, batch_size=8, eval_every=1)
    result = tr.grid_search(factory, grid, tdata, trainer,
                            lambda m: values[m._sel_idx])
    assert (result.best_value, result.config_index, result.lr) == \
        (0.8, 1, 0.2)

    # and the tune entry point really scores validation Recall@20
    syn = ds.generate_synthetic(30, 80, density=0.2, seed=2,
                                modalities=("visual",), dims={"visual": 4})
    d2 = ds.k_core_filter(syn.dataset, 3)
    split2 = ds.holdout_split(d2, seed=1)
    keep = [syn.dataset.item_ids.index(i) for i in d2.item_ids]
    mdata2 = ModelData(d2.n_users, d2.n_items, split2.train,
                       {"visual": syn.features["visual"][keep]})
    model = build_model(ModelConfig(tag="vbpr", embedding_dim=4), mdata2)
    eval_fn = ev.recall_eval_fn(split2, "validation", k=20, threads=1)
    pos = split2.user_positives("train")
    rel = {u: r for u, r in split2.user_positives("validation").items() if r}
    recs = ev.rank_topk(model.score_users, sorted(rel), 20, pos, d2.n_items)
    assert eval_fn(model) == pytest.approx(
        ev.recall_at_k(recs, rel, 20), abs=1e-12)
    print("criterion 7: PASS (k-core, split rounding, grid cap, selection)")


# ----------------------------------------------------- 8. determinism

def _benchmark_corpus(root):
    rng = np.random.default_rng(7)
    n_users, n_items = 15, 35
    lines = []
    for u in range(n_users):
        for j in range(10):
            lines.append(f"u{u}\ti{(u * 3 + j) % n_items}\t5\t{100 + j}")
    with open(os.path.join(root, "interactions.tsv"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    ids = [f"i{i}" for i in range(n_items)]
    write_features(
        ModalityFeatures("visual", 4, ids,
                         rng.normal(size=(n_items, 4)).astype(np.float32)),
        os.path.join(root, "visual.bin"))
    write_features(
        ModalityFeatures("textual", 3, ids,
                         rng.normal(size=(n_items, 3)).astype(np.float32)),
        os.path.join(root, "textual.bin"))


def test_criterion_8_benchmark_determinism(tmp_path):
    """Full six-model benchmark, fixed seed, threads=1: byte-identical output."""
    root = str(tmp_path)
    _benchmark_corpus(root)
    out = os.path.join(root, "out")
    config = ex.ExperimentConfig(
        interactions=os.path.join(root, "interactions.tsv"),
        features={"visual": os.path.join(root, "visual.bin"),
                  "textual": os.path.join(root, "textual.bin")},
        model=ModelConfig(tag="vbpr", embedding_dim=8, knn_k=3, layers=1),
        trainer=tr.TrainerConfig(epochs=2, batch_size=64, eval_every=1),
        kcore=2, grid_lrs=(0.01,), grid_regs=(1e-5,), cutoffs=(10, 20),
        out_dir=out)

    def run_and_collect():
        ex.cmd_benchmark(config, threads=1)
        names = sorted(
            p for pattern in ("report.md", "report.tsv", "*/metrics.json",
                              "*/manifest.json", "*/recommendations.tsv",
                              "*/checkpoint/*.bin")
            for p in glob.glob(os.path.join(out, pattern)))
        blobs = {os.path.relpath(p, out): open(p, "rb").read()
                 for p in names}
        shutil.rmtree(out)
        return blobs

    first = run_and_collect()
    second = run_and_collect()
    assert len(first) > 20
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    print(f"criterion 8: PASS ({len(first)} artifacts byte-identical)")


# ----------------------------------------------------- 9. gated real data

REAL_DATA_ENV = "FUSIONREC_DATASET"


def test_criterion_9_full_pipeline_on_real_dataset(tmp_path):
    """Optional: end-to-end on a real corpus if FUSIONREC_DATASET is set.

    The directory must hold interactions.tsv plus one feature file per
    modality (<name>.bin or <name>.tsv). Only report shape and metric
    ranges are asserted, never specific values.
    """
    root = os.environ.get(REAL_DATA_ENV)
    if not root:
        pytest.skip(f"set {REAL_DATA_ENV}=/path/to/dataset to run the "
                    "full-pipeline check")
    inter = os.path.join(root, "interactions.tsv")
    features = {}
    for path in sorted(glob.glob(os.path.join(root, "*.bin")) +
                       glob.glob(os.path.join(root, "*.tsv"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem != "interactions":
            features[stem] = path
    assert os.path.isfile(inter), f"{inter} missing"
    assert features, f"no feature files under {root}"
    config = ex.ExperimentConfig(
        interactions=inter,
        features=features,
        model=ModelConfig(tag="vbpr", embedding_dim=64),
        trainer=tr.TrainerConfig(epochs=10, batch_size=2048, eval_every=5),
        kcore=5, grid_lrs=(1e-3, 5e-3), grid_regs=(1e-5,), cutoffs=(10, 20),
        out_dir=str(tmp_path / "out"))
    rows = ex.cmd_benchmark(config, threads=1)
    md = open(os.path.join(config.out_dir, "report.md")).read()
    lines = md.strip().split("\n")
    assert lines[0].startswith("| Model | Recall@10 |")
    assert lines[0].rstrip().endswith("iCov@20 |")
    assert len(lines) == 2 + 6
    for tag, report in rows:
        for k in (10, 20):
            for metric in ("recall", "ndcg", "aplt"):
                assert 0.0 <= report.get(metric, k) <= 1.0, (tag, metric)
            assert 0.0 <= report.get("gini", k) <= 1.0, tag
            assert report.get("efd", k) >= 0.0, tag
            assert 0.0 < report.get("icov", k) <= 100.0, tag
    print("criterion 9: PASS (real-corpus pipeline completed)")
