"""Model tests: hand-computed cases, structural collapses, gradient checks."""

import gc
import logging
import tracemalloc
import weakref

import numpy as np
import pytest

import fusionrec.tensor as T
import fusionrec.training as tr
from fusionrec.models import (
    BM3,
    FREEDOM,
    GRCN,
    LATTICE,
    MMGCN,
    VBPR,
    ModelConfig,
    ModelData,
    bipartite_adjacency,
    build_model,
    item_graph,
    knn_graph,
    load_checkpoint,
    save_checkpoint,
)
from fusionrec.models.freedom import edge_keep_probabilities
from fusionrec.schema import Coordinate, Early, Late
from fdcheck import assert_gradients_match
from oracles import grcn_reference, knn_bruteforce, knn_graph_dense


def small_data(n_users=5, n_items=8, seed=0, mods=("textual", "visual")):
    rng = np.random.default_rng(seed)
    pairs = []
    for u in range(n_users):
        for i in rng.choice(n_items, size=3, replace=False):
            pairs.append((u, int(i)))
    feats = {}
    dims = {"visual": 3, "textual": 2, "audio": 4}
    for m in mods:
        feats[m] = rng.normal(size=(n_items, dims[m]))
    return ModelData(n_users, n_items, np.array(pairs), feats)


def fixed_batch(data, size=6, seed=3):
    tdata = tr.TrainData.from_pairs(data.n_users, data.n_items, data.pairs)
    return tr.sample_triples(tdata, size, np.random.default_rng(seed))


# ------------------------------------------------------------------- config

def test_config_rejects_bad_fields():
    for kwargs in (
        {"tag": "nope"},
        {"tag": "vbpr", "embedding_dim": 0},
        {"tag": "mmgcn", "layers": -1},
        {"tag": "lattice", "knn_k": 0},
        {"tag": "bm3", "dropout_p": 1.0},
        {"tag": "lattice", "blend": 1.5},
        {"tag": "freedom", "prune_ratio": -0.1},
        {"tag": "mmgcn", "activation": "tanh"},
        {"tag": "freedom", "modality_weights": (-1.0, 2.0)},
    ):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


def test_config_tag_must_match_class():
    data = small_data()
    with pytest.raises(ValueError, match="tag"):
        VBPR(ModelConfig(tag="bm3"), data)


def test_model_data_validation():
    feats = {"visual": np.zeros((4, 2))}
    with pytest.raises(ValueError, match="out of range"):
        ModelData(2, 4, np.array([[0, 5]]), dict(feats))
    with pytest.raises(ValueError, match="rows"):
        ModelData(2, 5, np.array([[0, 1]]), dict(feats))
    with pytest.raises(ValueError, match="non-finite"):
        ModelData(2, 4, np.array([[0, 1]]), {"visual": np.full((4, 2), np.nan)})
    with pytest.raises(ValueError, match="modality"):
        ModelData(2, 4, np.array([[0, 1]]), {})


def test_build_model_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown model tag"):
        cfg = ModelConfig(tag="vbpr")
        cfg.tag = "unknown"
        build_model(cfg, small_data())


# ----------------------------------------------------------- classification

CLASSIFICATION = {
    "vbpr": (Coordinate, Late, "sum"),
    "mmgcn": (Coordinate, Early, "sum"),
    "grcn": (Coordinate, Early, "concat"),
    "lattice": (Coordinate, Early, "weighted_sum"),
    "bm3": (Coordinate, Late, "sum"),
    "freedom": (Coordinate, Late, "sum"),
}


def test_pipeline_classification_table():
    data = small_data()
    for tag, (rep_cls, fus_cls, op) in CLASSIFICATION.items():
        cfg = ModelConfig(tag=tag, embedding_dim=4, knn_k=2)
        model = build_model(cfg, data, seed=1)
        assert isinstance(model.spec.representation, rep_cls), tag
        assert isinstance(model.spec.fusion, fus_cls), tag
        assert model.spec.fusion.op == op, tag
        assert model.spec.representation.out_dim == cfg.embedding_dim, tag
        assert model.spec.modalities == data.modalities
        assert sorted(model.feats) == list(data.modalities), tag
        for m in data.modalities:
            assert not model.feats[m].requires_grad, (tag, m)
            assert model.feats[m].data.dtype == model.dtype, (tag, m)
            np.testing.assert_array_equal(
                model.feats[m].data, data.features[m].astype(model.dtype))


def test_census_covers_every_tensor_once():
    data = small_data()
    for tag in CLASSIFICATION:
        model = build_model(ModelConfig(tag=tag, embedding_dim=4, knn_k=2),
                            data, seed=1)
        census = model.params().census()
        names = [n for g in census.values() for n in g]
        assert len(names) == len(set(names)) == len(model.tensors())


# ---------------------------------------------------------------------- vbpr

def test_vbpr_hand_score():
    data = ModelData(1, 1, np.array([[0, 0]]), {"visual": np.array([[4.0]])})
    model = VBPR(ModelConfig(tag="vbpr", embedding_dim=1), data, seed=0)
    model.user_emb.data[:] = 2.0
    model.item_emb.data[:] = 3.0
    model.mod_user["visual"].data[:] = 1.0
    model.proj["visual"].data[:] = 1.0  # E_m f = 1 * 4 = 4
    assert model.score_users([0])[0, 0] == pytest.approx(10.0)


def test_vbpr_zeroed_modalities_equal_mf():
    data = small_data()
    model = VBPR(ModelConfig(tag="vbpr", embedding_dim=4), data, seed=2)
    for m in data.modalities:
        model.mod_user[m].data[:] = 0.0
        model.proj[m].data[:] = 0.0
    got = model.score_users(range(data.n_users))
    want = model.user_emb.data @ model.item_emb.data.T
    np.testing.assert_array_equal(got, want)


def test_vbpr_scaling_one_modality_removes_its_term():
    data = small_data()
    model = VBPR(ModelConfig(tag="vbpr", embedding_dim=4), data, seed=2)
    full = model.score_users(range(data.n_users))
    proj = model.data.features["textual"] @ model.proj["textual"].data
    term = model.mod_user["textual"].data @ proj.T
    model.mod_user["textual"].data[:] = 0.0
    reduced = model.score_users(range(data.n_users))
    np.testing.assert_allclose(full - reduced, term, rtol=1e-5, atol=1e-6)


def test_vbpr_bias_flag():
    data = small_data()
    model = VBPR(ModelConfig(tag="vbpr", embedding_dim=4, with_bias=True),
                 data, seed=2, dtype=np.float64)
    assert "item_bias" in model.params().census()["rho"]
    base = model.score_users([0])
    model.item_bias.data[:, 0] += 1.0
    np.testing.assert_allclose(model.score_users([0]), base + 1.0, rtol=1e-12)


# --------------------------------------------------------------------- mmgcn

def test_mmgcn_single_edge_hand_propagation():
    data = ModelData(1, 1, np.array([[0, 0]]),
                     {"visual": np.array([[1.0, 0.0]])})
    cfg = ModelConfig(tag="mmgcn", embedding_dim=2, layers=1,
                      activation="linear")
    model = MMGCN(cfg, data, seed=0, dtype=np.float64)
    model.user_emb["visual"].data[:] = [[1.0, 2.0]]
    model.id_emb["visual"].data[:] = [[5.0, 6.0], [7.0, 8.0]]
    model.proj["visual"].data[:] = np.eye(2)
    model.w1["visual"][0].data[:] = np.eye(2)
    model.w2["visual"][0].data[:] = np.eye(2)
    tape = T.Tape()
    users, items = model._representations(tape, train=False)
    # aggregate for the item node is its single neighbor's h0 with weight 1
    np.testing.assert_allclose(items.data, [[1 + 7 + 1, 2 + 8 + 0]])
    np.testing.assert_allclose(users.data, [[1 + 5 + 1, 0 + 6 + 2]])


def test_mmgcn_layers_zero_is_summed_per_modality_mf():
    data = small_data()
    model = MMGCN(ModelConfig(tag="mmgcn", embedding_dim=4, layers=0),
                  data, seed=3, dtype=np.float64)
    got = model.score_users(range(data.n_users))
    # Early(sum) fusion: representations are summed across modalities first,
    # so the collapse is an MF over the summed embeddings
    users = np.zeros((data.n_users, 4))
    items = np.zeros((data.n_items, 4))
    for m in data.modalities:
        users += model.user_emb[m].data
        items += data.features[m] @ model.proj[m].data
    np.testing.assert_allclose(got, users @ items.T, rtol=1e-10)


def test_mmgcn_dropping_modality_drops_census_entries():
    both = MMGCN(ModelConfig(tag="mmgcn", embedding_dim=4),
                 small_data(mods=("textual", "visual")), seed=0)
    one = MMGCN(ModelConfig(tag="mmgcn", embedding_dim=4),
                small_data(mods=("textual",)), seed=0)
    names_both = set(both.params().named())
    names_one = set(one.params().named())
    assert names_one < names_both
    assert all("visual" in n for n in names_both - names_one)


# ---------------------------------------------------------------------- grcn

def grcn_hand_model():
    feats = {"visual": np.array([[1.0, 0.0], [0.0, 1.0]])}
    data = ModelData(2, 2, np.array([[0, 0], [1, 1]]), feats)
    cfg = ModelConfig(tag="grcn", embedding_dim=2, layers=1)
    model = GRCN(cfg, data, seed=0, dtype=np.float64)
    model.proj["visual"].data[:] = np.eye(2)
    model.pref["visual"].data[:] = [[2.0, 0.0], [-3.0, 0.0]]
    return model


def test_grcn_hand_refined_adjacency(caplog):
    model = grcn_hand_model()
    # degrees are all 1, so base values are 1; gates are cos clamped at 0:
    # edge (u0, i0) aligns perfectly (gate 1), edge (u1, i1) is orthogonal
    # after clamping (gate 0)
    tape = T.Tape()
    with caplog.at_level(logging.WARNING):
        vals = model.refined_edge_values(tape)
    refined = dict(zip(zip(model.structure.rows.tolist(),
                           model.structure.cols.tolist()),
                       vals.data[:, 0].tolist()))
    assert refined[(0, 2)] == pytest.approx(1.0)
    assert refined[(2, 0)] == pytest.approx(1.0)
    assert refined[(1, 3)] == pytest.approx(0.0)
    assert refined[(3, 1)] == pytest.approx(0.0)
    assert "1 users have all incident edges gated to zero" in caplog.text
    # the same count on the next pass is not logged again
    logged = len(caplog.records)
    with caplog.at_level(logging.WARNING):
        model.refined_edge_values(T.Tape())
    assert len(caplog.records) == logged


def test_grcn_gate_of_one_matches_unrefined_propagation():
    data = small_data()
    cfg = ModelConfig(tag="grcn", embedding_dim=4, layers=2)
    model = GRCN(cfg, data, seed=4, dtype=np.float64)
    n_pairs = data.pairs.shape[0]
    model._edge_gate = lambda tape, item_proj: T.constant(
        np.ones((n_pairs, 1)), dtype=np.float64)
    got = model.score_users(range(data.n_users))

    adj = bipartite_adjacency(data.n_users, data.n_items, data.pairs,
                              dtype=np.float64).csr().toarray()

    def propagate(h0):
        acc, h = h0.copy(), h0
        for _ in range(cfg.layers):
            h = adj @ h
            acc += h
        return acc / (cfg.layers + 1)

    blocks = [propagate(model.id_emb.data)]
    for m in data.modalities:
        h0 = np.vstack([model.pref[m].data,
                        data.features[m] @ model.proj[m].data])
        blocks.append(propagate(h0))
    final = np.hstack(blocks)
    want = final[:data.n_users] @ final[data.n_users:].T
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_grcn_projects_each_modality_once_per_pass():
    data = small_data()
    model = GRCN(ModelConfig(tag="grcn", embedding_dim=4, layers=2), data, seed=4)
    tape = T.Tape()
    model._representations(tape, train=True)
    assert tape.op_names.count("matmul") == len(data.modalities)
    assert tape.op_names.count("spmm_weighted") == model.config.layers


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_grcn_first_batch_matches_per_edge_three_propagation_reference(dtype, rtol):
    # node-level cosine and one wide propagation compute the same forward
    # pass bit for bit; in backward only the summation order moves
    data = small_data(n_users=40, n_items=25, seed=6)
    model = GRCN(ModelConfig(tag="grcn", embedding_dim=8, layers=2), data,
                 seed=2, dtype=dtype)
    batch = fixed_batch(data, size=32, seed=5)

    def first_batch(loss_fn):
        model.zero_grads()
        tape = T.Tape()
        loss = loss_fn(tape)
        loss_value = loss.data.copy()
        tape.backward(loss)
        return loss_value, [t.grad.copy() for t in model.tensors()]

    got_loss, got_grads = first_batch(
        lambda tape: model.loss(tape, batch, np.random.default_rng(0)))
    ref_loss, ref_grads = first_batch(lambda tape: grcn_reference(tape, model, batch)[0])
    assert got_loss.dtype == dtype
    np.testing.assert_array_equal(got_loss, ref_loss)
    for got, want in zip(got_grads, ref_grads):
        # entries that cancel to near zero get the floor rtol * largest entry
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())

    tape = T.Tape()
    final = grcn_reference(tape, model, batch)[1].data
    n_u = data.n_users
    want = final[:n_u] @ np.ascontiguousarray(final[n_u:]).T
    np.testing.assert_array_equal(model.score_users(np.arange(n_u)), want)


# ------------------------------------------------------------------- lattice

def test_knn_graph_three_points_on_a_line():
    feats = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    graph = knn_graph(feats, k=1).csr().toarray()
    # endpoints both pick the middle point; the middle point's two
    # similarities tie and resolve to the lower id
    np.testing.assert_allclose(
        graph, [[0, 1, 0], [1, 0, 0], [0, 1, 0]], atol=1e-12)


def test_knn_graph_matches_bruteforce():
    rng = np.random.default_rng(11)
    for n, k in ((5, 1), (17, 4), (40, 10), (64, 7)):
        feats = rng.normal(size=(n, 5))
        graph = knn_graph(feats, k).csr().toarray()
        oracle = knn_bruteforce([list(r) for r in feats], k)
        want = np.zeros((n, n))
        for i, neighbors in oracle.items():
            for j, cos in neighbors:
                want[i, j] = max(cos, 0.0)
        sums = want.sum(axis=1, keepdims=True)
        np.divide(want, sums, out=want, where=sums > 0)
        np.testing.assert_allclose(graph, want, atol=1e-9)


@pytest.mark.parametrize("n", [513, 1031])
def test_knn_graph_matches_dense_across_blocks(n):
    rng = np.random.default_rng(n)
    feats = np.column_stack([3.0 + np.abs(rng.normal(size=n)),
                             0.3 * rng.normal(size=(n, 5))])
    # eight copies of the first axis, spread over the blocks: a copy's
    # cosine with any row is that row's first unit coordinate, so the copies
    # tie exactly in every row, and seven tie for each copy's k = 6
    dups = [7, 40, 255, 300, 511, 700 % n, n - 3]
    feats[dups + [100]] = [2.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    feats[[3, 600 % n]] = 0.0  # zero rows: no neighbors
    # rows 20 and n - 5 have a negative cosine with every other nonzero row
    feats[20] = [-1.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    feats[n - 5] = [-1.0, -2.0, 0.0, 0.0, 0.0, 0.0]
    k = 6
    graph = knn_graph(feats, k)
    want = knn_graph_dense(feats, k)
    got = graph.csr().toarray()
    np.testing.assert_array_equal(got != 0, want != 0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert graph.vals.dtype == np.float64
    assert not (graph.rows == graph.cols).any()
    assert graph.nnz == np.count_nonzero(want)
    empty = np.flatnonzero(np.bincount(graph.rows, minlength=n) == 0)
    assert set(empty) == {3, 600 % n, 20, n - 5}
    copies = sorted(dups + [100])
    for i in copies:
        assert graph.csr()[i].indices.tolist() == [j for j in copies if j != i][:k]


def test_knn_graph_never_holds_an_n_by_n_array():
    n = 4000
    feats = np.random.default_rng(5).normal(size=(n, 8))
    tracemalloc.start()
    try:
        knn_graph(feats, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2


def test_knn_graph_rejects_large_k():
    with pytest.raises(ValueError, match="knn_k"):
        knn_graph(np.ones((3, 2)), k=3)


@pytest.mark.parametrize("cls", [LATTICE, FREEDOM], ids=["lattice", "freedom"])
def test_lattice_rejects_large_k(cls):
    with pytest.raises(ValueError, match="knn_k=8 must be < n_items=8"):
        cls(ModelConfig(tag=cls.tag, knn_k=8), small_data(n_items=8))


def test_lattice_degenerate_merge_weights_pick_one_graph():
    data = small_data()
    cfg = ModelConfig(tag="lattice", embedding_dim=4, knn_k=2, blend=1.0)
    model = LATTICE(cfg, data, seed=5, dtype=np.float64)
    # logits (0, 800): exp(-800) underflows to exactly 0 in float64, so the
    # softmax weights are exactly (0, 1), picking the second sorted modality
    model.merge_logits.data[:] = [[0.0, 800.0]]
    tape = T.Tape()
    merged = model.merged_graph(tape)
    np.testing.assert_array_equal(merged.data, model.initial["visual"].data)


def test_lattice_blend_one_freezes_graph():
    data = small_data()
    cfg = ModelConfig(tag="lattice", embedding_dim=4, knn_k=2, blend=1.0)
    model = LATTICE(cfg, data, seed=5, dtype=np.float64)
    batch = fixed_batch(data)
    tape = T.Tape()
    loss = model.loss(tape, batch, np.random.default_rng(0))
    model.zero_grads()
    tape.backward(loss)
    for m in data.modalities:
        assert model.proj[m].grad is None  # learned graph never entered
    assert model.merge_logits.grad is not None


# ----------------------------------------------------------------------- bm3

def test_bm3_zero_dropout_intra_loss_exactly_zero():
    data = small_data()
    cfg = ModelConfig(tag="bm3", embedding_dim=4, dropout_p=0.0)
    model = BM3(cfg, data, seed=6, dtype=np.float64)
    batch = fixed_batch(data)
    tape = T.Tape()
    rec, inter, intra = model.loss_terms(tape, batch, np.random.default_rng(0))
    assert intra.item() == 0.0
    assert rec.item() > 0.0


def test_bm3_identical_views_minimize_reconstruction():
    data = ModelData(1, 2, np.array([[0, 0]]),
                     {"visual": np.array([[1.0], [2.0]])})
    cfg = ModelConfig(tag="bm3", embedding_dim=3, layers=0, dropout_p=0.0)
    model = BM3(cfg, data, seed=0, dtype=np.float64)
    model.user_emb.data[:] = [[1.0, 2.0, 3.0]]
    model.item_emb.data[0] = [1.0, 2.0, 3.0]
    batch = tr.TripleBatch(users=np.array([0]), pos=np.array([0]),
                           neg=np.array([1]))
    tape = T.Tape()
    rec, _, _ = model.loss_terms(tape, batch, np.random.default_rng(0))
    assert rec.item() == 0.0


def test_bm3_loss_ignores_negative_items():
    data = small_data()
    cfg = ModelConfig(tag="bm3", embedding_dim=4, dropout_p=0.3)
    model = BM3(cfg, data, seed=6, dtype=np.float64)
    batch = fixed_batch(data)
    model.make_frozen_views(batch, np.random.default_rng(9))
    tape = T.Tape()
    a = model.loss(tape, batch, np.random.default_rng(0)).item()
    flipped = tr.TripleBatch(users=batch.users, pos=batch.pos,
                             neg=(batch.neg + 1) % data.n_items)
    tape = T.Tape()
    b = model.loss(tape, flipped, np.random.default_rng(0)).item()
    assert a == b


# ------------------------------------------------------------------- freedom

def test_freedom_keep_probabilities_uniform_degrees():
    pairs = np.array([[0, 0], [1, 1], [2, 2]])
    probs = edge_keep_probabilities(pairs, 3, 3)
    np.testing.assert_allclose(probs, [1 / 3] * 3, rtol=1e-12)


def test_freedom_keep_probabilities_favor_low_degree():
    pairs = np.array([[0, 0], [0, 1], [0, 2], [1, 3]])
    probs = edge_keep_probabilities(pairs, 2, 4)
    assert probs[3] == max(probs)
    assert probs.sum() == pytest.approx(1.0)


def test_freedom_no_pruning_keeps_full_graph():
    data = small_data()
    cfg = ModelConfig(tag="freedom", embedding_dim=4, knn_k=2,
                      prune_ratio=0.0)
    model = FREEDOM(cfg, data, seed=7)
    model.on_epoch_start(np.random.default_rng(0), 1)
    assert model._train_adj is model.full_adj


def test_freedom_pruning_drops_edges():
    data = small_data()
    cfg = ModelConfig(tag="freedom", embedding_dim=4, knn_k=2,
                      prune_ratio=0.5)
    model = FREEDOM(cfg, data, seed=7)
    model.on_epoch_start(np.random.default_rng(0), 1)
    kept = model._train_adj.nnz // 2
    assert kept == round(0.5 * data.pairs.shape[0])


def test_freedom_prune_ratio_one_rejected():
    with pytest.raises(ValueError, match="prune_ratio"):
        FREEDOM(ModelConfig(tag="freedom", knn_k=2, prune_ratio=1.0),
                small_data())


def test_freedom_mm_weight_zero_leaves_projections_without_gradient():
    data = small_data()
    cfg = ModelConfig(tag="freedom", embedding_dim=4, knn_k=2, mm_weight=0.0)
    model = FREEDOM(cfg, data, seed=7, dtype=np.float64)
    model.on_epoch_start(np.random.default_rng(0), 1)
    batch = fixed_batch(data)
    tape = T.Tape()
    loss = model.loss(tape, batch, np.random.default_rng(0))
    model.zero_grads()
    tape.backward(loss)
    for m in data.modalities:
        assert model.proj[m].grad is None
    assert model.user_emb.grad is not None


def test_freedom_item_graph_is_frozen_row_stochastic():
    data = small_data()
    merged = item_graph(data.features, k=2).csr().toarray()
    sums = merged.sum(axis=1)
    assert ((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0)).all()


@pytest.mark.parametrize("weights", [None, (3.0, 1.0)])
def test_freedom_item_graph_bitwise_equals_dense_merge(weights):
    data = small_data()
    cfg = ModelConfig(tag="freedom", embedding_dim=4, knn_k=2,
                      modality_weights=weights)
    model = FREEDOM(cfg, data, seed=0)
    w = weights or (1.0, 1.0)
    dense = np.zeros((data.n_items, data.n_items))
    for m, wm in zip(data.modalities, w):
        dense += wm / sum(w) * knn_graph_dense(data.features[m], 2)
    want = T.SparseMatrix.from_dense(dense, dtype=np.float32)
    np.testing.assert_array_equal(model.item_graph.rows, want.rows)
    np.testing.assert_array_equal(model.item_graph.cols, want.cols)
    assert model.item_graph.vals.dtype == np.float32
    assert model.item_graph.vals.tobytes() == want.vals.tobytes()


# -------------------------------------------------------- batch-local losses

def full_catalog_loss(model, tape, batch, rng):
    """The training loss from full representations and full projections."""
    from fusionrec.models import RecommenderModel

    total = RecommenderModel.loss(model, tape, batch, rng)
    if model.tag != "freedom":
        return total
    users_rep, _ = model._representations(tape, train=True)
    u_rows = tape.row_gather(users_rep, batch.users)
    mm = None
    for m in model.data.modalities:
        item_mm = tape.matmul(model.feats[m], model.proj[m])
        pos_mm = tape.rowsum(tape.mul(u_rows, tape.row_gather(item_mm, batch.pos)))
        neg_mm = tape.rowsum(tape.mul(u_rows, tape.row_gather(item_mm, batch.neg)))
        term = tr.bpr_loss(tape, pos_mm, neg_mm)
        mm = term if mm is None else tape.add(mm, term)
    return tape.add(total, tape.scale(mm, model.config.mm_weight
                                      / len(model.data.modalities)))


@pytest.mark.parametrize("tag,with_bias", [("vbpr", False), ("vbpr", True),
                                           ("freedom", False)])
@pytest.mark.parametrize("dtype,grad_rtol", [(np.float64, 1e-12),
                                             (np.float32, 1e-5)])
def test_batch_local_loss_matches_full_catalog_formula(tag, with_bias, dtype,
                                                       grad_rtol):
    rng = np.random.default_rng(61)
    n_users, n_items = 20, 40
    pairs = [(u, int(i)) for u in range(n_users)
             for i in rng.choice(n_items, size=6, replace=False)]
    feats = {"visual": rng.normal(size=(n_items, 64)),
             "textual": rng.normal(size=(n_items, 24))}
    data = ModelData(n_users, n_items, np.array(pairs), feats)
    cfg = ModelConfig(tag=tag, embedding_dim=8, knn_k=3, with_bias=with_bias)
    model = build_model(cfg, data, seed=5, dtype=dtype)
    if with_bias:
        model.item_bias.data[:] = rng.normal(size=(n_items, 1))
    if tag == "freedom":
        model.on_epoch_start(np.random.default_rng(2), 1)
    batch = fixed_batch(data, size=32, seed=4)
    # the batch repeats users and items and leaves some of each out
    assert len(np.unique(batch.users)) < min(len(batch), n_users)
    assert len(np.unique(np.concatenate([batch.pos, batch.neg]))) < n_items
    runs = []
    for loss_fn in (model.loss, lambda *a: full_catalog_loss(model, *a)):
        model.zero_grads()
        tape = T.Tape()
        loss = loss_fn(tape, batch, np.random.default_rng(0))
        tape.backward(loss)
        runs.append((loss.data, [t.grad for t in model.tensors()]))
    (local, local_grads), (full, full_grads) = runs
    if dtype == np.float32:
        np.testing.assert_array_equal(local, full)
    else:
        np.testing.assert_allclose(local, full, rtol=1e-12)
    # summation order differs, and an entry that sums cancelling terms keeps
    # the terms' rounding: the tolerance is relative to each gradient's scale
    for name, got, want in zip(model.params().named(), local_grads, full_grads):
        assert got is not None and want is not None, name
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=grad_rtol,
                                   atol=grad_rtol * scale, err_msg=name)


# ---------------------------------------------------------- gradient checks

def model_fd_case(tag, **cfg_kwargs):
    data = small_data(n_users=5, n_items=8, seed=13)
    defaults = dict(embedding_dim=3, layers=1, knn_k=2, item_graph_layers=1)
    defaults.update(cfg_kwargs)
    model = build_model(ModelConfig(tag=tag, **defaults), data, seed=21,
                        dtype=np.float64)
    batch = fixed_batch(data, size=6, seed=31)
    return model, batch


@pytest.mark.parametrize("tag", ["vbpr", "mmgcn", "grcn", "lattice",
                                 "bm3", "freedom"])
def test_model_loss_gradient_matches_fd(tag):
    kwargs = {}
    if tag == "bm3":
        kwargs["dropout_p"] = 0.25
    if tag == "lattice":
        kwargs["blend"] = 0.5
    model, batch = model_fd_case(tag, **kwargs)
    if tag == "bm3":
        model.make_frozen_views(batch, np.random.default_rng(41))
    if tag == "lattice":
        masks = {}
        for m in model.data.modalities:
            h = model.data.features[m] @ model.proj[m].data
            unit = h / np.linalg.norm(h, axis=1, keepdims=True)
            masks[m] = model._topk_mask(unit @ unit.T)
        model.frozen_masks = masks
    if tag == "freedom":
        model.on_epoch_start(np.random.default_rng(51), 1)

    def build_loss():
        tape = T.Tape()
        return tr.total_loss(tape, model, batch, np.random.default_rng(0),
                             reg=1e-3)

    assert_gradients_match(build_loss, model.tensors())


# ------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path):
    data = small_data()
    cfg = ModelConfig(tag="vbpr", embedding_dim=4)
    model = VBPR(cfg, data, seed=8)
    want = model.score_users(range(data.n_users))
    save_checkpoint(model, tmp_path / "ckpt")

    fresh = VBPR(cfg, data, seed=99)
    assert not np.array_equal(fresh.score_users(range(data.n_users)), want)
    load_checkpoint(fresh, tmp_path / "ckpt")
    np.testing.assert_array_equal(fresh.score_users(range(data.n_users)), want)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    data = small_data()
    model = VBPR(ModelConfig(tag="vbpr", embedding_dim=4), data, seed=8)
    save_checkpoint(model, tmp_path / "ckpt")
    other = VBPR(ModelConfig(tag="vbpr", embedding_dim=5), data, seed=8)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(other, tmp_path / "ckpt")
    bm3 = BM3(ModelConfig(tag="bm3", embedding_dim=4), data, seed=8)
    with pytest.raises(ValueError, match="tag"):
        load_checkpoint(bm3, tmp_path / "ckpt")


# ------------------------------------------------------------ training smoke

def test_models_survive_short_training():
    from fusionrec.schema import train_loop

    data = small_data(n_users=6, n_items=10, seed=17)
    tdata = tr.TrainData.from_pairs(data.n_users, data.n_items, data.pairs)
    trainer = tr.TrainerConfig(epochs=3, batch_size=8, lr=0.01, reg=1e-4,
                               optimizer="adam", seed=0, eval_every=0)
    for tag in CLASSIFICATION:
        model = build_model(ModelConfig(tag=tag, embedding_dim=4, knn_k=2),
                            data, seed=9)
        result = train_loop(model.spec, model, tdata, trainer)
        assert len(result.trace) == 3
        assert np.isfinite(result.trace[-1].loss)
        scores = model.score_users(range(data.n_users))
        assert np.isfinite(scores).all()


def test_spent_tapes_are_freed_without_gc(monkeypatch):
    """A replayed training tape and a scoring tape die with their last
    reference: no reference cycle leaves them to the cyclic collector. So do
    the per-batch tapes of a train_loop epoch."""
    from fusionrec import schema
    from fusionrec.models import base

    refs = []

    class TrackedTape(T.Tape):
        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(base, "Tape", TrackedTape)
    monkeypatch.setattr(schema, "Tape", TrackedTape)
    data = small_data(n_users=6, n_items=10, seed=17)
    batch = fixed_batch(data)
    tdata = tr.TrainData.from_pairs(data.n_users, data.n_items, data.pairs)
    trainer = tr.TrainerConfig(epochs=1, batch_size=8, lr=0.01, reg=1e-4,
                               optimizer="adam", seed=0, eval_every=0)
    n_batches = -(-len(data.pairs) // trainer.batch_size)
    rng = np.random.default_rng(0)
    gc.disable()
    try:
        for tag in CLASSIFICATION:
            model = build_model(ModelConfig(tag=tag, embedding_dim=4, knn_k=2),
                                data, seed=9)
            if hasattr(model, "on_epoch_start"):
                model.on_epoch_start(rng, 1)
            tape = TrackedTape()
            tape.backward(tr.total_loss(tape, model, batch, rng, 1e-4))
            del tape
            model.score_users(range(data.n_users))
            assert len(refs) == 2
            assert [r() for r in refs] == [None, None], tag
            refs.clear()
            schema.train_loop(model.spec, model, tdata, trainer)
            # one tape per batch, each made through the patched schema.Tape
            assert len(refs) == n_batches > 1, tag
            assert [r() for r in refs] == [None] * n_batches, tag
            refs.clear()
    finally:
        gc.enable()
