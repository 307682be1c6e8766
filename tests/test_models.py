"""Model tests: hand-computed cases, structural collapses, gradient checks."""

import contextlib
import gc
import json
import logging
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from fusionrec.models.base import bipartite_structure
from fusionrec.models.freedom import edge_keep_probabilities
from fusionrec.schema import Coordinate, Early, Late
from fdcheck import assert_gradients_match
from oracles import (
    assert_knn_float32_close,
    backward_summing_copies,
    bipartite_adjacency_loop,
    bm3_frozen_views_loop,
    freedom_loss_reference,
    grcn_reference,
    knn_bruteforce,
    knn_graph_dense,
    lattice_dense_reference,
    rank_full_matrix,
)


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
        {"tag": "freedom", "modality_weights": (-1.0, 2.0)},
    ):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["mm_weight", "inter_weight", "intra_weight",
                                   "leaky_slope", "modality_weights"])
def test_model_config_rejects_a_non_finite_float(field, value):
    given = (1.0, value) if field == "modality_weights" else value
    with pytest.raises(ValueError, match="must be finite"):
        ModelConfig(tag="freedom", **{field: given})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["blend", "dropout_p", "prune_ratio"])
def test_model_config_range_checks_reject_a_non_finite_float(field, value):
    with pytest.raises(ValueError, match=field):
        ModelConfig(tag="lattice", **{field: value})


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


def test_feature_constants_share_model_data_arrays():
    data = small_data()
    for tag in CLASSIFICATION:
        model = build_model(ModelConfig(tag=tag, embedding_dim=4, knn_k=2),
                            data, seed=1, dtype=np.float64)
        for m in data.modalities:
            feats = model.feats[m].data
            assert np.shares_memory(feats, data.features[m]), (tag, m)
            with pytest.raises(ValueError, match="read-only"):
                feats[0, 0] = 1.0
    # a cast is the one copy, and it is read-only too
    cast = build_model(ModelConfig(tag="vbpr", embedding_dim=4), data).feats
    assert not np.shares_memory(cast["visual"].data, data.features["visual"])
    assert not cast["visual"].data.flags.writeable
    assert data.features["visual"].flags.writeable


# each model's parameters in the order it allocates them, which is the
# order of their random draws; small_data's modalities are textual, visual
MMGCN_BRANCH = ("proj_{m}", "user_{m}", "id_{m}",
                "w1_{m}_0", "w1_{m}_1", "w2_{m}_0", "w2_{m}_1")
VBPR_ORDER = ["user_emb", "item_emb", "user_textual", "proj_textual",
              "user_visual", "proj_visual"]
ALLOCATION_ORDER = [
    ({"tag": "vbpr"}, VBPR_ORDER),
    ({"tag": "mmgcn"}, [name.format(m=m) for m in ("textual", "visual")
                        for name in MMGCN_BRANCH]),
    ({"tag": "grcn"}, ["id_emb", "pref_textual", "proj_textual",
                       "pref_visual", "proj_visual"]),
    ({"tag": "lattice"}, ["user_emb", "item_emb", "merge_logits",
                          "proj_textual", "proj_visual"]),
    ({"tag": "bm3"}, ["user_emb", "item_emb", "proj_textual", "proj_visual"]),
    ({"tag": "freedom"}, ["user_emb", "item_emb", "proj_textual",
                          "proj_visual"]),
]


def test_census_covers_every_tensor_once():
    data = small_data()
    assert {kw["tag"] for kw, _ in ALLOCATION_ORDER} == set(CLASSIFICATION)
    for overrides, order in ALLOCATION_ORDER:
        model = build_model(ModelConfig(embedding_dim=4, knn_k=2, **overrides),
                            data, seed=1)
        census = model.params().census()
        names = [n for g in census.values() for n in g]
        assert len(names) == len(set(names)) == len(model.tensors())
        assert list(model.params().named()) == order, overrides


# ----------------------------------------------------------- user-item graph

def test_bipartite_adjacency_single_edge():
    adj = bipartite_adjacency(1, 1, np.array([[0, 0]]))
    assert adj.rows.tolist() == [0, 1] and adj.cols.tolist() == [1, 0]
    np.testing.assert_allclose(adj.vals, [1.0, 1.0])


def test_bipartite_adjacency_star():
    # user 0 linked to 4 items, undirected
    adj = bipartite_adjacency(1, 4, np.array([[0, i] for i in range(4)]))
    np.testing.assert_allclose(adj.vals, np.full(8, 0.5), rtol=1e-6)


def test_bipartite_adjacency_isolated_rows_stay_zero():
    # user 1 and item 1 (node 3) have no pair
    dense = bipartite_adjacency(2, 2, np.array([[0, 0]])).csr().toarray()
    assert dense[1].sum() == dense[3].sum() == 0.0


def test_bipartite_structure_rejects_an_out_of_range_item():
    with pytest.raises(ValueError, match="out of bounds"):
        bipartite_structure(2, 2, np.array([[0, 0], [1, 2]]))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_users=st.integers(1, 12),
       n_items=st.integers(1, 12), share=st.sampled_from([0.1, 0.4, 1.0]),
       spare_users=st.integers(0, 2), spare_items=st.integers(0, 2))
# every pair linked, and unpaired ids past them on both sides
@example(seed=0, n_users=7, n_items=5, share=1.0, spare_users=2, spare_items=1)
def test_bipartite_structure_matches_the_oracle_bitwise(
        seed, n_users, n_items, share, spare_users, spare_items):
    rng = np.random.default_rng(seed)
    linked = rng.random((n_users, n_items)) < share
    linked.flat[rng.integers(linked.size)] = True  # at least one pair
    pairs = np.argwhere(linked)[rng.permutation(int(linked.sum()))]
    n_u, n_i = n_users + spare_users, n_items + spare_items
    adj, block, entry_at = bipartite_structure(n_u, n_i, pairs)
    *want, entry_pair = bipartite_adjacency_loop(n_u, n_i, pairs, np.float64)
    # each stored entry's block entry is its source pair, holding its value
    source = np.stack([block.rows[entry_at], block.cols[entry_at]], axis=1)
    plain = bipartite_adjacency(n_u, n_i, pairs)
    for got, ref in zip((adj.rows, adj.cols, adj.vals, source, block.vals[entry_at],
                         plain.rows, plain.cols, plain.vals, plain.indptr),
                        (*want, pairs[entry_pair], want[2], *want, adj.indptr)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert adj.shape == plain.shape == (n_u + n_i, n_u + n_i)
    assert block.shape == (n_u, n_i) and block.nnz == len(pairs)


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


def holds_subnormal(g):
    """Whether float32 g has an entry with a zero exponent and a nonzero
    fraction, read from its bits, so the answer holds in any float mode."""
    bits = g.astype(np.float32).view(np.uint32) & 0x7fffffff
    return bool(((bits > 0) & (bits < 0x00800000)).any())


def test_vbpr_step_past_subnormal_margins_equals_unflushed_bitwise():
    # every triple's margin is about 95, so its float32 BPR gradient,
    # about e^-95 / 64, is subnormal: outside flush_to_zero backward carries
    # such gradients, and a step inside it, where they count as 0, leaves
    # every parameter and Adam moment bitwise where the unflushed step does
    data = small_data(n_users=12, n_items=16, seed=5)
    rng = np.random.default_rng(2)
    batch = tr.TripleBatch(rng.integers(0, 12, 64), rng.integers(0, 8, 64),
                           rng.integers(8, 16, 64))
    met = []

    def spied(rule):
        return lambda g, **held: met.append(holds_subnormal(g)) or rule(g, **held)

    def adam_step(scope):
        model = VBPR(ModelConfig(tag="vbpr", embedding_dim=4), data, seed=1)
        model.user_emb.data[:, 0] = 1.0
        model.item_emb.data[:, 0] = np.where(np.arange(16) < 8, 47.5, -47.5)
        opt = tr.Adam(model.params(), lr=0.01)
        with scope:
            tape = T.Tape()
            loss = tr.total_loss(tape, model, batch, None, reg=1e-5)
            for node in tape._nodes:
                node.rules = tuple(spied(rule) for rule in node.rules)
            tape.backward(loss)
            opt.step()
        return [t.data for t in model.tensors()] + opt.m + opt.v

    want = adam_step(contextlib.nullcontext())
    assert any(met)
    got = adam_step(T.flush_to_zero())
    assert [p.tobytes() for p in got] == [p.tobytes() for p in want]


# --------------------------------------------------------------------- mmgcn

def test_mmgcn_single_edge_hand_propagation():
    data = ModelData(1, 1, np.array([[0, 0]]),
                     {"visual": np.array([[1.0, 0.0]])})
    cfg = ModelConfig(tag="mmgcn", embedding_dim=2, layers=1)
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
    def edge_values():
        tape = T.Tape()
        return model.refined_edge_values(tape, model._project(tape))

    with caplog.at_level(logging.WARNING):
        vals = edge_values()
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
        edge_values()
    assert len(caplog.records) == logged
    # nor is a changed count: user 0's preference now gates its edge to zero
    model.pref["visual"].data[0] = [-2.0, 0.0]
    with caplog.at_level(logging.WARNING):
        vals = edge_values()
    assert not vals.data.any()
    assert len(caplog.records) == logged


def test_grcn_gate_of_one_matches_unrefined_propagation():
    data = small_data()
    cfg = ModelConfig(tag="grcn", embedding_dim=4, layers=2)
    model = GRCN(cfg, data, seed=4, dtype=np.float64)
    n_pairs = data.pairs.shape[0]
    model._edge_gate = lambda tape, item_proj: T.constant(
        np.ones((n_pairs, 1)), dtype=np.float64)
    got = model.score_users(range(data.n_users))

    adj = bipartite_adjacency(data.n_users, data.n_items, data.pairs).csr().toarray()

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
        # knn_graph's cosines are float32: each is off by at most
        # (dim + 3) * 2**-24, from the rounded unit rows and the float32 dot,
        # and the row normalization spreads that over the kept sum
        assert_knn_float32_close(graph, want, feats, k)


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
    # float32 cosines: at most (dim + 3) * 2**-24 each, from the rounded unit
    # rows and the float32 dot, spread over each row's kept sum
    assert_knn_float32_close(got, want, feats, k)
    assert graph.vals.dtype == np.float64
    assert not (graph.rows == graph.cols).any()
    assert graph.nnz == np.count_nonzero(want)
    empty = np.flatnonzero(np.bincount(graph.rows, minlength=n) == 0)
    assert set(empty) == {3, 600 % n, 20, n - 5}
    copies = sorted(dups + [100])
    for i in copies:
        assert graph.csr()[i].indices.tolist() == [j for j in copies if j != i][:k]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), k=st.integers(1, 12),
       dim=st.integers(1, 4), zero_share=st.sampled_from([0.0, 0.1, 0.3]),
       gauss_share=st.sampled_from([0.0, 0.1, 0.25]))
# 4 strips, offers of 8 columns to k = 12, and a last block of 1 row
@example(seed=0, n=25, k=12, dim=2, zero_share=0.1, gauss_share=0.1)
def test_knn_graph_matches_dense_over_strips(seed, n, k, dim, zero_share,
                                             gauss_share):
    import fusionrec.models.base as base

    k = min(k, n - 1)
    rng = np.random.default_rng(seed)
    # signed, scaled axis vectors: every cosine between two of them is
    # exactly 1, -1 or 0, and a Gaussian row's cosine with every vector on
    # one axis is one exact value, so ties are exact across blocks
    feats = np.zeros((n, dim))
    feats[np.arange(n), rng.integers(0, dim, n)] = (
        rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-3, 4, n))
    feats[rng.random(n) < zero_share] = 0.0
    gauss = rng.random(n) < gauss_share
    feats[gauss] = rng.normal(size=(gauss.sum(), dim))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base, "TOPK_BLOCK", 8)
        graph = knn_graph(feats, k).csr().toarray()
    want = knn_graph_dense(feats, k)
    np.testing.assert_array_equal(graph != 0, want != 0)
    # float32 cosines: at most (dim + 3) * 2**-24 each, from the rounded unit
    # rows and the float32 dot, spread over each row's kept sum
    assert_knn_float32_close(graph, want, feats, k)
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    unit = np.divide(feats, norms, out=np.zeros_like(feats), where=norms > 0)
    sim = unit @ unit.T
    np.fill_diagonal(sim, -np.inf)
    for i in range(n):
        kept = np.flatnonzero(graph[i])
        for v in np.unique(sim[i, kept]):  # tied neighbors are the lowest ids
            tied = np.flatnonzero(sim[i] == v)
            chosen = kept[sim[i, kept] == v]
            assert chosen.tolist() == tied[:len(chosen)].tolist(), (i, v)


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_knn_graph_never_holds_an_n_by_n_array():
    # nor does LATTICE's learned graph, in a loss and its backward; the
    # bound is one n x n float32 array
    n = 4000
    feats = np.random.default_rng(5).normal(size=(n, 8))
    assert traced_peak(lambda: knn_graph(feats, 10)) < n * n * 8 / 2
    data = small_data(n_users=40, n_items=n, seed=5)
    model = LATTICE(ModelConfig(tag="lattice", embedding_dim=8), data, seed=5)
    batch = fixed_batch(data, size=64)

    def loss_and_backward():
        tape = T.Tape()
        tape.backward(model.loss(tape, batch, np.random.default_rng(0)))

    assert traced_peak(loss_and_backward) < n * n * 8 / 2


def test_knn_graph_holds_one_n_by_dim_array(monkeypatch):
    # rows are normalized a block at a time into the one float32 array of
    # unit rows; a smaller block keeps the arrays small, and the bound
    # scales with it
    import fusionrec.models.base as base

    monkeypatch.setattr(base, "TOPK_BLOCK", 64)
    n, dim = 1024, 2048
    feats = np.random.default_rng(6).normal(size=(n, dim)).astype(np.float32)
    assert traced_peak(lambda: knn_graph(feats, 10)) < 1.5 * n * dim * 4


@pytest.mark.parametrize("scale", [np.float32(1e30), np.float32(1e-30)])
def test_knn_graph_support_does_not_depend_on_scale(scale):
    # a float32 norm would overflow at 1e30 (its square is past float32's
    # range) and underflow to 0 at 1e-30, dropping every row's neighbors
    feats = np.random.default_rng(8).normal(size=(60, 7)).astype(np.float32)
    want = knn_graph(feats, 5)
    got = knn_graph(feats * scale, 5)
    np.testing.assert_array_equal(got.rows, want.rows)
    np.testing.assert_array_equal(got.cols, want.cols)


def test_knn_graph_rejects_large_k():
    with pytest.raises(ValueError, match="knn_k"):
        knn_graph(np.ones((3, 2)), k=3)


@pytest.mark.parametrize("cls", [LATTICE, FREEDOM], ids=["lattice", "freedom"])
def test_lattice_rejects_large_k(cls):
    with pytest.raises(ValueError, match="knn_k=8 must be < n_items=8"):
        cls(ModelConfig(tag=cls.tag, knn_k=8), small_data(n_items=8))


def test_lattice_degenerate_merge_weights_pick_one_graph():
    data = small_data()
    cfg = ModelConfig(tag="lattice", embedding_dim=4, knn_k=2, blend=1.0,
                      item_graph_layers=2)
    model = LATTICE(cfg, data, seed=5, dtype=np.float64)
    # logits (0, 800): exp(-800) underflows to exactly 0 in float64, so the
    # softmax weights are exactly (0, 1), picking the second sorted modality
    model.merge_logits.data[:] = [[0.0, 800.0]]
    tape = T.Tape()
    h = model.item_emb
    for _ in range(cfg.item_graph_layers):
        h = tape.spmm(model.initial["visual"], h)
    want = tape.add(model.item_emb, tape.l2_normalize(h)).data
    np.testing.assert_array_equal(model.embed()[1], want)


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("blend", [0.0, 0.3, 0.5, 1.0])
def test_lattice_matches_dense_merged_graph_reference(blend, layers):
    # propagating through each modality graph and merging the results is
    # the dense merged graph's product, up to summation order
    data = small_data(n_users=12, n_items=10, seed=9)
    cfg = ModelConfig(tag="lattice", embedding_dim=4, knn_k=3, blend=blend,
                      item_graph_layers=layers)
    model = LATTICE(cfg, data, seed=7, dtype=np.float64)
    model.merge_logits.data[:] = [[0.4, -0.3]]
    batch = fixed_batch(data, size=16, seed=2)

    def first_batch(loss_fn):
        model.zero_grads()
        tape = T.Tape()
        loss = loss_fn(tape)
        loss_value = loss.data.copy()
        tape.backward(loss)
        return loss_value, [None if t.grad is None else t.grad.copy()
                            for t in model.tensors()]

    def model_batch():
        return first_batch(
            lambda tape: model.loss(tape, batch, np.random.default_rng(0)))

    # the support picked live, then the dense reference's mask of the same
    # projection, frozen
    live = model_batch()
    tape = T.Tape()
    model.frozen_masks = {}
    for m in data.modalities:
        unit = tape.l2_normalize(tape.matmul(model.feats[m], model.proj[m])).data
        model.frozen_masks[m] = model._topk_mask(unit @ unit.T)
    frozen = model_batch()
    np.testing.assert_array_equal(live[0], frozen[0])
    ref_loss, ref_grads = first_batch(
        lambda tape: lattice_dense_reference(tape, model, batch))
    for got_loss, got_grads in (live, frozen):
        np.testing.assert_allclose(got_loss, ref_loss, rtol=1e-12)
        assert [g is None for g in got_grads] == [g is None for g in ref_grads]
        for got, want in zip(got_grads, ref_grads):
            if want is not None:
                # entries that cancel to near zero get the floor rtol * largest
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())


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


def test_lattice_without_item_graph_layers_builds_no_learned_graph():
    data = small_data()
    cfg = ModelConfig(tag="lattice", embedding_dim=4, knn_k=2, item_graph_layers=0)
    model = LATTICE(cfg, data, seed=5, dtype=np.float64)
    tape = T.Tape()
    model._representations(tape, train=False)
    assert "spmm_weighted" not in [node.name for node in tape._nodes]
    ref = T.Tape()
    want = ref.add(model.item_emb, ref.l2_normalize(model.item_emb)).data
    users, items = model.embed()
    np.testing.assert_array_equal(items, want)
    np.testing.assert_array_equal(users, model.user_emb.data)


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_bm3_frozen_views_match_the_former_builder(dtype):
    """The acceptance case (float64, views seed 41) and a float32 model on
    float32 features, as a bound store holds them: loss_terms draws the
    views the former separate builder drew, and later passes replay them."""
    data = small_data(n_users=5, n_items=8, seed=13)
    data = ModelData(data.n_users, data.n_items, data.pairs,
                     {m: f.astype(dtype) for m, f in data.features.items()})
    cfg = ModelConfig(tag="bm3", embedding_dim=3, layers=1, dropout_p=0.25)
    batch = fixed_batch(data, size=6, seed=31)
    model = BM3(cfg, data, seed=21, dtype=dtype)
    got = model.make_frozen_views(batch, np.random.default_rng(41))
    want = bm3_frozen_views_loop(BM3(cfg, data, seed=21, dtype=dtype), batch,
                                 np.random.default_rng(41))
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].tobytes() == want[key].tobytes(), key
    rng = np.random.default_rng(0)
    model.loss(T.Tape(), batch, rng)
    assert rng.random() == np.random.default_rng(0).random()
    assert model.frozen_views is got and list(got) == list(want)


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
    merged = item_graph(data, k=2).csr().toarray()
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
    for m, wm in zip(data.modalities, w):  # the merge of knn_graph's own graphs
        dense += wm / sum(w) * knn_graph(data.features[m], 2).csr().toarray()
    want = T.SparseMatrix.from_dense(dense)
    np.testing.assert_array_equal(model.item_graph.rows, want.rows)
    np.testing.assert_array_equal(model.item_graph.cols, want.cols)
    assert model.item_graph.vals.dtype == np.float64
    assert model.item_graph.vals.tobytes() == want.vals.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_freedom_loss_bitwise_equals_written_out_bpr_terms(dtype):
    # the main term and each modality term go through the one BPR scorer:
    # the same primitives in the same order, so loss and gradients are equal
    # bit for bit to the terms written out
    data = small_data(n_users=12, n_items=10, seed=4)
    cfg = ModelConfig(tag="freedom", embedding_dim=4, knn_k=3, mm_weight=0.3)
    model = FREEDOM(cfg, data, seed=7, dtype=dtype)
    model.on_epoch_start(np.random.default_rng(1), 1)
    batch = fixed_batch(data, size=16, seed=2)
    assert len(data.modalities) == 2
    runs = []
    for loss_fn in (lambda tape: model.loss(tape, batch, np.random.default_rng(0)),
                    lambda tape: freedom_loss_reference(tape, model, batch)):
        model.zero_grads()
        tape = T.Tape()
        loss = loss_fn(tape)
        names = tape.op_names
        tape.backward(loss)
        runs.append((names, loss.data.copy(),
                     {name: t.grad.copy() for name, t in model.params().named().items()}))
    (got_ops, got_loss, got_grads), (want_ops, want_loss, want_grads) = runs
    assert got_ops == want_ops
    assert got_loss.dtype == dtype
    assert got_loss.tobytes() == want_loss.tobytes()
    assert list(got_grads) == list(want_grads)
    for name, got in got_grads.items():
        assert got.dtype == dtype, name
        assert got.tobytes() == want_grads[name].tobytes(), name


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


@pytest.mark.parametrize("tag", ["vbpr", "freedom"])
@pytest.mark.parametrize("dtype,grad_rtol", [(np.float64, 1e-12),
                                             (np.float32, 1e-5)])
def test_batch_local_loss_matches_full_catalog_formula(tag, dtype, grad_rtol):
    rng = np.random.default_rng(61)
    n_users, n_items = 20, 40
    pairs = [(u, int(i)) for u in range(n_users)
             for i in rng.choice(n_items, size=6, replace=False)]
    feats = {"visual": rng.normal(size=(n_items, 64)),
             "textual": rng.normal(size=(n_items, 24))}
    data = ModelData(n_users, n_items, np.array(pairs), feats)
    cfg = ModelConfig(tag=tag, embedding_dim=8, knn_k=3)
    model = build_model(cfg, data, seed=5, dtype=dtype)
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


def assert_gradients_equal_the_summing_reference(model, batch, reg):
    """One batch's backward, which adds into the gradients it owns, gives
    every parameter the gradient of the reference that sums each
    contribution into a new array, bit for bit."""
    rng = np.random.default_rng(0)
    if hasattr(model, "on_epoch_start"):
        model.on_epoch_start(rng, 1)
    tape = T.Tape()
    loss = tr.total_loss(tape, model, batch, rng, reg=reg)
    want = backward_summing_copies(tape, loss)
    tape.backward(loss)
    got = {id(t): t.grad for t in model.tensors() if t.grad is not None}
    assert got.keys() == want.keys() and want
    for key, (leaf, g) in want.items():
        assert got[key].dtype == leaf.dtype == g.dtype
        assert got[key].tobytes() == g.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tag", ["vbpr", "mmgcn", "grcn", "lattice", "bm3", "freedom"])
def test_gradients_equal_the_summing_reference_bitwise(tag, dtype):
    data = small_data(n_users=12, n_items=16, seed=5)
    model = build_model(ModelConfig(tag=tag, embedding_dim=4, knn_k=2), data, seed=9,
                        dtype=dtype)
    assert_gradients_equal_the_summing_reference(model, fixed_batch(data, size=24), 1e-3)


@pytest.mark.parametrize("tag", ["vbpr", "freedom"])
def test_office_shaped_gradients_equal_the_summing_reference_bitwise(tag):
    # the benchmark's Office shape: 4,905 users, 2,420 items, 53,258 pairs,
    # 2048-d and 768-d features, a 1,024-triple batch, float32
    rng = np.random.default_rng(12)
    n_users, n_items = 4905, 2420
    flat = rng.choice(n_users * n_items, size=53258, replace=False)
    feats = {"visual": rng.standard_normal((n_items, 2048), dtype=np.float32),
             "textual": rng.standard_normal((n_items, 768), dtype=np.float32)}
    data = ModelData(n_users, n_items, np.stack([flat // n_items, flat % n_items], 1),
                     feats)
    tdata = tr.TrainData.from_pairs(n_users, n_items, data.pairs)
    batch = tr.sample_triples(tdata, 1024, rng)
    model = build_model(ModelConfig(tag=tag), data, seed=1)
    assert_gradients_equal_the_summing_reference(model, batch, 1e-5)


def test_vbpr_hands_its_table_gathers_and_user_side_products_the_held_gradient():
    # the L2 penalty's gradient of each table is backward's own array, and
    # so is the negative scores' product into the user rows: the gathers of
    # the batch's unique users and items, and the positive scores' user-side
    # product over the one-entry-per-row pattern, each add into the array
    # they are handed; the item side and the gather by the batch's users,
    # with repeats, form their own
    data = small_data(n_users=12, n_items=16, seed=5)
    model = VBPR(ModelConfig(tag="vbpr", embedding_dim=4), data, seed=9)
    tape = T.Tape()
    loss = tr.total_loss(tape, model, fixed_batch(data, size=24), None, reg=1e-3)
    names = {id(t): name for name, t in model.params().named().items()}
    handed = []

    def spy(rule, name, i, t):
        def spied(g, **held):
            grad = rule(g, **held)
            if held:
                assert grad is held["held"]
                handed.append((name, i, names.get(id(t), "tape result")))
            return grad
        return spied

    for node in tape._nodes:
        node.rules = tuple(spy(rule, node.name, i, t)
                           for i, (rule, t) in enumerate(zip(node.rules, node.inputs)))
    tape.backward(loss)
    assert sorted(handed) == [("entry_dot", 0, "tape result"),
                              ("row_gather", 0, "item_emb"),
                              ("row_gather", 0, "user_emb"),
                              ("row_gather", 0, "user_textual"),
                              ("row_gather", 0, "user_visual")]


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
    # a parameter the checkpoint lacks has no shape there
    shallow = MMGCN(ModelConfig(tag="mmgcn", embedding_dim=4, layers=1), data)
    save_checkpoint(shallow, tmp_path / "shallow")
    deeper = MMGCN(ModelConfig(tag="mmgcn", embedding_dim=4, layers=2), data)
    with pytest.raises(ValueError,
                       match=r"w1_textual_1: checkpoint shape None != model \(4, 4\)"):
        load_checkpoint(deeper, tmp_path / "shallow")


def test_checkpoint_config_mismatch_rejected(tmp_path):
    # equal shapes, another model: the config check names the first key
    data = small_data()
    cfg = ModelConfig(tag="freedom", embedding_dim=4, knn_k=3,
                      modality_weights=(3.0, 1.0))
    model = FREEDOM(cfg, data, seed=8)
    save_checkpoint(model, tmp_path / "ckpt")
    other = FREEDOM(ModelConfig(tag="freedom", embedding_dim=4, knn_k=5,
                                mm_weight=0.7), data, seed=9)
    before = [t.data.copy() for t in other.tensors()]
    with pytest.raises(ValueError, match="checkpoint config knn_k = 3 != model knn_k = 5"):
        load_checkpoint(other, tmp_path / "ckpt")
    for t, data_before in zip(other.tensors(), before):
        np.testing.assert_array_equal(t.data, data_before)  # nothing loaded
    # the tuple of modality weights comes back from JSON as a list
    fresh = load_checkpoint(FREEDOM(cfg, data, seed=9), tmp_path / "ckpt")
    np.testing.assert_array_equal(fresh.score_users(range(data.n_users)),
                                  model.score_users(range(data.n_users)))


@pytest.mark.parametrize("tag", ["vbpr", "mmgcn"])
def test_checkpoint_naming_the_former_switches_still_loads(tmp_path, tag):
    # runs written while ModelConfig had with_bias and activation keep both
    # keys in their config block; the config check reads only today's keys
    data = small_data()
    cfg = ModelConfig(tag=tag, embedding_dim=4, layers=1)
    model = build_model(cfg, data, seed=8)
    save_checkpoint(model, tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "checkpoint.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    config = {}
    for key, value in manifest["config"].items():
        if key == "leaky_slope":  # the two keys stood just before it
            config.update(with_bias=False, activation="leaky_relu")
        config[key] = value
    path.write_text(json.dumps({**manifest, "config": config}), encoding="utf-8")
    fresh = load_checkpoint(build_model(cfg, data, seed=99), tmp_path / "ckpt")
    assert [t.data.tobytes() for t in fresh.tensors()] == \
        [t.data.tobytes() for t in model.tensors()]


def test_float64_checkpoint_round_trip_is_bitwise(tmp_path):
    # each parameter is stored in its own dtype, not narrowed to float32
    data = small_data()
    cfg = ModelConfig(tag="vbpr", embedding_dim=4)
    model = VBPR(cfg, data, seed=8, dtype=np.float64)
    want = model.score_users(range(data.n_users))
    save_checkpoint(model, tmp_path / "ckpt")
    fresh = load_checkpoint(VBPR(cfg, data, seed=99, dtype=np.float64),
                            tmp_path / "ckpt")
    got = fresh.score_users(range(data.n_users))
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_checkpoint_of_another_dtype_is_rejected(tmp_path):
    data = small_data()
    cfg = ModelConfig(tag="vbpr", embedding_dim=4)
    save_checkpoint(VBPR(cfg, data, seed=8, dtype=np.float64), tmp_path / "ckpt")
    with pytest.raises(ValueError, match=r"blob has \d+ float32 values, expected"):
        load_checkpoint(VBPR(cfg, data, seed=8), tmp_path / "ckpt")


def test_checkpoint_with_a_cut_blob_leaves_every_parameter_unchanged(tmp_path):
    # every blob is read and checked before any parameter is written, so a
    # short last blob leaves the earlier parameters as they were
    data = small_data()
    cfg = ModelConfig(tag="vbpr", embedding_dim=4)
    save_checkpoint(VBPR(cfg, data, seed=8), tmp_path / "ckpt")
    fresh = VBPR(cfg, data, seed=99)
    named = fresh.params().named()
    last = list(named)[-1]
    blob = tmp_path / "ckpt" / f"{last}.bin"
    blob.write_bytes(blob.read_bytes()[:-4])
    before = {name: t.data.tobytes() for name, t in named.items()}
    with pytest.raises(ValueError, match=rf"^{last}: blob has \d+ float32 values"):
        load_checkpoint(fresh, tmp_path / "ckpt")
    assert {name: t.data.tobytes() for name, t in named.items()} == before


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_checkpoint_with_a_non_finite_value_is_rejected(tmp_path, bad):
    # a non-finite embedding reaches scores through copies alone, which no
    # tape checks, so the blob is refused before any parameter is assigned
    data = small_data(n_users=12, n_items=20, seed=4)
    cfg = ModelConfig(tag="vbpr", embedding_dim=4)
    model = VBPR(cfg, data, seed=8)
    model.user_emb.data[0, 0] = bad
    save_checkpoint(model, tmp_path / "ckpt")
    fresh = VBPR(cfg, data, seed=99)
    named = fresh.params().named()
    before = {name: t.data.tobytes() for name, t in named.items()}
    with pytest.raises(ValueError, match="^user_emb: blob holds NaN or inf values"):
        load_checkpoint(fresh, tmp_path / "ckpt")
    assert {name: t.data.tobytes() for name, t in named.items()} == before


# ------------------------------------------------------------ training smoke

def test_models_survive_short_training():
    from fusionrec.schema import train_loop

    data = small_data(n_users=6, n_items=10, seed=17)
    tdata = tr.TrainData.from_pairs(data.n_users, data.n_items, data.pairs)
    trainer = tr.TrainerConfig(epochs=3, batch_size=8, lr=0.01, reg=1e-4,
                               optimizer="adam", seed=0)
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

    refs = []

    class TrackedTape(T.Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    # embed's tape and each batch's are made by tensor.checked_once
    monkeypatch.setattr(T, "Tape", TrackedTape)
    data = small_data(n_users=6, n_items=10, seed=17)
    batch = fixed_batch(data)
    tdata = tr.TrainData.from_pairs(data.n_users, data.n_items, data.pairs)
    trainer = tr.TrainerConfig(epochs=1, batch_size=8, lr=0.01, reg=1e-4,
                               optimizer="adam", seed=0)
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
            # one tape per batch, each made through the patched tensor.Tape
            assert len(refs) == n_batches > 1, tag
            assert [r() for r in refs] == [None] * n_batches, tag
            refs.clear()
    finally:
        gc.enable()


class CheckedTape(T.Tape):
    """A tape that checks every result, whatever its caller asks for."""

    def __init__(self, checked=True):
        super().__init__(checked=True)


def train_small_model(tag, trainer, monkeypatch, checked):
    """A small model of `tag`, trained by schema.train_loop on unchecked
    tapes or, with `checked`, on tapes that always check."""
    from fusionrec import schema

    data = small_data(n_users=12, n_items=16, seed=5)
    tdata = tr.TrainData.from_pairs(data.n_users, data.n_items, data.pairs)
    model = build_model(ModelConfig(tag=tag, embedding_dim=4, knn_k=2), data, seed=9)
    with monkeypatch.context() as patch:
        if checked:  # the tape checked_once builds
            patch.setattr(T, "Tape", CheckedTape)
        return model, schema.train_loop(model.spec, model, tdata, trainer)


@pytest.mark.parametrize("tag", sorted(CLASSIFICATION))
def test_unchecked_training_equals_checked_training_bitwise(tag, monkeypatch):
    # the loop checks only the loss and the gradients, and no batch replays
    sampled = []
    sample = tr.sample_triples
    monkeypatch.setattr(tr, "sample_triples", lambda *a: sampled.append(1) or sample(*a))
    trainer = tr.TrainerConfig(epochs=2, batch_size=8, lr=0.01, reg=1e-4,
                               optimizer="adam", seed=0)
    runs = []
    for checked in (False, True):
        model, out = train_small_model(tag, trainer, monkeypatch, checked)
        runs.append(([row.loss for row in out.trace],
                     {n: t.data.tobytes() for n, t in model.params().named().items()}))
    assert runs[0] == runs[1]
    assert len(sampled) == 2 * 2 * -(-36 // 8)  # two runs, two epochs, no replay


@pytest.mark.parametrize("tag", sorted(CLASSIFICATION))
def test_diverging_training_names_what_a_checked_training_names(tag, monkeypatch):
    trainer = tr.TrainerConfig(epochs=30, batch_size=8, lr=1e7, optimizer="sgd", seed=3)
    messages = []
    for checked in (False, True):
        with pytest.raises(tr.TrainingDivergedError) as info:
            train_small_model(tag, trainer, monkeypatch, checked)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert re.match(r"epoch \d+ batch \d+: \w+", messages[0])


def scoring_tapes(monkeypatch):
    """The `checked` flag of every tape built from here on, in order."""
    made = []

    class RecordedTape(T.Tape):
        def __init__(self, checked=True):
            super().__init__(checked=checked)
            made.append(checked)

    monkeypatch.setattr(T, "Tape", RecordedTape)
    return made


def test_embed_equals_a_checked_pass_bitwise_on_one_unchecked_tape(monkeypatch):
    data = small_data(n_users=12, n_items=20, seed=4)
    for tag in CLASSIFICATION:
        model = build_model(ModelConfig(tag=tag, embedding_dim=4, knn_k=3), data, seed=2)
        want = [t.data.copy() for t in model._representations(T.Tape(), train=False)]
        with monkeypatch.context() as patch:
            made = scoring_tapes(patch)
            got = model.embed()
        assert made == [False], tag  # one pass, checked once, not replayed
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape, tag
            assert g.tobytes() == w.tobytes(), tag


def test_a_non_finite_embed_names_what_a_checked_pass_names(monkeypatch):
    # each parameter in turn holds one inf: a pass that is not finite is
    # replayed on a checked tape, which raises what a checked pass raises; a
    # parameter that reaches the output through copies alone raises on
    # neither, and one that does not reach it leaves the pass finite
    def outcome(run):
        """The message raised, or the arrays' bytes and whether all are finite."""
        try:
            arrays = run()
        except T.NonFiniteError as exc:
            return str(exc)
        return [a.tobytes() for a in arrays], all(np.isfinite(a).all() for a in arrays)

    data = small_data(n_users=12, n_items=20, seed=4)
    for tag in CLASSIFICATION:
        model = build_model(ModelConfig(tag=tag, embedding_dim=4, knn_k=3), data, seed=2)
        raised = 0
        for name, p in model.params().named().items():
            kept = p.data.copy()
            p.data[0, 0] = np.inf
            want = outcome(lambda: [t.data for t in model._representations(
                T.Tape(), train=False)])
            with monkeypatch.context() as patch:
                made = scoring_tapes(patch)
                got = outcome(model.embed)
            p.data[...] = kept
            assert got == want, (tag, name)
            replayed = isinstance(want, str) or not want[1]
            assert made == [False] + [True] * replayed, (tag, name)
            raised += isinstance(want, str)
        assert raised, tag


# ------------------------------------------------------------------ ranking

@pytest.mark.parametrize("tag", sorted(CLASSIFICATION))
def test_blockwise_ranking_equals_full_matrix_oracle(tag):
    # over two blocks of users, each scored from one embed(): the lists, the
    # scores and the validation recall are those of one full score matrix
    from fusionrec import dataset as D
    from fusionrec import evaluation as E
    from oracles import user_positives_loop

    syn = D.generate_synthetic(3 * E.TOPK_BLOCK, 50, 0.2, seed=2)
    split = D.holdout_split(syn.dataset, seed=1)
    data = ModelData(syn.dataset.n_users, syn.dataset.n_items, split.train,
                     dict(syn.features))
    model = build_model(ModelConfig(tag=tag, embedding_dim=8, knn_k=3),
                        data, seed=4)
    _, ranking = E.evaluate_model(model, split, "test")
    assert len(ranking.users) > 2 * E.TOPK_BLOCK
    top, scores = rank_full_matrix(model, ranking.users.tolist(), 20, split.train)
    np.testing.assert_array_equal(ranking.top, top)
    assert ranking.scores.dtype == scores.dtype
    np.testing.assert_array_equal(ranking.scores, scores)

    relevant = user_positives_loop(split.validation)
    users = sorted(relevant)
    top, _ = rank_full_matrix(model, users, 20, split.train)
    want = E.recall_at_k(dict(zip(users, top.tolist())), relevant, 20)
    assert E.recall_eval_fn(split, "validation", k=20)(model) == want
