"""Pipeline legality, stage operators, parameter census, training loop."""

import numpy as np
import pytest

from fusionrec import dataset as D
from fusionrec import schema as S
from fusionrec import training as TR
from fusionrec.tensor import Tape, Tensor, parameter


def spec_of(rep, fus, mods=("visual", "textual")):
    return S.PipelineSpec(rep, fus, tuple(mods))


# ---------------------------------------------------------------- legality

def test_legal_couplings_pass():
    S.validate(spec_of(S.Joint(8), S.NoFusion()))
    S.validate(spec_of(S.Coordinate(8), S.Early("concat")))
    S.validate(spec_of(S.Coordinate(8), S.Late("mean")))


def test_joint_with_fusion_rejected():
    with pytest.raises(S.PipelineError):
        S.validate(spec_of(S.Joint(8), S.Early("sum")))
    with pytest.raises(S.PipelineError):
        S.validate(spec_of(S.Joint(8), S.Late("sum")))


def test_coordinate_without_fusion_rejected():
    with pytest.raises(S.PipelineError):
        S.validate(spec_of(S.Coordinate(8), S.NoFusion()))


def test_unknown_ops_rejected():
    with pytest.raises(S.PipelineError):
        S.validate(spec_of(S.Coordinate(8), S.Early("median")))
    with pytest.raises(S.PipelineError):
        S.validate(spec_of(S.Coordinate(8), S.Late("product")))


def test_empty_modalities_rejected():
    with pytest.raises(S.PipelineError):
        S.validate(spec_of(S.Coordinate(8), S.Late("sum"), mods=()))


def test_bad_alignment_pair_rejected():
    rep = S.Coordinate(8, align_pairs=(("visual", "audio", 1.0),))
    with pytest.raises(S.PipelineError):
        S.validate(spec_of(rep, S.Late("sum")))


# ---------------------------------------------------------------- stage ops

def test_joint_identity_projection_equals_concat():
    t = Tape()
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0]])
    eye = Tensor(np.eye(3))
    out = S.joint_represent(t, [a, b], eye)
    np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0]])


def test_predict_inner_hand_value():
    t = Tape()
    out = S.predict_inner(t, Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]))
    assert out.item() == pytest.approx(11.0)


def test_late_fuse_mean_and_max():
    t = Tape()
    a, b = Tensor([[0.2]]), Tensor([[0.4]])
    assert S.late_fuse(t, [a, b], "mean").item() == pytest.approx(0.3)
    assert S.late_fuse(t, [a, b], "max").item() == pytest.approx(0.4)


def test_early_fuse_sum_and_mean():
    t = Tape()
    a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])
    np.testing.assert_allclose(S.early_fuse(t, [a, b], "sum").data, [[4.0, 6.0]])
    np.testing.assert_allclose(S.early_fuse(t, [a, b], "mean").data, [[2.0, 3.0]])


def test_weighted_sum_equal_logits_is_mean():
    t = Tape()
    a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])
    logits = Tensor([[0.0, 0.0]])
    out = S.early_fuse(t, [a, b], "weighted_sum", logits)
    np.testing.assert_allclose(out.data, [[2.0, 3.0]], rtol=1e-6)


def test_early_fuse_shape_mismatch_rejected():
    t = Tape()
    with pytest.raises(S.PipelineError):
        S.early_fuse(t, [Tensor([[1.0, 2.0]]), Tensor([[3.0]])], "sum")


def test_alignment_penalty_zero_for_identical():
    t = Tape()
    r = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
    pen = S.alignment_penalty(t, {"visual": r, "textual": r},
                              (("visual", "textual", 1.0),))
    assert pen.item() == pytest.approx(0.0, abs=1e-6)


def test_alignment_penalty_positive_for_misaligned():
    t = Tape()
    a = Tensor([[1.0, 0.0]])
    b = Tensor([[0.0, 1.0]])
    pen = S.alignment_penalty(t, {"visual": a, "textual": b},
                              (("visual", "textual", 2.0),))
    assert pen.item() == pytest.approx(2.0)


# ---------------------------------------------------------------- census

def test_parameter_set_census():
    ps = S.ParameterSet()
    ps.add("rho", "user_emb", parameter(np.ones((2, 2))))
    ps.add("mu", "proj", parameter(np.ones((2, 2))))
    census = ps.census()
    assert census["rho"] == ["user_emb"]
    assert census["mu"] == ["proj"]
    names = [n for g in census.values() for n in g]
    assert len(names) == len(set(names)) == 2


def test_parameter_set_rejects_double_registration():
    ps = S.ParameterSet()
    t = parameter(np.ones((2, 2)))
    ps.add("rho", "a", t)
    with pytest.raises(ValueError):
        ps.add("mu", "a", parameter(np.ones((2, 2))))
    with pytest.raises(ValueError):
        ps.add("mu", "b", t)


def test_parameter_set_rejects_constants():
    ps = S.ParameterSet()
    with pytest.raises(ValueError):
        ps.add("rho", "c", Tensor(np.ones((2, 2))))


# ---------------------------------------------------------------- pipeline model

def make_model(rep, fus, n_users=6, n_items=10, seed=0, dtype=np.float32):
    rng = np.random.default_rng(3)
    feats = {
        "visual": rng.standard_normal((n_items, 5)).astype(np.float32),
        "textual": rng.standard_normal((n_items, 4)).astype(np.float32),
    }
    spec = S.PipelineSpec(rep, fus, ("visual", "textual"))
    return S.PipelineModel(spec, n_users, feats, seed=seed, dtype=dtype)


def make_data(n_users=6, n_items=10, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for u in range(n_users):
        items = rng.choice(n_items, size=4, replace=False)
        pairs.extend((u, int(i)) for i in items)
    return TR.TrainData.from_pairs(n_users, n_items, np.array(pairs))


def test_late_path_never_materializes_fused_tensor():
    model = make_model(S.Coordinate(8), S.Late("sum"))
    tape = Tape()
    model.score_pairs(tape, np.array([0, 1]), np.array([2, 3]))
    assert not model.fused_representation_built
    early = make_model(S.Coordinate(8), S.Early("sum"))
    tape = Tape()
    early.score_pairs(tape, np.array([0, 1]), np.array([2, 3]))
    assert early.fused_representation_built


def test_degenerate_single_modality_collapse():
    """One modality: Joint, Early(mean) and Late(mean) predict identically
    when they share projection and user weights."""
    rng = np.random.default_rng(5)
    feats = {"visual": rng.standard_normal((8, 5)).astype(np.float32)}
    w = rng.standard_normal((5, 6)).astype(np.float32) * 0.3
    u = rng.standard_normal((4, 6)).astype(np.float32) * 0.3

    def build(rep, fus):
        spec = S.PipelineSpec(rep, fus, ("visual",))
        m = S.PipelineModel(spec, 4, feats, seed=0)
        m.user_emb.data[...] = u
        proj = m.joint_w if isinstance(rep, S.Joint) else m.proj["visual"]
        proj.data[...] = w
        return m.score_users(np.arange(4))

    joint = build(S.Joint(6), S.NoFusion())
    early = build(S.Coordinate(6), S.Early("mean"))
    late = build(S.Coordinate(6), S.Late("mean"))
    np.testing.assert_allclose(joint, early, rtol=1e-6)
    np.testing.assert_allclose(joint, late, rtol=1e-6)


def test_score_pairs_matches_score_users():
    for rep, fus in [
        (S.Joint(8), S.NoFusion()),
        (S.Coordinate(8), S.Early("sum")),
        (S.Coordinate(8), S.Early("concat")),
        (S.Coordinate(8), S.Early("weighted_sum")),
        (S.Coordinate(8), S.Late("mean")),
        (S.Coordinate(8), S.Late("max")),
        (S.Coordinate(8), S.Late("weighted_sum")),
    ]:
        model = make_model(rep, fus)
        users = np.array([0, 3, 5])
        items = np.array([1, 4, 9])
        tape = Tape()
        paired = model.score_pairs(tape, users, items).data[:, 0]
        full = model.score_users(users)
        np.testing.assert_allclose(paired, full[np.arange(3), items], rtol=1e-5)


# ---------------------------------------------------------------- train loop

def test_train_loop_runs_exact_epoch_budget():
    model = make_model(S.Coordinate(8), S.Late("sum"))
    data = make_data()
    cfg = TR.TrainerConfig(epochs=7, batch_size=16, lr=0.01, seed=1)
    out = S.train_loop(model.spec, model, data, cfg)
    assert len(out.trace) == 7
    assert [r.epoch for r in out.trace] == list(range(1, 8))


def test_train_loop_loss_decreases():
    model = make_model(S.Coordinate(8), S.Early("sum"))
    data = make_data()
    cfg = TR.TrainerConfig(epochs=40, batch_size=32, lr=0.05, reg=0.0, seed=2)
    out = S.train_loop(model.spec, model, data, cfg)
    first = np.mean([r.loss for r in out.trace[:5]])
    last = np.mean([r.loss for r in out.trace[-5:]])
    assert last < first


def test_train_loop_validates_spec():
    model = make_model(S.Coordinate(8), S.Late("sum"))
    bad = S.PipelineSpec(S.Joint(8), S.Late("sum"), ("visual",))
    with pytest.raises(S.PipelineError):
        S.train_loop(bad, model, make_data(), TR.TrainerConfig(epochs=1))


def test_train_loop_divergence_diagnostic():
    model = make_model(S.Coordinate(8), S.Early("sum"))
    data = make_data()
    cfg = TR.TrainerConfig(epochs=50, batch_size=32, lr=1e6, optimizer="sgd", seed=3)
    with pytest.raises(TR.TrainingDivergedError, match="epoch"):
        S.train_loop(model.spec, model, data, cfg)


def test_train_loop_eval_cadence():
    model = make_model(S.Coordinate(8), S.Late("sum"))
    data = make_data()
    cfg = TR.TrainerConfig(epochs=25, batch_size=16, lr=0.01, seed=4, eval_every=10)
    calls = []

    def fake_eval(m):
        calls.append(1)
        return float(len(calls))

    out = S.train_loop(model.spec, model, data, cfg, eval_fn=fake_eval)
    # epochs 10, 20 and the final epoch 25
    assert [e for e, _ in out.evals] == [10, 20, 25]
