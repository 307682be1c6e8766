"""Pipeline legality, the weighted-sum fusion, parameter census, training loop."""

import numpy as np
import pytest

from fusionrec import schema as S
from fusionrec import training as TR
from fusionrec.models import ModelConfig, ModelData, build_model
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


# ---------------------------------------------------------------- fusion

def test_weighted_sum_equal_logits_is_mean():
    t = Tape()
    a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])
    logits = Tensor([[0.0, 0.0]])
    out = S.weighted_sum(t, [a, b], logits)
    np.testing.assert_allclose(out.data, [[2.0, 3.0]], rtol=1e-6)


def test_weighted_sum_rejects_wrong_logits_shape():
    a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])
    for logits in (Tensor([[0.0, 0.0, 0.0]]), Tensor([[0.0], [0.0]])):
        with pytest.raises(S.PipelineError, match=r"\(1, 2\) logits"):
            S.weighted_sum(Tape(), [a, b], logits)


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


# ---------------------------------------------------------------- train loop

N_USERS, N_ITEMS = 6, 10


def make_pairs():
    rng = np.random.default_rng(0)
    pairs = []
    for u in range(N_USERS):
        items = rng.choice(N_ITEMS, size=4, replace=False)
        pairs.extend((u, int(i)) for i in items)
    return np.array(pairs)


def make_model(seed=0):
    """A small VBPR over two random feature blocks."""
    rng = np.random.default_rng(3)
    feats = {
        "visual": rng.standard_normal((N_ITEMS, 5)).astype(np.float32),
        "textual": rng.standard_normal((N_ITEMS, 4)).astype(np.float32),
    }
    data = ModelData(N_USERS, N_ITEMS, make_pairs(), feats)
    return build_model(ModelConfig(tag="vbpr", embedding_dim=8), data, seed=seed)


def make_data():
    return TR.TrainData.from_pairs(N_USERS, N_ITEMS, make_pairs())


def test_train_loop_runs_exact_epoch_budget():
    model = make_model()
    data = make_data()
    cfg = TR.TrainerConfig(epochs=7, batch_size=16, lr=0.01, seed=1)
    out = S.train_loop(model.spec, model, data, cfg)
    assert len(out.trace) == 7
    assert [r.epoch for r in out.trace] == list(range(1, 8))


def test_train_loop_loss_decreases():
    model = make_model()
    data = make_data()
    cfg = TR.TrainerConfig(epochs=40, batch_size=32, lr=0.05, reg=0.0, seed=2)
    out = S.train_loop(model.spec, model, data, cfg)
    first = np.mean([r.loss for r in out.trace[:5]])
    last = np.mean([r.loss for r in out.trace[-5:]])
    assert last < first


def test_train_loop_validates_spec():
    model = make_model()
    bad = S.PipelineSpec(S.Joint(8), S.Late("sum"), ("visual",))
    with pytest.raises(S.PipelineError):
        S.train_loop(bad, model, make_data(), TR.TrainerConfig(epochs=1))


def test_train_loop_divergence_diagnostic():
    model = make_model()
    data = make_data()
    cfg = TR.TrainerConfig(epochs=50, batch_size=32, lr=1e6, optimizer="sgd", seed=3)
    with pytest.raises(TR.TrainingDivergedError, match="epoch"):
        S.train_loop(model.spec, model, data, cfg)


def test_train_loop_eval_cadence():
    model = make_model()
    data = make_data()
    cfg = TR.TrainerConfig(epochs=25, batch_size=16, lr=0.01, seed=4, eval_every=10)
    calls = []

    def fake_eval(m):
        calls.append(1)
        return float(len(calls))

    out = S.train_loop(model.spec, model, data, cfg, eval_fn=fake_eval)
    # epochs 10, 20 and the final epoch 25
    assert [e for e, _ in out.evals] == [10, 20, 25]
