"""Pipeline legality, the weighted-sum fusion, parameter census, training loop."""

import platform

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


def overflowing_forward(tape, loss, model):
    return tape.scale(loss, 1e39)


def overflowing_gradient(tape, loss, model):
    """loss plus 0, formed so that backward sums two gradients of 2e38 into
    one tensor and the first parameter's gradient becomes NaN."""
    z = tape.scale(model.params().tensors()[0], 0.0)
    return tape.add(loss, tape.add(tape.sum(tape.scale(z, 2e38)),
                                   tape.sum(tape.scale(z, 2e38))))


def overflowing_constant(tape, loss, model):
    """loss plus exp(100), which overflows and has no gradient to give."""
    return tape.add(loss, tape.exp(Tensor([[100.0]])))


@pytest.mark.parametrize("overflow, message", [
    (overflowing_forward, "scale produced non-finite values"),
    (overflowing_gradient, "backward of scale produced non-finite values"),
    (overflowing_constant, "exp produced non-finite values"),
], ids=["loss", "gradient", "loss-only"])
def test_a_failing_batch_is_replayed_exactly_on_a_checked_tape(
        overflow, message, monkeypatch):
    # epoch 2 batch 2 overflows; the unchecked tape records inf, the loop's
    # check of the loss or the gradients sees it, and the checked replay of
    # the same triples names the primitive before any parameter has stepped
    model, data = make_model(), make_data()
    cfg = TR.TrainerConfig(epochs=3, batch_size=8, lr=0.01, seed=5)
    n_batches = -(-len(data.pairs) // cfg.batch_size)
    sampled, tapes, before = [], [], []
    sample, total_loss = TR.sample_triples, TR.total_loss

    def recorded_sample(*args):
        sampled.append(sample(*args))
        return sampled[-1]

    def overflowing_loss(tape, model, batch, rng, reg):
        loss = total_loss(tape, model, batch, rng, reg)
        tapes.append(tape.checked)
        if len(sampled) < n_batches + 2:
            return loss
        before.append({n: t.data.copy() for n, t in model.params().named().items()})
        return overflow(tape, loss, model)

    monkeypatch.setattr(TR, "sample_triples", recorded_sample)
    monkeypatch.setattr(TR, "total_loss", overflowing_loss)
    with pytest.raises(TR.TrainingDivergedError) as info:
        S.train_loop(model.spec, model, data, cfg)
    assert str(info.value) == f"epoch 2 batch 2: {message}"
    assert len(sampled) == n_batches + 3
    assert tapes == [False] * (n_batches + 2) + [True]
    failed, replay = sampled[-2:]
    for a, b in zip((failed.users, failed.pos, failed.neg),
                    (replay.users, replay.pos, replay.neg)):
        np.testing.assert_array_equal(a, b)
    for arrays in before:
        for name, t in model.params().named().items():
            assert t.data.tobytes() == arrays[name].tobytes(), name


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


TINY = np.array([np.finfo(np.float32).tiny], dtype=np.float32)


def flushing():
    """Whether the calling thread writes a subnormal float32 product as 0."""
    return bool((TINY * 0.5)[0] == 0)


@pytest.mark.skipif(platform.machine() != "x86_64",
                    reason="flush_to_zero is a no-op off x86-64")
def test_train_loop_flushes_its_batches_and_nothing_else(monkeypatch):
    # a spy model notes the float mode wherever the loop calls into it: the
    # sampling, both tapes of a replayed batch and the optimizer step run
    # inside flush_to_zero, on_epoch_start and the validation pass outside
    model, data = make_model(), make_data()
    seen = []
    real_loss, real_sample, real_step = model.loss, TR.sample_triples, TR.Adam.step

    def loss(tape, batch, rng):
        seen.append(("checked" if tape.checked else "unchecked", flushing()))
        out = real_loss(tape, batch, rng)
        # the first batch fails its check once, so it is replayed checked
        first = [name for name, _ in seen] == ["on_epoch_start", "sample", "unchecked"]
        return tape.scale(out, np.inf) if first else out

    def sample(*args):
        seen.append(("sample", flushing()))
        return real_sample(*args)

    def step(opt):
        seen.append(("step", flushing()))
        return real_step(opt)

    def on_epoch_start(rng, epoch):
        seen.append(("on_epoch_start", flushing()))

    def evaluate(m):
        seen.append(("eval_fn", flushing()))
        return 0.0

    model.loss, model.on_epoch_start = loss, on_epoch_start
    monkeypatch.setattr(TR, "sample_triples", sample)
    monkeypatch.setattr(TR.Adam, "step", step)
    cfg = TR.TrainerConfig(epochs=2, batch_size=16, lr=0.01, seed=4, eval_every=1)
    S.train_loop(model.spec, model, data, cfg, eval_fn=evaluate)
    assert not flushing()
    modes = {}
    for name, flag in seen:
        modes.setdefault(name, set()).add(flag)
    assert modes == {"on_epoch_start": {False}, "sample": {True},
                     "unchecked": {True}, "checked": {True}, "step": {True},
                     "eval_fn": {False}}
