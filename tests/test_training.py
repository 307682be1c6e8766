"""BPR loss values, triple sampling, optimizers, grid search."""

import ctypes
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

import fusionrec
from fusionrec import training as TR
from fusionrec.tensor import Tape, parameter

from fdcheck import assert_gradients_match
from oracles import adam_reference


def make_data(n_users=8, n_items=20, per_user=5, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for u in range(n_users):
        for i in rng.choice(n_items, size=per_user, replace=False):
            pairs.append((u, int(i)))
    return TR.TrainData.from_pairs(n_users, n_items, np.array(pairs))


# ---------------------------------------------------------------- bpr loss

def test_bpr_zero_margin():
    t = Tape()
    pos = parameter([[1.0]], dtype=np.float64)
    neg = parameter([[1.0]], dtype=np.float64)
    loss = TR.bpr_loss(t, pos, neg)
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-4)
    assert loss.item() == pytest.approx(0.6931, abs=1e-4)


def test_bpr_negative_margin_value_and_grad():
    # pos - neg = -1: loss = softplus(1) ~ 1.3133, dloss/dpos = -sigmoid(1)
    t = Tape()
    pos = parameter([[0.0]], dtype=np.float64)
    neg = parameter([[1.0]], dtype=np.float64)
    loss = TR.bpr_loss(t, pos, neg)
    assert loss.item() == pytest.approx(np.log1p(np.e), abs=1e-4)
    t.backward(loss)
    sig = 1.0 / (1.0 + np.exp(-1.0))
    assert pos.grad[0, 0] == pytest.approx(-sig, abs=1e-6)
    assert neg.grad[0, 0] == pytest.approx(sig, abs=1e-6)


def test_bpr_gradient_matches_fd():
    pos = parameter(np.random.default_rng(0).standard_normal((6, 1)), dtype=np.float64)
    neg = parameter(np.random.default_rng(1).standard_normal((6, 1)), dtype=np.float64)

    def build():
        t = Tape()
        return TR.bpr_loss(t, pos, neg)

    assert_gradients_match(build, [pos, neg])


def test_l2_penalty_value():
    t = Tape()
    p = parameter([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
    assert TR.l2_penalty(t, [p]).item() == pytest.approx(30.0)


def test_l2_penalty_matches_sum_of_products_bitwise():
    # sumsq must give the value and gradient of sum(mul(t, t)) exactly when,
    # as in total_loss, the penalty is recorded after the task loss
    rng = np.random.default_rng(3)
    for dtype in (np.float32, np.float64):
        p = parameter(rng.normal(size=(7, 5)), dtype=dtype)
        q = parameter(rng.normal(size=(1, 5)), dtype=dtype)
        grads = []
        for penalty in (lambda t: TR.l2_penalty(t, [p, q]),
                        lambda t: t.add(t.sum(t.mul(p, p)), t.sum(t.mul(q, q)))):
            p.zero_grad()
            q.zero_grad()
            t = Tape()
            task = t.mean(t.mul(p, t.row_gather(q, [0] * 7)))
            loss = t.add(task, t.scale(penalty(t), 0.37))
            t.backward(loss)
            grads.append((loss.data.copy(), p.grad, q.grad))
        for new, old in zip(*grads):
            assert new.dtype == old.dtype == dtype
            np.testing.assert_array_equal(new, old)


# ---------------------------------------------------------------- sampling

def test_sample_triples_respects_train_sets():
    data = make_data()
    rng = np.random.default_rng(5)
    batch = TR.sample_triples(data, 500, rng)
    train = set(map(tuple, data.pairs.tolist()))
    for u, p, n in zip(batch.users, batch.pos, batch.neg):
        assert (int(u), int(p)) in train
        assert (int(u), int(n)) not in train


def test_interaction_index_matches_pair_sets():
    data = make_data()
    pairs = np.vstack([data.pairs, data.pairs[:3]])  # duplicates collapse
    index = TR.TrainData.from_pairs(data.n_users, data.n_items, pairs)
    for u in range(data.n_users):
        want = sorted({int(i) for v, i in pairs if v == u})
        got = index.indices[index.indptr[u]:index.indptr[u + 1]]
        assert got.tolist() == want
    users = np.repeat(np.arange(data.n_users), data.n_items)
    items = np.tile(np.arange(data.n_items), data.n_users)
    train = set(map(tuple, pairs.tolist()))
    assert index.contains(users, items).tolist() == [
        (int(u), int(i)) in train for u, i in zip(users, items)]


def test_sample_triples_deterministic():
    data = make_data()
    a = TR.sample_triples(data, 64, np.random.default_rng(9))
    b = TR.sample_triples(data, 64, np.random.default_rng(9))
    assert np.array_equal(a.users, b.users)
    assert np.array_equal(a.pos, b.pos)
    assert np.array_equal(a.neg, b.neg)


def test_negative_sampling_uniform_chi_square():
    # one user, uniform candidates: empirical negative counts pass chi-square
    pairs = np.array([(0, 0), (0, 1)])
    data = TR.TrainData.from_pairs(1, 12, pairs)
    rng = np.random.default_rng(123)
    counts = np.zeros(12)
    draws = 10_000
    batch = TR.sample_triples(data, draws, rng)
    for n in batch.neg:
        counts[int(n)] += 1
    candidates = counts[2:]  # items 0,1 are positives
    assert counts[:2].sum() == 0
    chi2, p_value = scipy_stats.chisquare(candidates)
    assert p_value > 0.001


def test_positive_sampling_uniform_chi_square():
    # one user with six of twelve items: positive counts pass chi-square
    positives = [1, 3, 4, 7, 10, 11]
    data = TR.TrainData.from_pairs(1, 12, np.array([(0, i) for i in positives]))
    batch = TR.sample_triples(data, 10_000, np.random.default_rng(321))
    counts = np.bincount(batch.pos, minlength=12)
    assert counts[positives].sum() == 10_000
    chi2, p_value = scipy_stats.chisquare(counts[positives])
    assert p_value > 0.001


def test_negative_rejection_converges_with_one_candidate():
    # user 0 has every item but one: every negative must be that item
    n_items = 40
    pairs = [(0, i) for i in range(n_items) if i != 17] + [(1, 0)]
    data = TR.TrainData.from_pairs(2, n_items, np.array(pairs))
    batch = TR.sample_triples(data, 2_000, np.random.default_rng(8))
    assert (batch.users == 0).sum() > 500
    assert (batch.neg[batch.users == 0] == 17).all()
    assert (batch.neg[batch.users == 1] != 0).all()


def test_all_items_interacted_user_excluded():
    pairs = np.array([(0, 0), (0, 1), (1, 0)])
    data = TR.TrainData.from_pairs(2, 2, pairs)
    assert list(data.eligible) == [1]
    with pytest.raises(ValueError):
        TR.TrainData.from_pairs(1, 2, np.array([(0, 0), (0, 1)]))


# ---------------------------------------------------------------- optimizers

class Params:
    """A model as the optimizers see it: its parameter tensors."""

    def __init__(self, *tensors):
        self._tensors = list(tensors)

    def tensors(self):
        return self._tensors


def test_sgd_step():
    p = parameter([[1.0]])
    p.grad = np.array([[0.5]], dtype=np.float32)
    TR.SGD(Params(p), lr=0.1).step()
    assert p.data[0, 0] == pytest.approx(0.95)
    assert p.grad is None


def test_adam_first_step_magnitude():
    # bias-corrected first update has magnitude ~ lr regardless of grad scale
    for g in (1.0, 100.0, 1e-4):
        p = parameter([[0.0]])
        p.grad = np.array([[g]], dtype=np.float32)
        TR.Adam(Params(p), lr=0.01).step()
        assert abs(p.data[0, 0]) == pytest.approx(0.01, rel=1e-3)
        assert np.sign(-p.data[0, 0]) == np.sign(g)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 15)), min_size=1, max_size=3),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 10_000))
def test_adam_in_place_update_matches_reference_formula(shapes, dtype, seed):
    # ADAM_BLOCK = 12 puts the drawn shapes on both sides of the block size,
    # and gives rows wider than a block their own block
    lr = 0.003
    rng = np.random.default_rng(seed)
    params = [parameter(rng.normal(size=shape), dtype=dtype) for shape in shapes]
    ref = [p.data.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TR, "ADAM_BLOCK", 12)
        opt = TR.Adam(Params(*params), lr=lr)
        for step in range(1, 9):
            for k, p in enumerate(params):
                if step == 4 and k == 0:
                    continue  # a tensor without a gradient keeps its state
                g = (rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 3)).astype(dtype)
                p.grad = g
                m[k], v[k], delta = adam_reference(m[k], v[k], g, step, lr)
                ref[k] -= delta.astype(dtype)
            opt.step()
            for k, p in enumerate(params):
                assert p.data.dtype == dtype and p.grad is None
                assert p.data.tobytes() == ref[k].tobytes()
                assert opt.m[k].tobytes() == m[k].tobytes()
                assert opt.v[k].tobytes() == v[k].tobytes()


def test_blocked_adam_divergence_raises_after_the_whole_update(monkeypatch):
    # an entry in the middle block overflows; every block is still updated,
    # as in the whole-array step, before the error is raised
    monkeypatch.setattr(TR, "ADAM_BLOCK", 4)
    data = np.random.default_rng(2).normal(size=(6, 2)).astype(np.float32)
    data[3, 0] = 3e38
    g = -np.ones((6, 2), dtype=np.float32)
    p = parameter(data)
    p.grad = g
    with np.errstate(over="ignore"), pytest.raises(
            TR.TrainingDivergedError, match="^parameter became non-finite after Adam step$"):
        TR.Adam(Params(p), lr=1e38).step()
    zeros = np.zeros_like(data)
    _, _, delta = adam_reference(zeros, zeros, g, 1, 1e38)
    with np.errstate(over="ignore"):
        want = data - delta
    assert np.isinf(p.data[3, 0])
    assert p.data.tobytes() == want.tobytes()


def test_adam_state_persists():
    p = parameter([[0.0]])
    opt = TR.Adam(Params(p), lr=0.01)
    for _ in range(3):
        p.grad = np.array([[1.0]], dtype=np.float32)
        opt.step()
    assert opt.t == 3


def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TR.TrainerConfig(epochs=0)
    with pytest.raises(ValueError):
        TR.TrainerConfig(lr=0.0)
    with pytest.raises(ValueError):
        TR.TrainerConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        TR.TrainerConfig(reg=-1.0)
    with pytest.raises(ValueError, match="eval_every must be >= 1, got 0"):
        TR.TrainerConfig(eval_every=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["lr", "reg"])
def test_trainer_config_rejects_a_non_finite_float(field, value):
    with pytest.raises(ValueError, match="lr and reg must be finite"):
        TR.TrainerConfig(**{field: value})


# ---------------------------------------------------------------- grid

@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["lrs", "regs"])
def test_grid_rejects_a_non_finite_value(field, value):
    given = {"lrs": (1e-3,), "regs": (0.0,), field: (1e-2, value)}
    with pytest.raises(ValueError, match="grid values out of range"):
        TR.GridSpec(**given)


def test_grid_cap_enforced_at_construction():
    TR.GridSpec(lrs=(1e-3,) * 5, regs=(0.0, 1.0))  # exactly 10 is fine
    with pytest.raises(ValueError, match="budget"):
        TR.GridSpec(lrs=(1e-4, 1e-3, 1e-2), regs=(0.0, 0.5, 1.0) + (2.0,))
    with pytest.raises(ValueError):
        TR.GridSpec(lrs=(), regs=(0.1,))


def test_default_grid_is_ten_points():
    grid = TR.GridSpec()
    assert len(grid.points()) == 10
    assert grid.points()[0] == (1e-4, 1e-5)


def test_grid_search_selects_max_with_tie_breaks():
    from fusionrec import schema as S

    # fake model whose eval trajectory is scripted per config
    trajectories = {
        0: [0.1, 0.3],  # epochs 1, 2
        1: [0.3, 0.2],
        2: [0.3, 0.3],
    }
    calls = {"config": -1, "eval": 0}

    class FakeModel:
        spec = S.PipelineSpec(S.Coordinate(2), S.Late("sum"), ("visual",))

        def __init__(self):
            calls["config"] += 1
            self.idx = calls["config"]
            self.n_evals = 0
            self._p = S.ParameterSet()
            self._p.add("rho", "w", parameter(np.zeros((1, 1))))

        def params(self):
            return self._p

        def loss(self, tape, batch, rng):
            w = self._p.named()["w"]
            return tape.mean(tape.mul(w, w))

        def score_users(self, users):
            return np.zeros((len(users), 4))

    def eval_fn(model):
        v = trajectories[model.idx][model.n_evals]
        model.n_evals += 1
        return v

    data = TR.TrainData.from_pairs(2, 4, np.array([(0, 0), (1, 1)]))
    grid = TR.GridSpec(lrs=(1e-3, 2e-3, 3e-3), regs=(0.0,))
    trainer = TR.TrainerConfig(epochs=2, batch_size=2, eval_every=1, seed=0)
    result = TR.grid_search(lambda seed: FakeModel(), grid, data, trainer, eval_fn)
    # 0.3 first reached by config 0 at epoch 2? config 1 hits 0.3 at epoch 1,
    # but config 0's epoch-2 value came first in exploration order
    assert result.best_value == pytest.approx(0.3)
    assert result.config_index == 0
    assert result.best_epoch == 2
    assert len(result.table) == 6


# One VBPR training on a corpus of the benchmark's small shape: 250 users,
# 125 items, 3,000 pairs, feature widths 128 and 64, batches of 1,024. It
# prints the minor page faults per batch over BATCHES batches after WARMUP.
FAULT_PROBE = """
import resource
import numpy as np
from fusionrec import training as TR
from fusionrec.dataset import generate_synthetic
from fusionrec.models import ModelConfig, ModelData, build_model
from fusionrec.tensor import Tape

WARMUP, BATCHES = 3, 10
synth = generate_synthetic(250, 125, 3000 / (250 * 125), seed=1,
                           dims={"visual": 128, "textual": 64})
pairs = synth.dataset.interactions
model = build_model(ModelConfig(tag="vbpr"),
                    ModelData(250, 125, pairs, synth.features), seed=1)
data = TR.TrainData.from_pairs(250, 125, pairs)
trainer = TR.TrainerConfig(batch_size=1024, lr=0.01)
opt = TR.make_optimizer(trainer, model.params())
rng = np.random.default_rng(1)


def train_batch():
    tape = Tape()
    model.params().zero_grads()
    batch = TR.sample_triples(data, trainer.batch_size, rng)
    tape.backward(TR.total_loss(tape, model, batch, rng, trainer.reg))
    opt.step()


for _ in range(WARMUP):
    train_batch()
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(BATCHES):
    train_batch()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / BATCHES)
"""


def libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not libc_has_mallopt(), reason="the C library has no mallopt")
def test_training_batches_reuse_their_memory():
    # a fresh interpreter: glibc raises its malloc thresholds for good after
    # a large free, which this test session may already have made
    src = str(pathlib.Path(fusionrec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    # about 2,000 a batch when each batch hands its heap back to the kernel
    assert float(done.stdout.split()[-1]) < 50
