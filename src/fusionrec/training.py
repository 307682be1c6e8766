"""Pairwise ranking loss, triple sampling, optimizers, grid search.

The training objective everywhere is BPR: -ln sigmoid(y_pos - y_neg),
implemented as softplus(y_neg - y_pos), plus an l2 penalty on every trainable
tensor weighted by the regularization coefficient (applied through the loss,
never as decay on the update).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import InteractionIndex
from .tensor import Tape, Tensor

OPTIMIZERS = ("sgd", "adam")


class TrainingDivergedError(RuntimeError):
    """Loss, gradient or parameter became non-finite during training."""


@dataclass
class TripleBatch:
    users: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    def __len__(self):
        return int(self.users.size)


@dataclass(eq=False)
class TrainData(InteractionIndex):
    """Sampling view of a train split: its interaction index, the pairs it
    was built from, and the users with >=1 positive and >=1 negative."""

    pairs: np.ndarray  # (n, 2) int64
    eligible: np.ndarray

    @classmethod
    def from_pairs(cls, n_users, n_items, pairs):
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return cls._of(InteractionIndex.from_pairs(n_users, n_items, pairs), pairs)

    @classmethod
    def from_split(cls, split):
        """The split's memoized train index, with the train pairs."""
        return cls._of(split.user_positives("train"), split.train)

    @classmethod
    def _of(cls, index, pairs):
        degrees = index.degrees
        eligible = np.flatnonzero((degrees > 0) & (degrees < index.n_items))
        if eligible.size == 0:
            raise ValueError("no user has both a positive and a negative item")
        return cls(**vars(index), pairs=pairs, eligible=eligible.astype(np.int64))


@dataclass
class TrainerConfig:
    epochs: int = 200
    batch_size: int = 1024
    lr: float = 1e-3
    reg: float = 1e-5
    optimizer: str = "adam"
    seed: int = 0
    eval_every: int = 10

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and math.isfinite(self.reg)):
            raise ValueError(f"lr and reg must be finite, got {self.lr}, {self.reg}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.reg < 0:
            raise ValueError(f"reg must be nonnegative, got {self.reg}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer {self.optimizer!r} not in {OPTIMIZERS}")
        if self.eval_every < 1:  # every training evaluates at its last epoch
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")


def sample_triples(data: TrainData, batch_size: int, rng) -> TripleBatch:
    """Draw (user, positive, negative) triples.

    Users come uniformly from those with at least one positive and one
    non-interacted item; the positive is uniform over the user's train items;
    the negative is drawn uniformly over the catalog, and the triples whose
    draw hit a train item draw again, round by round, until none is left.
    """
    users = data.eligible[rng.integers(0, data.eligible.size, size=batch_size)]
    start = data.indptr[users]
    pos = data.indices[start + rng.integers(0, data.indptr[users + 1] - start)]
    neg = rng.integers(0, data.n_items, size=batch_size)
    redraw = np.flatnonzero(data.contains(users, neg))
    while redraw.size:
        neg[redraw] = rng.integers(0, data.n_items, size=redraw.size)
        redraw = redraw[data.contains(users[redraw], neg[redraw])]
    return TripleBatch(users, pos, neg)


def bpr_loss(tape: Tape, pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Mean over the batch of softplus(y_neg - y_pos) = -ln sigmoid(y_pos - y_neg)."""
    return tape.mean(tape.softplus(tape.sub(neg_scores, pos_scores)))


def l2_penalty(tape: Tape, tensors) -> Tensor:
    """Sum of squared entries over a sequence of trainable tensors."""
    total = None
    for t in tensors:
        sq = tape.sumsq(t)
        total = sq if total is None else tape.add(total, sq)
    if total is None:
        raise ValueError("no parameters to regularize")
    return total


def total_loss(tape: Tape, model, batch, rng, reg: float) -> Tensor:
    """Model task loss plus reg * l2 over its parameter set."""
    loss = model.loss(tape, batch, rng)
    if reg > 0:
        penalty = l2_penalty(tape, model.params().tensors())
        loss = tape.add(loss, tape.scale(penalty, reg))
    return loss


class SGD:
    def __init__(self, params, lr):
        self.params = list(params.tensors())
        self.lr = float(lr)

    def step(self):
        for p in self.params:
            if p.grad is None:
                continue
            p.data -= p.data.dtype.type(self.lr) * p.grad
            if not np.isfinite(p.data).all():
                raise TrainingDivergedError("parameter became non-finite after SGD step")
            p.zero_grad()


# entries per block of Adam's update: the six arrays of a float32 block
# (parameter, gradient, both moments and the scratch pair), 1.5 MiB, stay in
# a 2 MiB L2 cache through the update's elementwise operations
ADAM_BLOCK = 65536


class Adam:
    """Adam with bias correction.

    Each parameter is updated a block of whole rows at a time, of at most
    ADAM_BLOCK entries or one row when a row is wider, into one scratch pair,
    allocated here for the largest block, that every block reuses.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = list(params.tensors())
        self.lr = float(lr)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0
        self._rows = [min(max(1, ADAM_BLOCK // p.cols), p.rows) for p in self.params]
        size = max((r * p.cols * p.data.itemsize for r, p in zip(self._rows, self.params)),
                   default=0)
        self._scratch = (np.empty(size, np.uint8), np.empty(size, np.uint8))

    def step(self):
        self.t += 1
        c1, c2 = 1 - self.beta1 ** self.t, 1 - self.beta2 ** self.t
        for k, p in enumerate(self.params):
            if p.grad is None:
                continue
            g, m, v, rows = p.grad, self.m[k], self.v[k], self._rows[k]
            step, denom = (s[:rows * p.cols * p.data.itemsize].view(p.dtype)
                           .reshape(rows, p.cols) for s in self._scratch)
            finite = True
            for lo in range(0, p.rows, rows):
                hi = min(lo + rows, p.rows)
                finite &= self._update(p.data[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi],
                                       c1, c2, step[:hi - lo], denom[:hi - lo])
            if not finite:
                raise TrainingDivergedError("parameter became non-finite after Adam step")
            p.zero_grad()

    def _update(self, p, g, m, v, c1, c2, step, denom):
        """Update p, m and v in place from g, through the scratch arrays
        `step` and `denom`; returns whether p stayed finite. The float
        operations and their order are those of
        p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)."""
        b1, b2 = self.beta1, self.beta2
        m *= b1
        m += np.multiply(g, 1 - b1, out=step)
        v *= b2
        np.multiply(g, g, out=step)
        step *= 1 - b2
        v += step
        np.divide(m, c1, out=step)
        step *= self.lr
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        p -= step
        return np.isfinite(p).all()


def make_optimizer(trainer: TrainerConfig, params):
    if trainer.optimizer == "sgd":
        return SGD(params, trainer.lr)
    return Adam(params, trainer.lr)


DEFAULT_GRID_LRS = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2)
DEFAULT_GRID_REGS = (1e-5, 1e-2)
MAX_GRID_POINTS = 10


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid over learning rate and regularization weight.

    Hard-capped at 10 explored configurations; an 11-point grid is rejected
    when the spec is built, before any training happens.
    """

    lrs: tuple = DEFAULT_GRID_LRS
    regs: tuple = DEFAULT_GRID_REGS

    def __post_init__(self):
        n = len(self.lrs) * len(self.regs)
        if n < 1:
            raise ValueError("grid is empty")
        if n > MAX_GRID_POINTS:
            raise ValueError(
                f"grid has {n} points, the exploration budget is {MAX_GRID_POINTS}"
            )
        # written so that NaN fails them too
        if any(not 0 < lr < math.inf for lr in self.lrs) or any(
                not 0 <= r < math.inf for r in self.regs):
            raise ValueError("grid values out of range")

    def points(self):
        return [(lr, reg) for lr in self.lrs for reg in self.regs]


@dataclass
class GridResult:
    lr: float
    reg: float
    config_index: int
    best_epoch: int
    best_value: float
    table: list  # (config_index, lr, reg, epoch, value)
    model: object = None  # the winning configuration's model, fully trained
    result: object = None  # its schema.TrainResult


def grid_search(model_factory, grid: GridSpec, data: TrainData,
                trainer: TrainerConfig, eval_fn) -> GridResult:
    """Train every grid point, select by the evaluation metric.

    eval_fn(model) is called every trainer.eval_every epochs (and at the final
    epoch); the winner is the highest value, ties broken by lower config index
    and then earlier epoch. Each config trains a freshly seeded model. The
    winning config's model and TrainResult come back on the GridResult; a
    losing model is dropped before the next one is built, so at most two
    models are alive at once.
    """
    from .schema import train_loop

    best = None  # (value, idx, epoch, lr, reg)
    winner = (None, None)  # (model, result) of best's config
    table = []
    for idx, (lr, reg) in enumerate(grid.points()):
        cfg = replace(trainer, lr=lr, reg=reg)
        model = model_factory(seed=cfg.seed)
        result = train_loop(model.spec, model, data, cfg, eval_fn=eval_fn)
        for epoch, value in result.evals:
            table.append((idx, lr, reg, epoch, value))
            if best is None or value > best[0]:
                best = (value, idx, epoch, lr, reg)
        if best[1] == idx:
            winner = (model, result)
        del model, result
    value, idx, epoch, lr, reg = best
    return GridResult(lr=lr, reg=reg, config_index=idx, best_epoch=epoch,
                      best_value=value, table=table, model=winner[0],
                      result=winner[1])
