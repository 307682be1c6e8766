"""Representation/fusion taxonomy, stage operators, and the training loop.

A pipeline couples a representation mode with a fusion mode. Only three
couplings are expressible:

    Joint      + no fusion   (modalities meet inside one shared projection)
    Coordinate + Early       (per-modality projections fused into one vector)
    Coordinate + Late        (per-modality predictions fused at score level)

Joint representation with a fusion stage, or Coordinate without one, never
occur in one approach and are rejected by validate(). Models that combine
modalities only inside the loss declare Late fusion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import training as tr
from .tensor import NonFiniteError, Tape, Tensor, constant, parameter

EARLY_OPS = ("concat", "sum", "mean", "weighted_sum")
LATE_OPS = ("sum", "mean", "max", "weighted_sum")
GROUPS = ("rho", "phi", "mu", "gamma")


class PipelineError(ValueError):
    """Illegal representation/fusion coupling or malformed stage input."""


@dataclass(frozen=True)
class Joint:
    out_dim: int = 64


@dataclass(frozen=True)
class Coordinate:
    out_dim: int = 64
    # ((modality_a, modality_b, weight), ...) cosine alignment constraints
    align_pairs: tuple = ()


@dataclass(frozen=True)
class NoFusion:
    pass


@dataclass(frozen=True)
class Early:
    op: str = "concat"


@dataclass(frozen=True)
class Late:
    op: str = "sum"


@dataclass(frozen=True)
class PipelineSpec:
    representation: object
    fusion: object
    modalities: tuple
    predictor: str = "inner"


def validate(spec: PipelineSpec) -> PipelineSpec:
    """Reject illegal couplings and malformed stage parameters."""
    rep, fus = spec.representation, spec.fusion
    if isinstance(rep, Joint):
        if not isinstance(fus, NoFusion):
            raise PipelineError(
                "Joint representation already merges modalities; a fusion "
                "stage cannot be attached to it"
            )
    elif isinstance(rep, Coordinate):
        if isinstance(fus, Early):
            if fus.op not in EARLY_OPS:
                raise PipelineError(f"early fusion op {fus.op!r} not in {EARLY_OPS}")
        elif isinstance(fus, Late):
            if fus.op not in LATE_OPS:
                raise PipelineError(f"late fusion op {fus.op!r} not in {LATE_OPS}")
        else:
            raise PipelineError(
                "Coordinate representation keeps modalities separate; it "
                "requires an Early or Late fusion stage"
            )
    else:
        raise PipelineError(f"unknown representation mode {type(rep).__name__}")
    if rep.out_dim < 1:
        raise PipelineError(f"out_dim must be >= 1, got {rep.out_dim}")
    if not spec.modalities:
        raise PipelineError("pipeline needs at least one modality")
    if len(set(spec.modalities)) != len(spec.modalities):
        raise PipelineError("duplicate modality in pipeline")
    if spec.predictor != "inner":
        raise PipelineError(f"unknown predictor {spec.predictor!r}")
    if isinstance(rep, Coordinate):
        mods = set(spec.modalities)
        for a, b, w in rep.align_pairs:
            if a not in mods or b not in mods or a == b:
                raise PipelineError(f"bad alignment pair ({a!r}, {b!r})")
            if w < 0:
                raise PipelineError("alignment weight must be nonnegative")
    return spec


class ParameterSet:
    """Trainable tensors partitioned into the four stage groups.

    rho: predictor-side embeddings (user/item ids), phi: extractor weights,
    mu: representation projections, gamma: fusion weights. A tensor lives in
    exactly one group under exactly one name.
    """

    def __init__(self):
        self._groups = {g: {} for g in GROUPS}
        self._owned = {}

    def add(self, group: str, name: str, t: Tensor) -> Tensor:
        if group not in GROUPS:
            raise ValueError(f"unknown group {group!r}, expected one of {GROUPS}")
        if not t.requires_grad:
            raise ValueError(f"{name}: only trainable tensors belong in the census")
        if name in self._owned:
            raise ValueError(f"parameter name {name!r} already registered")
        if any(t is existing for existing in self._owned.values()):
            raise ValueError(f"{name}: tensor already registered under another name")
        self._groups[group][name] = t
        self._owned[name] = t
        return t

    def group(self, g):
        return dict(self._groups[g])

    def named(self):
        return dict(self._owned)

    def tensors(self):
        return list(self._owned.values())

    def census(self):
        """group -> sorted parameter names; every tensor in exactly one group."""
        return {g: sorted(self._groups[g]) for g in GROUPS}

    def zero_grads(self):
        for t in self._owned.values():
            t.zero_grad()


# ----------------------------------------------------------- stage operators

def joint_represent(tape: Tape, feats, weight: Tensor) -> Tensor:
    """Concatenate modality blocks column-wise and project once."""
    feats = list(feats)
    if not feats:
        raise PipelineError("joint_represent needs at least one modality block")
    cat = feats[0] if len(feats) == 1 else tape.concat(feats)
    if cat.cols != weight.rows:
        raise PipelineError(
            f"joint projection expects {cat.cols} input dims, weight has {weight.rows}"
        )
    return tape.matmul(cat, weight)


def coordinate_represent(tape: Tape, feats, weights) -> list:
    """Project each modality block separately into the shared dimension."""
    feats, weights = list(feats), list(weights)
    if len(feats) != len(weights):
        raise PipelineError("one projection per modality block required")
    out = []
    for f, w in zip(feats, weights):
        if f.cols != w.rows:
            raise PipelineError(
                f"projection expects {f.cols} input dims, weight has {w.rows}"
            )
        out.append(tape.matmul(f, w))
    dims = {o.cols for o in out}
    if len(dims) > 1:
        raise PipelineError(f"coordinate projections disagree on out_dim: {dims}")
    return out


def alignment_penalty(tape: Tape, reps: dict, align_pairs) -> Tensor | None:
    """Sum of weight * mean(1 - cos) over configured modality pairs."""
    total = None
    for a, b, w in align_pairs:
        cos = tape.cosine_similarity(reps[a], reps[b])
        one = Tensor(np.ones((cos.rows, 1)), dtype=cos.dtype)
        term = tape.scale(tape.mean(tape.sub(one, cos)), w)
        total = term if total is None else tape.add(total, term)
    return total


def _weighted_sum(tape: Tape, parts, logits: Tensor):
    if logits.shape != (1, len(parts)):
        raise PipelineError(
            f"weighted_sum needs (1, {len(parts)}) logits, got {logits.shape}"
        )
    w = tape.softmax(logits)
    total = None
    for j, part in enumerate(parts):
        basis = np.zeros((len(parts), 1))
        basis[j, 0] = 1.0
        wj = tape.matmul(w, Tensor(basis, dtype=logits.dtype))  # (1,1)
        term = tape.mul(part, wj)
        total = term if total is None else tape.add(total, term)
    return total


def early_fuse(tape: Tape, reps, op: str, logits: Tensor = None) -> Tensor:
    """Merge per-modality representations into one vector per row."""
    reps = list(reps)
    if not reps:
        raise PipelineError("early_fuse needs at least one representation")
    if op not in EARLY_OPS:
        raise PipelineError(f"early fusion op {op!r} not in {EARLY_OPS}")
    if op == "concat":
        return reps[0] if len(reps) == 1 else tape.concat(reps)
    if {r.shape for r in reps} and len({r.shape for r in reps}) > 1:
        raise PipelineError("sum/mean/weighted_sum need equal shapes")
    if op == "weighted_sum":
        if logits is None:
            raise PipelineError("weighted_sum needs fusion logits")
        return _weighted_sum(tape, reps, logits)
    total = reps[0]
    for r in reps[1:]:
        total = tape.add(total, r)
    if op == "mean":
        total = tape.scale(total, 1.0 / len(reps))
    return total


def late_fuse(tape: Tape, preds, op: str, logits: Tensor = None) -> Tensor:
    """Merge per-modality score columns into one score column."""
    preds = list(preds)
    if not preds:
        raise PipelineError("late_fuse needs at least one prediction")
    if op not in LATE_OPS:
        raise PipelineError(f"late fusion op {op!r} not in {LATE_OPS}")
    if any(p.cols != 1 for p in preds):
        raise PipelineError("late_fuse expects (n, 1) score columns")
    if op == "weighted_sum":
        if logits is None:
            raise PipelineError("weighted_sum needs fusion logits")
        return _weighted_sum(tape, preds, logits)
    if op == "max":
        total = preds[0]
        for p in preds[1:]:
            total = tape.maximum(total, p)
        return total
    total = preds[0]
    for p in preds[1:]:
        total = tape.add(total, p)
    if op == "mean":
        total = tape.scale(total, 1.0 / len(preds))
    return total


def predict_inner(tape: Tape, u: Tensor, v: Tensor) -> Tensor:
    """Row-wise inner product, (n, d) x (n, d) -> (n, 1)."""
    if u.shape != v.shape:
        raise PipelineError(f"inner product needs equal shapes, got {u.shape} vs {v.shape}")
    return tape.rowsum(tape.mul(u, v))


# ----------------------------------------------------------- reference model

class PipelineModel:
    """Direct realization of a pipeline spec over id-embedding users.

    Users get one shared embedding; items are built from modality features by
    the declared representation and fusion stages; scores are inner products.
    Mainly a reference implementation for the taxonomy, but trainable like
    any other model.
    """

    tag = "pipeline"

    def __init__(self, spec: PipelineSpec, n_users: int, feature_matrices: dict,
                 seed: int = 0, dtype=np.float32):
        self.spec = validate(spec)
        self.n_users = n_users
        self.dtype = dtype
        self.modalities = list(spec.modalities)
        self.feats = {m: constant(feature_matrices[m], dtype=dtype)
                      for m in self.modalities}
        self.n_items = next(iter(self.feats.values())).rows
        d = spec.representation.out_dim
        self.d = d
        rng = np.random.default_rng(seed)
        self._p = ParameterSet()
        scale = 0.1
        # concat fusion widens the item vector, the user side must match
        user_dim = d * len(self.modalities) if (
            isinstance(spec.fusion, Early) and spec.fusion.op == "concat") else d
        self.user_emb = self._p.add("rho", "user_emb", parameter(
            rng.standard_normal((n_users, user_dim)) * scale, dtype=dtype))
        if isinstance(spec.representation, Joint):
            total_dim = sum(self.feats[m].cols for m in self.modalities)
            self.joint_w = self._p.add("mu", "joint_proj", parameter(
                rng.standard_normal((total_dim, d)) * scale, dtype=dtype))
        else:
            self.proj = {}
            for m in self.modalities:
                self.proj[m] = self._p.add("mu", f"proj_{m}", parameter(
                    rng.standard_normal((self.feats[m].cols, d)) * scale,
                    dtype=dtype))
        self.fuse_logits = None
        fus = spec.fusion
        if getattr(fus, "op", None) == "weighted_sum":
            self.fuse_logits = self._p.add("gamma", "fuse_logits", parameter(
                np.zeros((1, len(self.modalities))), dtype=dtype))
        self.fused_representation_built = False

    def params(self) -> ParameterSet:
        return self._p

    def _item_blocks(self, tape, items):
        return [tape.row_gather(self.feats[m], items) for m in self.modalities]

    def score_pairs(self, tape: Tape, users, items) -> Tensor:
        """Inner-product scores for aligned (user, item) index arrays."""
        u = tape.row_gather(self.user_emb, users)
        blocks = self._item_blocks(tape, items)
        rep, fus = self.spec.representation, self.spec.fusion
        if isinstance(rep, Joint):
            item_vec = joint_represent(tape, blocks, self.joint_w)
            return predict_inner(tape, u, item_vec)
        projected = coordinate_represent(
            tape, blocks, [self.proj[m] for m in self.modalities])
        if isinstance(fus, Early):
            item_vec = early_fuse(tape, projected, fus.op, self.fuse_logits)
            self.fused_representation_built = True
            if fus.op == "concat" and item_vec.cols != u.cols:
                raise PipelineError(
                    "concat early fusion needs out_dim * n_modalities equal to "
                    "the user dimension; use sum/mean/weighted_sum or resize"
                )
            return predict_inner(tape, u, item_vec)
        # Late path: fuse at score level, never materialize a fused item vector
        preds = [predict_inner(tape, u, pm) for pm in projected]
        return late_fuse(tape, preds, fus.op, self.fuse_logits)

    def loss(self, tape: Tape, batch, rng) -> Tensor:
        pos = self.score_pairs(tape, batch.users, batch.pos)
        neg = self.score_pairs(tape, batch.users, batch.neg)
        loss = tr.bpr_loss(tape, pos, neg)
        rep = self.spec.representation
        if isinstance(rep, Coordinate) and rep.align_pairs:
            blocks = self._item_blocks(tape, np.arange(self.n_items))
            projected = coordinate_represent(
                tape, blocks, [self.proj[m] for m in self.modalities])
            reps = dict(zip(self.modalities, projected))
            pen = alignment_penalty(tape, reps, rep.align_pairs)
            if pen is not None:
                loss = tape.add(loss, pen)
        return loss

    def score_users(self, users) -> np.ndarray:
        """(len(users), n_items) score matrix from current parameters.

        Late fusion goes through late_fuse, each modality's score matrix
        flattened into one score column.
        """
        users = np.asarray(users, dtype=np.int64)
        tape = Tape()
        blocks = self._item_blocks(tape, np.arange(self.n_items))
        rep, fus = self.spec.representation, self.spec.fusion
        if isinstance(rep, Joint):
            items = [joint_represent(tape, blocks, self.joint_w)]
        else:
            items = coordinate_represent(
                tape, blocks, [self.proj[m] for m in self.modalities])
            if isinstance(fus, Early):
                items = [early_fuse(tape, items, fus.op, self.fuse_logits)]
        scores = [self.user_emb.data[users] @ i.data.T for i in items]
        if isinstance(fus, Late):
            cols = [Tensor(s.reshape(-1, 1), dtype=self.dtype) for s in scores]
            fused = late_fuse(tape, cols, fus.op, self.fuse_logits)
            scores = [fused.data.reshape(users.size, self.n_items)]
        tape.reset()
        return scores[0]


# ----------------------------------------------------------- training loop

@dataclass
class TraceRow:
    epoch: int
    loss: float
    val_metric: float | None
    seconds: float


@dataclass
class TrainResult:
    params: ParameterSet
    trace: list
    evals: list  # (epoch, value) pairs, in order
    seconds: float  # wall time of the whole loop


def train_loop(spec: PipelineSpec, model, data: "tr.TrainData",
               trainer: "tr.TrainerConfig", eval_fn=None) -> TrainResult:
    """Run the epoch/batch loop over sampled triples.

    Per batch: forward through the model's declared representation and fusion
    branch, BPR plus l2 through the loss, one backward pass, one optimizer
    step. Runs exactly trainer.epochs epochs. Non-finite values abort with
    the epoch and batch named.
    """
    validate(spec)
    start = time.perf_counter()
    rng = np.random.default_rng(trainer.seed)
    params = model.params()
    opt = tr.make_optimizer(trainer, params)
    n_batches = max(1, int(np.ceil(data.pairs.shape[0] / trainer.batch_size)))
    trace, evals = [], []
    for epoch in range(1, trainer.epochs + 1):
        t0 = time.perf_counter()
        epoch_loss = 0.0
        if hasattr(model, "on_epoch_start"):
            model.on_epoch_start(rng, epoch)
        for b in range(n_batches):
            batch = tr.sample_triples(data, trainer.batch_size, rng)
            tape = Tape()
            params.zero_grads()
            try:
                loss = tr.total_loss(tape, model, batch, rng, trainer.reg)
                tape.backward(loss)
                opt.step()
            except (NonFiniteError, tr.TrainingDivergedError) as exc:
                raise tr.TrainingDivergedError(
                    f"epoch {epoch} batch {b + 1}: {exc}"
                ) from exc
            epoch_loss += loss.item()
        val = None
        if eval_fn is not None and trainer.eval_every > 0 and (
                epoch % trainer.eval_every == 0 or epoch == trainer.epochs):
            val = float(eval_fn(model))
            evals.append((epoch, val))
        trace.append(TraceRow(epoch, epoch_loss / n_batches, val,
                              time.perf_counter() - t0))
    return TrainResult(params, trace, evals, time.perf_counter() - start)
