"""Representation/fusion taxonomy, parameter census, and the training loop.

A pipeline couples a representation mode with a fusion mode. Only three
couplings are expressible:

    Joint      + no fusion   (modalities meet inside one shared projection)
    Coordinate + Early       (per-modality projections fused into one vector)
    Coordinate + Late        (per-modality predictions fused at score level)

Joint representation with a fusion stage, or Coordinate without one, never
occur in one approach and are rejected by validate(). Models that combine
modalities only inside the loss declare Late fusion.

The six models in `fusionrec.models` are the realization of this schema:
each declares its coupling, registers its parameters in a ParameterSet and
trains through train_loop. The one fusion operator kept here is
weighted_sum, which merges LATTICE's item rows propagated per modality graph.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass

import numpy as np

from . import training as tr
from .tensor import NonFiniteError, Tape, Tensor, checked_once, flush_to_zero

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
    return spec


class ParameterSet:
    """Trainable tensors partitioned into the four stage groups.

    rho: user/item id embeddings, phi: extractor weights,
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


# ----------------------------------------------------------- fusion operator

def weighted_sum(tape: Tape, parts, logits: Tensor) -> Tensor:
    """Sum of equally shaped parts weighted by softmax(logits), (1, n_parts)."""
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


# ----------------------------------------------------------- training loop

@dataclass
class TraceRow:
    epoch: int
    loss: float
    val_metric: float | None
    seconds: float


@dataclass
class TrainResult:
    trace: list
    evals: list  # (epoch, value) pairs, in order
    seconds: float  # wall time of the whole loop
    minor_faults: int  # minor page faults the process took in the loop


def train_loop(spec: PipelineSpec, model, data: "tr.TrainData",
               trainer: "tr.TrainerConfig", eval_fn=None) -> TrainResult:
    """Run the epoch/batch loop over sampled triples.

    Per batch: forward through the model's declared representation and fusion
    branch, BPR plus l2 through the loss, one backward pass, one optimizer
    step. Runs exactly trainer.epochs epochs. Each batch runs through
    checked_once: it is recorded on an unchecked tape, and its loss and
    every parameter's gradient are checked once, before the step. A batch
    that fails the check, or raises NonFiniteError, is replayed on a checked
    tape from the rng state its sampling started from; the parameters have
    not stepped, so the replay is exact, and it raises at the first
    non-finite primitive. Non-finite values abort with the epoch and batch
    named. Batches run in tensor.flush_to_zero, epoch hooks and eval_fn outside.
    """
    validate(spec)
    start = time.perf_counter()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rng = np.random.default_rng(trainer.seed)
    params = model.params()
    opt = tr.make_optimizer(trainer, params)
    n_batches = max(1, int(np.ceil(data.pairs.shape[0] / trainer.batch_size)))

    def batch_loss(tape):
        """Sample a batch from the batch's rng state and record its loss on
        tape; its gradients are in the parameters' grad."""
        rng.bit_generator.state = state
        batch = tr.sample_triples(data, trainer.batch_size, rng)
        params.zero_grads()
        loss = tr.total_loss(tape, model, batch, rng, trainer.reg)
        tape.backward(loss)
        return loss

    def finite(loss):
        return np.isfinite(loss.data).all() and all(
            p.grad is None or np.isfinite(p.grad).all() for p in params.tensors())

    trace, evals = [], []
    for epoch in range(1, trainer.epochs + 1):
        t0 = time.perf_counter()
        epoch_loss = 0.0
        if hasattr(model, "on_epoch_start"):
            model.on_epoch_start(rng, epoch)
        with flush_to_zero():
            for b in range(n_batches):
                state = rng.bit_generator.state
                try:
                    loss = checked_once(batch_loss, finite)
                    opt.step()
                except (NonFiniteError, tr.TrainingDivergedError) as exc:
                    raise tr.TrainingDivergedError(
                        f"epoch {epoch} batch {b + 1}: {exc}") from exc
                epoch_loss += loss.item()
        val = None
        if eval_fn is not None and (epoch % trainer.eval_every == 0
                                    or epoch == trainer.epochs):
            val = float(eval_fn(model))
            evals.append((epoch, val))
        trace.append(TraceRow(epoch, epoch_loss / n_batches, val,
                              time.perf_counter() - t0))
    return TrainResult(trace, evals, time.perf_counter() - start,
                       resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
