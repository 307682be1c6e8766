"""Shared model plumbing: configs, graph builders, census, checkpoints.

Every recommender here is a pair of representation maps (users, items) ->
R^d scored by an inner product, trained on sampled triples. In the
pipeline schema all six are a Coordinate representation at embedding_dim
and differ only in fusion, so a subclass declares its `fusion` stage and
the base builds the validated spec and the per-modality feature constants.
Subclasses allocate parameters into the four-group census and implement
_representations(); scoring and the default BPR loss live on the base
class. item_graph is the one builder of the frozen kNN item graph.
"""

import json
import os
from dataclasses import dataclass, asdict

import numpy as np

from ..evaluation import TOPK_BLOCK, topk_rows
from ..tensor import SparseMatrix, Tape, Tensor, constant, parameter, sym_normalize
from ..schema import Coordinate, ParameterSet, PipelineSpec, validate
from .. import training as tr

MODEL_TAGS = ("vbpr", "mmgcn", "grcn", "lattice", "bm3", "freedom")
ACTIVATIONS = ("leaky_relu", "linear")


@dataclass
class ModelConfig:
    """Hyperparameters for any of the six recommenders.

    Defaults are fixed, documented choices, not tuned values; every field
    is overridable and the learning rate / regularization knobs live in
    TrainerConfig instead.
    """

    tag: str
    embedding_dim: int = 64
    layers: int = 2              # user-item propagation rounds
    item_graph_layers: int = 1   # item-item propagation rounds
    knn_k: int = 10
    blend: float = 0.5           # lambda between initial and learned graph
    dropout_p: float = 0.5
    prune_ratio: float = 0.8     # fraction of user-item edges dropped per epoch
    mm_weight: float = 0.1       # weight of the modality score loss branch
    inter_weight: float = 1.0
    intra_weight: float = 1.0
    modality_weights: tuple = None  # fixed merge weights; None = uniform
    with_bias: bool = False
    activation: str = "leaky_relu"
    leaky_slope: float = 0.2

    def __post_init__(self):
        if self.tag not in MODEL_TAGS:
            raise ValueError(f"unknown tag {self.tag!r}, expected {MODEL_TAGS}")
        if self.embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if self.layers < 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")
        if self.item_graph_layers < 0:
            raise ValueError("item_graph_layers must be >= 0")
        if self.knn_k < 1:
            raise ValueError(f"knn_k must be >= 1, got {self.knn_k}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if not 0.0 <= self.blend <= 1.0:
            raise ValueError(f"blend must be in [0, 1], got {self.blend}")
        if not 0.0 <= self.prune_ratio <= 1.0:
            raise ValueError(f"prune_ratio must be in [0, 1], got {self.prune_ratio}")
        if self.mm_weight < 0 or self.inter_weight < 0 or self.intra_weight < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation {self.activation!r} not in {ACTIVATIONS}")
        if self.modality_weights is not None:
            w = tuple(float(x) for x in self.modality_weights)
            if any(x < 0 for x in w) or sum(w) <= 0:
                raise ValueError("modality_weights must be nonnegative, sum > 0")
            self.modality_weights = w


@dataclass
class ModelData:
    """Everything a model consumes: the train graph plus item features."""

    n_users: int
    n_items: int
    pairs: np.ndarray          # (n, 2) int64 train interactions
    features: dict             # modality -> (n_items, dim) float matrix

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.int64)
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
            raise ValueError(f"pairs must be (n, 2), got {self.pairs.shape}")
        if self.pairs.size:
            if self.pairs[:, 0].min() < 0 or self.pairs[:, 0].max() >= self.n_users:
                raise ValueError("pair user id out of range")
            if self.pairs[:, 1].min() < 0 or self.pairs[:, 1].max() >= self.n_items:
                raise ValueError("pair item id out of range")
        if not self.features:
            raise ValueError("at least one modality feature matrix required")
        for m, f in self.features.items():
            f = np.asarray(f)
            if f.shape[0] != self.n_items:
                raise ValueError(
                    f"{m}: feature rows {f.shape[0]} != n_items {self.n_items}"
                )
            if not np.isfinite(f).all():
                raise ValueError(f"{m}: non-finite feature values")
            self.features[m] = f

    @property
    def modalities(self):
        return tuple(sorted(self.features))

    @classmethod
    def from_split(cls, split, store):
        feats = {m: store.matrix(m) for m in store.modalities}
        return cls(split.dataset.n_users, split.dataset.n_items,
                   split.train, feats)


# ------------------------------------------------------------ graph builders

def bipartite_adjacency(n_users, n_items, pairs, dtype=np.float32) -> SparseMatrix:
    """Symmetrically normalized user-item adjacency over n_users+n_items nodes."""
    return bipartite_structure(n_users, n_items, pairs, dtype)[0]


def bipartite_structure(n_users, n_items, pairs, dtype=np.float32):
    """bipartite_adjacency plus, per stored entry, its source pair index.

    Returns (adj, entry_pair); adj.vals are the base values to reweight.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    m = pairs.shape[0]
    if m == 0:
        raise ValueError("cannot build adjacency from zero interactions")
    n = n_users + n_items
    rows = np.concatenate([pairs[:, 0], pairs[:, 1] + n_users])
    cols = np.concatenate([pairs[:, 1] + n_users, pairs[:, 0]])
    order = np.argsort(rows * n + cols)  # SparseMatrix's stored order
    ones = np.ones(2 * m, dtype=dtype)
    adj = sym_normalize(SparseMatrix((n, n), rows, cols, ones, dtype=dtype))
    return adj, np.concatenate([np.arange(m), np.arange(m)])[order]


def knn_graph(feats: np.ndarray, k: int) -> SparseMatrix:
    """Top-k cosine neighbor graph, self excluded, kept values row-normalized.

    Built TOPK_BLOCK rows at a time, so no n x n array is ever held: each
    block of unit rows is multiplied by all unit rows and topk_rows picks its
    k neighbors. Ties in similarity pick the lower item id. Negative kept
    similarities are clamped to zero before normalization; a row whose kept
    values are all nonpositive has no entries. Returns a float64
    SparseMatrix of at most n * k entries.
    """
    unit = np.array(feats, dtype=np.float64)
    n = unit.shape[0]
    if k >= n:
        raise ValueError(f"knn_k={k} must be < n_items={n}")
    norms = np.linalg.norm(unit, axis=1, keepdims=True)
    np.divide(unit, np.where(norms > 0, norms, np.inf), out=unit)  # 0 rows stay 0
    cols = np.empty((n, k), dtype=np.int64)
    vals = np.empty((n, k))
    for lo in range(0, n, TOPK_BLOCK):
        hi = min(lo + TOPK_BLOCK, n)
        sim = unit[lo:hi] @ unit.T
        sim[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
        cols[lo:hi] = topk_rows(sim, k)
        vals[lo:hi] = np.take_along_axis(sim, cols[lo:hi], axis=1)
    np.maximum(vals, 0.0, out=vals)
    sums = vals.sum(axis=1, keepdims=True)
    np.divide(vals, sums, out=vals, where=sums > 0)
    kept = vals != 0
    rows = np.broadcast_to(np.arange(n)[:, None], (n, k))
    return SparseMatrix((n, n), rows[kept], cols[kept], vals[kept],
                        dtype=np.float64)


def item_graph(features: dict, k: int, weights=None) -> SparseMatrix:
    """Frozen multimodal item graph: the weighted sum of per-modality knn_graphs.

    `weights` holds one weight per modality in sorted modality order and is
    normalized to sum to one; None weighs the modalities uniformly.
    Modalities are added in sorted order onto zero, in float64.
    """
    mods = sorted(features)
    if weights is None:
        weights = (1.0,) * len(mods)
    if len(weights) != len(mods):
        raise ValueError(f"{len(weights)} modality weights for "
                         f"{len(mods)} modalities")
    total = sum(weights)
    out = sum(w / total * knn_graph(features[m], k).csr()
              for m, w in zip(mods, weights)).tocoo()
    return SparseMatrix(out.shape, out.row, out.col, out.data, dtype=np.float64)


# ------------------------------------------------------- tape-level helpers

def lightgcn_propagate(tape: Tape, hop, h0: Tensor, layers: int) -> Tensor:
    """Mean of h0..hL where h_{l+1} = hop(h_l), one neighborhood product.

    `hop` carries the graph, for example `lambda h: tape.spmm(adj, h)`.
    """
    if layers == 0:
        return h0
    acc, h = h0, h0
    for _ in range(layers):
        h = hop(h)
        acc = tape.add(acc, h)
    return tape.scale(acc, 1.0 / (layers + 1))


def batch_rows(batch):
    """The batch's unique users and items, and each triple's row in them.

    Returns (users, items, user_at, pos_at, neg_at): users[user_at] is
    batch.users, items[pos_at] is batch.pos and items[neg_at] is batch.neg.
    """
    users, user_at = np.unique(batch.users, return_inverse=True)
    items, item_at = np.unique(np.concatenate([batch.pos, batch.neg]),
                               return_inverse=True)
    n = len(batch)
    return users, items, user_at, item_at[:n], item_at[n:]


def bpr_on_rows(tape: Tape, users_rep: Tensor, items_rep: Tensor,
                users, pos, neg) -> Tensor:
    """BPR over triples given as row indices into the representations.

    A triple's score is the inner product of its user row and item row.
    """
    u = tape.row_gather(users_rep, users)

    def scores(items):
        return tape.rowsum(tape.mul(u, tape.row_gather(items_rep, items)))

    return tr.bpr_loss(tape, scores(pos), scores(neg))


# ------------------------------------------------------------- model base

class RecommenderModel:
    """Common spec, feature, census, loss, and scoring scaffolding.

    Subclasses set `tag` and `fusion` (their fusion stage), allocate
    parameters in _build(), and produce full user/item representation
    tensors from _representations(tape, train). `feats` holds each
    modality's item features as a constant in the model dtype.
    """

    tag = None
    fusion = None

    def __init__(self, config: ModelConfig, data: ModelData, seed=0,
                 dtype=np.float32):
        if config.tag != self.tag:
            raise ValueError(f"config tag {config.tag!r} does not match {self.tag!r}")
        self.config = config
        self.data = data
        self.dtype = dtype
        self._params = ParameterSet()
        self.spec = validate(PipelineSpec(
            Coordinate(out_dim=config.embedding_dim), self.fusion,
            data.modalities))
        self.feats = {m: constant(data.features[m], dtype=dtype)
                      for m in data.modalities}
        self._build(np.random.default_rng(seed))

    # -- subclass hooks

    def _build(self, rng):
        raise NotImplementedError

    def _representations(self, tape: Tape, train: bool):
        """Return (users (n_u, d'), items (n_i, d')) tensors on the tape."""
        raise NotImplementedError

    # -- shared plumbing

    def _param(self, group, name, rng, shape, scale=0.1):
        t = parameter(rng.normal(0.0, scale, size=shape), dtype=self.dtype)
        return self._params.add(group, name, t)

    def _split_nodes(self, tape: Tape, h: Tensor):
        """(user rows, item rows) of a stacked (n_users + n_items, d') tensor."""
        n_u = self.data.n_users
        return (tape.row_gather(h, np.arange(n_u)),
                tape.row_gather(h, n_u + np.arange(self.data.n_items)))

    def params(self) -> ParameterSet:
        return self._params

    def tensors(self):
        return self._params.tensors()

    def zero_grads(self):
        self._params.zero_grads()

    def loss(self, tape: Tape, batch, rng) -> Tensor:
        users_rep, items_rep = self._representations(tape, train=True)
        return bpr_on_rows(tape, users_rep, items_rep,
                           batch.users, batch.pos, batch.neg)

    def score_users(self, users) -> np.ndarray:
        """Dense score block (len(users), n_items), gradient-free."""
        tape = Tape()
        users_rep, items_rep = self._representations(tape, train=False)
        tape.reset()
        u = users_rep.data[np.asarray(users, dtype=np.int64)]
        return u @ items_rep.data.T


# ------------------------------------------------------------- checkpoints

def save_checkpoint(model: RecommenderModel, out_dir):
    """JSON manifest (config + group shapes) plus one raw f32 blob per tensor."""
    os.makedirs(out_dir, exist_ok=True)
    named = model.params().named()
    census = model.params().census()
    manifest = {
        "tag": model.tag,
        "config": asdict(model.config),
        "groups": {
            g: {name: list(named[name].shape) for name in names}
            for g, names in census.items()
        },
    }
    with open(os.path.join(out_dir, "checkpoint.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, t in named.items():
        blob = t.data.astype("<f4").tobytes()
        with open(os.path.join(out_dir, f"{name}.bin"), "wb") as fh:
            fh.write(blob)


def load_checkpoint(model: RecommenderModel, out_dir):
    """Restore parameter values written by save_checkpoint, verifying shapes."""
    with open(os.path.join(out_dir, "checkpoint.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["tag"] != model.tag:
        raise ValueError(f"checkpoint tag {manifest['tag']!r} != model {model.tag!r}")
    named = model.params().named()
    stored = {name: tuple(shape)
              for shapes in manifest["groups"].values()
              for name, shape in shapes.items()}
    if set(stored) != set(named):
        missing = sorted(set(named) ^ set(stored))
        raise ValueError(f"checkpoint parameter names differ: {missing}")
    for name, t in named.items():
        if stored[name] != t.shape:
            raise ValueError(
                f"{name}: checkpoint shape {stored[name]} != model {t.shape}"
            )
        raw = np.fromfile(os.path.join(out_dir, f"{name}.bin"), dtype="<f4")
        if raw.size != t.data.size:
            raise ValueError(f"{name}: blob has {raw.size} values, "
                             f"expected {t.data.size}")
        t.data[...] = raw.reshape(t.shape).astype(t.data.dtype)
    return model
