"""Shared model plumbing: configs, graph builders, census, checkpoints.

Every recommender here is a pair of representation maps (users, items) ->
R^d scored by an inner product, trained on sampled triples. In the
pipeline schema all six are a Coordinate representation at embedding_dim
and differ only in fusion, so a subclass declares its `fusion` stage and
the base builds the validated spec and the per-modality feature constants.
Subclasses allocate parameters into the four-group census and implement
_representations(); scoring and the default BPR loss live on the base
class. Graph builders store float64; item_graph is the one frozen kNN item graph.
"""

import json
import math
import os
import time
from dataclasses import dataclass, asdict, field

import numpy as np

from ..dataset import write_json
from ..evaluation import TOPK_BLOCK, topk_rows
from ..tensor import (SparseMatrix, Tape, Tensor, checked_once, constant, entry_order,
                      parameter)
from ..schema import Coordinate, ParameterSet, PipelineSpec, validate
from .. import training as tr

REGISTRY = {}  # tag -> RecommenderModel subclass, in order of definition


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
    leaky_slope: float = 0.2

    def __post_init__(self):
        if self.tag not in REGISTRY:
            raise ValueError(f"unknown tag {self.tag!r}, expected {tuple(REGISTRY)}")
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
        if not 0.0 <= self.prune_ratio < 1.0:  # 1 would drop every train edge
            raise ValueError(f"prune_ratio must be in [0, 1), got {self.prune_ratio}")
        # blend, dropout_p and prune_ratio are range checks that NaN fails
        weights = (self.mm_weight, self.inter_weight, self.intra_weight,
                   self.leaky_slope, *(self.modality_weights or ()))
        if not all(math.isfinite(float(x)) for x in weights):
            raise ValueError("mm_weight, inter_weight, intra_weight, leaky_slope "
                             "and modality_weights must be finite")
        if self.mm_weight < 0 or self.inter_weight < 0 or self.intra_weight < 0:
            raise ValueError("loss weights must be nonnegative")
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
    features: dict             # modality -> (n_items, dim) finite float matrix
    _graphs: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)  # (modality, k) -> float64 kNN graph
    graph_seconds: float = field(default=0.0, init=False, repr=False,
                                 compare=False)  # wall seconds of those builds

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
            self.features[m] = f

    @property
    def modalities(self):
        return tuple(sorted(self.features))

    @classmethod
    def from_split(cls, split, store):
        feats = {m: store.matrix(m) for m in store.modalities}
        return cls(split.dataset.n_users, split.dataset.n_items,
                   split.train, feats)

    def modality_graph(self, modality, k, build):
        """build(features, k) over one modality's features, the float64
        kNN graph: built on the first call per (modality, k) and shared
        after, so every model built on this data (one per grid point, and
        one per roster model in a benchmark) reads the same graph.
        graph_seconds sums the builds' wall time."""
        key = (modality, k)
        if key not in self._graphs:
            start = time.perf_counter()
            self._graphs[key] = build(self.features[modality], k)
            self.graph_seconds += time.perf_counter() - start
        return self._graphs[key]


# ------------------------------------------------------------ graph builders

def bipartite_adjacency(n_users, n_items, pairs) -> SparseMatrix:
    """Symmetrically normalized user-item adjacency over n_users+n_items nodes."""
    return _adjacency_and_block(n_users, n_items, pairs)[0]


def bipartite_structure(n_users, n_items, pairs):
    """bipartite_adjacency, its user-item block and, per stored entry of
    the adjacency, its entry in that block.

    The block is the (n_users, n_items) SparseMatrix of the pairs with their
    pair_weights values; both adjacency entries of pair (u, i) hold its
    value. Returns (adj, block, entry_at): adj.vals are the base values to
    reweight, and adj's k-th stored entry is block's entry_at[k]-th.
    """
    adj, block = _adjacency_and_block(n_users, n_items, pairs)
    # adj stores the user rows in block's (user, item) order, then the item
    # rows in (item, user) order, the entry order of block's transpose
    by_item = entry_order((n_items, n_users), block.cols, block.rows)[1]
    return adj, block, np.concatenate([np.arange(block.nnz), by_item])


def _adjacency_and_block(n_users, n_items, pairs):
    """(bipartite_adjacency, its user-item block), as bipartite_structure
    describes them."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.shape[0] == 0:
        raise ValueError("cannot build adjacency from zero interactions")
    block = SparseMatrix((n_users, n_items), pairs[:, 0], pairs[:, 1],
                         pair_weights(n_users, n_items, pairs))
    n, users, items = n_users + n_items, block.rows, block.cols + n_users
    adj = SparseMatrix((n, n), np.concatenate([users, items]),
                       np.concatenate([items, users]),
                       np.concatenate([block.vals, block.vals]))
    return adj, block


def pair_weights(n_users, n_items, pairs) -> np.ndarray:
    """Float64 1/sqrt(deg(u) * deg(i)) per int64 pair (u, i), pair degrees."""
    deg_u = np.bincount(pairs[:, 0], minlength=n_users)
    deg_i = np.bincount(pairs[:, 1], minlength=n_items)
    return 1.0 / np.sqrt(deg_u[pairs[:, 0]] * deg_i[pairs[:, 1]])


def knn_graph(feats: np.ndarray, k: int) -> SparseMatrix:
    """Top-k cosine neighbor graph, self excluded, kept values row-normalized.

    Cosine similarity is symmetric, so each pair of items is multiplied
    once. Row block [lo, hi) of TOPK_BLOCK unit rows computes one strip,
    unit[lo:hi] @ unit[lo:].T, with its diagonal at -inf. The strip offers
    columns lo..n to rows lo:hi, and each TOPK_BLOCK-column slice of it,
    transposed, offers columns lo:hi to the rows of that later block. A
    running (n, k) top-k takes each offer: topk_rows picks the offer's best,
    then the k best of the kept and the picked. Offers reach every row in
    ascending column order and topk_rows breaks ties by position, so ties in
    similarity pick the lower item id, as a top-k of the whole row would.
    No n x n array is held, and the float32 unit rows are the one n x dim
    array: each block of rows is divided by its float64 norm, so no finite
    row's scale overflows or underflows its norm, and stored as float32, the
    precision every model reads the graph in. Strips and the running top-k
    are float32. Negative kept similarities are clamped to zero and the kept
    values row-normalized in float64; a row whose kept values are all
    nonpositive has no entries. Returns a float64 SparseMatrix of at most
    n * k entries.
    """
    feats = np.asarray(feats)
    n = feats.shape[0]
    if k >= n:
        raise ValueError(f"knn_k={k} must be < n_items={n}")
    unit = np.empty(feats.shape, dtype=np.float32)
    for lo in range(0, n, TOPK_BLOCK):  # 0 rows stay 0
        block = np.asarray(feats[lo:lo + TOPK_BLOCK], dtype=np.float64)
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        unit[lo:lo + TOPK_BLOCK] = block / np.where(norms > 0, norms, np.inf)
    vals = np.full((n, k), -np.inf, dtype=np.float32)  # n - 1 >= k finite offers
    cols = np.zeros((n, k), dtype=np.int64)

    def offer(rows, sims, first_col):
        """Merge sims, columns first_col.., into the running top-k of rows."""
        top = topk_rows(sims, min(k, sims.shape[1]))
        cand = np.concatenate([vals[rows], np.take_along_axis(sims, top, axis=1)],
                              axis=1)
        ids = np.concatenate([cols[rows], top + first_col], axis=1)
        pick = topk_rows(cand, k)  # ties: the kept first, so lower ids first
        vals[rows] = np.take_along_axis(cand, pick, axis=1)
        cols[rows] = np.take_along_axis(ids, pick, axis=1)

    for lo in range(0, n, TOPK_BLOCK):
        hi = min(lo + TOPK_BLOCK, n)
        strip = unit[lo:hi] @ unit[lo:].T
        strip[np.arange(hi - lo), np.arange(hi - lo)] = -np.inf
        offer(slice(lo, hi), strip, lo)
        for c in range(hi, n, TOPK_BLOCK):
            part = np.ascontiguousarray(strip[:, c - lo:c - lo + TOPK_BLOCK].T)
            offer(slice(c, c + part.shape[0]), part, lo)
    vals = np.maximum(vals, 0.0, dtype=np.float64)
    sums = vals.sum(axis=1, keepdims=True)
    np.divide(vals, sums, out=vals, where=sums > 0)
    kept = vals != 0
    rows = np.broadcast_to(np.arange(n)[:, None], (n, k))
    return SparseMatrix((n, n), rows[kept], cols[kept], vals[kept])


def item_graph(data: ModelData, k: int, weights=None) -> SparseMatrix:
    """Frozen multimodal item graph: the weighted sum of per-modality knn_graphs.

    Each modality's graph is data's shared one (ModelData.modality_graph).
    `weights` holds one weight per modality in sorted modality order and is
    normalized to sum to one; None weighs the modalities uniformly.
    Modalities are added in sorted order onto zero, in float64.
    """
    mods = data.modalities
    if weights is None:
        weights = (1.0,) * len(mods)
    if len(weights) != len(mods):
        raise ValueError(f"{len(weights)} modality weights for "
                         f"{len(mods)} modalities")
    total = sum(weights)
    out = sum(w / total * data.modality_graph(m, k, knn_graph).csr()
              for m, w in zip(mods, weights)).tocoo()
    return SparseMatrix(out.shape, out.row, out.col, out.data)


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


def bpr_on_rows(tape: Tape, u: Tensor, items_rep: Tensor, pos, neg) -> Tensor:
    """The one BPR scorer: triple t scores u[t] . items_rep[pos[t]] (and
    neg[t]), one sampled product over the pattern of entries (t, pos[t])."""
    def scores(items):
        pattern = SparseMatrix((u.rows, items_rep.rows), np.arange(u.rows), items,
                               np.ones(u.rows))
        return tape.entry_dot(pattern, u, items_rep)

    return tr.bpr_loss(tape, scores(pos), scores(neg))


# ------------------------------------------------------------- model base

class RecommenderModel:
    """Common spec, feature, census, loss, and scoring scaffolding.

    Subclasses set `tag` and `fusion` (their fusion stage), allocate
    parameters in _build(), and produce full user/item representation
    tensors from _representations(tape, train); defining one adds it to
    REGISTRY under its tag. `feats` holds each modality's item features as
    a read-only constant in the model dtype, ModelData's array unless cast;
    score_users(users) is u[users] @ i.T on the (u, i) of embed().
    """

    tag = None
    fusion = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        REGISTRY[cls.tag] = cls

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
        self.feats = {m: constant(np.empty((0, 0)), dtype) for m in data.modalities}
        for m, t in self.feats.items():  # ModelData's array, copied only to cast
            t.data = data.features[m].astype(dtype, copy=False).view()
            t.data.flags.writeable = False
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

    def _id_embeddings(self, rng):
        """(user_emb, item_emb), the rho id embeddings, drawn in that order."""
        d = self.config.embedding_dim
        return (self._param("rho", "user_emb", rng, (self.data.n_users, d)),
                self._param("rho", "item_emb", rng, (self.data.n_items, d)))

    def _projection(self, m, rng):
        """proj_<m>, modality m's (feature width, embedding_dim) mu projection."""
        shape = (self.data.features[m].shape[1], self.config.embedding_dim)
        return self._param("mu", f"proj_{m}", rng, shape)

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
        return bpr_on_rows(tape, tape.row_gather(users_rep, batch.users),
                           items_rep, batch.pos, batch.neg)

    def embed(self):
        """(users (n_users, d'), items (n_items, d')) arrays, gradient-free,
        recorded through checked_once: the two arrays are checked once, and
        a pass that is not finite is replayed on a checked tape, which names
        the primitive. LATTICE's users array is its parameter's own: read it
        before a step."""
        def run(tape):
            users_rep, items_rep = self._representations(tape, train=False)
            tape.reset()
            return users_rep.data, items_rep.data

        return checked_once(run, lambda arrays: all(np.isfinite(a).all()
                                                    for a in arrays))

    def score_users(self, users) -> np.ndarray:
        """Dense score block (len(users), n_items), gradient-free."""
        u, i = self.embed()
        return u[np.asarray(users, dtype=np.int64)] @ i.T


# ------------------------------------------------------------- checkpoints

def save_checkpoint(model: RecommenderModel, out_dir):
    """JSON manifest (config + group shapes) plus each tensor's little-endian bytes."""
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
    write_json(os.path.join(out_dir, "checkpoint.json"), manifest)
    for name, t in named.items():
        blob = t.data.astype(t.data.dtype.newbyteorder("<")).tobytes()
        with open(os.path.join(out_dir, f"{name}.bin"), "wb") as fh:
            fh.write(blob)


def load_checkpoint(model: RecommenderModel, out_dir):
    """Restore save_checkpoint's finite values; tag, shapes, then config must match."""
    with open(os.path.join(out_dir, "checkpoint.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["tag"] != model.tag:
        raise ValueError(f"checkpoint tag {manifest['tag']!r} != model {model.tag!r}")
    named = model.params().named()
    stored = {name: tuple(shape) for group in manifest["groups"].values()
              for name, shape in group.items()}
    shapes = {name: t.shape for name, t in named.items()}
    if stored != shapes:  # a parameter one side lacks has shape None there
        name = min(set(stored.items()) ^ set(shapes.items()))[0]
        raise ValueError(f"{name}: checkpoint shape {stored.get(name)} "
                         f"!= model {shapes.get(name)}")
    config = json.loads(json.dumps(asdict(model.config)))  # tuples become lists
    for key, value in config.items():
        if (kept := manifest["config"].get(key)) != value:
            raise ValueError(f"checkpoint config {key} = {kept!r} "
                             f"!= model {key} = {value!r}")
    raw = {name: np.fromfile(os.path.join(out_dir, f"{name}.bin"),
                             dtype=t.data.dtype.newbyteorder("<"))
           for name, t in named.items()}
    for name, t in named.items():  # every blob is checked before any is assigned
        if raw[name].size != t.data.size:  # also a blob of another dtype
            raise ValueError(f"{name}: blob has {raw[name].size} {t.data.dtype} "
                             f"values, expected {t.data.size}")
        if not np.isfinite(raw[name]).all():
            raise ValueError(f"{name}: blob holds NaN or inf values")
    for name, t in named.items():
        t.data[...] = raw[name].reshape(t.shape)
    return model
