"""Item-item structure learning blended with frozen feature graphs.

Per modality, the base's sparse cosine kNN graph over raw item features
(knn_graph, built once per ModelData and kept sparse, the same graph
FREEDOM freezes through item_graph) and a second graph learned from
projected features are blended A = blend * initial + (1 - blend) * learned.
In training the learned graph is built once per epoch, as LATTICE's
reference code does: the epoch's first batch builds it on its tape, so the
projections learn through it, and the epoch's later batches reuse that
batch's supports and values as constants (on_epoch_start). Scoring (embed)
and any forward outside schema.train_loop's epochs build it afresh.
Modality graphs are merged by a softmax-weighted sum with learned logits
(Early(weighted_sum) fusion at graph level). Propagation is linear, so
each layer propagates through every modality's graph and merges the
n x d results with those weights instead of building the merged graph.
Item id embeddings are propagated this way and the normalized result is
added back onto the id embedding; users keep plain id embeddings.

The learned graph is kNN-sparse, as LATTICE defines it: rank_topk picks
each item's k best off-diagonal cosine neighbors among the projected unit
rows (ties to the lower id), and only those n * k values are computed on
the tape, by one sampled product over the support (Tape.entry_dot), clamped
at zero and row-normalized. No n x n array is built.
The pick is hard and non-differentiable; `frozen_masks` pins it to a
fixed 0/1 mask so gradient checks differentiate a fixed function.

One departure from the reference: it detaches the merged, blended item
graph, so its modality weights stop learning after the first batch too;
here the blend and the weighted_sum merge act on propagated rows, on the
tape every batch, and only the learned supports and values are frozen.
"""

import numpy as np

from ..dataset import InteractionIndex
from ..evaluation import rank_topk, topk_rows
from ..schema import Early, weighted_sum
from ..tensor import SparseMatrix, constant
from .base import RecommenderModel, bpr_on_rows, knn_graph

ROW_SUM_FLOOR = 1e-12


class LATTICE(RecommenderModel):
    tag = "lattice"
    fusion = Early("weighted_sum")

    def _build(self, rng):
        cfg, n = self.config, self.data.n_items
        self.user_emb, self.item_emb = self._id_embeddings(rng)
        self.merge_logits = self._param(
            "gamma", "merge_logits", rng, (1, len(self.data.modalities)),
            scale=0.0,
        )
        # cosine similarity is scale-invariant, so knn_graph's unit rows
        # cover the standardization the initial graphs assume
        self.initial = {m: self.data.modality_graph(m, cfg.knn_k, knn_graph)
                        for m in self.data.modalities}
        self.proj = {m: self._projection(m, rng) for m in self.data.modalities}
        # an item is not its own neighbor: rank_topk excludes the (i, i) pairs
        self.itself = InteractionIndex.from_pairs(n, n, np.repeat(np.arange(n), 2))
        self.ones = constant(np.ones((n, 1)), dtype=self.dtype)
        self.floor = constant(np.full((n, 1), ROW_SUM_FLOOR), dtype=self.dtype)
        self.frozen_masks = None
        # this epoch's learned graphs (_epoch_graphs): the rng train_loop
        # passed on_epoch_start, the rng state its building forward saw, and
        # that forward's {modality: (support, values)}, values as constants
        self._epoch_rng = self._built_at = self._frozen = None

    def on_epoch_start(self, rng, epoch):
        """Arm this epoch's learned graphs; draws nothing from rng."""
        self._epoch_rng, self._built_at, self._frozen = rng, None, None

    def _topk_mask(self, sims: np.ndarray) -> np.ndarray:
        """0/1 support of the k best off-diagonal entries per row: the dense
        reference that the tests compute and freeze through frozen_masks."""
        scored = sims.copy()
        np.fill_diagonal(scored, -np.inf)
        mask = np.zeros_like(scored)
        np.put_along_axis(mask, topk_rows(scored, self.config.knn_k), 1.0, axis=1)
        return mask

    def _learned_graph(self, tape, m):
        """(support, values): modality m's learned kNN support and its
        row-normalized values, an (nnz, 1) tensor in stored entry order."""
        unit = tape.l2_normalize(tape.matmul(self.feats[m], self.proj[m]))
        n, k = self.data.n_items, self.config.knn_k
        if self.frozen_masks is not None:
            support = SparseMatrix.from_dense(self.frozen_masks[m])
        else:
            u = unit.data
            top = rank_topk(lambda b: u[b] @ u.T, range(n), k, self.itself, n).top
            support = SparseMatrix((n, n), np.repeat(np.arange(n), k), top.ravel(),
                                   np.ones(top.size))
        kept = tape.relu(tape.entry_dot(support, unit, unit))
        sums = tape.maximum(tape.spmm_weighted(support, kept, self.ones), self.floor)
        return support, tape.div(kept, tape.row_gather(sums, support.rows))

    def _epoch_graphs(self, tape, rng):
        """Each modality's learned (support, values) for a forward given rng.
        The first forward given on_epoch_start's rng builds them on the tape
        and keeps its supports and values, which the epoch's later forwards,
        given that rng in another state, reuse as constants. A replay of the
        building batch, which checked_once starts from the same rng state,
        builds again; a forward given any other rng, or none, builds its own."""
        ours = rng is not None and rng is self._epoch_rng
        state = rng.bit_generator.state if ours else None
        if ours and self._frozen is not None and state != self._built_at:
            return self._frozen
        learned = {m: self._learned_graph(tape, m) for m in self.data.modalities}
        if ours and self._frozen is None:
            self._built_at = state
            self._frozen = {m: (support, constant(values.data, dtype=self.dtype))
                            for m, (support, values) in learned.items()}
        return learned

    def loss(self, tape, batch, rng):
        users_rep, items_rep = self._representations(tape, True, rng)
        return bpr_on_rows(tape, tape.row_gather(users_rep, batch.users),
                           items_rep, batch.pos, batch.neg)

    def _representations(self, tape, train, rng=None):
        blend, layers = self.config.blend, self.config.item_graph_layers
        # blend 1 or no layer never builds the learned graph, blend 0 skips
        # the initial
        learned = {} if blend >= 1.0 or layers == 0 else self._epoch_graphs(tape, rng)
        h = self.item_emb
        for _ in range(layers):
            parts = []
            for m in self.data.modalities:
                if blend >= 1.0:
                    parts.append(tape.spmm(self.initial[m], h))
                elif blend <= 0.0:
                    parts.append(tape.spmm_weighted(*learned[m], h))
                else:
                    parts.append(tape.add(
                        tape.scale(tape.spmm(self.initial[m], h), blend),
                        tape.scale(tape.spmm_weighted(*learned[m], h), 1.0 - blend),
                    ))
            h = weighted_sum(tape, parts, self.merge_logits)
        items = tape.add(self.item_emb, tape.l2_normalize(h))
        return self.user_emb, items
