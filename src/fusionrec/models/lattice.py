"""Item-item structure learning blended with frozen feature graphs.

Per modality, the base's sparse cosine kNN graph over raw item features
(knn_graph, built once per ModelData and kept sparse, the same graph
FREEDOM freezes through item_graph) and a second graph learned from
projected features per forward pass are blended
A = blend * initial + (1 - blend) * learned.
Modality graphs are merged by a softmax-weighted sum with learned logits
(Early(weighted_sum) fusion at graph level). Propagation is linear, so
each layer propagates through every modality's graph and merges the
n x d results with those weights instead of building the merged graph.
Item id embeddings are propagated this way and the normalized result is
added back onto the id embedding; users keep plain id embeddings.

The top-k neighbor selection inside the learned graph is a hard,
non-differentiable choice; `frozen_masks` pins it to a fixed support so
gradient checks differentiate a fixed function.
"""

import numpy as np

from ..evaluation import topk_rows
from ..schema import Early, weighted_sum
from ..tensor import SparseMatrix, constant
from .base import RecommenderModel, knn_graph

ROW_SUM_FLOOR = 1e-12


class LATTICE(RecommenderModel):
    tag = "lattice"
    fusion = Early("weighted_sum")

    def _build(self, rng):
        cfg = self.config
        d = cfg.embedding_dim
        self.user_emb = self._param("rho", "user_emb", rng,
                                    (self.data.n_users, d))
        self.item_emb = self._param("rho", "item_emb", rng,
                                    (self.data.n_items, d))
        self.merge_logits = self._param(
            "gamma", "merge_logits", rng, (1, len(self.data.modalities)),
            scale=0.0,
        )
        # cosine similarity is scale-invariant, so knn_graph's unit rows
        # cover the standardization the initial graphs assume
        self.initial = {}
        for m in self.data.modalities:
            g = self.data.modality_graph(m, cfg.knn_k, knn_graph)
            self.initial[m] = SparseMatrix(g.shape, g.rows, g.cols, g.vals,
                                           dtype=self.dtype)
        self.proj = {}
        for m in self.data.modalities:
            dim = self.data.features[m].shape[1]
            self.proj[m] = self._param("mu", f"proj_{m}", rng, (dim, d))
        self.frozen_masks = None

    def _topk_mask(self, sims: np.ndarray) -> np.ndarray:
        """0/1 support of the k best off-diagonal entries per row."""
        scored = sims.copy()
        np.fill_diagonal(scored, -np.inf)
        mask = np.zeros_like(scored)
        np.put_along_axis(mask, topk_rows(scored, self.config.knn_k), 1.0, axis=1)
        return mask

    def _learned_graph(self, tape, m):
        unit = tape.l2_normalize(tape.matmul(self.feats[m], self.proj[m]))
        sims = tape.matmul_nt(unit, unit)
        if self.frozen_masks is not None:
            mask = self.frozen_masks[m]
        else:
            mask = self._topk_mask(sims.data)
        kept = tape.relu(tape.mul(sims, constant(mask, dtype=self.dtype)))
        sums = tape.rowsum(kept)
        floor = constant(np.full((self.data.n_items, 1), ROW_SUM_FLOOR),
                         dtype=self.dtype)
        return tape.div(kept, tape.maximum(sums, floor))

    def _representations(self, tape, train):
        blend, layers = self.config.blend, self.config.item_graph_layers
        # blend 1 or no layer never builds the learned graph, blend 0 skips
        # the initial
        learned = {} if blend >= 1.0 or layers == 0 else {
            m: self._learned_graph(tape, m) for m in self.data.modalities}
        h = self.item_emb
        for _ in range(layers):
            parts = []
            for m in self.data.modalities:
                if blend >= 1.0:
                    parts.append(tape.spmm(self.initial[m], h))
                elif blend <= 0.0:
                    parts.append(tape.matmul(learned[m], h))
                else:
                    parts.append(tape.add(
                        tape.scale(tape.spmm(self.initial[m], h), blend),
                        tape.scale(tape.matmul(learned[m], h), 1.0 - blend),
                    ))
            h = weighted_sum(tape, parts, self.merge_logits)
        items = tape.add(self.item_emb, tape.l2_normalize(h))
        return self.user_emb, items
