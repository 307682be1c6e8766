"""Frozen item-item graph plus degree-sensitive edge pruning.

The multimodal item graph is built once from raw features by the base's
item_graph (LATTICE's sparse kNN graphs merged with fixed weights, uniform
unless configured) and never trained; it stays sparse from the blockwise
kNN build to the product. Each epoch the user-item graph is resampled: an
edge (u, i) is kept with probability proportional to
(deg_u * deg_i)^(-1/2) and the pruned graph is re-normalized; evaluation
always uses the full graph. Item representations add the item-graph
propagation of the id embeddings onto the user-item propagation output.

The loss is two BPR terms (Coordinate representation, Late fusion):
the usual one over full representations plus, weighted by mm_weight,
the mean over modalities of BPR on scores of the user representation
against projected item features. The projections receive gradient only
through that second branch.
"""

import numpy as np

from ..schema import Late
from .base import (
    RecommenderModel,
    batch_rows,
    bipartite_adjacency,
    bpr_on_rows,
    item_graph,
    lightgcn_propagate,
    pair_weights,
)


def edge_keep_probabilities(pairs, n_users, n_items) -> np.ndarray:
    """Normalized keep probabilities, inverse sqrt of endpoint degrees."""
    w = pair_weights(n_users, n_items, np.asarray(pairs, dtype=np.int64))
    return w / w.sum()


class FREEDOM(RecommenderModel):
    tag = "freedom"
    fusion = Late("sum")

    def _build(self, rng):
        cfg = self.config
        n_u, n_i = self.data.n_users, self.data.n_items
        self.user_emb, self.item_emb = self._id_embeddings(rng)
        self.proj = {m: self._projection(m, rng) for m in self.data.modalities}
        self.item_graph = item_graph(self.data, cfg.knn_k, cfg.modality_weights)
        self.full_adj = bipartite_adjacency(n_u, n_i, self.data.pairs)
        self.keep_probs = edge_keep_probabilities(self.data.pairs, n_u, n_i)
        self._train_adj = None

    def on_epoch_start(self, rng, epoch):
        """Resample the pruned user-item graph for this epoch's batches."""
        m = self.data.pairs.shape[0]
        if self.config.prune_ratio == 0.0:
            self._train_adj = self.full_adj
            return
        keep_n = max(1, int(round((1.0 - self.config.prune_ratio) * m)))
        kept = rng.choice(m, size=keep_n, replace=False, p=self.keep_probs)
        self._train_adj = bipartite_adjacency(
            self.data.n_users, self.data.n_items, self.data.pairs[np.sort(kept)])

    def _representations(self, tape, train):
        adj = self._train_adj if train and self._train_adj is not None \
            else self.full_adj
        h0 = tape.row_concat([self.user_emb, self.item_emb])
        z = lightgcn_propagate(tape, lambda x: tape.spmm(adj, x), h0,
                               self.config.layers)
        users, z_items = self._split_nodes(tape, z)
        h = self.item_emb
        for _ in range(self.config.item_graph_layers):
            h = tape.spmm(self.item_graph, h)
        items = tape.add(z_items, h)
        return users, items

    def loss(self, tape, batch, rng):
        users_rep, items_rep = self._representations(tape, train=True)
        u_rows = tape.row_gather(users_rep, batch.users)
        total = bpr_on_rows(tape, u_rows, items_rep, batch.pos, batch.neg)
        if self.config.mm_weight == 0.0:
            return total
        # a projected item row depends on that item's features alone, so
        # only the batch's items are projected
        _, items, _, pos_at, neg_at = batch_rows(batch)
        mm = None
        for m in self.data.modalities:
            item_mm = tape.matmul(tape.row_gather(self.feats[m], items),
                                  self.proj[m])
            term = bpr_on_rows(tape, u_rows, item_mm, pos_at, neg_at)
            mm = term if mm is None else tape.add(mm, term)
        scale = self.config.mm_weight / len(self.data.modalities)
        return tape.add(total, tape.scale(mm, scale))
