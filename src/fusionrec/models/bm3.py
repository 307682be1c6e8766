"""Self-supervised alignment of dropout views, no negative sampling.

The backbone is plain normalized propagation of id embeddings over the
user-item graph. For each sampled (user, positive) pair the loss builds
an online view (tape dropout, gradients flow) and a target view (dropout
applied outside the tape, gradient-stopped) and aligns them:

    reconstruction: user online view vs item target view
    inter-modality: each projected modality view vs the item target view
    intra-modality: a modality's online view vs its own target view

Alignment of two views a, b is mean over the batch of
0.5 * ||normalize(a) - normalize(b)||^2, which equals 1 - cos(a, b) and
is exactly zero for bitwise-identical views. Negative items in the batch
are ignored (Coordinate representation, Late fusion at the loss level).
"""

import numpy as np

from ..schema import Late
from ..tensor import Tape, constant
from .base import RecommenderModel, bipartite_adjacency, lightgcn_propagate


class BM3(RecommenderModel):
    tag = "bm3"
    fusion = Late("sum")

    def _build(self, rng):
        self.adj = bipartite_adjacency(self.data.n_users, self.data.n_items,
                                       self.data.pairs)
        self.user_emb, self.item_emb = self._id_embeddings(rng)
        self.proj = {m: self._projection(m, rng) for m in self.data.modalities}
        self.frozen_views = None

    def _representations(self, tape, train):
        h0 = tape.row_concat([self.user_emb, self.item_emb])
        h = lightgcn_propagate(tape, lambda x: tape.spmm(self.adj, x), h0,
                               self.config.layers)
        return self._split_nodes(tape, h)

    def _np_mask(self, shape, rng):
        p = self.config.dropout_p
        if p == 0.0:
            return np.ones(shape, dtype=np.float64)
        return (rng.random(shape) >= p).astype(np.float64) / (1.0 - p)

    def _online(self, tape, rows, key, rng):
        if self.frozen_views is None:
            return tape.dropout(rows, self.config.dropout_p, rng)
        if key + "_mask" not in self.frozen_views:
            self.frozen_views[key + "_mask"] = self._np_mask(rows.shape, rng)
        return tape.mul(rows, constant(self.frozen_views[key + "_mask"],
                                       dtype=self.dtype))

    def _target(self, tape, rows_data, key, rng):
        """The normalized target view: a constant, normalized once here for
        every alignment that reads it."""
        views = {} if self.frozen_views is None else self.frozen_views
        if key + "_target" not in views:
            views[key + "_target"] = rows_data * self._np_mask(rows_data.shape, rng)
        return tape.l2_normalize(constant(views[key + "_target"], dtype=self.dtype))

    @staticmethod
    def _align(tape, a, b_unit):
        """Mean over rows of half the squared distance of normalized a and
        b_unit, a target view that _target has already normalized."""
        diff = tape.sub(tape.l2_normalize(a), b_unit)
        return tape.scale(tape.mean(tape.rowsum(tape.mul(diff, diff))), 0.5)

    def make_frozen_views(self, batch, rng):
        """Pin every dropout mask and target so the loss is a fixed function.

        Gradient checks by finite differences need loss() to be
        deterministic and the stop-gradient targets to stay constant while
        parameters move; training never calls this. One loss_terms pass
        draws each mask and target from rng, in the loss's own order, and
        every later pass replays them.
        """
        self.frozen_views = {}
        self.loss_terms(Tape(), batch, rng)
        return self.frozen_views

    def loss_terms(self, tape, batch, rng):
        """(reconstruction, inter_align, intra_align) scalar tensors."""
        users_rep, items_rep = self._representations(tape, train=True)
        u_rows = tape.row_gather(users_rep, batch.users)
        i_rows = tape.row_gather(items_rep, batch.pos)
        u_online = self._online(tape, u_rows, "user", rng)
        i_target = self._target(tape, i_rows.data, "item", rng)
        rec = self._align(tape, u_online, i_target)
        inter, intra = None, None
        for m in self.data.modalities:
            h = tape.matmul(tape.row_gather(self.feats[m], batch.pos),
                            self.proj[m])
            m_online = self._online(tape, h, m, rng)
            m_target = self._target(tape, h.data, m, rng)
            inter_m = self._align(tape, m_online, i_target)
            intra_m = self._align(tape, m_online, m_target)
            inter = inter_m if inter is None else tape.add(inter, inter_m)
            intra = intra_m if intra is None else tape.add(intra, intra_m)
        return rec, inter, intra

    def loss(self, tape, batch, rng):
        rec, inter, intra = self.loss_terms(tape, batch, rng)
        return tape.add(rec, tape.add(
            tape.scale(inter, self.config.inter_weight),
            tape.scale(intra, self.config.intra_weight),
        ))
