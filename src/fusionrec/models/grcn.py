"""Graph refinement by content-aware edge gating.

Every train edge (u, i) gets a gate in [0, 1]: the cosine affinity
between the user's modality preference vector and the item's projected
modality feature, clamped at zero, maximized over modalities. The cosine
is taken at node level: each user's preference row and each item's
projected row is unit-normalized once, then every edge gathers its two
unit rows and takes their dot product. An edge survives if any modality
supports it. The sym-normalized adjacency values are multiplied by the
gate. Channels propagate over the refined graph: the id embeddings plus
one channel per modality seeded with (preference, projected feature)
blocks, and their outputs are concatenated (Coordinate representation,
Early(concat) fusion). Propagation is linear and acts on each column
alone, so the channels are concatenated first and go through one LightGCN
propagation of width (1 + M) * d, which equals the concatenation of the
per-channel propagations bit for bit.

A user whose incident gates are all zero keeps only the layer-zero term
of the propagation mean, i.e. falls back to the id embedding; this is
logged as a warning since it usually signals degenerate features, once
per change in the number of such users.
"""

import logging

import numpy as np

from ..schema import Early
from ..tensor import constant
from .base import RecommenderModel, bipartite_structure, lightgcn_propagate

log = logging.getLogger(__name__)


class GRCN(RecommenderModel):
    tag = "grcn"
    fusion = Early("concat")

    def _build(self, rng):
        d = self.config.embedding_dim
        n_u, n_i = self.data.n_users, self.data.n_items
        self.structure, self.entry_pair = bipartite_structure(
            n_u, n_i, self.data.pairs, dtype=self.dtype
        )
        self.base_vals = constant(self.structure.vals[:, None], dtype=self.dtype)
        self._pair_users = np.unique(self.data.pairs[:, 0]).size
        self._dead_logged = 0  # fully gated users in the last warning
        self.id_emb = self._param("rho", "id_emb", rng, (n_u + n_i, d))
        self.pref = {}
        self.proj = {}
        for m in self.data.modalities:
            dim = self.data.features[m].shape[1]
            self.pref[m] = self._param("rho", f"pref_{m}", rng, (n_u, d))
            self.proj[m] = self._param("mu", f"proj_{m}", rng, (dim, d))

    def _project(self, tape):
        """Modality -> projected item features, (n_items, d)."""
        return {m: tape.matmul(self.feats[m], self.proj[m])
                for m in self.data.modalities}

    def _edge_gate(self, tape, item_proj):
        """Per train pair, max over modalities of relu(cosine affinity).

        Rows are unit-normalized per node, then gathered per pair.
        """
        pairs = self.data.pairs
        gate = None
        for m in self.data.modalities:
            q = tape.row_gather(tape.l2_normalize(self.pref[m]), pairs[:, 0])
            f = tape.row_gather(tape.l2_normalize(item_proj[m]), pairs[:, 1])
            g = tape.relu(tape.rowsum(tape.mul(q, f)))
            gate = g if gate is None else tape.maximum(gate, g)
        return gate

    def refined_edge_values(self, tape, item_proj=None):
        """Gated sym-normalized edge values, one per stored structure entry.

        `item_proj` is _project(tape)'s result, computed here when omitted.
        """
        if item_proj is None:
            item_proj = self._project(tape)
        gate = self._edge_gate(tape, item_proj)
        self._warn_fully_pruned(gate.data)
        per_entry = tape.row_gather(gate, self.entry_pair)
        return tape.mul(per_entry, self.base_vals)

    def _warn_fully_pruned(self, gate_data):
        alive = np.zeros(self.data.n_users, dtype=bool)
        alive[self.data.pairs[gate_data[:, 0] > 0, 0]] = True
        dead = self._pair_users - int(alive.sum())
        if dead and dead != self._dead_logged:
            self._dead_logged = dead
            log.warning(
                "%d users have all incident edges gated to zero; their "
                "representations fall back to the id embedding", dead
            )

    def _representations(self, tape, train):
        item_proj = self._project(tape)
        vals = self.refined_edge_values(tape, item_proj)
        h0 = tape.concat([self.id_emb] + [
            tape.row_concat([self.pref[m], item_proj[m]])
            for m in self.data.modalities])
        final = lightgcn_propagate(
            tape, lambda h: tape.spmm_weighted(self.structure, vals, h),
            h0, self.config.layers)
        return self._split_nodes(tape, final)
