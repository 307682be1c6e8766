"""Per-modality graph convolution over the user-item bipartite graph.

Each modality owns its own propagation stack. A layer aggregates
neighbor representations through the sym-normalized adjacency, mixes in
the node id embedding, adds the residual, and applies LeakyReLU:

    h_{l+1} = LeakyReLU(aggregate @ W1 + X @ W2 + h_l),  aggregate = A_hat @ h_l

Layer zero starts from the per-modality user embedding stacked on the
projected item features. Final per-modality vectors are summed across
modalities (Coordinate representation, Early(sum) fusion) and scored by
inner product. As in the MMGCN paper, the id embeddings X are always
learned.
"""

from ..schema import Early
from .base import RecommenderModel, bipartite_adjacency


class MMGCN(RecommenderModel):
    tag = "mmgcn"
    fusion = Early("sum")

    def _build(self, rng):
        cfg = self.config
        d = cfg.embedding_dim
        n_u, n_i = self.data.n_users, self.data.n_items
        self.adj = bipartite_adjacency(n_u, n_i, self.data.pairs)
        self.user_emb = {}
        self.id_emb = {}
        self.proj = {}
        self.w1 = {}
        self.w2 = {}
        for m in self.data.modalities:
            self.proj[m] = self._projection(m, rng)
            self.user_emb[m] = self._param("rho", f"user_{m}", rng, (n_u, d))
            if cfg.layers > 0:
                self.id_emb[m] = self._param("rho", f"id_{m}", rng,
                                             (n_u + n_i, d))
            self.w1[m] = [
                self._param("mu", f"w1_{m}_{l}", rng, (d, d))
                for l in range(cfg.layers)
            ]
            self.w2[m] = [
                self._param("mu", f"w2_{m}_{l}", rng, (d, d))
                for l in range(cfg.layers)
            ]

    def _modality_forward(self, tape, m):
        items0 = tape.matmul(self.feats[m], self.proj[m])
        h = tape.row_concat([self.user_emb[m], items0])
        for l in range(self.config.layers):
            agg = tape.matmul(tape.spmm(self.adj, h), self.w1[m][l])
            agg = tape.add(agg, tape.matmul(self.id_emb[m], self.w2[m][l]))
            h = tape.leaky_relu(tape.add(agg, h), self.config.leaky_slope)
        return h

    def _representations(self, tape, train):
        total = None
        for m in self.data.modalities:
            h = self._modality_forward(tape, m)
            total = h if total is None else tape.add(total, h)
        return self._split_nodes(tape, total)
