"""Matrix factorization with per-modality feature branches.

Score is the id-embedding inner product plus, per modality, the inner
product of a modality-specific user embedding with the projected item
feature. Modality scores are summed after the per-modality products, so
the pipeline reads Coordinate representation with Late(sum) fusion. An
optional learned item bias (ModelConfig.with_bias) is off by default.
"""

import numpy as np

from ..schema import Late
from ..tensor import constant
from .base import RecommenderModel, batch_rows, bpr_on_rows


class VBPR(RecommenderModel):
    tag = "vbpr"
    fusion = Late("sum")

    def _build(self, rng):
        d = self.config.embedding_dim
        n_u, n_i = self.data.n_users, self.data.n_items
        self.user_emb = self._param("rho", "user_emb", rng, (n_u, d))
        self.item_emb = self._param("rho", "item_emb", rng, (n_i, d))
        self.mod_user = {}
        self.proj = {}
        for m in self.data.modalities:
            dim = self.data.features[m].shape[1]
            self.mod_user[m] = self._param("rho", f"user_{m}", rng, (n_u, d))
            self.proj[m] = self._param("mu", f"proj_{m}", rng, (dim, d))
        if self.config.with_bias:
            self.item_bias = self._param("rho", "item_bias", rng, (n_i, 1),
                                         scale=0.0)

    def _representations(self, tape, train):
        return self._rows(tape, None, None)

    def _rows(self, tape, users, items):
        """Representation rows of `users` and `items`; None selects all rows.

        Each item row projects only that item's features, so a batch pays
        for the rows it reads.
        """
        def pick(t, idx):
            return t if idx is None else tape.row_gather(t, idx)

        u_parts = [pick(self.user_emb, users)]
        i_parts = [pick(self.item_emb, items)]
        for m in self.data.modalities:
            u_parts.append(pick(self.mod_user[m], users))
            i_parts.append(tape.matmul(pick(self.feats[m], items), self.proj[m]))
        if self.config.with_bias:
            n = self.data.n_users if users is None else len(users)
            u_parts.append(constant(np.ones((n, 1)), dtype=self.dtype))
            i_parts.append(pick(self.item_bias, items))
        return tape.concat(u_parts), tape.concat(i_parts)

    def loss(self, tape, batch, rng):
        users, items, u_at, pos_at, neg_at = batch_rows(batch)
        users_rep, items_rep = self._rows(tape, users, items)
        return bpr_on_rows(tape, users_rep, items_rep, u_at, pos_at, neg_at)
