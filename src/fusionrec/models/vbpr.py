"""Matrix factorization with per-modality feature branches.

Score is the id-embedding inner product plus, per modality, the inner
product of a modality-specific user embedding with the projected item
feature. Modality scores are summed after the per-modality products, so
the pipeline reads Coordinate representation with Late(sum) fusion.
"""

from ..schema import Late
from .base import RecommenderModel, batch_rows, bpr_on_rows


class VBPR(RecommenderModel):
    tag = "vbpr"
    fusion = Late("sum")

    def _build(self, rng):
        user_shape = (self.data.n_users, self.config.embedding_dim)
        self.user_emb, self.item_emb = self._id_embeddings(rng)
        self.mod_user = {}
        self.proj = {}
        for m in self.data.modalities:
            self.mod_user[m] = self._param("rho", f"user_{m}", rng, user_shape)
            self.proj[m] = self._projection(m, rng)

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
        return tape.concat(u_parts), tape.concat(i_parts)

    def loss(self, tape, batch, rng):
        users, items, u_at, pos_at, neg_at = batch_rows(batch)
        users_rep, items_rep = self._rows(tape, users, items)
        return bpr_on_rows(tape, tape.row_gather(users_rep, u_at), items_rep,
                           pos_at, neg_at)
