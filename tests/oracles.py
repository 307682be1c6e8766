"""Brute-force reference implementations used only by the test suite.

Deliberately naive: plain loops and O(n^2) scans so a bug in the package is
not mirrored here. Nothing in here imports the package's metric, filtering or
graph code.
"""

import json
import math
import struct
from collections import Counter, defaultdict

import numpy as np
import scipy.sparse

from fusionrec.dataset import InteractionFormatError
from fusionrec.modality import FeatureFormatError, MissingFeatureError
from fusionrec.tensor import SparseMatrix, Tape, constant


# ----------------------------------------------------------------- set-up

def parse_records_loop(lines):
    """Interaction records line by line: each line stripped of trailing
    "\n" then "\r", blank lines skipped, duplicate (user, item) pairs
    collapsed to the latest timestamp (a tie to the later line) at the
    pair's first position. Raises InteractionFormatError naming the first
    malformed line."""
    best = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) < 2 or len(parts) > 4 or not parts[0] or not parts[1]:
            raise InteractionFormatError(
                f"line {lineno}: expected 2-4 tab-separated fields, got {len(parts)}"
            )
        user, item = parts[0], parts[1]
        try:
            rating = float(parts[2]) if len(parts) >= 3 and parts[2] != "" else 1.0
            ts = int(parts[3]) if len(parts) >= 4 and parts[3] != "" else 0
        except ValueError as exc:
            raise InteractionFormatError(f"line {lineno}: {exc}") from None
        key = (user, item)
        if key not in best or ts >= best[key][3]:
            best[key] = (user, item, rating, ts)  # keeps first-seen position
    return list(best.values())


def index_records_loop(records):
    """Dense ids in first-appearance order, record by record: (user_ids,
    item_ids, interactions, ratings, timestamps)."""
    users, items = {}, {}
    rows = np.empty((len(records), 2), dtype=np.int64)
    ratings = np.empty(len(records), dtype=np.float32)
    stamps = np.empty(len(records), dtype=np.int64)
    for n, (u, i, r, t) in enumerate(records):
        rows[n, 0] = users.setdefault(u, len(users))
        rows[n, 1] = items.setdefault(i, len(items))
        ratings[n] = r
        stamps[n] = t
    return list(users), list(items), rows, ratings, stamps


def load_features_loop(path):
    """A binary feature file record by record: (modality, dim, ids, float32
    matrix). Raises FeatureFormatError as the package does."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
            m, dim, count = header["modality"], int(header["dim"]), int(header["count"])
        except (ValueError, KeyError, TypeError) as exc:
            raise FeatureFormatError(f"bad header line: {exc}") from None
        payload = fh.read()
    if dim <= 0 or count < 0:
        raise FeatureFormatError(f"header declares dim={dim}, count={count}")
    ids = []
    matrix = np.empty((count, dim), dtype=np.float32)
    offset = 0
    row_bytes = 4 * dim
    for n in range(count):
        if offset + 2 > len(payload):
            raise FeatureFormatError(
                f"truncated at record {n}: expected at least "
                f"{(count - n) * (2 + row_bytes)} more bytes, found {len(payload) - offset}"
            )
        (id_len,) = struct.unpack_from("<H", payload, offset)
        offset += 2
        need = id_len + row_bytes
        if offset + need > len(payload):
            raise FeatureFormatError(
                f"truncated at record {n}: expected {need} more bytes, "
                f"found {len(payload) - offset}"
            )
        try:
            ids.append(payload[offset:offset + id_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FeatureFormatError(f"record {n}: item id is not UTF-8: {exc}") from None
        offset += id_len
        matrix[n] = np.frombuffer(payload, dtype="<f4", count=dim, offset=offset)
        offset += row_bytes
    if offset != len(payload):
        raise FeatureFormatError(
            f"trailing bytes: expected {offset} payload bytes, found {len(payload)}"
        )
    return m, dim, ids, matrix


def bind_loop(item_ids, feats, missing):
    """One modality bound to item_ids row by row under a missing-feature
    policy: (matrix, mask, number filled). Raises MissingFeatureError."""
    n = len(item_ids)
    lookup = {i: r for r, i in enumerate(feats.ids)}
    mask = np.zeros(n, dtype=bool)
    matrix = np.zeros((n, feats.dim), dtype=np.float32)
    missing_ids = []
    for r, item in enumerate(item_ids):
        src = lookup.get(item)
        if src is None:
            missing_ids.append(item)
        else:
            mask[r] = True
            matrix[r] = feats.matrix[src]
    if missing_ids and missing == "error":
        raise MissingFeatureError(
            f"{len(missing_ids)} items lack {feats.modality} features, "
            f"first: {missing_ids[0]!r}"
        )
    if missing_ids and missing == "mean_impute":
        if not mask.any():
            raise MissingFeatureError(
                f"mean_impute impossible: no {feats.modality} rows present"
            )
        matrix[~mask] = feats.matrix[[lookup[i] for i in item_ids
                                      if i in lookup]].mean(axis=0)
    return matrix, mask, len(missing_ids)


def split_tsv_loop(user_ids, item_ids, pairs):
    """The bytes of one split TSV, one f-string line per pair."""
    return "".join(f"{user_ids[u]}\t{item_ids[i]}\n" for u, i in pairs).encode("utf-8")


# ----------------------------------------------------------------- k-core

def kcore_bruteforce(pairs, k):
    """Repeatedly drop interactions of low-degree users/items until stable."""
    pairs = list(pairs)
    while True:
        ucnt = Counter(u for u, _ in pairs)
        icnt = Counter(i for _, i in pairs)
        kept = [(u, i) for u, i in pairs if ucnt[u] >= k and icnt[i] >= k]
        if len(kept) == len(pairs):
            return pairs
        pairs = kept


def kcore_filter_loop(ds, k):
    """k-core by per-interaction loops, ids re-densified in first-appearance
    order of the survivors: (user_ids, item_ids, interactions, ratings,
    timestamps)."""
    keep = np.ones(ds.n_interactions, dtype=bool)
    while True:
        pairs = ds.interactions[keep]
        ucnt = Counter(pairs[:, 0].tolist())
        icnt = Counter(pairs[:, 1].tolist())
        bad_u = {u for u, c in ucnt.items() if c < k}
        bad_i = {i for i, c in icnt.items() if c < k}
        if not bad_u and not bad_i:
            break
        for n in np.flatnonzero(keep):
            u, i = ds.interactions[n]
            if int(u) in bad_u or int(i) in bad_i:
                keep[n] = False
        if not keep.any():
            raise ValueError(f"{k}-core filtering removed every interaction")
    idx = np.flatnonzero(keep)
    users, items = {}, {}
    rows = np.empty((idx.size, 2), dtype=np.int64)
    for n, j in enumerate(idx):
        u, i = ds.interactions[j]
        rows[n, 0] = users.setdefault(ds.user_ids[u], len(users))
        rows[n, 1] = items.setdefault(ds.item_ids[i], len(items))
    return list(users), list(items), rows, ds.ratings[idx], ds.timestamps[idx]


# ----------------------------------------------------------------- holdout

def holdout_loop(ds, seed, train_ratio=0.8):
    """Per-user holdout by loops over users ascending, one rng.permutation
    each: (train, validation, test) interaction arrays."""
    by_user = defaultdict(list)
    for n, (u, _) in enumerate(ds.interactions):
        by_user[int(u)].append(n)
    rng = np.random.default_rng(seed)
    train_idx, val_idx, test_idx = [], [], []
    for u in sorted(by_user):
        rows = np.array(by_user[u])
        perm = rng.permutation(rows.size)
        n_train = max(1, int(np.floor(train_ratio * rows.size)))
        held = rows.size - n_train
        n_val = int(np.ceil(held / 2))
        shuffled = rows[perm]
        train_idx.extend(shuffled[:n_train].tolist())
        val_idx.extend(shuffled[n_train:n_train + n_val].tolist())
        test_idx.extend(shuffled[n_train + n_val:].tolist())

    def take(idx):
        idx = np.array(sorted(idx), dtype=np.int64)
        return ds.interactions[idx] if idx.size else np.empty((0, 2), dtype=np.int64)

    return take(train_idx), take(val_idx), take(test_idx)


# ----------------------------------------------------------------- item sets

def user_positives_loop(pairs):
    """{user: set of items}, pair by pair, for users with at least one."""
    pos = defaultdict(set)
    for u, i in pairs:
        pos[int(u)].add(int(i))
    return dict(pos)


# ---------------------------------------------------------- sparse layout

def sparse_layout_lexsort(shape, rows, cols, vals, dtype):
    """The stored layout of SparseMatrix(shape, rows, cols, vals), its values
    in dtype, by np.lexsort and scipy's COO to csr_matrix conversion.
    Returns (rows, cols, vals, indptr): the entries sorted by (row, col) and
    the CSR row pointer."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=dtype)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    a = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=shape)
    assert np.array_equal(a.data, vals)
    return rows, cols, vals, a.indptr


# ------------------------------------------------------- user-item graph

def bipartite_adjacency_loop(n_users, n_items, pairs, dtype):
    """The normalized user-item adjacency entry by entry. Pair p = (u, i)
    stores 1 at (u, n_users + i) and at (n_users + i, u); each entry (r, c)
    is then scaled by 1/sqrt(deg(r) * deg(c)), the degrees being the row
    and column sums. Returns (rows, cols, vals, entry_pair) in (row, col)
    order, vals computed in float64 and stored in dtype."""
    entries = []  # (row, col, value, source pair)
    for p, (u, i) in enumerate(pairs):
        entries.append((int(u), n_users + int(i), 1.0, p))
        entries.append((n_users + int(i), int(u), 1.0, p))
    entries.sort()
    row_deg, col_deg = defaultdict(float), defaultdict(float)
    for r, c, v, _ in entries:
        row_deg[r] += v
        col_deg[c] += v
    vals = [v * (1.0 / math.sqrt(row_deg[r] * col_deg[c])) for r, c, v, _ in entries]
    return (np.array([e[0] for e in entries], dtype=np.int64),
            np.array([e[1] for e in entries], dtype=np.int64),
            np.array(vals, dtype=np.float64).astype(dtype),
            np.array([e[3] for e in entries], dtype=np.int64))


# ----------------------------------------------------------------- kNN

def knn_bruteforce(feats, k):
    """Top-k cosine neighbors per row, self excluded.

    Returns {row: [(neighbor, cosine), ...]} sorted by descending cosine with
    ties broken by ascending index.
    """
    n = len(feats)

    def cos(a, b):
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(x * x for x in b))
        if na == 0 or nb == 0:
            return 0.0
        return sum(x * y for x, y in zip(a, b)) / (na * nb)

    out = {}
    for i in range(n):
        sims = [(cos(feats[i], feats[j]), j) for j in range(n) if j != i]
        sims.sort(key=lambda t: (-t[0], t[1]))
        out[i] = [(j, s) for s, j in sims[:k]]
    return out


def knn_graph_dense(feats, k):
    """The dense n x n form of the kNN item graph: full cosine matrix, self
    set to -inf, the k best columns per row by a stable sort (ties by
    ascending id), kept values clamped at 0 and row-normalized."""
    feats = np.asarray(feats, dtype=np.float64)
    n = feats.shape[0]
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    unit = np.divide(feats, norms, out=np.zeros_like(feats), where=norms > 0)
    sim = unit @ unit.T
    np.fill_diagonal(sim, -np.inf)
    keep = np.argsort(-sim, axis=1, kind="stable")[:, :k]
    graph = np.zeros_like(sim)
    np.put_along_axis(graph, keep,
                      np.maximum(np.take_along_axis(sim, keep, axis=1), 0.0), axis=1)
    sums = graph.sum(axis=1, keepdims=True)
    np.divide(graph, sums, out=graph, where=sums > 0)
    return graph


# ----------------------------------------------------------------- GRCN

def row_dots(tape, a, b):
    """The (n, 1) column of a[i] . b[i], written out as one np.dot per row,
    recorded on the tape with rowsum(mul(a, b))'s gradients, g * b into a
    and g * a into b."""
    def dots(ad, bd):
        return np.array([[np.dot(x, y)] for x, y in zip(ad, bd)], dtype=ad.dtype)

    return tape._binary("row_dots", a, b, dots,
                        lambda g, ad, bd: g * bd, lambda g, ad, bd: g * ad)


def grcn_reference(tape, model, batch):
    """GRCN's BPR loss and final node rows, built as first written.

    Per modality, the edge gate normalizes the gathered pair rows (one
    cosine per edge, an np.dot of its two unit rows), and each channel (the id embeddings, then one
    (preference, projected feature) block per modality) runs its own
    LightGCN propagation; the channels are concatenated after propagating.
    Each BPR score is an np.dot of a user row and an item row.
    Reads the model's parameters, feature constants and refined-graph
    structure, and nothing else of the package. Returns (loss, final).
    """
    data, layers = model.data, model.config.layers
    users, items = data.pairs[:, 0], data.pairs[:, 1]
    proj = {m: tape.matmul(model.feats[m], model.proj[m]) for m in data.modalities}
    gate = None
    for m in data.modalities:
        q = tape.l2_normalize(tape.row_gather(model.pref[m], users))
        f = tape.l2_normalize(tape.row_gather(proj[m], items))
        g = tape.relu(row_dots(tape, q, f))
        gate = g if gate is None else tape.maximum(gate, g)
    # the model's entry_at indexes its pattern, the pair matrix, whose stored
    # order is the pairs sorted by (user, item)
    pair_at = np.lexsort((items, users))[model.entry_at]
    vals = tape.mul(tape.row_gather(gate, pair_at), model.base_vals)

    def propagate(h0):
        if layers == 0:
            return h0
        acc, h = h0, h0
        for _ in range(layers):
            h = tape.spmm_weighted(model.structure, vals, h)
            acc = tape.add(acc, h)
        return tape.scale(acc, 1.0 / (layers + 1))

    channels = [propagate(model.id_emb)]
    for m in data.modalities:
        channels.append(propagate(tape.row_concat([model.pref[m], proj[m]])))
    final = tape.concat(channels)
    n_users = data.n_users
    user_rows = tape.row_gather(final, np.arange(n_users))
    item_rows = tape.row_gather(final, n_users + np.arange(data.n_items))
    u = tape.row_gather(user_rows, batch.users)

    def scores(items):
        return row_dots(tape, u, tape.row_gather(item_rows, items))

    loss = tape.mean(tape.softplus(tape.sub(scores(batch.neg), scores(batch.pos))))
    return loss, final


# ----------------------------------------------------------------- LATTICE

def lattice_dense_reference(tape, model, batch):
    """LATTICE's BPR loss through one dense merged item graph, as first written.

    Per modality, the initial kNN graph is densified and blended with the
    dense learned graph on the model's frozen masks; the modality graphs are
    merged by the softmax of the merge logits, and each layer multiplies the
    merged n x n graph into the item rows. Reads the model's parameters,
    feature constants, initial graphs and frozen masks, and nothing else of
    the package. Returns the loss.
    """
    cfg, data = model.config, model.data
    dtype = model.item_emb.data.dtype
    n_mods = len(data.modalities)
    w = tape.softmax(model.merge_logits)
    merged = None
    for j, m in enumerate(data.modalities):
        initial = constant(model.initial[m].csr().toarray(), dtype=dtype)
        graph = initial
        if cfg.blend < 1.0:
            unit = tape.l2_normalize(tape.matmul(model.feats[m], model.proj[m]))
            mask = constant(model.frozen_masks[m], dtype=dtype)
            kept = tape.relu(tape.mul(tape.matmul_nt(unit, unit), mask))
            floor = constant(np.full((data.n_items, 1), 1e-12), dtype=dtype)
            graph = tape.div(kept, tape.maximum(tape.rowsum(kept), floor))
            if cfg.blend > 0.0:
                graph = tape.add(tape.scale(initial, cfg.blend),
                                 tape.scale(graph, 1.0 - cfg.blend))
        basis = np.zeros((n_mods, 1))
        basis[j, 0] = 1.0
        term = tape.mul(graph, tape.matmul(w, constant(basis, dtype=dtype)))
        merged = term if merged is None else tape.add(merged, term)
    h = model.item_emb
    for _ in range(cfg.item_graph_layers):
        h = tape.matmul(merged, h)
    items = tape.add(model.item_emb, tape.l2_normalize(h))
    u = tape.row_gather(model.user_emb, batch.users)

    def scores(rows):
        return tape.rowsum(tape.mul(u, tape.row_gather(items, rows)))

    return tape.mean(tape.softplus(tape.sub(scores(batch.neg), scores(batch.pos))))


# ----------------------------------------------------------------- FREEDOM

def freedom_loss_reference(tape, model, batch):
    """FREEDOM's loss with every BPR term written out, as first written.

    The main term gathers the batch's user rows and scores them against
    the positive and negative item rows; then, per modality, in sorted
    order, the batch's unique items are projected and scored against the
    same gathered user rows. A score is one sampled product
    (Tape.entry_dot) over the entries (t, item[t]). Each term is the mean
    softplus of negative minus positive score; the modality terms are
    summed, scaled by mm_weight over the modality count and added to the
    main term. The representations are the model's own _representations.
    Returns the loss.
    """
    users_rep, items_rep = model._representations(tape, train=True)

    def bpr(u, rows, pos, neg):
        def score(items):
            pattern = SparseMatrix((u.rows, rows.rows), np.arange(u.rows), items,
                                   np.ones(u.rows))
            return tape.entry_dot(pattern, u, rows)

        pos_s, neg_s = score(pos), score(neg)
        return tape.mean(tape.softplus(tape.sub(neg_s, pos_s)))

    u_rows = tape.row_gather(users_rep, batch.users)
    total = bpr(u_rows, items_rep, batch.pos, batch.neg)
    items, item_at = np.unique(np.concatenate([batch.pos, batch.neg]),
                               return_inverse=True)
    n = len(batch.users)
    mm = None
    for m in model.data.modalities:
        item_mm = tape.matmul(tape.row_gather(model.feats[m], items), model.proj[m])
        term = bpr(u_rows, item_mm, item_at[:n], item_at[n:])
        mm = term if mm is None else tape.add(mm, term)
    scale = model.config.mm_weight / len(model.data.modalities)
    return tape.add(total, tape.scale(mm, scale))


# ----------------------------------------------------------------- BM3

def bm3_frozen_views_loop(model, batch, rng):
    """BM3's frozen dropout views, built beside the loss as first written:
    the user mask and the item target from the propagated rows, then per
    modality the projected rows' mask and target, drawn from rng in that
    order. Sets and returns model.frozen_views."""
    tape = Tape()
    users_rep, items_rep = model._representations(tape, train=True)
    u_rows = users_rep.data[batch.users]
    i_rows = items_rep.data[batch.pos]
    fv = {
        "user_mask": model._np_mask(u_rows.shape, rng),
        "item_target": i_rows * model._np_mask(i_rows.shape, rng),
    }
    for m in model.data.modalities:
        h = model.data.features[m][batch.pos] @ model.proj[m].data
        fv[f"{m}_mask"] = model._np_mask(h.shape, rng)
        fv[f"{m}_target"] = h * model._np_mask(h.shape, rng)
    model.frozen_views = fv
    return fv


# ----------------------------------------------------------------- ranking

def rank_full_matrix(model, users, k, train_pairs):
    """Ranking from one score matrix over every user: model.score_users(users)
    in one call, then per row a lexsort by descending score, ties by
    ascending item id, with the user's train items at -inf.

    Returns (top, scores): (len(users), k) item ids, best first, and the
    score_users entries behind them.
    """
    scores = model.score_users(users)
    train = defaultdict(list)
    for u, i in train_pairs:
        train[int(u)].append(int(i))
    ids = np.arange(scores.shape[1])
    top = np.empty((len(users), k), dtype=np.int64)
    for row, u in enumerate(users):
        masked = scores[row].astype(np.float64)  # exact: keeps order and ties
        masked[train[u]] = -np.inf
        top[row] = np.lexsort((ids, -masked))[:k]
    return top, np.take_along_axis(scores, top, axis=1)


def topk_rows_partition(scores, k):
    """Single-stage top-k ids per row, by descending score, ties by
    ascending id: np.partition over whole rows finds each row's k-th
    largest value and the columns at or above it are kept; a row that keeps
    more than k, where a tie crosses the boundary, keeps the columns above
    it plus the first equal ones in id order; a stable sort by descending
    score follows."""
    n, m = scores.shape
    kth = np.partition(scores, m - k, axis=1)[:, m - k:m - k + 1]
    keep = scores >= kth
    over = np.flatnonzero(keep.sum(axis=1) > k)
    tied, kth_over = scores[over], kth[over]
    above, tie = tied > kth_over, tied == kth_over
    fill = k - above.sum(axis=1, keepdims=True)
    keep[over] = above | (tie & (np.cumsum(tie, axis=1) <= fill))
    cols = (np.flatnonzero(keep) % m).reshape(-1, k)
    order = np.argsort(-np.take_along_axis(scores, cols, axis=1), axis=1,
                       kind="stable")
    return np.take_along_axis(cols, order, axis=1)


# ------------------------------------------------------ gradients, updates

def sigmoid_two_branch(x):
    """1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere,
    each branch computed on its own entries by boolean indexing."""
    out = np.empty_like(x)
    pos = x >= 0
    with np.errstate(all="ignore"):
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
    return out


def backward_summing_copies(tape, loss):
    """Leaf gradients of `loss` by replaying `tape`'s recorded rules, with
    every further gradient of a tensor summed into a new array, prev + g.
    Returns {id(leaf): (leaf, gradient)} for the requires_grad leaves and
    leaves the tape and the leaves as they were."""
    grads = {id(loss): (loss, np.ones((1, 1), dtype=loss.data.dtype))}
    for node in reversed(tape._nodes):
        entry = grads.pop(id(node.out), None)
        if entry is None:
            continue
        for t, rule in zip(node.inputs, node.rules):
            if t.needs_grad:
                g = rule(entry[1])
                prev = grads.get(id(t))
                grads[id(t)] = (t, g if prev is None else prev[1] + g)
    return {key: (t, g.astype(t.data.dtype)) for key, (t, g) in grads.items()
            if t.requires_grad}


def adam_reference(m, v, g, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam's update at step `step`, written out of place, m = b1*m +
    (1-b1)*g and so on: the new m and v and the amount the parameter goes
    down by."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * (g * g)
    m_hat = m / (1 - b1 ** step)
    v_hat = v / (1 - b2 ** step)
    return m, v, lr * m_hat / (np.sqrt(v_hat) + eps)


# ----------------------------------------------------------------- metrics

def recall_ref(recs, relevant, k):
    vals = []
    for u, rel in relevant.items():
        if not rel:
            continue
        hits = sum(1 for i in recs[u][:k] if i in rel)
        vals.append(hits / len(rel))
    return sum(vals) / len(vals) if vals else 0.0


def ndcg_ref(recs, relevant, k):
    vals = []
    for u, rel in relevant.items():
        if not rel:
            continue
        dcg = 0.0
        for r, i in enumerate(recs[u][:k], start=1):
            if i in rel:
                dcg += 1.0 / math.log2(r + 1)
        idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(rel)) + 1))
        vals.append(dcg / idcg)
    return sum(vals) / len(vals) if vals else 0.0


def efd_ref(recs, relevant, k, train_counts, n_train):
    """Expected free discovery with disc(r)=1/log2(r+1), C=1/sum disc."""
    disc = [1.0 / math.log2(r + 1) for r in range(1, k + 1)]
    c = 1.0 / sum(disc)
    vals = []
    for u, rel in relevant.items():
        if not rel:
            continue
        total = 0.0
        for r, i in enumerate(recs[u][:k], start=1):
            if i in rel:
                cnt = train_counts.get(i, 0)
                p = cnt / n_train if cnt > 0 else 0.5 / n_train
                total += disc[r - 1] * (-math.log2(p))
        vals.append(c * total)
    return sum(vals) / len(vals) if vals else 0.0


def gini_ref(recs, k, catalog):
    """1 - sum_i (2i - n - 1) P(i) / (n * sum P), counts sorted ascending."""
    counts = Counter()
    for u in recs:
        counts.update(recs[u][:k])
    p = sorted(counts.get(i, 0) for i in catalog)
    n = len(p)
    total = sum(p)
    if total == 0:
        return 0.0
    acc = sum((2 * (i + 1) - n - 1) * p[i] for i in range(n))
    return 1.0 - acc / (n * total)


def gini_loop(recs, k, n_items):
    """gini_at_k with exposure counted one list entry at a time into an
    int64 array; the formula is the package's, term for term."""
    counts = np.zeros(n_items, dtype=np.int64)
    for u in recs:
        for i in recs[u][:k]:
            counts[i] += 1
    total = counts.sum()
    if total == 0:
        return 0.0
    p = np.sort(counts)
    n = n_items
    idx = np.arange(1, n + 1)
    return float(1.0 - ((2 * idx - n - 1) * p).sum() / (n * total))


def aplt_ref(recs, k, long_tail):
    vals = []
    for u in recs:
        lst = recs[u][:k]
        vals.append(sum(1 for i in lst if i in long_tail) / k)
    return sum(vals) / len(vals) if vals else 0.0


def icov_ref(recs, k, n_catalog):
    seen = set()
    for u in recs:
        seen.update(recs[u][:k])
    return 100.0 * len(seen) / n_catalog


def short_head_ref(train_counts, catalog, frac=0.2):
    """Top ceil(frac * |catalog|) items by count, ties by ascending id."""
    size = math.ceil(frac * len(catalog))
    ranked = sorted(catalog, key=lambda i: (-train_counts.get(i, 0), i))
    return set(ranked[:size])
