"""Top-k ranking and the metric battery.

Accuracy: Recall@k and nDCG@k (binary relevance). Beyond accuracy: expected
free discovery (EFD@k), Gini concentration of recommended exposure, average
percentage of long-tail items (APLT@k), and item coverage (iCov). All metrics
consume plain recommendation lists, so they are independent of any model
internals; ranking excludes each user's train items and breaks score ties by
ascending item id.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain

import numpy as np


@dataclass
class PopularityProfile:
    """Train-side popularity: counts, probabilities, short head/long tail.

    p(i) = train_count(i) / |R_train|, smoothed to 0.5 / |R_train| for items
    never seen in train. The short head is the ceil(20%) most popular catalog
    items (ties by ascending id); the long tail is the complement.
    """

    n_items: int
    counts: np.ndarray
    n_train: int
    short_head: set
    long_tail: set
    head_fraction: float = 0.2

    @classmethod
    def from_train(cls, train_pairs, n_items, head_fraction=0.2):
        items = np.asarray(train_pairs, dtype=np.int64).reshape(-1, 2)[:, 1]
        counts = np.bincount(items, minlength=n_items)
        if counts.size > n_items:
            raise IndexError(f"train item id {items.max()} >= n_items {n_items}")
        n_train = int(counts.sum())
        if n_train == 0:
            raise ValueError("empty train set has no popularity profile")
        order = np.lexsort((np.arange(n_items), -counts))
        head_size = math.ceil(head_fraction * n_items)
        short = set(order[:head_size].tolist())
        return cls(n_items, counts, n_train, short,
                   set(range(n_items)) - short, head_fraction)

    def probability(self, item):
        c = self.counts[item]
        return (c if c > 0 else 0.5) / self.n_train


@dataclass
class MetricReport:
    """Metric values keyed by (metric, k)."""

    values: dict = field(default_factory=dict)

    def set(self, metric, k, value):
        self.values[(metric, k)] = float(value)

    def get(self, metric, k):
        return self.values[(metric, k)]


TOPK_BLOCK = 512  # rows per top-k block: index arrays never span every row


def topk_rows(scores, k):
    """(n_rows, k) ids of each row's k best columns, by descending score,
    ties (-inf included) by ascending id.

    TOPK_BLOCK rows at a time, np.partition finds each row's k-th largest
    value and the columns at or above it are kept. Only a row that keeps more
    than k columns, where a tie crosses the boundary, keeps the columns above
    it plus the first equal ones in id order. A stable sort by descending
    score follows.
    """
    n, m = scores.shape
    if not 0 < k <= m:
        raise ValueError(f"k={k} must be in [1, {m}]")
    out = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, TOPK_BLOCK):
        block = scores[lo:lo + TOPK_BLOCK]
        kth = np.partition(block, m - k, axis=1)[:, m - k:m - k + 1]
        keep = block >= kth
        over = np.flatnonzero(keep.sum(axis=1) > k)
        tied, kth_over = block[over], kth[over]
        above, tie = tied > kth_over, tied == kth_over
        fill = k - above.sum(axis=1, keepdims=True)
        keep[over] = above | (tie & (np.cumsum(tie, axis=1) <= fill))
        cols = np.nonzero(keep)[1].reshape(-1, k)
        order = np.argsort(-np.take_along_axis(block, cols, axis=1), axis=1,
                           kind="stable")
        out[lo:lo + TOPK_BLOCK] = np.take_along_axis(cols, order, axis=1)
    return out


def rank_topk(score_fn, users, k, exclude, n_items, threads=1,
              with_scores=False):
    """Top-k item lists per user.

    score_fn(users) returns a (len(users), n_items) matrix; it is called once,
    whatever `threads` is. The items of each user in `exclude`, an
    InteractionIndex of train items, are set to -inf on a float64 copy, never
    in score_fn's array. Ties break by ascending item id. k must not exceed
    the smallest candidate set. `threads` spreads the blocks of TOPK_BLOCK
    users over a thread pool. With `with_scores`, returns (lists, scores):
    scores[u] holds the k entries of score_fn's matrix behind u's list, in
    rank order.
    """
    users = list(users)
    if not users:
        return ({}, {}) if with_scores else {}
    ids = np.asarray(users, dtype=np.int64)
    candidates = n_items - exclude.degrees[ids]
    short = np.flatnonzero(candidates < k)
    if short.size:
        raise ValueError(
            f"user {users[short[0]]} has only {candidates[short[0]]} "
            f"candidates, cannot rank top-{k}"
        )
    scores = np.asarray(score_fn(users))

    def rank_block(lo):
        block = scores[lo:lo + TOPK_BLOCK].astype(np.float64)
        block[exclude.items_of(ids[lo:lo + TOPK_BLOCK])] = -np.inf
        return topk_rows(block, k)

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        top = np.concatenate(list(pool.map(rank_block,
                                           range(0, len(users), TOPK_BLOCK))))
    recs = {u: top[row].tolist() for row, u in enumerate(users)}
    if not with_scores:
        return recs
    picked = np.take_along_axis(scores, top, axis=1)
    return recs, {u: picked[row] for row, u in enumerate(users)}


def _per_user_mean(values):
    return float(np.mean(values)) if values else 0.0


def recall_at_k(recs, relevant, k):
    """Mean over users of |hits| / |relevant|; users without relevant items skipped."""
    vals = [
        len(set(recs[u][:k]) & rel) / len(rel)
        for u, rel in relevant.items() if rel
    ]
    return _per_user_mean(vals)


def ndcg_at_k(recs, relevant, k):
    """Binary-relevance nDCG: DCG with 1/log2(rank+1) gains against the ideal
    DCG over min(k, |relevant|) positions."""
    vals = []
    for u, rel in relevant.items():
        if not rel:
            continue
        dcg = sum(1.0 / math.log2(r + 1)
                  for r, i in enumerate(recs[u][:k], start=1) if i in rel)
        idcg = sum(1.0 / math.log2(r + 1)
                   for r in range(1, min(k, len(rel)) + 1))
        vals.append(dcg / idcg)
    return _per_user_mean(vals)


def efd_at_k(recs, relevant, k, profile: PopularityProfile):
    """Expected free discovery.

    Per user: C * sum_r disc(r) * rel(i_r) * (-log2 p(i_r)) with
    disc(r) = 1/log2(r+1) and C normalizing the discounts to sum 1.
    """
    disc = [1.0 / math.log2(r + 1) for r in range(1, k + 1)]
    c = 1.0 / sum(disc)
    vals = []
    for u, rel in relevant.items():
        if not rel:
            continue
        total = sum(
            disc[r - 1] * (-math.log2(profile.probability(i)))
            for r, i in enumerate(recs[u][:k], start=1) if i in rel
        )
        vals.append(c * total)
    return _per_user_mean(vals)


def _exposure_counts(recs, k, n_items):
    """How many of the top-k lists hold each catalog item."""
    items = np.fromiter(chain.from_iterable(recs[u][:k] for u in recs),
                        dtype=np.int64)
    return np.bincount(items, minlength=n_items)


def gini_at_k(recs, k, n_items):
    """Concentration of recommended exposure over the whole catalog.

    With counts P sorted non-decreasing over all n catalog items (zeros
    included): 1 - sum_i (2i - n - 1) P(i) / (n * sum P). Perfectly even
    exposure gives 1; a single-item monopoly gives 1/n.
    """
    counts = _exposure_counts(recs, k, n_items)
    total = counts.sum()
    if total == 0:
        return 0.0
    p = np.sort(counts)
    n = n_items
    idx = np.arange(1, n + 1)
    return float(1.0 - ((2 * idx - n - 1) * p).sum() / (n * total))


def aplt_at_k(recs, k, profile: PopularityProfile):
    """Mean share of long-tail items in each list."""
    vals = [
        sum(1 for i in recs[u][:k] if i in profile.long_tail) / k
        for u in recs
    ]
    return _per_user_mean(vals)


def item_coverage(recs, k, n_items):
    """Percentage of the catalog recommended to at least one user."""
    return 100.0 * np.count_nonzero(_exposure_counts(recs, k, n_items)) / n_items


METRIC_ORDER = ("recall", "ndcg", "efd", "gini", "aplt", "icov")


def evaluate_lists(recs, relevant, profile: PopularityProfile, cutoffs=(10, 20)):
    """All six metrics at every cutoff, on pre-ranked lists."""
    report = MetricReport()
    for k in cutoffs:
        report.set("recall", k, recall_at_k(recs, relevant, k))
        report.set("ndcg", k, ndcg_at_k(recs, relevant, k))
        report.set("efd", k, efd_at_k(recs, relevant, k, profile))
        report.set("gini", k, gini_at_k(recs, k, profile.n_items))
        report.set("aplt", k, aplt_at_k(recs, k, profile))
        report.set("icov", k, item_coverage(recs, k, profile.n_items))
    return report


def _relevance(split, part):
    """{user: set of items} from the part's index. Users come in order of
    first appearance in the part's pairs, the order in which the metrics
    sum their per-user values."""
    index = split.user_positives(part)
    users = getattr(split, part)[:, 0]
    first = np.sort(np.unique(users, return_index=True)[1])
    return {u: index[u] for u in users[first].tolist()}


def evaluate_model(model, split, part="test", cutoffs=(10, 20), threads=1):
    """Rank with the model's scorer and run the metric battery.

    Users evaluated are those with at least one interaction in the requested
    part; candidates are all catalog items minus the user's train items.
    Returns (report, (recs, scores)), scores from the ranking pass as in
    rank_topk(with_scores=True).
    """
    relevant = _relevance(split, part)
    k_max = max(cutoffs)
    recs, scores = rank_topk(model.score_users, sorted(relevant), k_max,
                             split.user_positives("train"),
                             split.dataset.n_items, threads=threads,
                             with_scores=True)
    profile = PopularityProfile.from_train(split.train, split.dataset.n_items)
    return evaluate_lists(recs, relevant, profile, cutoffs), (recs, scores)


def recall_eval_fn(split, part="validation", k=20, threads=1):
    """Callable(model) -> Recall@k on the given part, for model selection."""
    relevant = _relevance(split, part)
    users = sorted(relevant)
    exclude = split.user_positives("train")

    def run(model):
        recs = rank_topk(model.score_users, users, k, exclude,
                         split.dataset.n_items, threads=threads)
        return recall_at_k(recs, relevant, k)

    return run


def write_recommendations_tsv(recs, path, scores):
    """Dump `user item rank score` rows, users ascending, ranks ascending.

    scores[u] lists the scores of recs[u] in rank order, as rank_topk's
    with_scores hands them out.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for u in sorted(recs):
            for rank, item in enumerate(recs[u], start=1):
                s = float(scores[u][rank - 1])
                fh.write(f"{u}\t{item}\t{rank}\t{s:.6f}\n")
