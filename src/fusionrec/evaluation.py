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
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
        counts = np.zeros(n_items, dtype=np.int64)
        for _, i in train_pairs:
            counts[int(i)] += 1
        n_train = int(counts.sum())
        if n_train == 0:
            raise ValueError("empty train set has no popularity profile")
        order = sorted(range(n_items), key=lambda i: (-counts[i], i))
        head_size = math.ceil(head_fraction * n_items)
        short = set(order[:head_size])
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


def rank_topk(score_fn, users, k, exclude, n_items, threads=1):
    """Top-k item lists per user.

    score_fn(users) returns a (len(users), n_items) matrix. Items in
    exclude[u] (the user's train items) are removed from the candidate set.
    Ties break deterministically by ascending item id. k must not exceed the
    smallest candidate set.
    """
    users = list(users)
    if not users:
        return {}
    for u in users:
        if n_items - len(exclude.get(u, ())) < k:
            raise ValueError(
                f"user {u} has only {n_items - len(exclude.get(u, ()))} "
                f"candidates, cannot rank top-{k}"
            )

    def rank_chunk(chunk):
        scores = np.asarray(score_fn(chunk), dtype=np.float64)
        out = {}
        for row, u in enumerate(chunk):
            s = scores[row].copy()
            banned = exclude.get(u)
            if banned:
                s[sorted(banned)] = -np.inf
            # sort by descending score, then ascending id
            order = np.lexsort((np.arange(n_items), -s))
            out[u] = order[:k].tolist()
        return out

    if threads <= 1 or len(users) < 2 * threads:
        return rank_chunk(users)
    chunks = [users[i::threads] for i in range(threads)]
    merged = {}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for part in pool.map(rank_chunk, chunks):
            merged.update(part)
    return merged


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


def gini_at_k(recs, k, n_items):
    """Concentration of recommended exposure over the whole catalog.

    With counts P sorted non-decreasing over all n catalog items (zeros
    included): 1 - sum_i (2i - n - 1) P(i) / (n * sum P). Perfectly even
    exposure gives 1; a single-item monopoly gives 1/n.
    """
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


def aplt_at_k(recs, k, profile: PopularityProfile):
    """Mean share of long-tail items in each list."""
    vals = [
        sum(1 for i in recs[u][:k] if i in profile.long_tail) / k
        for u in recs
    ]
    return _per_user_mean(vals)


def item_coverage(recs, k, n_items):
    """Percentage of the catalog recommended to at least one user."""
    seen = set()
    for u in recs:
        seen.update(recs[u][:k])
    return 100.0 * len(seen) / n_items


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


def evaluate_model(model, split, part="test", cutoffs=(10, 20), threads=1):
    """Rank with the model's scorer and run the metric battery.

    Users evaluated are those with at least one interaction in the requested
    part; candidates are all catalog items minus the user's train items.
    """
    relevant = {}
    for u, i in getattr(split, part):
        relevant.setdefault(int(u), set()).add(int(i))
    users = sorted(relevant)
    exclude = split.user_positives("train")
    k_max = max(cutoffs)
    recs = rank_topk(model.score_users, users, k_max, exclude,
                     split.dataset.n_items, threads=threads)
    profile = PopularityProfile.from_train(split.train, split.dataset.n_items)
    return evaluate_lists(recs, relevant, profile, cutoffs), recs


def recall_eval_fn(split, part="validation", k=20, threads=1):
    """Callable(model) -> Recall@k on the given part, for model selection."""
    relevant = {}
    for u, i in getattr(split, part):
        relevant.setdefault(int(u), set()).add(int(i))
    users = sorted(relevant)
    exclude = split.user_positives("train")

    def run(model):
        recs = rank_topk(model.score_users, users, k, exclude,
                         split.dataset.n_items, threads=threads)
        return recall_at_k(recs, relevant, k)

    return run


def write_recommendations_tsv(recs, path, score_fn=None):
    """Dump `user item rank score` rows, users ascending, ranks ascending."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for u in sorted(recs):
            scores = None
            if score_fn is not None:
                scores = np.asarray(score_fn([u]))[0]
            for rank, item in enumerate(recs[u], start=1):
                s = float(scores[item]) if scores is not None else float("nan")
                fh.write(f"{u}\t{item}\t{rank}\t{s:.6f}\n")
