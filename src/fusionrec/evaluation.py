"""Top-k ranking and the metric battery, on arrays.

Accuracy: Recall@k and nDCG@k (binary relevance). Beyond accuracy: expected
free discovery (EFD@k), Gini concentration of recommended exposure, average
percentage of long-tail items (APLT@k), and item coverage (iCov). Ranking
excludes each user's train items and breaks score ties by ascending item id.

Users and items stay integer arrays from the scorer to the report: a Ranking
holds one row of item ids per user, and one hit matrix, read from the part's
InteractionIndex, feeds every metric at every cutoff. The values are
bit-identical to per-user loops over sets, because:
- rank discounts and -log2 p come from math.log2 (np.log2's vectorized
  kernel may differ in the last ulp);
- each user's gains are added left to right by np.cumsum (np.sum adds
  pairwise), and adding a non-hit's 0.0 is exact;
- users are averaged in a fixed order: first appearance in the part's pairs
  for Recall, nDCG and EFD, the ranking's order for APLT.
The metric functions also take {user: list} and {user: set} dicts: adapters
turn them into the same arrays for the same code.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np


HEAD_FRACTION = 0.2  # share of the catalog in the short head


@dataclass
class PopularityProfile:
    """Train-side popularity: counts, probabilities, short head/long tail.

    p(i) = train_count(i) / |R_train|, smoothed to 0.5 / |R_train| for items
    never seen in train. The short head is the ceil(HEAD_FRACTION) most
    popular catalog items (ties by ascending id); the long tail is the
    complement.
    """

    n_items: int
    counts: np.ndarray
    n_train: int
    short_head: set
    long_tail: set

    @classmethod
    def from_train(cls, train_pairs, n_items):
        items = np.asarray(train_pairs, dtype=np.int64).reshape(-1, 2)[:, 1]
        counts = np.bincount(items, minlength=n_items)
        if counts.size > n_items:
            raise IndexError(f"train item id {items.max()} >= n_items {n_items}")
        n_train = int(counts.sum())
        if n_train == 0:
            raise ValueError("empty train set has no popularity profile")
        order = np.lexsort((np.arange(n_items), -counts))
        head_size = math.ceil(HEAD_FRACTION * n_items)
        short = set(order[:head_size].tolist())
        return cls(n_items, counts, n_train, short, set(range(n_items)) - short)

    def probability(self, item):
        c = self.counts[item]
        return (c if c > 0 else 0.5) / self.n_train

    @cached_property
    def surprisal(self):
        """-log2 p(i) of every catalog item."""
        p = np.where(self.counts > 0, self.counts, 0.5) / self.n_train
        return np.array([-math.log2(x) for x in p.tolist()])

    @cached_property
    def in_tail(self):
        return np.isin(np.arange(self.n_items), list(self.long_tail))


@dataclass
class MetricReport:
    """Metric values keyed by (metric, k)."""

    values: dict = field(default_factory=dict)

    def set(self, metric, k, value):
        self.values[(metric, k)] = float(value)

    def get(self, metric, k):
        return self.values[(metric, k)]


class Ranking(Mapping):
    """Row r of `top` holds users[r]'s top-k item ids, best first, and row r
    of `scores` the scores behind them. As a mapping: user -> list of ids."""

    def __init__(self, users, top, scores):
        self.users, self.top, self.scores = users, top, scores

    @cached_property
    def row_of(self):
        return dict(zip(self.users.tolist(), range(len(self.users))))

    def __getitem__(self, user):
        return self.top[self.row_of[user]].tolist()

    def __iter__(self):
        return iter(self.users.tolist())

    def __len__(self):
        return len(self.users)


# A part's InteractionIndex, with its users in order of first appearance in
# the part's pairs.
Relevance = namedtuple("Relevance", "index users")
# Per user with relevant items: the top-k list, which of its items are
# relevant, and how many items are.
Judged = namedtuple("Judged", "hits items n_rel")


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
        # row-major like np.nonzero(keep)[1], without its 2-D index pass
        cols = (np.flatnonzero(keep) % m).reshape(-1, k)
        order = np.argsort(-np.take_along_axis(block, cols, axis=1), axis=1,
                           kind="stable")
        out[lo:lo + TOPK_BLOCK] = np.take_along_axis(cols, order, axis=1)
    return out


def rank_topk(score_fn, users, k, exclude, n_items, threads=1):
    """Top-k item lists per user, as a Ranking.

    score_fn(users) returns a (len(users), n_items) matrix; it is called once,
    whatever `threads` is. Blocks of TOPK_BLOCK users are ranked on copies in
    its floating dtype (float64 for integers, so -inf fits), with the items
    of each user in `exclude`, an InteractionIndex of train items, at -inf.
    Ties break by ascending item id. k must not exceed the smallest candidate
    set. threads > 1 ranks the blocks on a thread pool. The Ranking's scores
    are score_fn's entries, in its dtype.
    """
    users = list(users)
    ids = np.asarray(users, dtype=np.int64)
    if not users:
        return Ranking(ids, np.zeros((0, k), np.int64), np.zeros((0, k)))
    candidates = n_items - exclude.degrees[ids]
    short = np.flatnonzero(candidates < k)
    if short.size:
        raise ValueError(
            f"user {users[short[0]]} has only {candidates[short[0]]} "
            f"candidates, cannot rank top-{k}"
        )
    scores = np.asarray(score_fn(users))
    dtype = scores.dtype if np.issubdtype(scores.dtype, np.floating) else np.float64

    def rank_block(lo):
        block = scores[lo:lo + TOPK_BLOCK].astype(dtype)
        block[exclude.items_of(ids[lo:lo + TOPK_BLOCK])] = -np.inf
        return topk_rows(block, k)

    starts = range(0, len(users), TOPK_BLOCK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(rank_block, starts))
    else:
        blocks = [rank_block(lo) for lo in starts]
    top = np.concatenate(blocks)
    return Ranking(ids, top, np.take_along_axis(scores, top, axis=1))


def _judged(recs, relevant, k):
    """recs judged against relevant at cutoff k, users in relevant's order.
    relevant is a Judged (sliced to k), a Relevance with a Ranking (hits by
    binary search in the part's index) or a dict of sets (set lookups)."""
    if isinstance(relevant, Judged):
        return Judged(relevant.hits[:, :k], relevant.items[:, :k], relevant.n_rel)
    if isinstance(relevant, Relevance):
        users, index = relevant.users, relevant.index
        items = recs.top[[recs.row_of[u] for u in users.tolist()], :k]
        return Judged(index.contains(users[:, None], items), items,
                      index.degrees[users])
    users = [u for u, rel in relevant.items() if rel]
    items = _lists({u: recs[u] for u in users}, k)
    hits = [[i in relevant[u] for i in row] for u, row in zip(users, items.tolist())]
    return Judged(np.array(hits, dtype=bool).reshape(items.shape), items,
                  np.array([len(relevant[u]) for u in users], dtype=np.int64))


def _lists(recs, k):
    """(n_users, k) array of every top-k list, in recs' order; dict lists
    must be equally long."""
    if isinstance(recs, Ranking):
        return recs.top[:, :k]
    rows = [recs[u][:k] for u in recs]
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1) if rows else \
        np.zeros((0, 0), dtype=np.int64)


def _exposure_counts(recs, k, n_items):
    """How many of the top-k lists hold each catalog item."""
    items = recs.top[:, :k].ravel() if isinstance(recs, Ranking) else np.fromiter(
        chain.from_iterable(recs[u][:k] for u in recs), dtype=np.int64)
    return np.bincount(items, minlength=n_items)


def _per_user_mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def _gains_sum(hits, gains):
    """Each user's gains at hits, added left to right in rank order."""
    kept = np.where(hits, gains, 0.0)
    return np.cumsum(kept, axis=1)[:, -1] if kept.shape[1] else np.zeros(len(kept))


def _discounts(k):
    return np.array([1.0 / math.log2(r + 1) for r in range(1, k + 1)])


def recall_at_k(recs, relevant, k):
    """Mean over users of |hits| / |relevant|; users without relevant items skipped."""
    hits, _, n_rel = _judged(recs, relevant, k)
    return _per_user_mean(hits.sum(axis=1) / n_rel)


def ndcg_at_k(recs, relevant, k):
    """Binary-relevance nDCG: DCG with 1/log2(rank+1) gains against the ideal
    DCG over min(k, |relevant|) positions."""
    hits, _, n_rel = _judged(recs, relevant, k)
    disc = _discounts(k)
    dcg = _gains_sum(hits, disc[:hits.shape[1]])
    return _per_user_mean(dcg / np.cumsum(disc)[np.minimum(k, n_rel) - 1])


def efd_at_k(recs, relevant, k, profile: PopularityProfile):
    """Expected free discovery.

    Per user: C * sum_r disc(r) * rel(i_r) * (-log2 p(i_r)) with
    disc(r) = 1/log2(r+1) and C normalizing the discounts to sum 1.
    """
    hits, items, _ = _judged(recs, relevant, k)
    disc = _discounts(k)
    c = 1.0 / np.cumsum(disc)[-1]
    total = _gains_sum(hits, disc[:hits.shape[1]] * profile.surprisal[items])
    return _per_user_mean(c * total)


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
    return _per_user_mean(profile.in_tail[_lists(recs, k)].sum(axis=1) / k)


def item_coverage(recs, k, n_items):
    """Percentage of the catalog recommended to at least one user."""
    return 100.0 * np.count_nonzero(_exposure_counts(recs, k, n_items)) / n_items


METRIC_ORDER = ("recall", "ndcg", "efd", "gini", "aplt", "icov")


def evaluate_lists(recs, relevant, profile: PopularityProfile, cutoffs=(10, 20)):
    """All six metrics at every cutoff, on pre-ranked lists: a Ranking and a
    Relevance, or dicts. Hits are judged once, at the largest cutoff."""
    judged = _judged(recs, relevant, max(cutoffs))
    report = MetricReport()
    for k in cutoffs:
        report.set("recall", k, recall_at_k(recs, judged, k))
        report.set("ndcg", k, ndcg_at_k(recs, judged, k))
        report.set("efd", k, efd_at_k(recs, judged, k, profile))
        report.set("gini", k, gini_at_k(recs, k, profile.n_items))
        report.set("aplt", k, aplt_at_k(recs, k, profile))
        report.set("icov", k, item_coverage(recs, k, profile.n_items))
    return report


def _ranker(split, part, k, threads):
    """The part's Relevance, and model -> Ranking at k of its users, sorted,
    with each user's train items excluded."""
    users = getattr(split, part)[:, 0]
    first = np.sort(np.unique(users, return_index=True)[1])
    relevant = Relevance(split.user_positives(part), users[first])
    ranked = np.sort(relevant.users).tolist()
    exclude = split.user_positives("train")

    def rank(model):
        return rank_topk(model.score_users, ranked, k, exclude,
                         split.dataset.n_items, threads=threads)

    return relevant, rank


def evaluate_model(model, split, part="test", cutoffs=(10, 20), threads=1):
    """Rank with the model's scorer and run the metric battery.

    Users evaluated are those with at least one interaction in the requested
    part; candidates are all catalog items minus the user's train items.
    Returns (report, ranking at the largest cutoff).
    """
    relevant, rank = _ranker(split, part, max(cutoffs), threads)
    ranking = rank(model)
    profile = PopularityProfile.from_train(split.train, split.dataset.n_items)
    return evaluate_lists(ranking, relevant, profile, cutoffs), ranking


def recall_eval_fn(split, part="validation", k=20, threads=1):
    """Callable(model) -> Recall@k on the given part, for model selection."""
    relevant, rank = _ranker(split, part, k, threads)
    return lambda model: recall_at_k(rank(model), relevant, k)


def write_recommendations_tsv(ranking, path):
    """Dump `user item rank score` rows, users ascending, ranks ascending,
    with the scores of the ranking pass."""
    order = np.argsort(ranking.users)
    lines = [f"{u}\t{item}\t{rank}\t{s:.6f}\n"
             for u, items, scores in zip(ranking.users[order].tolist(),
                                         ranking.top[order].tolist(),
                                         ranking.scores[order].tolist())
             for rank, (item, s) in enumerate(zip(items, scores), start=1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(lines))
