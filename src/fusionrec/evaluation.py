"""Top-k ranking and the metric battery, on arrays.

Accuracy: Recall@k and nDCG@k (binary relevance). Beyond accuracy: expected
free discovery (EFD@k), Gini concentration of recommended exposure, average
percentage of long-tail items (APLT@k), and item coverage (iCov). Ranking
excludes each user's train items and breaks score ties by ascending item id.
Every top-k selection, kNN item graphs included, is topk_rows: a threshold
from the maxima of strided column groups, then an exact partition over only
the entries at or above it; narrow rows are partitioned whole.

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
The metric functions also take {user: list} and {user: set} dicts. A dict
of lists becomes the same top-k array, but {user: set} relevance is judged
by its own path, set lookups per listed item (_judged), which
test_evaluate_lists_bitwise_equals_per_user_loops holds bit-identical to
the index path.
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

from .dataset import write_text

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

    def rows_of(self, users):
        """The row of each of the integer array users, as row_of gives it
        (a user listed twice has its last row); KeyError for a user not
        ranked."""
        order = np.argsort(self.users, kind="stable")
        keys = self.users[order]
        # at is the last key <= each user; -1, below every key, reads
        # keys[-1], which is then above the user
        at = np.searchsorted(keys, users, side="right") - 1
        found = keys[at] == users if keys.size else np.zeros(len(users), bool)
        if not found.all():
            raise KeyError(users[np.flatnonzero(~found)[0]])
        return order[at]

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


TOPK_BLOCK = 512  # rows per block of rank_topk and knn_graph: no copy spans every row
GROUPS_PER_K = 8  # topk_rows' threshold stage: column groups per wanted column
MIN_GROUP_SPAN = 4  # columns per group below which a partition of whole rows is faster


def topk_rows(scores, k):
    """(n_rows, k) ids of each row's k best columns, by descending score,
    ties (-inf included) by ascending id. Floating scores; a row holding NaN
    raises ValueError.

    Two exact stages. Threshold: column j joins group j mod c, with
    c = GROUPS_PER_K * k, and t is a row's k-th largest group maximum.
    Those k maxima are k distinct entries at or above t, so every entry of
    the row's top-k, ties at the k-th value included, is >= t. Exact: only
    the entries >= t, typically k to 1.5k per row, are packed in id order
    into a (n_rows, width) matrix padded with -inf, and one stable argsort
    by descending value ranks that matrix, so ties keep id order. Rows of
    fewer than MIN_GROUP_SPAN * c columns, where the threshold stage saves
    less than it costs, go to _topk_exact whole.
    Besides arrays of n_rows * (c + width) entries, a call holds one
    boolean mask of the scores' shape. Callers that must bound memory hand
    it one block of rows.
    """
    n, m = scores.shape
    if not 0 < k <= m:
        raise ValueError(f"k={k} must be in [1, {m}]")
    c = GROUPS_PER_K * k
    q, r = divmod(m, c)
    if q < MIN_GROUP_SPAN:
        return _topk_exact(scores, k)
    peaks = scores[:, :q * c].reshape(n, q, c).max(axis=1)
    np.maximum(peaks[:, :r], scores[:, q * c:], out=peaks[:, :r])
    _reject_nan(peaks)  # a group's NaN is its peak
    t = np.partition(peaks, c - k, axis=1)[:, c - k:c - k + 1]
    flat = np.flatnonzero(scores >= t)  # row-major: ids ascend in each row
    rows = flat // m
    counts = np.bincount(rows, minlength=n)
    starts = np.cumsum(counts) - counts
    width = counts.max(initial=k)  # each row has >= k; k for 0 rows
    values = np.full((n, width), -np.inf, dtype=scores.dtype)
    values.reshape(-1)[rows * width + np.arange(flat.size)
                       - np.repeat(starts, counts)] = np.take(scores, flat)
    # padding is never picked: it sorts after every packed entry, and a row
    # whose k-th value is -inf has t = -inf and fills its whole width
    ranked = np.argsort(-values, axis=1, kind="stable")[:, :k]
    return np.take(flat, starts[:, None] + ranked) % m


def _reject_nan(scores):
    if np.isnan(scores.max(initial=-np.inf)):  # max keeps any NaN
        row = np.flatnonzero(np.isnan(scores).any(axis=1))[0]
        raise ValueError(f"scores row {row} holds NaN, which has no rank")


def _topk_exact(scores, k):
    """topk_rows by one np.partition over whole rows: the columns at or
    above each row's k-th largest value are kept. Only a row that keeps more
    than k columns, where a tie crosses the boundary, keeps the columns
    above it plus the first equal ones in id order. A stable sort by
    descending score follows."""
    n, m = scores.shape
    part = np.partition(scores, m - k, axis=1)
    _reject_nan(part[:, m - k:])  # partition orders NaN last, into this slice
    kth = part[:, m - k:m - k + 1]
    keep = scores >= kth
    over = np.flatnonzero(keep.sum(axis=1) > k)
    tied, kth_over = scores[over], kth[over]
    above, tie = tied > kth_over, tied == kth_over
    fill = k - above.sum(axis=1, keepdims=True)
    keep[over] = above | (tie & (np.cumsum(tie, axis=1) <= fill))
    # row-major like np.nonzero(keep)[1], without its 2-D index pass
    cols = (np.flatnonzero(keep) % m).reshape(-1, k)
    order = np.argsort(-np.take_along_axis(scores, cols, axis=1), axis=1,
                       kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def rank_topk(score_fn, users, k, exclude, n_items, threads=1):
    """Top-k item lists per user, as a Ranking.

    Rows may also be items ranked against items, excluding each (i, i).
    score_fn(block) returns a (len(block), n_items) matrix for each block of
    at most TOPK_BLOCK user ids, so no pass holds every user's scores. Each
    block is ranked as it arrives, in place: the items of each user in
    `exclude`, an InteractionIndex of train items, are saved and set to -inf,
    and are restored before rank_topk returns or raises, so score_fn's array
    ends as it was handed over. Only an integer block (ranked as float64, so
    -inf fits) or a read-only one is copied first. Ties break by ascending
    item id. k must not exceed the smallest candidate set. A NaN score of a
    candidate is a ValueError that names its row in the block, and so is a
    -inf score that reaches a user's top-k, where it would tie with the
    excluded items; that one names the user. threads > 1 scores and ranks
    the blocks on a thread pool, so score_fn must not hand two blocks views
    of the same entries. The Ranking's scores are score_fn's entries, in its
    dtype.
    """
    ids = np.fromiter(users, dtype=np.int64)
    if not ids.size:
        return Ranking(ids, np.zeros((0, k), np.int64), np.zeros((0, k)))
    candidates = n_items - exclude.degrees[ids]
    short = np.flatnonzero(candidates < k)
    if short.size:
        raise ValueError(
            f"user {ids[short[0]]} has only {candidates[short[0]]} "
            f"candidates, cannot rank top-{k}"
        )

    def rank_block(lo):
        block = ids[lo:lo + TOPK_BLOCK]
        scores = np.asarray(score_fn(block))
        floating = np.issubdtype(scores.dtype, np.floating)
        masked = scores if floating and scores.flags.writeable else \
            scores.astype(scores.dtype if floating else np.float64)
        excluded = exclude.items_of(block)
        saved = masked[excluded]
        masked[excluded] = -np.inf
        try:
            top = topk_rows(masked, k)
            # rows rank best first, so a -inf in the top-k is in its last column
            lowest = np.take_along_axis(masked, top[:, -1:], axis=1)[:, 0]
            if np.isneginf(lowest).any():
                user = block[np.flatnonzero(np.isneginf(lowest))[0]]
                raise ValueError(f"user {user} has a candidate scored -inf in its "
                                 f"top-{k}, where it ties with the excluded items")
            # no excluded item is in the top-k, so these are score_fn's entries
            return top, np.take_along_axis(scores, top, axis=1)
        finally:
            masked[excluded] = saved

    starts = range(0, len(ids), TOPK_BLOCK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(rank_block, starts))
    else:
        blocks = [rank_block(lo) for lo in starts]
    tops, scores = zip(*blocks)
    return Ranking(ids, np.concatenate(tops), np.concatenate(scores))


def _judged(recs, relevant, k):
    """recs judged against relevant at cutoff k, users in relevant's order.
    relevant is a Judged (sliced to k), a Relevance with a Ranking (hits by
    binary search in the part's index) or a dict of sets (set lookups)."""
    if isinstance(relevant, Judged):
        return Judged(relevant.hits[:, :k], relevant.items[:, :k], relevant.n_rel)
    if isinstance(relevant, Relevance):
        users, index = relevant.users, relevant.index
        items = recs.top[recs.rows_of(users), :k]
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
    outside = items[(items < 0) | (items >= n_items)]
    if outside.size:
        raise ValueError(f"item id {outside[0]} outside [0, {n_items})")
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
        u, i = model.embed()
        return rank_topk(lambda block: u[block] @ i.T, ranked, k, exclude,
                         split.dataset.n_items, threads=threads)

    return relevant, rank


def evaluate_model(model, split, part="test", cutoffs=(10, 20), threads=1):
    """Rank with one model.embed() and run the metric battery.

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
    write_text(path, "".join(lines))
