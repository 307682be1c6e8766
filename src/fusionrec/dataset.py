"""Interaction logs: parsing, k-core filtering, holdout splits, statistics.

The protocol baked in here: dense ids assigned in first-appearance order,
iterative k-core filtering to a fixpoint, then a per-user random holdout
where floor(80%) of a user's interactions (at least one) go to train and the
held-out rest is divided into validation (ceil of half) and test. Splits are
random, not temporal; the timestamp column only arbitrates duplicates.

Set-up works on columns, not records. parse_interactions splits the whole
text once and converts the rating and timestamp columns with map(float)
and map(int), which keep Python's parsing rules; index_log numbers ids
with dict.fromkeys and collapses duplicate pairs with one lexsort over
int64 pair codes; write_split joins per-id prefix strings.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import compress, repeat

import numpy as np


class InteractionFormatError(ValueError):
    """Malformed interaction line; message names the offending line number."""


@dataclass(eq=False)
class InteractionLog:
    """Interactions with string ids, as parse_interactions reads them: four
    columns with one entry per non-blank line (id lists, float64 ratings,
    int64 timestamps).

    Each duplicate (user, item) pair counts once: as its record with the
    latest timestamp (the later line on a tie), at the position of the
    pair's first line. `records`, len() and index_log all read it so.
    """

    users: list
    items: list
    ratings: np.ndarray
    stamps: np.ndarray

    @property
    def records(self):
        rows = _indexed(self)[3].tolist()
        return list(zip(map(self.users.__getitem__, rows),
                        map(self.items.__getitem__, rows),
                        self.ratings[rows].tolist(), self.stamps[rows].tolist()))

    def __len__(self):
        return _indexed(self)[3].size


@dataclass
class Dataset:
    """Dense-indexed interactions after preprocessing."""

    user_ids: list
    item_ids: list
    interactions: np.ndarray  # (n, 2) int64 dense (user, item) pairs
    ratings: np.ndarray
    timestamps: np.ndarray

    @property
    def n_users(self):
        return len(self.user_ids)

    @property
    def n_items(self):
        return len(self.item_ids)

    @property
    def n_interactions(self):
        return int(self.interactions.shape[0])


@dataclass(eq=False)
class InteractionIndex:
    """Per-user item sets of one interaction part, as one CSR index.

    User u's distinct items are indices[indptr[u]:indptr[u + 1]], sorted
    ascending; `keys` holds every distinct pair as the sorted code
    user * n_items + item, for membership tests by binary search. Read as a
    mapping, it holds the users that have items, ascending, each with the
    set of its items.
    """

    n_users: int
    n_items: int
    indptr: np.ndarray  # (n_users + 1,) int64
    indices: np.ndarray  # (n_distinct,) int64 item ids
    keys: np.ndarray  # (n_distinct,) int64, sorted

    @classmethod
    def from_pairs(cls, n_users, n_items, pairs):
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs[:, 0].max() >= n_users
                           or pairs[:, 1].max() >= n_items):
            raise ValueError("pair id out of range")
        keys = np.unique(pairs[:, 0] * n_items + pairs[:, 1])
        indptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n_items, minlength=n_users), out=indptr[1:])
        return cls(n_users, n_items, indptr, keys % n_items, keys)

    @property
    def degrees(self):
        return np.diff(self.indptr)

    def contains(self, users, items):
        """Elementwise: is (users[k], items[k]) a pair of the index?"""
        code = users * self.n_items + items
        if not self.keys.size:
            return np.zeros(np.shape(code), dtype=bool)
        at = np.minimum(np.searchsorted(self.keys, code), self.keys.size - 1)
        return self.keys[at] == code

    def items_of(self, users):
        """(rows, items): every item of users[r], paired with its row r."""
        start, count = self.indptr[users], self.degrees[users]
        rows = np.repeat(np.arange(len(users)), count)
        at = np.arange(rows.size) + np.repeat(start - (np.cumsum(count) - count),
                                              count)
        return rows, self.indices[at]

    def __getitem__(self, user):
        if user not in self:
            raise KeyError(user)
        return set(self.indices[self.indptr[user]:self.indptr[user + 1]].tolist())

    def __iter__(self):
        return iter(np.flatnonzero(self.degrees).tolist())

    def __len__(self):
        return int(np.count_nonzero(self.degrees))

    def __contains__(self, user):
        return 0 <= user < self.n_users and self.indptr[user] < self.indptr[user + 1]

    def get(self, user, default=None):
        return self[user] if user in self else default

    def items(self):
        return ((u, self[u]) for u in self)


@dataclass
class Split:
    """Disjoint train/validation/test interaction sets over one Dataset."""

    dataset: Dataset
    train: np.ndarray  # (n, 2) int64
    validation: np.ndarray
    test: np.ndarray
    seed: int
    train_ratio: float = 0.8
    _positives: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def user_positives(self, part="train"):
        """The part's InteractionIndex, built on the first call per part."""
        if part not in self._positives:
            self._positives[part] = InteractionIndex.from_pairs(
                self.dataset.n_users, self.dataset.n_items, getattr(self, part))
        return self._positives[part]


@dataclass
class DatasetStats:
    n_users: int
    n_items: int
    n_interactions: int
    sparsity_percent: float
    min_user_degree: int
    min_item_degree: int


def parse_interactions(path_or_lines) -> InteractionLog:
    """Read tab-separated `user item [rating [timestamp]]` records.

    Duplicate (user, item) pairs collapse to the record with the latest
    timestamp (missing timestamps count as 0; on a tie the later line wins).
    An empty rating reads 1 and an empty timestamp 0. Malformed lines, a
    timestamp outside int64 among them, raise with their 1-based line
    number, the first such line in the file.
    """
    if isinstance(path_or_lines, (str, os.PathLike)):
        with open(path_or_lines, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")  # universal newlines: no "\r" is left
    else:
        lines = [line.rstrip("\n").rstrip("\r") for line in path_or_lines]
    try:
        return InteractionLog(*_columns(list(filter(None, lines))))
    except (ValueError, OverflowError):
        raise _first_bad_line(lines) from None


def _columns(rows):
    """(users, items, ratings, stamps) of the non-blank lines. ValueError
    when a line has fewer than 2 or more than 4 fields or an empty id, or a
    rating or timestamp does not convert; OverflowError when a timestamp
    is outside int64. The text of an error names the fault when `rows` is
    one line."""
    if not rows:
        return [], [], np.ones(0), np.zeros(0, dtype=np.int64)
    tabs = list(map(str.count, rows, repeat("\t")))
    low, high = min(tabs), max(tabs)
    fault = f"expected 2-4 tab-separated fields, got {high + 1}"
    if low < 1 or high > 3:
        raise ValueError(fault)
    width = high + 1
    if low < high:  # mixed widths: pad every line to four fields
        rows = [row + "\t" * (3 - n) for row, n in zip(rows, tabs)]
        width = 4
    fields = "\t".join(rows).split("\t")
    users, items = fields[0::width], fields[1::width]
    if "" in users or "" in items:
        raise ValueError(fault)
    absent = [""] * len(rows)
    ratings = _numbers(fields[2::width] if width > 2 else absent, float, 1.0, np.float64)
    stamps = _numbers(fields[3::width] if width > 3 else absent, int, 0, np.int64)
    return users, items, ratings, stamps


def _numbers(strings, convert, default, dtype):
    """`convert` over a column of strings; an empty string reads `default`."""
    if "" not in strings:
        return np.fromiter(map(convert, strings), dtype, len(strings))
    given = np.fromiter(map(bool, strings), bool, len(strings))
    out = np.full(len(strings), default, dtype=dtype)
    out[given] = np.fromiter(map(convert, compress(strings, given)), dtype,
                             np.count_nonzero(given))
    return out


def _first_bad_line(lines):
    """InteractionFormatError naming the first line that _columns rejects."""
    for lineno, line in enumerate(lines, start=1):
        try:
            _columns([line] if line else [])
        except (ValueError, OverflowError) as exc:
            return InteractionFormatError(f"line {lineno}: {exc}")
    raise AssertionError("no malformed line")


def index_log(log: InteractionLog) -> Dataset:
    """Assign dense ids in first-appearance order."""
    user_ids, item_ids, pairs, rows = _indexed(log)
    return Dataset(user_ids, item_ids, pairs[rows],
                   log.ratings[rows].astype(np.float32), log.stamps[rows])


def _indexed(log):
    """(user ids, item ids, pairs, rows): the distinct ids in order of first
    appearance, every line's dense (user, item) pair as (n, 2) int64, and
    the lines that stay, in order."""
    user_ids, users = _dense_ids(log.users)
    item_ids, items = _dense_ids(log.items)
    rows = _latest_rows(users * len(item_ids) + items, log.stamps)
    return user_ids, item_ids, np.stack([users, items], axis=1), rows


def _dense_ids(ids):
    """The distinct ids in first-appearance order, and each entry's index
    among them."""
    number = dict.fromkeys(ids)
    distinct = list(number)
    number.update(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(number.__getitem__, ids), np.int64, len(ids))


def _latest_rows(codes, stamps):
    """One row per distinct code: the one with the latest stamp, the later
    row on a tie, ordered by the code's first row. The sort is skipped when
    no code repeats."""
    ordered = np.sort(codes)
    if not (ordered[1:] == ordered[:-1]).any():
        return np.arange(codes.size)
    order = np.lexsort((stamps, codes))  # stable: a tie keeps row order
    sorted_codes = codes[order]
    starts = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
    latest = order[np.r_[starts[1:], codes.size] - 1]
    return latest[np.argsort(np.minimum.reduceat(order, starts))]


def k_core_filter(ds: Dataset, k: int = 5) -> Dataset:
    """Drop users and items with fewer than k interactions until stable.

    Ids are re-densified in first-appearance order of the survivors. k <= 0
    is rejected; a dataset that empties out entirely is an error.
    """
    if k <= 0:
        raise ValueError(f"k-core needs k >= 1, got {k}")
    users, items = ds.interactions[:, 0], ds.interactions[:, 1]
    keep = np.ones(ds.n_interactions, dtype=bool)
    while True:
        ucnt = np.bincount(users[keep], minlength=ds.n_users)
        icnt = np.bincount(items[keep], minlength=ds.n_items)
        drop = keep & ((ucnt[users] < k) | (icnt[items] < k))
        if not drop.any():
            break
        keep &= ~drop
        if not keep.any():
            raise ValueError(f"{k}-core filtering removed every interaction")
    idx = np.flatnonzero(keep)
    old_users, new_users = _dense_ids(users[idx].tolist())
    old_items, new_items = _dense_ids(items[idx].tolist())
    return Dataset([ds.user_ids[u] for u in old_users],
                   [ds.item_ids[i] for i in old_items],
                   np.stack([new_users, new_items], axis=1),
                   ds.ratings[idx], ds.timestamps[idx])


def holdout_split(ds: Dataset, seed: int, train_ratio: float = 0.8) -> Split:
    """Per-user random holdout.

    For a user with n interactions: floor(train_ratio * n) of them (minimum 1)
    are drawn for train by seeded uniform sampling without replacement; of the
    remainder, ceil(half) goes to validation and the rest to test. Users with
    a single interaction contribute to train only.
    """
    if not 0.0 < train_ratio < 1.0:
        raise ValueError(f"train_ratio must be in (0, 1), got {train_ratio}")
    users = ds.interactions[:, 0]
    counts = np.bincount(users, minlength=ds.n_users)
    order = np.argsort(users, kind="stable")  # rows grouped by user, ascending
    start = np.cumsum(counts) - counts
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(n) for n in counts[counts > 0].tolist()]
    owner = users[order]
    shuffled = order[np.concatenate([np.zeros(0, np.int64)] + perms) + start[owner]]
    rank = np.arange(users.size) - start[owner]  # position in the user's shuffle
    n_train = np.maximum(1, np.floor(train_ratio * counts).astype(np.int64))
    n_val = np.ceil((counts - n_train) / 2).astype(np.int64)
    part = (rank >= n_train[owner]).astype(np.int8) + (rank >= (n_train + n_val)[owner])

    train, val, test = (ds.interactions[np.sort(shuffled[part == p])] for p in range(3))
    return Split(ds, train, val, test, seed=seed, train_ratio=train_ratio)


def sparsity_percent(n_users: int, n_items: int, n_interactions: int) -> float:
    """(1 - |R| / (|U| * |I|)) * 100."""
    if n_users <= 0 or n_items <= 0:
        raise ValueError("sparsity needs at least one user and one item")
    return (1.0 - n_interactions / (n_users * n_items)) * 100.0


def stats(ds: Dataset) -> DatasetStats:
    ucnt = np.bincount(ds.interactions[:, 0])
    icnt = np.bincount(ds.interactions[:, 1])
    return DatasetStats(
        n_users=ds.n_users,
        n_items=ds.n_items,
        n_interactions=ds.n_interactions,
        sparsity_percent=sparsity_percent(ds.n_users, ds.n_items, ds.n_interactions),
        min_user_degree=int(ucnt[ucnt > 0].min()) if ucnt.any() else 0,
        min_item_degree=int(icnt[icnt > 0].min()) if icnt.any() else 0,
    )


@dataclass
class SyntheticData:
    """Output bundle of generate_synthetic."""

    dataset: Dataset
    features: dict  # modality name -> (n_items, dim) float32, the true factors
    affinity: np.ndarray  # (n_users, n_items) noiseless scores
    density: float


def generate_synthetic(n_users: int, n_items: int, density: float, seed: int,
                       modalities=("visual", "textual"), dims=None,
                       noise: float = 0.0) -> SyntheticData:
    """Latent-preference interaction generator.

    Each modality gets item feature vectors and user preference vectors; the
    score of (u, i) is the mean over modalities of the dot product, plus
    gaussian noise. Interactions are the entries above the global quantile
    that matches the target density, so with noise=0 every positive item of a
    user scores strictly above every negative one under the true affinity.
    Byte-identical output for identical arguments.
    """
    if n_users <= 0 or n_items <= 0:
        raise ValueError("need at least one user and one item")
    if not 0.0 < density < 1.0:
        raise ValueError(f"density must be in (0, 1), got {density}")
    if round(density * n_users * n_items) < 1:
        raise ValueError(f"density {density} yields no interactions at "
                         f"{n_users}x{n_items}")
    if dims is None:
        dims = {m: 16 for m in modalities}
    rng = np.random.default_rng(seed)
    feats = {}
    affinity = np.zeros((n_users, n_items), dtype=np.float64)
    for m in modalities:
        d = dims[m]
        f = rng.standard_normal((n_items, d))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        p = rng.standard_normal((n_users, d))
        feats[m] = f.astype(np.float32)
        affinity += p @ f.T
    affinity /= len(modalities)
    scores = affinity + (noise * rng.standard_normal(affinity.shape) if noise else 0.0)
    threshold = np.quantile(scores, 1.0 - density)
    uu, ii = np.nonzero(scores > threshold)
    if uu.size == 0:
        raise ValueError("density target infeasible: no scores above threshold")
    pairs = np.stack([uu, ii], axis=1).astype(np.int64)
    ds = Dataset(
        user_ids=[f"u{u}" for u in range(n_users)],
        item_ids=[f"i{i}" for i in range(n_items)],
        interactions=pairs,
        ratings=np.ones(uu.size, dtype=np.float32),
        timestamps=np.zeros(uu.size, dtype=np.int64),
    )
    return SyntheticData(ds, feats, affinity, density)


def write_split(split: Split, out_dir):
    """Three TSVs plus a JSON sidecar with seed, ratio and counts."""
    os.makedirs(out_dir, exist_ok=True)
    ds = split.dataset
    heads = [u + "\t" for u in ds.user_ids]
    tails = [i + "\n" for i in ds.item_ids]
    for name in ("train", "validation", "test"):
        pairs = getattr(split, name)
        pieces = [""] * (2 * len(pairs))
        pieces[0::2] = map(heads.__getitem__, pairs[:, 0].tolist())
        pieces[1::2] = map(tails.__getitem__, pairs[:, 1].tolist())
        write_text(os.path.join(out_dir, f"{name}.tsv"), "".join(pieces))
    sidecar = {
        "seed": split.seed,
        "train_ratio": split.train_ratio,
        "validation_fraction_of_holdout": 0.5,
        "n_users": ds.n_users,
        "n_items": ds.n_items,
        "n_train": int(split.train.shape[0]),
        "n_validation": int(split.validation.shape[0]),
        "n_test": int(split.test.shape[0]),
    }
    write_json(os.path.join(out_dir, "split.json"), sidecar)


def write_text(path, text):
    """Write text in the one format of the package's artifacts: UTF-8, "\n"."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path, body):
    """write_text of JSON indented by 2, keys sorted, with a final newline."""
    write_text(path, json.dumps(body, indent=2, sort_keys=True) + "\n")
