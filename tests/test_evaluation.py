"""Metric hand values, brute-force agreement, ranking behavior."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fusionrec import evaluation as E
from fusionrec.dataset import InteractionIndex

import oracles


def profile_from_counts(counts):
    n_items = len(counts)
    pairs = []
    u = 0
    for item, c in enumerate(counts):
        for _ in range(c):
            pairs.append((u % 3, item))
            u += 1
    return E.PopularityProfile.from_train(pairs, n_items)


# ---------------------------------------------------------------- hand values

def test_ndcg_hand_value():
    # k=3, two relevant items at ranks 1 and 3:
    # DCG = 1 + 1/log2(4) = 1.5, IDCG = 1 + 1/log2(3), ratio 0.91972...
    recs = {0: [10, 11, 12]}
    relevant = {0: {10, 12}}
    got = E.ndcg_at_k(recs, relevant, 3)
    dcg = 1.0 + 1.0 / np.log2(4)
    idcg = 1.0 + 1.0 / np.log2(3)
    assert got == pytest.approx(dcg / idcg, abs=1e-9)
    assert got == pytest.approx(0.9197, abs=1e-4)


def test_recall_hand_value():
    recs = {0: [1, 2, 3], 1: [4, 5, 6]}
    relevant = {0: {1, 9}, 1: {4, 5}}
    assert E.recall_at_k(recs, relevant, 3) == pytest.approx((0.5 + 1.0) / 2)


def test_efd_hand_value():
    # one user, k=1, the single slot hits an item with p = 1/8
    profile = profile_from_counts([1, 7])
    assert profile.probability(0) == pytest.approx(1 / 8)
    got = E.efd_at_k({0: [0]}, {0: {0}}, 1, profile)
    assert got == pytest.approx(3.0, abs=1e-9)


def test_efd_zero_count_smoothing():
    profile = profile_from_counts([0, 8])
    assert profile.probability(0) == pytest.approx(0.5 / 8)


def test_gini_uniform_exposure_is_one():
    recs = {u: [u] for u in range(6)}
    assert E.gini_at_k(recs, 1, 6) == pytest.approx(1.0, abs=1e-12)


def test_gini_single_item_monopoly_is_one_over_n():
    for n in (2, 5, 10):
        recs = {u: [0] for u in range(7)}
        assert E.gini_at_k(recs, 1, n) == pytest.approx(1.0 / n, abs=1e-12)


def test_gini_frozen_example():
    # counts (0, 0, 1, 1) over 4 catalog items -> 0.5
    recs = {0: [2], 1: [3]}
    assert E.gini_at_k(recs, 1, 4) == pytest.approx(0.5, abs=1e-12)


def test_aplt_plus_head_share_is_one():
    profile = profile_from_counts([9, 5, 3, 1, 0])
    recs = {0: [0, 2, 4], 1: [1, 2, 3]}
    k = 3
    aplt = E.aplt_at_k(recs, k, profile)
    head = np.mean([
        sum(1 for i in recs[u][:k] if i in profile.short_head) / k
        for u in recs
    ])
    assert aplt + head == pytest.approx(1.0, abs=1e-12)


def test_icov_percent():
    recs = {0: [0, 1], 1: [1, 2]}
    assert E.item_coverage(recs, 2, 10) == pytest.approx(30.0)


@pytest.mark.parametrize("metric,recs,k,n_items,bad", [
    (E.item_coverage, {0: [10, 11, 12]}, 3, 2, 10),
    (E.gini_at_k, {0: [12]}, 1, 10, 12),
    (E.gini_at_k, {0: [1], 1: [10]}, 1, 10, 10),
    (E.item_coverage, {0: [0, -1]}, 2, 5, -1),
    (E.gini_at_k, {0: [-3, 1]}, 2, 5, -3),
])
def test_exposure_metrics_reject_an_id_outside_the_catalog(metric, recs, k,
                                                           n_items, bad):
    with pytest.raises(ValueError, match=rf"item id {bad} outside \[0, {n_items}\)"):
        metric(recs, k, n_items)


def test_short_head_ties_by_ascending_id():
    # items 0..4 all count 2: head = ceil(1) = 1 item, the lowest id
    profile = profile_from_counts([2, 2, 2, 2, 2])
    assert profile.short_head == {0}


# ---------------------------------------------------------------- ranking

class FixedScorer:
    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float64)

    def __call__(self, users):
        return self.matrix[list(users)]


class CountingScorer(FixedScorer):
    """Records each call; asked for every row, it returns its own matrix."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.calls = []

    def __call__(self, users):
        users = list(users)
        out = self.matrix if users == list(range(len(self.matrix))) \
            else self.matrix[users]
        self.calls.append((users, out))
        return out


class EmbeddedScorer(FixedScorer):
    """A model whose embed() is (S, I): u[block] @ i.T is S[block] exactly,
    for finite S. Counts its embed() calls."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.embeds = 0

    def embed(self):
        self.embeds += 1
        return self.matrix, np.eye(self.matrix.shape[1])

    score_users = FixedScorer.__call__


def index(n_users, n_items, pairs):
    return InteractionIndex.from_pairs(n_users, n_items, pairs)


def test_rank_topk_excludes_train_items():
    scores = [[9.0, 8.0, 7.0, 6.0]]
    recs = E.rank_topk(FixedScorer(scores), [0], 2, index(1, 4, [(0, 0)]), 4)
    assert recs[0] == [1, 2]


def test_rank_topk_ties_by_ascending_id():
    scores = [[1.0, 1.0, 1.0, 2.0]]
    recs = E.rank_topk(FixedScorer(scores), [0], 3, index(1, 4, []), 4)
    assert recs[0] == [3, 0, 1]


def test_rank_topk_k_too_large_rejected():
    scores = [[1.0, 2.0, 3.0]]
    with pytest.raises(ValueError):
        E.rank_topk(FixedScorer(scores), [0], 3, index(1, 3, [(0, 0)]), 3)


def test_rank_topk_threads_agree():
    rng = np.random.default_rng(0)
    # 40 users fit one block; the larger set spans three, each scored by its
    # own score_fn call
    for n_users in (40, 2 * E.TOPK_BLOCK + 40):
        scores = rng.standard_normal((n_users, 30))
        exclude = {u: {int(rng.integers(30))} for u in range(n_users)}
        train = index(n_users, 30, [(u, i) for u, b in exclude.items() for i in b])
        original = scores.copy()
        single = E.rank_topk(FixedScorer(scores), range(n_users), 5, train, 30,
                             threads=1)
        scorer = CountingScorer(scores)  # hands rank_topk its own array
        multi = E.rank_topk(scorer, range(n_users), 5, train, 30, threads=4)
        assert single == multi
        blocks = [list(range(lo, min(lo + E.TOPK_BLOCK, n_users)))
                  for lo in range(0, n_users, E.TOPK_BLOCK)]
        assert sorted(users for users, _ in scorer.calls) == blocks
        np.testing.assert_array_equal(scores, original)
        for u, banned in exclude.items():
            original[u, list(banned)] = -np.inf
        assert multi == dict(enumerate(topk_ref(original, 5).tolist()))


def topk_ref(scores, k):
    """Per-row lexsort: descending score, ties by ascending column id."""
    ids = np.arange(scores.shape[1])
    return np.array([np.lexsort((ids, -row))[:k] for row in scores]).reshape(-1, k)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 40),
       n_cols=st.integers(1, 25), levels=st.integers(1, 6),
       inf_share=st.sampled_from([0.0, 0.2, 0.8, 1.0]),
       k_is_finite_count=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]))
@example(seed=1, n_rows=2 * E.TOPK_BLOCK + 7, n_cols=20, levels=3, inf_share=0.2,
         k_is_finite_count=True, dtype=np.float64)
@example(seed=2, n_rows=E.TOPK_BLOCK + 1, n_cols=9, levels=2, inf_share=0.5,
         k_is_finite_count=False, dtype=np.float32)
def test_topk_rows_matches_lexsort_oracle(seed, n_rows, n_cols, levels,
                                          inf_share, k_is_finite_count, dtype):
    # integer scores from a few levels tie heavily, -inf cells tie too
    rng = np.random.default_rng(seed)
    scores = rng.integers(-levels, levels, size=(n_rows, n_cols)).astype(dtype)
    scores[rng.random(scores.shape) < inf_share] = -np.inf
    finite = int(np.isfinite(scores[rng.integers(n_rows)]).sum())
    k = finite if k_is_finite_count and finite else int(rng.integers(1, n_cols + 1))
    got = E.topk_rows(scores, k)
    assert got.shape == (n_rows, k)
    np.testing.assert_array_equal(got, topk_ref(scores, k))


def test_topk_rows_block_mixes_boundary_ties_and_plain_rows():
    inf = -np.inf
    scores = np.array([
        [3.0, 1.0, 3.0, 3.0],   # three tie at the boundary: lowest ids win
        [1.0, 5.0, 2.0, 0.0],   # no tie at the boundary
        [inf, 4.0, inf, inf],   # -inf is the boundary value
        [2.0, 2.0, 1.0, 2.0],   # the whole top ties
        [0.0, inf, 7.0, inf],   # exactly k columns at or above the boundary
        [1.0, 2.0, 2.0, 9.0],   # one above the boundary, two tie on it
    ])
    got = E.topk_rows(scores, 2)
    want = [[0, 2], [1, 2], [1, 0], [0, 1], [2, 0], [3, 1]]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, topk_ref(scores, 2))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 12),
       k=st.integers(1, 4), q=st.integers(E.MIN_GROUP_SPAN, E.MIN_GROUP_SPAN + 3),
       remainder=st.booleans(), levels=st.integers(1, 6),
       dtype=st.sampled_from([np.float32, np.float64]))
@example(seed=3, n_rows=6, k=3, q=E.MIN_GROUP_SPAN, remainder=False, levels=2,
         dtype=np.float32)
@example(seed=4, n_rows=6, k=2, q=E.MIN_GROUP_SPAN, remainder=True, levels=1,
         dtype=np.float64)
def test_topk_rows_threshold_stage_matches_lexsort_oracle(seed, n_rows, k, q,
                                                          remainder, levels, dtype):
    # rows of at least MIN_GROUP_SPAN * c columns, c = GROUPS_PER_K * k:
    # column j is in group j mod c
    rng = np.random.default_rng(seed)
    c = E.GROUPS_PER_K * k
    m = q * c + (int(rng.integers(1, c)) if remainder else 0)
    group = np.arange(m) % c
    scores = rng.integers(-levels, levels, size=(n_rows, m)).astype(dtype)
    scores[:, rng.random(c)[group] < 0.3] = -np.inf  # whole groups at -inf
    for row, kind in enumerate(rng.integers(0, 4, n_rows)):
        if kind == 1:  # constant
            scores[row] = float(rng.integers(-levels, levels))
        elif kind == 2:  # finite values in fewer than k groups: t is -inf
            live = rng.choice(c, size=k - 1, replace=False)
            scores[row] = -np.inf
            scores[row, np.isin(group, live)] = rng.integers(
                -levels, levels, size=int(np.isin(group, live).sum()))
        elif kind == 3:  # the row's top ties across groups and inside one
            top = rng.choice(m, size=k + int(rng.integers(0, 3)), replace=False)
            scores[row, top] = levels
            scores[row, top[0] % c::c] = levels
    got = E.topk_rows(scores, k)
    np.testing.assert_array_equal(got, topk_ref(scores, k))
    np.testing.assert_array_equal(got, oracles.topk_rows_partition(scores, k))


@pytest.mark.parametrize("k", [10, 20])
def test_topk_rows_packed_ranking_matches_lexsort_oracle(k):
    # Office-wide rows, so the threshold stage packs candidates of uneven
    # counts (-inf padding) and one stable argsort ranks them: rows tied
    # across the boundary, constant rows, all -inf rows, rows with fewer
    # than k finite entries and rows of plain random values
    rng = np.random.default_rng(k)
    m = 2420
    scores = rng.integers(-3, 3, size=(64, m)).astype(np.float32)  # heavy ties
    scores[8:16] = rng.standard_normal((8, m))
    scores[16:20] = 1.5
    scores[20:24] = -np.inf
    scores[24:32] = -np.inf
    scores[24:32, rng.choice(m, size=k - 3, replace=False)] = 2.0
    scores[32:40, rng.choice(m, size=k + 5, replace=False)] = 7.0
    scores[40:48][rng.random((8, m)) < 0.7] = -np.inf
    got = E.topk_rows(scores, k)
    np.testing.assert_array_equal(got, topk_ref(scores, k))


def test_topk_rows_equals_single_stage_partition_on_ranking_and_knn_blocks():
    rng = np.random.default_rng(17)
    block = rng.standard_normal((E.TOPK_BLOCK, 2420)).astype(np.float32)
    block[rng.random(block.shape) < 0.01] = -np.inf  # excluded train items
    np.testing.assert_array_equal(E.topk_rows(block, 20),
                                  oracles.topk_rows_partition(block, 20))
    sims = rng.standard_normal((E.TOPK_BLOCK, 2420))
    sims[np.arange(E.TOPK_BLOCK), np.arange(E.TOPK_BLOCK)] = -np.inf
    np.testing.assert_array_equal(E.topk_rows(sims, 10),
                                  oracles.topk_rows_partition(sims, 10))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("width", [4, 3 * E.MIN_GROUP_SPAN * E.GROUPS_PER_K])
def test_topk_rows_rejects_a_row_holding_nan(k, width):
    # narrow rows are ranked whole, wide ones by the threshold stage
    scores = np.tile(np.arange(width, dtype=np.float64), (3, 1))
    scores[1, 0] = np.nan
    scores[2, [1, 2]] = np.nan
    with pytest.raises(ValueError, match="scores row 1 holds NaN"):
        E.topk_rows(scores, k)


def test_rank_topk_rejects_nan_scores_unless_excluded():
    scores = np.array([[1.0, 2.0, 3.0, 4.0], [np.nan, 1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="scores row 1 holds NaN"):
        E.rank_topk(FixedScorer(scores), [0, 1], 2, index(2, 4, []), 4)
    # a train item's score is never ranked
    recs = E.rank_topk(FixedScorer(scores), [0, 1], 2, index(2, 4, [(1, 0)]), 4)
    assert recs == {0: [3, 2], 1: [3, 2]}


def test_rank_topk_never_recommends_an_excluded_item_past_a_neg_inf_score():
    # the -inf candidate ties with the masked train item 0, which has the
    # lower id and would be ranked second
    scores = np.array([[-np.inf, -np.inf, 1.0]])
    with pytest.raises(ValueError, match="user 0 has a candidate scored -inf"):
        E.rank_topk(lambda us: scores[us], [0], 2, index(1, 3, [(0, 0)]), 3)
    # a -inf candidate below the top-k ranks nothing wrong
    recs = E.rank_topk(lambda us: scores[us], [0], 1, index(1, 3, [(0, 0)]), 3)
    assert recs == {0: [2]}


def own_rows(matrix):
    """A scorer that hands over rows of its own array, as views."""
    return lambda users: matrix[users[0]:users[-1] + 1]


@pytest.mark.parametrize("bad, message", [
    (np.nan, "scores row 1 holds NaN"),
    (-np.inf, "user 1 has a candidate scored -inf"),
])
def test_rank_topk_restores_the_scorers_array_when_it_raises(bad, message):
    # rank_topk masks the scorer's own writeable block in place; the
    # excluded entries, distinct values and a NaN among them, come back
    n_users, n_items = E.TOPK_BLOCK + 2, 6
    scores = np.random.default_rng(2).standard_normal((n_users, n_items))
    scores[:, 0] = np.nan
    scores[1, 1:] = bad  # user 1 ranks two of these, in block 0
    train = index(n_users, n_items, [(u, i) for u in range(n_users)
                                     for i in (0, 4, 5)])
    original = scores.copy()
    with pytest.raises(ValueError, match=message):
        E.rank_topk(own_rows(scores), range(n_users), 2, train, n_items)
    assert scores.tobytes() == original.tobytes()


@pytest.mark.parametrize("kind", ["integer", "read-only"])
def test_rank_topk_copies_integer_and_read_only_blocks(kind):
    rng = np.random.default_rng(4)
    n_users, n_items = 2 * E.TOPK_BLOCK + 7, 30
    scores = rng.integers(-4, 4, size=(n_users, n_items))
    if kind == "read-only":
        scores = scores.astype(np.float32)
        scores.flags.writeable = False
    original = scores.copy()
    pairs = np.stack([rng.integers(0, n_users, 900), rng.integers(0, n_items, 900)], 1)
    train = index(n_users, n_items, pairs)
    got = E.rank_topk(own_rows(scores), range(n_users), 5, train, n_items, threads=2)
    want = E.rank_topk(lambda us: scores[us].astype(np.float64), range(n_users), 5,
                       train, n_items)
    np.testing.assert_array_equal(got.top, want.top)
    assert got.scores.dtype == scores.dtype
    np.testing.assert_array_equal(got.scores, want.scores)
    assert scores.tobytes() == original.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_users=st.integers(1, 40),
       n_items=st.integers(1, 20), levels=st.integers(1, 5),
       k_is_min_candidates=st.booleans(), threads=st.sampled_from([1, 4]))
@example(seed=5, n_users=2 * E.TOPK_BLOCK + 9, n_items=12, levels=3,
         k_is_min_candidates=True, threads=4)
@example(seed=6, n_users=2 * E.TOPK_BLOCK + 9, n_items=12, levels=3,
         k_is_min_candidates=True, threads=1)
def test_rank_topk_index_exclusion_matches_per_user_fill(
        seed, n_users, n_items, levels, k_is_min_candidates, threads):
    rng = np.random.default_rng(seed)
    scores = rng.integers(-levels, levels, size=(n_users, n_items)).astype(np.float64)
    n_pairs = int(rng.integers(0, n_users * n_items // 2 + 1))
    pairs = np.stack([rng.integers(0, n_users, n_pairs),
                      rng.integers(0, n_items, n_pairs)], axis=1)
    pairs = pairs[pairs[:, 0] % 3 != 0]  # users 0, 3, 6, ... have no train item
    pairs = np.vstack([pairs, pairs[:len(pairs) // 3]])  # duplicate pairs
    train = oracles.user_positives_loop(pairs)
    users = rng.permutation(n_users)[:max(1, n_users - int(rng.integers(3)))].tolist()
    left = [n_items - len(train.get(u, ())) for u in users]
    # at the minimum, one user is left with exactly k candidates
    k = min(left) if k_is_min_candidates else int(rng.integers(1, n_items + 1))
    if k < 1 or k > min(left):
        k = max(k, 1)
        row = next(r for r, n in enumerate(left) if n < k)
        with pytest.raises(ValueError, match=f"user {users[row]} has only "
                                             f"{left[row]} candidates"):
            E.rank_topk(FixedScorer(scores), users, k, index(n_users, n_items, pairs),
                        n_items, threads=threads)
        return
    got = E.rank_topk(FixedScorer(scores), users, k, index(n_users, n_items, pairs),
                      n_items, threads=threads)
    filled = scores[users]
    for row, u in enumerate(users):
        filled[row, sorted(train.get(u, ()))] = -np.inf
    assert got == dict(zip(users, topk_ref(filled, k).tolist()))


def test_metrics_sum_users_in_first_appearance_order():
    # relevance read from the index iterates users as the pair-by-pair dicts
    # did, so the float sums behind each metric are bit-identical
    from fusionrec import dataset as D

    syn = D.generate_synthetic(120, 60, 0.1, seed=3).dataset
    rows = np.random.default_rng(0).permutation(syn.n_interactions)
    ds = D.Dataset(syn.user_ids, syn.item_ids, syn.interactions[rows],
                   syn.ratings[rows], syn.timestamps[rows])
    split = D.holdout_split(ds, seed=5)
    model = EmbeddedScorer(
        np.random.default_rng(1).standard_normal((ds.n_users, ds.n_items)))
    train = split.user_positives("train")
    for part in ("validation", "test"):
        relevant = oracles.user_positives_loop(getattr(split, part))
        assert list(relevant) != sorted(relevant)
        recs = E.rank_topk(model.score_users, sorted(relevant), 20, train,
                           ds.n_items)
        assert E.recall_eval_fn(split, part, k=20)(model) == \
            E.recall_at_k(recs, relevant, 20)
        profile = E.PopularityProfile.from_train(split.train, ds.n_items)
        report, _ = E.evaluate_model(model, split, part)
        assert report.values == E.evaluate_lists(recs, relevant, profile).values


def test_rank_topk_float32_ranks_as_its_float64_cast():
    # float32 blocks are ranked as float32; the exact cast keeps order and ties
    rng = np.random.default_rng(11)
    n_users, n_items = 2 * E.TOPK_BLOCK + 9, 40
    scores = rng.integers(-3, 3, size=(n_users, n_items)).astype(np.float32)
    scores[:, ::3] += rng.standard_normal((n_users, 14)).astype(np.float32) * 1e-6
    pairs = np.stack([rng.integers(0, n_users, 600), rng.integers(0, n_items, 600)], 1)
    train, users = index(n_users, n_items, pairs), rng.permutation(n_users).tolist()
    got = E.rank_topk(lambda us: scores[us], users, 10, train, n_items)
    want = E.rank_topk(lambda us: scores[us].astype(np.float64), users, 10, train,
                       n_items)
    assert got.scores.dtype == np.float32
    np.testing.assert_array_equal(got.top, want.top)
    np.testing.assert_array_equal(got.scores.astype(np.float64), want.scores)


def test_evaluate_model_scores_ranks_and_measures_once(monkeypatch):
    # the benchmark's traced layers read these calls, once per evaluation:
    # one embed(), then rank_topk scores its blocks from it
    from fusionrec import dataset as D

    split = D.holdout_split(D.generate_synthetic(60, 40, 0.2, seed=4).dataset,
                            seed=2)
    counts = {"rank_topk": 0, "evaluate_lists": 0}
    for name in counts:
        def counted(*args, _fn=getattr(E, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(E, name, counted)
    model = EmbeddedScorer(np.random.default_rng(3).standard_normal((60, 40)))
    E.evaluate_model(model, split, "test")
    assert counts == {"rank_topk": 1, "evaluate_lists": 1}
    assert model.embeds == 1


def test_split_builds_each_part_index_once(monkeypatch):
    # evaluate_model, recall_eval_fn and TrainData.from_split read the
    # split's memoized indexes
    from fusionrec import dataset as D
    from fusionrec import training as tr

    split = D.holdout_split(D.generate_synthetic(60, 40, 0.2, seed=4).dataset,
                            seed=2)
    built = []
    from_pairs = D.InteractionIndex.from_pairs

    def counted(n_users, n_items, pairs):
        built.append(len(pairs))
        return from_pairs(n_users, n_items, pairs)

    monkeypatch.setattr(D.InteractionIndex, "from_pairs", counted)
    model = EmbeddedScorer(np.random.default_rng(3).standard_normal((60, 40)))
    first, ranking = E.evaluate_model(model, split, "test")
    second, again = E.evaluate_model(model, split, "test")
    assert built == [len(split.test), len(split.train)]
    assert first.values == second.values
    np.testing.assert_array_equal(ranking.top, again.top)
    E.recall_eval_fn(split, "test")(model)
    assert len(built) == 2
    tdata = tr.TrainData.from_split(split)
    assert len(built) == 2
    assert tdata.keys is split.user_positives("train").keys


def test_write_recommendations_scores_once_from_one_call(tmp_path):
    # the ranking pass's one embed() supplies the score column
    from fusionrec import dataset as D

    split = D.holdout_split(D.generate_synthetic(60, 40, 0.2, seed=4).dataset,
                            seed=2)
    rng = np.random.default_rng(4)
    u, i = (rng.standard_normal((n, 4)).astype(np.float32) for n in (60, 40))
    embeds = []

    class Model:
        def embed(self):
            embeds.append(1)
            return u, i

    _, recs = E.evaluate_model(Model(), split, "test", cutoffs=(2,))
    path = tmp_path / "recommendations.tsv"
    E.write_recommendations_tsv(recs, path)
    assert len(embeds) == 1
    users, matrix = recs.users.tolist(), u[recs.users] @ i.T
    assert recs.scores.dtype == matrix.dtype
    for row, user in enumerate(users):
        np.testing.assert_array_equal(recs.scores[row], matrix[row, recs[user]])
    want = [f"{user}\t{item}\t{r}\t{float(matrix[row, item]):.6f}"
            for row, user in enumerate(users)
            for r, item in enumerate(recs[user], start=1)]
    assert path.read_text().splitlines() == want


# ---------------------------------------------------------------- oracle sweep

def random_instance(rng):
    n_users = int(rng.integers(2, 51))
    n_items = int(rng.integers(10, 101))
    k = int(rng.integers(1, min(10, n_items) + 1))
    recs = {}
    relevant = {}
    for u in range(n_users):
        perm = rng.permutation(n_items)
        recs[u] = perm[:k].tolist()
        n_rel = int(rng.integers(0, 6))
        relevant[u] = set(rng.choice(n_items, size=n_rel, replace=False).tolist())
    n_pairs = int(rng.integers(n_users, n_users * 4))
    train_pairs = [(int(rng.integers(n_users)), int(rng.integers(n_items)))
                   for _ in range(n_pairs)]
    return n_items, k, recs, relevant, train_pairs


def test_metrics_match_bruteforce_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n_items, k, recs, relevant, train_pairs = random_instance(rng)
        profile = E.PopularityProfile.from_train(train_pairs, n_items)
        counts = {}
        for _, i in train_pairs:
            counts[i] = counts.get(i, 0) + 1
        catalog = list(range(n_items))
        assert E.recall_at_k(recs, relevant, k) == pytest.approx(
            oracles.recall_ref(recs, relevant, k), abs=1e-9)
        assert E.ndcg_at_k(recs, relevant, k) == pytest.approx(
            oracles.ndcg_ref(recs, relevant, k), abs=1e-9)
        assert E.efd_at_k(recs, relevant, k, profile) == pytest.approx(
            oracles.efd_ref(recs, relevant, k, counts, len(train_pairs)), abs=1e-9)
        assert E.gini_at_k(recs, k, n_items) == pytest.approx(
            oracles.gini_ref(recs, k, catalog), abs=1e-9)
        assert E.aplt_at_k(recs, k, profile) == pytest.approx(
            oracles.aplt_ref(recs, k, profile.long_tail), abs=1e-9)
        assert E.item_coverage(recs, k, n_items) == pytest.approx(
            oracles.icov_ref(recs, k, n_items), abs=1e-9)
        assert profile.short_head == oracles.short_head_ref(counts, catalog)


def test_exposure_metrics_bitwise_equal_per_entry_loops():
    rng = np.random.default_rng(77)
    cases = [({}, 3, 5)]
    for _ in range(40):
        n_items = int(rng.integers(1, 300))
        k = int(rng.integers(1, 25))
        recs = {int(u): rng.integers(0, n_items, size=int(rng.integers(0, k + 5))).tolist()
                for u in rng.choice(1000, size=int(rng.integers(1, 200)), replace=False)}
        cases.append((recs, k, n_items))
    for recs, k, n_items in cases:
        assert E.gini_at_k(recs, k, n_items) == oracles.gini_loop(recs, k, n_items)
        assert E.item_coverage(recs, k, n_items) == oracles.icov_ref(recs, k, n_items)


def loop_battery(recs, relevant, profile, cutoffs):
    """The six metrics as per-user loops over sets, summing left to right:
    the reference the array path must equal bit for bit."""
    values = {}
    for k in cutoffs:
        disc = [1.0 / math.log2(r + 1) for r in range(1, k + 1)]
        recall, ndcg, efd = [], [], []
        for u, rel in relevant.items():
            if not rel:
                continue
            top = recs[u][:k]
            recall.append(len(set(top) & rel) / len(rel))
            ndcg.append(sum(disc[r] for r, i in enumerate(top) if i in rel)
                        / sum(disc[:min(k, len(rel))]))
            efd.append(1.0 / sum(disc) * sum(
                disc[r] * -math.log2(profile.probability(i))
                for r, i in enumerate(top) if i in rel))
        aplt = [sum(i in profile.long_tail for i in recs[u][:k]) / k for u in recs]
        mean = lambda vals: float(np.mean(vals)) if vals else 0.0  # noqa: E731
        values.update({
            ("recall", k): mean(recall), ("ndcg", k): mean(ndcg),
            ("efd", k): mean(efd), ("aplt", k): mean(aplt),
            ("gini", k): oracles.gini_loop(recs, k, profile.n_items),
            ("icov", k): oracles.icov_ref(recs, k, profile.n_items)})
    return values


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_users=st.integers(1, 60),
       n_items=st.integers(6, 40), levels=st.integers(1, 4))
@example(seed=0, n_users=E.TOPK_BLOCK + 3, n_items=12, levels=2)
def test_evaluate_lists_bitwise_equals_per_user_loops(seed, n_users, n_items,
                                                      levels):
    # lists from ranking heavily tied scores (ties at the k boundary), users
    # in shuffled order, some with no relevant item and many with fewer than k
    rng = np.random.default_rng(seed)
    scores = rng.integers(-levels, levels, size=(n_users, n_items)).astype(np.float64)
    train = np.stack([np.arange(n_users), rng.integers(0, n_items, n_users)], 1)
    users = rng.permutation(n_users).tolist()
    k_max = int(rng.integers(1, n_items))
    cutoffs = tuple(sorted({int(rng.integers(1, k_max + 1)), k_max}))
    ranking = E.rank_topk(FixedScorer(scores), users, k_max,
                          index(n_users, n_items, train), n_items)
    # relevant: none, a few, or many of the user's own list, so that rows
    # hold enough hits for the summation order to matter
    relevant = {u: set(rng.choice(n_items, size=int(rng.integers(0, 5)),
                                  replace=False).tolist())
                | set(ranking[u][:int(rng.integers(0, k_max + 1))]) for u in users}
    profile = E.PopularityProfile.from_train(train, n_items)
    want = loop_battery(ranking, relevant, profile, cutoffs)
    assert E.evaluate_lists(dict(ranking), relevant, profile, cutoffs).values == want
    order = np.array([u for u in users if relevant[u]], dtype=np.int64)
    part = E.Relevance(index(n_users, n_items, [(u, i) for u in order.tolist()
                                                for i in relevant[u]]), order)
    assert E.evaluate_lists(ranking, part, profile, cutoffs).values == want


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_gini_property_random(seed):
    rng = np.random.default_rng(seed)
    n_items = int(rng.integers(2, 40))
    recs = {u: rng.permutation(n_items)[:1].tolist() for u in range(5)}
    got = E.gini_at_k(recs, 1, n_items)
    assert 0.0 <= got <= 1.0


def test_judged_finds_each_users_row_and_rejects_an_unranked_user():
    ranking = E.Ranking(np.array([4, 1, 7]), np.array([[0], [1], [2]]),
                        np.zeros((3, 1)))
    train = index(10, 3, [(1, 1), (7, 0)])
    judged = E._judged(ranking, E.Relevance(train, np.array([7, 1])), 1)
    assert judged.items.tolist() == [[2], [1]]
    assert judged.hits.tolist() == [[False], [True]]
    for missing in (0, 5, 9):  # below, between and above the ranked users
        with pytest.raises(KeyError, match=str(missing)):
            E._judged(ranking, E.Relevance(train, np.array([7, missing])), 1)
    empty = E.Ranking(np.zeros(0, np.int64), np.zeros((0, 1), np.int64),
                      np.zeros((0, 1)))
    with pytest.raises(KeyError, match="7"):
        E._judged(empty, E.Relevance(train, np.array([7])), 1)


def test_evaluate_lists_covers_all_metrics():
    profile = profile_from_counts([3, 2, 1, 0])
    recs = {0: [0, 1], 1: [2, 3]}
    relevant = {0: {1}, 1: {2}}
    report = E.evaluate_lists(recs, relevant, profile, cutoffs=(1, 2))
    for metric in E.METRIC_ORDER:
        for k in (1, 2):
            assert (metric, k) in report.values


def test_recall_eval_fn_never_holds_a_users_by_items_matrix():
    # blocks of TOPK_BLOCK users are scored and ranked one at a time
    import tracemalloc
    from fusionrec import dataset as D

    n_users, n_items = 12 * E.TOPK_BLOCK, 1000
    users = np.arange(n_users)
    ds = D.Dataset(list(range(n_users)), list(range(n_items)),
                   np.zeros((0, 2), np.int64), np.zeros(0), np.zeros(0))
    split = D.Split(ds, np.stack([users, users % n_items], 1),
                    np.stack([users, (7 * users + 1) % n_items], 1),
                    np.zeros((0, 2), np.int64), seed=0)
    rng = np.random.default_rng(8)
    u, i = (rng.standard_normal((n, 8)).astype(np.float32)
            for n in (n_users, n_items))
    model = type("M", (), {"embed": lambda self: (u, i),
                           "score_users": lambda self, us: u[us] @ i.T})()
    recall = E.recall_eval_fn(split, "validation")
    tracemalloc.start()
    try:
        value = recall(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 <= value <= 1.0
    assert peak < n_users * n_items * u.itemsize / 2


def test_rank_topk_holds_one_masked_copy_and_one_mask_per_block():
    # beyond the scorer's own block: its masked copy, the boolean mask of
    # the threshold stage (a quarter of a float32 block) and small arrays;
    # a full-row partition copy alone would add another block
    import tracemalloc

    n_users, n_items = 2 * E.TOPK_BLOCK, 4000
    rng = np.random.default_rng(9)
    u, i = (rng.standard_normal((n, 8)).astype(np.float32)
            for n in (n_users, n_items))
    train = index(n_users, n_items, [(x, 3 * x % n_items) for x in range(n_users)])
    block = E.TOPK_BLOCK * n_items * u.itemsize
    tracemalloc.start()
    try:
        ranking = E.rank_topk(lambda us: u[us] @ i.T, range(n_users), 20, train,
                              n_items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranking.top.shape == (n_users, 20)
    assert peak < 2.5 * block


def test_rank_topk_masks_a_fresh_block_in_place():
    # beyond the scorer's own float32 block: the boolean mask of the
    # threshold stage (a quarter of a block) and small arrays; a masked
    # copy would add another block
    from test_models import traced_peak

    n_users, n_items = 3 * E.TOPK_BLOCK, 4001
    rng = np.random.default_rng(10)
    u, i = (rng.standard_normal((n, 8)).astype(np.float32)
            for n in (n_users, n_items))
    train = index(n_users, n_items, [(x, 5 * x % n_items) for x in range(n_users)])
    block = E.TOPK_BLOCK * n_items * u.itemsize
    assert traced_peak(lambda: E.rank_topk(lambda us: u[us] @ i.T, range(n_users),
                                           20, train, n_items)) < 1.75 * block
