"""Interaction parsing, k-core, holdout splits, stats, synthetic data."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionrec import dataset as D

from oracles import (holdout_loop, kcore_bruteforce, kcore_filter_loop,
                     user_positives_loop)


def make_dataset(pairs):
    log = D.InteractionLog([(f"u{u}", f"i{i}", 1.0, 0) for u, i in pairs])
    return D.index_log(log)


# ---------------------------------------------------------------- parsing

def test_parse_minimal_two_columns():
    log = D.parse_interactions(["a\tx\n", "b\ty\n"])
    assert len(log) == 2
    assert log.records[0] == ("a", "x", 1.0, 0)


def test_parse_full_four_columns():
    log = D.parse_interactions(["a\tx\t4.5\t123\n"])
    assert log.records[0] == ("a", "x", 4.5, 123)


def test_parse_duplicate_keeps_latest_timestamp():
    log = D.parse_interactions(["a\tx\t1\t5\n", "a\tx\t2\t9\n", "a\tx\t3\t7\n"])
    assert len(log) == 1
    assert log.records[0] == ("a", "x", 2.0, 9)


def test_parse_malformed_line_names_line_number():
    with pytest.raises(D.InteractionFormatError, match="line 2"):
        D.parse_interactions(["a\tx\n", "only-one-field\n"])


def test_parse_bad_rating_names_line_number():
    with pytest.raises(D.InteractionFormatError, match="line 1"):
        D.parse_interactions(["a\tx\tnot-a-number\n"])


# ---------------------------------------------------------------- k-core

def test_kcore_hand_example():
    # one user with 5 items, the items shared by 4 other heavy users
    pairs = [(u, i) for u in range(5) for i in range(5)]
    ds = make_dataset(pairs)
    out = D.k_core_filter(ds, k=5)
    assert out.n_interactions == 25


def test_kcore_cascading_removal():
    # removing a weak item drops a user below threshold, which cascades
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    ds = make_dataset(pairs)
    out = D.k_core_filter(ds, k=2)
    expected = kcore_bruteforce([(f"u{u}", f"i{i}") for u, i in pairs], 2)
    assert out.n_interactions == len(expected)


def test_kcore_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        D.k_core_filter(make_dataset([(0, 0)]), k=0)


def test_kcore_empty_result_rejected():
    ds = make_dataset([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        D.k_core_filter(ds, k=3)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1,
             max_size=50, unique=True),
    st.integers(1, 4),
)
def test_kcore_matches_bruteforce(pairs, k):
    expected = set(kcore_bruteforce([(f"u{u}", f"i{i}") for u, i in pairs], k))
    ds = make_dataset(pairs)
    try:
        out = D.k_core_filter(ds, k=k)
    except ValueError:
        assert not expected
        return
    got = {(out.user_ids[u], out.item_ids[i]) for u, i in out.interactions}
    assert got == expected
    # fixpoint: every survivor has degree >= k on both sides
    s = D.stats(out)
    assert s.min_user_degree >= k and s.min_item_degree >= k


# ---------------------------------------------------------------- splits

def test_split_counts_user_with_ten():
    pairs = [(0, i) for i in range(10)]
    ds = make_dataset(pairs)
    sp = D.holdout_split(ds, seed=1)
    assert sp.train.shape[0] == 8
    assert sp.validation.shape[0] == 1
    assert sp.test.shape[0] == 1


def test_split_counts_user_with_five():
    pairs = [(0, i) for i in range(5)]
    ds = make_dataset(pairs)
    sp = D.holdout_split(ds, seed=1)
    assert sp.train.shape[0] == 4
    assert sp.validation.shape[0] == 1
    assert sp.test.shape[0] == 0


def test_split_single_interaction_goes_to_train():
    ds = make_dataset([(0, 0)])
    sp = D.holdout_split(ds, seed=3)
    assert sp.train.shape[0] == 1
    assert sp.validation.shape[0] == 0 and sp.test.shape[0] == 0


def test_split_deterministic_and_seed_sensitive():
    pairs = [(u, i) for u in range(6) for i in range(9)]
    ds = make_dataset(pairs)
    a = D.holdout_split(ds, seed=11)
    b = D.holdout_split(ds, seed=11)
    c = D.holdout_split(ds, seed=12)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.validation, b.validation)
    assert not np.array_equal(a.train, c.train)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 11)), min_size=1,
                max_size=60, unique=True),
       st.integers(0, 2**31 - 1))
def test_split_partitions_exactly(pairs, seed):
    ds = make_dataset(pairs)
    sp = D.holdout_split(ds, seed=seed)
    parts = [set(map(tuple, p)) for p in (sp.train, sp.validation, sp.test)]
    union = parts[0] | parts[1] | parts[2]
    assert len(union) == ds.n_interactions
    assert len(parts[0]) + len(parts[1]) + len(parts[2]) == ds.n_interactions
    # per-user arithmetic: floor(0.8n) min 1 in train, ceil(half rest) in val
    for u in range(ds.n_users):
        n = sum(1 for uu, _ in ds.interactions if uu == u)
        n_train = sum(1 for uu, _ in sp.train if uu == u)
        n_val = sum(1 for uu, _ in sp.validation if uu == u)
        n_test = sum(1 for uu, _ in sp.test if uu == u)
        assert n_train == max(1, int(np.floor(0.8 * n)))
        held = n - n_train
        assert n_val == int(np.ceil(held / 2))
        assert n_test == held - n_val


def test_split_bad_ratio_rejected():
    ds = make_dataset([(0, 0)])
    with pytest.raises(ValueError):
        D.holdout_split(ds, seed=0, train_ratio=1.0)


def random_log(seed, n_users, n_items, n_pairs):
    """Dataset with shuffled string ids, duplicate pairs, zero-degree ids,
    and distinct ratings and timestamps per row."""
    rng = np.random.default_rng(seed)
    inter = np.stack([rng.integers(0, n_users, n_pairs),
                      rng.integers(0, n_items, n_pairs)], axis=1)
    return D.Dataset([f"u{x}" for x in rng.permutation(n_users)],
                     [f"i{x}" for x in rng.permutation(n_items)], inter,
                     rng.random(n_pairs).astype(np.float32),
                     rng.integers(0, 10**6, n_pairs))


def chain_log():
    """A 3 x 3 block that is a 2-core, plus a user-item path whose ends have
    degree 1: 2-core filtering eats the path from both ends, round by round."""
    pairs = [(u, i) for u in range(3) for i in range(3)]
    for j in range(8):
        pairs += [(10 + j, 10 + j), (10 + j, 11 + j)]
    rng = np.random.default_rng(0)
    pairs = [pairs[n] for n in rng.permutation(len(pairs))]
    return make_dataset(pairs)


def assert_kcore_matches_loop(ds, k):
    try:
        want = kcore_filter_loop(ds, k)
    except ValueError:
        with pytest.raises(ValueError, match="removed every interaction"):
            D.k_core_filter(ds, k)
        return
    got = D.k_core_filter(ds, k)
    assert got.user_ids == want[0] and got.item_ids == want[1]
    for g, w in zip((got.interactions, got.ratings, got.timestamps), want[2:]):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def assert_holdout_matches_loop(ds, seed, ratio):
    got = D.holdout_split(ds, seed, ratio)
    for g, w in zip((got.train, got.validation, got.test),
                    holdout_loop(ds, seed, ratio)):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


def test_kcore_multi_round_cascade_matches_loop():
    ds = chain_log()
    pairs = ds.interactions.tolist()
    ucnt = Counter(u for u, _ in pairs)
    icnt = Counter(i for _, i in pairs)
    one_round = [(u, i) for u, i in pairs if ucnt[u] >= 2 and icnt[i] >= 2]
    assert len(one_round) == len(pairs) - 2  # the path's two ends only
    assert_kcore_matches_loop(ds, 2)
    out = D.k_core_filter(ds, 2)
    assert out.n_interactions == 9 and out.n_users == 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_users=st.integers(1, 30),
       n_items=st.integers(1, 30), n_pairs=st.integers(0, 150),
       k=st.integers(1, 5), ratio=st.sampled_from([0.3, 0.5, 0.8, 0.9]))
def test_kcore_and_holdout_match_loops(seed, n_users, n_items, n_pairs, k, ratio):
    ds = random_log(seed, n_users, n_items, n_pairs)
    assert_kcore_matches_loop(ds, k)
    assert_holdout_matches_loop(ds, seed, ratio)


# ---------------------------------------------------------------- stats

def test_sparsity_small_example():
    # 3 users x 4 items with 6 interactions -> 50%
    assert D.sparsity_percent(3, 4, 6) == pytest.approx(50.0)


def test_stats_on_dataset():
    pairs = [(0, 0), (0, 1), (1, 0)]
    s = D.stats(make_dataset(pairs))
    assert s.n_users == 2 and s.n_items == 2 and s.n_interactions == 3
    assert s.sparsity_percent == pytest.approx(25.0)
    assert s.min_user_degree == 1 and s.min_item_degree == 1


def test_stats_skips_zero_degree_ids():
    ds = D.generate_synthetic(40, 30, 0.03, seed=1).dataset
    ucnt = Counter(ds.interactions[:, 0].tolist())
    icnt = Counter(ds.interactions[:, 1].tolist())
    assert len(ucnt) < ds.n_users  # some users have no interaction
    assert D.stats(ds) == D.DatasetStats(
        ds.n_users, ds.n_items, ds.n_interactions,
        D.sparsity_percent(ds.n_users, ds.n_items, ds.n_interactions),
        min(ucnt.values()), min(icnt.values()))


# ---------------------------------------------------------------- index

@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9)), max_size=40),
       st.sampled_from(["train", "validation", "test"]))
def test_interaction_index_mapping_reads_match_pair_sets(pairs, part):
    ds = make_dataset([(u, i) for u in range(7) for i in range(10)])
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    split = D.Split(ds, pairs[:0], pairs[:0], pairs[:0], seed=0)
    setattr(split, part, pairs)  # duplicates included
    index = split.user_positives(part)
    want = user_positives_loop(pairs)
    assert list(index) == sorted(want)
    assert dict(index.items()) == want
    assert len(index) == len(want)
    for u in range(-1, ds.n_users + 1):
        assert (u in index) == (u in want)
        assert index.get(u) == want.get(u)
        assert index.get(u, ()) == want.get(u, ())
        if u in want:
            assert index[u] == want[u]
            assert all(type(i) is int for i in index[u])
        else:
            with pytest.raises(KeyError):
                index[u]


def test_interaction_index_empty_part():
    index = D.InteractionIndex.from_pairs(3, 4, np.empty((0, 2), np.int64))
    assert len(index) == 0 and list(index) == [] and 0 not in index
    users = np.repeat(np.arange(3), 4)
    items = np.tile(np.arange(4), 3)
    assert not index.contains(users, items).any()
    assert index.indptr.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (3, 0), (0, 4)])
def test_interaction_index_rejects_out_of_range_ids(pair):
    with pytest.raises(ValueError, match="out of range"):
        D.InteractionIndex.from_pairs(3, 4, [(0, 0), pair])


# ---------------------------------------------------------------- synthetic

def test_synthetic_reproducible():
    a = D.generate_synthetic(20, 40, 0.1, seed=5)
    b = D.generate_synthetic(20, 40, 0.1, seed=5)
    assert np.array_equal(a.dataset.interactions, b.dataset.interactions)
    for m in a.features:
        assert np.array_equal(a.features[m], b.features[m])


def test_synthetic_seed_changes_output():
    a = D.generate_synthetic(20, 40, 0.1, seed=5)
    b = D.generate_synthetic(20, 40, 0.1, seed=6)
    assert not np.array_equal(a.dataset.interactions, b.dataset.interactions)


def test_synthetic_density_hits_target():
    syn = D.generate_synthetic(50, 100, 0.05, seed=0)
    # 5% of 5000 cells = 250, quantile thresholding is exact up to ties
    assert abs(syn.dataset.n_interactions - 250) <= 5


def test_synthetic_noiseless_is_separable():
    syn = D.generate_synthetic(30, 60, 0.08, seed=2, noise=0.0)
    pos = {u: set() for u in range(30)}
    for u, i in syn.dataset.interactions:
        pos[int(u)].add(int(i))
    for u in range(30):
        if not pos[u]:
            continue
        worst_pos = min(syn.affinity[u, sorted(pos[u])])
        negs = [i for i in range(60) if i not in pos[u]]
        best_neg = max(syn.affinity[u, negs])
        assert worst_pos > best_neg


def test_synthetic_infeasible_density_rejected():
    with pytest.raises(ValueError):
        D.generate_synthetic(10, 10, 0.0001, seed=0)
    with pytest.raises(ValueError):
        D.generate_synthetic(10, 10, 1.5, seed=0)


# ---------------------------------------------------------------- io round trip

def test_write_and_reparse_round_trip(tmp_path):
    syn = D.generate_synthetic(10, 20, 0.15, seed=9)
    path = tmp_path / "interactions.tsv"
    ds = syn.dataset
    path.write_text("".join(
        f"{ds.user_ids[u]}\t{ds.item_ids[i]}\t{r:g}\t{t}\n"
        for (u, i), r, t in zip(ds.interactions, ds.ratings, ds.timestamps)))
    ds2 = D.index_log(D.parse_interactions(path))
    assert ds2.n_interactions == syn.dataset.n_interactions
    assert ds2.user_ids == syn.dataset.user_ids[: ds2.n_users]


def test_write_split_manifest(tmp_path):
    ds = make_dataset([(u, i) for u in range(3) for i in range(7)])
    sp = D.holdout_split(ds, seed=4)
    D.write_split(sp, tmp_path)
    assert (tmp_path / "train.tsv").exists()
    assert (tmp_path / "validation.tsv").exists()
    assert (tmp_path / "test.tsv").exists()
    import json
    sidecar = json.loads((tmp_path / "split.json").read_text())
    assert sidecar["seed"] == 4
    assert sidecar["n_train"] + sidecar["n_validation"] + sidecar["n_test"] == 21


def test_write_split_bytes_match_per_pair_lines(tmp_path):
    users, items = ["ü1", "用户", "u 3"], ["é", "i\u00a02", "☕", "x"]
    pairs = np.array([(0, 0), (2, 3), (1, 1), (0, 2), (1, 0)], dtype=np.int64)
    ds = D.Dataset(users, items, pairs, np.ones(5, np.float32), np.zeros(5, np.int64))
    parts = {"train": pairs[:3], "validation": pairs[3:],
             "test": np.zeros((0, 2), dtype=np.int64)}
    D.write_split(D.Split(ds, seed=0, **parts), tmp_path)
    for name, part in parts.items():
        expected = "".join(f"{users[u]}\t{items[i]}\n" for u, i in part)
        assert (tmp_path / f"{name}.tsv").read_bytes() == expected.encode("utf-8")
    assert (tmp_path / "test.tsv").read_bytes() == b""
