"""Feature file formats, item binding, missing-feature policies."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionrec import modality as M

from oracles import bind_loop, load_features_loop


def sample_feats(n=3, dim=4, modality="visual", seed=0):
    rng = np.random.default_rng(seed)
    return M.ModalityFeatures(
        modality, dim, [f"i{k}" for k in range(n)],
        rng.standard_normal((n, dim)).astype(np.float32),
    )


# ------------------------------------------------------------- binary io

def test_binary_round_trip(tmp_path):
    feats = sample_feats()
    path = tmp_path / "vis.bin"
    M.write_features(feats, path)
    back = M.load_features(path)
    assert back.modality == "visual" and back.dim == 4
    assert back.ids == feats.ids
    np.testing.assert_array_equal(back.matrix, feats.matrix)


def test_binary_round_trip_4096_dim(tmp_path):
    feats = sample_feats(n=2, dim=4096)
    path = tmp_path / "vis.bin"
    M.write_features(feats, path)
    back = M.load_features(path)
    assert back.dim == 4096
    np.testing.assert_array_equal(back.matrix, feats.matrix)


def test_truncated_payload_names_byte_counts(tmp_path):
    feats = sample_feats()
    path = tmp_path / "vis.bin"
    M.write_features(feats, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])
    with pytest.raises(M.FeatureFormatError, match="expected .* found"):
        M.load_features(path)


def test_header_past_its_payload_allocates_no_rows_for_it(tmp_path):
    # 10**9 records of 4096 floats would be 14.9 TiB; 194 payload bytes hold
    # none, so the first record fails the truncation check
    path = tmp_path / "visual.bin"
    header = json.dumps({"modality": "visual", "dim": 4096, "count": 10**9})
    path.write_bytes(header.encode() + b"\n" + struct.pack("<H", 2) + b"i0" + bytes(190))
    with pytest.raises(M.FeatureFormatError,
                       match=r"^truncated at record 0: expected 16386 more bytes, found 192$"):
        M.load_features(path)


def test_header_count_mismatch(tmp_path):
    feats = sample_feats(n=2)
    path = tmp_path / "vis.bin"
    M.write_features(feats, path)
    raw = path.read_bytes()
    header, _, payload = raw.partition(b"\n")
    h = json.loads(header)
    h["count"] = 3
    path.write_bytes(json.dumps(h).encode() + b"\n" + payload)
    with pytest.raises(M.FeatureFormatError, match="truncated"):
        M.load_features(path)


def test_non_object_header_is_a_bad_header(tmp_path):
    path = tmp_path / "vis.bin"
    path.write_bytes(b"[1, 2]\n")
    with pytest.raises(M.FeatureFormatError, match="bad header line"):
        M.load_features(path)


def test_non_utf8_item_id_names_the_record(tmp_path):
    path = tmp_path / "vis.bin"
    header = json.dumps({"modality": "visual", "dim": 1, "count": 2})
    records = [struct.pack("<H", 2) + b"i0" + struct.pack("<f", 1.0),
               struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<f", 2.0)]
    path.write_bytes(header.encode() + b"\n" + b"".join(records))
    with pytest.raises(M.FeatureFormatError, match="record 1"):
        M.load_features(path)


def test_trailing_bytes_rejected(tmp_path):
    feats = sample_feats()
    path = tmp_path / "vis.bin"
    M.write_features(feats, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(M.FeatureFormatError, match="trailing"):
        M.load_features(path)


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "vis.bin"
    header = json.dumps({"modality": "visual", "dim": 1, "count": 2})
    rec = struct.pack("<H", 2) + b"i0" + np.float32(1.0).tobytes()
    path.write_bytes(header.encode() + b"\n" + rec + rec)
    with pytest.raises(M.FeatureFormatError, match="duplicate"):
        M.load_features(path)


def test_non_finite_value_rejected(tmp_path):
    path = tmp_path / "vis.bin"
    header = json.dumps({"modality": "visual", "dim": 1, "count": 1})
    rec = struct.pack("<H", 2) + b"i0" + np.float32(np.nan).tobytes()
    path.write_bytes(header.encode() + b"\n" + rec)
    with pytest.raises(M.FeatureFormatError, match="non-finite"):
        M.load_features(path)


@pytest.mark.parametrize("declared, asked", [("visual", "textual"), ("haptic", None)])
def test_binary_header_modality_is_checked(tmp_path, declared, asked):
    path = tmp_path / "feats.bin"
    M.write_features(sample_feats(), path)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b'"visual"', json.dumps(declared).encode(), 1))
    with pytest.raises(M.FeatureFormatError,
                       match=rf"^header declares modality '{declared}', expected"):
        M.load_features(path, modality=asked)


def test_unknown_modality_rejected():
    with pytest.raises(ValueError, match="unknown modality"):
        M.ModalityFeatures("haptic", 2, ["a"], np.zeros((1, 2), dtype=np.float32))


def test_text_format(tmp_path):
    path = tmp_path / "feat.tsv"
    path.write_text("i0\t1.0\t2.0\ni1\t3.0\t4.0\n")
    feats = M.load_features(path, modality="textual")
    assert feats.dim == 2 and feats.ids == ["i0", "i1"]
    np.testing.assert_allclose(feats.matrix, [[1, 2], [3, 4]])


def test_text_format_requires_modality(tmp_path):
    path = tmp_path / "feat.tsv"
    path.write_text("i0\t1.0\n")
    with pytest.raises(ValueError, match="modality"):
        M.load_features(path)


# ------------------------------------------- block loading against the loop

def outcome(load):
    """load()'s result, or the type and message of the error it raised."""
    try:
        return load()
    except ValueError as exc:
        return type(exc), str(exc)


# ids of varying length, some of them not UTF-8 and some repeated
RAW_IDS = st.one_of(st.sampled_from([b"", b"i0", b"i1", "é用".encode()]),
                    st.binary(max_size=5))
VALUES = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def feature_files(draw):
    """The bytes of a binary feature file; now and then its header count is
    off by one, its payload truncated or trailing bytes appended."""
    dim = draw(st.integers(1, 4))
    records = draw(st.lists(st.tuples(RAW_IDS, st.lists(VALUES, min_size=dim,
                                                        max_size=dim)), max_size=6))
    count = len(records) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    header = json.dumps({"modality": "visual", "dim": dim, "count": max(count, 0)})
    payload = b"".join(struct.pack("<H", len(raw)) + raw + np.array(row, "<f4").tobytes()
                       for raw, row in records)
    cut = draw(st.sampled_from(["none", "none", "truncate", "trail"]))
    if cut == "truncate" and payload:
        payload = payload[:draw(st.integers(0, len(payload) - 1))]
    elif cut == "trail":
        payload += draw(st.binary(min_size=1, max_size=9))
    return header.encode() + b"\n" + payload


@settings(max_examples=150, deadline=None)
@given(raw=feature_files())
def test_load_features_matches_the_record_loop(raw, tmp_path_factory):
    path = tmp_path_factory.mktemp("feats") / "visual.bin"
    path.write_bytes(raw)
    got = outcome(lambda: M.load_features(path))
    want = outcome(lambda: M.ModalityFeatures(*load_features_loop(path)))
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.modality, got.dim, got.ids) == (want.modality, want.dim, want.ids)
    assert got.matrix.dtype == np.float32 and got.matrix.flags.c_contiguous
    assert got.matrix.tobytes() == want.matrix.tobytes()


@settings(max_examples=100, deadline=None)
@given(item_ids=st.lists(st.sampled_from(["i0", "i1", "i2", "i3", "i4", "é"]),
                         unique=True, max_size=6),
       feature_ids=st.lists(st.sampled_from(["i1", "i2", "i3", "i5", "é"]),
                            unique=True, max_size=5),
       missing=st.sampled_from(M.MISSING_POLICIES), seed=st.integers(0, 9))
def test_bind_matches_the_row_loop(item_ids, feature_ids, missing, seed):
    rng = np.random.default_rng(seed)
    feats = M.ModalityFeatures("textual", 3, feature_ids, rng.standard_normal(
        (len(feature_ids), 3)).astype(np.float32))
    try:
        matrix, mask, filled = bind_loop(item_ids, feats, missing)
    except M.MissingFeatureError as exc:
        with pytest.raises(M.MissingFeatureError) as got:
            M.MultimodalStore(item_ids, [feats], missing=missing)
        assert str(got.value) == str(exc)
        return
    store = M.MultimodalStore(item_ids, [feats], missing=missing)
    bound = store.matrix("textual")
    assert bound.dtype == np.float32 and bound.tobytes() == matrix.tobytes()
    np.testing.assert_array_equal(store.masks["textual"], mask)
    assert store.filled["textual"] == filled


# ------------------------------------------------------------- store

def test_store_binds_by_item_id():
    feats = sample_feats()
    store = M.MultimodalStore(["i2", "i0"], [feats])
    np.testing.assert_array_equal(store.matrix("visual")[0], feats.matrix[2])
    np.testing.assert_array_equal(store.matrix("visual")[1], feats.matrix[0])
    assert store.masks["visual"].all()


def test_store_missing_error_policy():
    feats = sample_feats()
    with pytest.raises(M.MissingFeatureError, match="i9"):
        M.MultimodalStore(["i0", "i9"], [feats], missing="error")


def test_store_missing_zero_fill():
    feats = sample_feats()
    store = M.MultimodalStore(["i0", "i9"], [feats], missing="zero_fill")
    np.testing.assert_array_equal(store.matrix("visual")[1], np.zeros(4))
    assert store.filled["visual"] == 1
    assert not store.masks["visual"][1]


def test_store_missing_mean_impute():
    feats = sample_feats()
    store = M.MultimodalStore(["i0", "i1", "i9"], [feats], missing="mean_impute")
    expect = feats.matrix[[0, 1]].mean(axis=0)
    np.testing.assert_allclose(store.matrix("visual")[2], expect, rtol=1e-6)


def test_store_rejects_bad_policy():
    with pytest.raises(ValueError, match="policy"):
        M.MultimodalStore(["i0"], [sample_feats()], missing="drop")


def test_store_rejects_duplicate_modality():
    with pytest.raises(ValueError, match="duplicate modality"):
        M.MultimodalStore(["i0"], [sample_feats(), sample_feats(seed=1)])


def test_store_two_modalities():
    vis = sample_feats(modality="visual", dim=6)
    txt = sample_feats(modality="textual", dim=3, seed=1)
    store = M.MultimodalStore(["i0", "i1", "i2"], [vis, txt])
    assert store.modalities == ["textual", "visual"]
    assert store.matrix("textual").shape == (3, 3)
    assert store.matrix("visual").shape == (3, 6)
    with pytest.raises(KeyError):
        store.matrix("audio")
