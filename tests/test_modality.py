"""Feature file formats, item binding, missing-feature policies."""

import json
import struct

import numpy as np
import pytest

from fusionrec import modality as M


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


def test_unknown_modality_rejected():
    with pytest.raises(ValueError, match="unknown modality"):
        M.ModalityFeatures("haptic", 2, ["a"], np.zeros((1, 2), dtype=np.float32))


def test_text_format(tmp_path):
    path = tmp_path / "feat.tsv"
    path.write_text("i0\t1.0\t2.0\ni1\t3.0\t4.0\n")
    feats = M.load_features(path, text=True, modality="textual")
    assert feats.dim == 2 and feats.ids == ["i0", "i1"]
    np.testing.assert_allclose(feats.matrix, [[1, 2], [3, 4]])


def test_text_format_requires_modality(tmp_path):
    path = tmp_path / "feat.tsv"
    path.write_text("i0\t1.0\n")
    with pytest.raises(ValueError, match="modality"):
        M.load_features(path, text=True)


# ------------------------------------------------------------- standardize

def test_l2_standardize_unit_rows():
    feats = sample_feats(seed=3)
    out = M.l2_standardize(feats)
    np.testing.assert_allclose(np.linalg.norm(out.matrix, axis=1),
                               np.ones(3), rtol=1e-5)
    assert out.zero_rows == 0


def test_l2_standardize_zero_row_counted():
    m = np.array([[0.0, 0.0], [3.0, 4.0]], dtype=np.float32)
    feats = M.ModalityFeatures("visual", 2, ["a", "b"], m)
    out = M.l2_standardize(feats)
    np.testing.assert_array_equal(out.matrix[0], [0.0, 0.0])
    assert out.zero_rows == 1


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
