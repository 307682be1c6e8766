"""Pre-extracted modality features: file formats, item binding, imputation.

A feature file is one UTF-8 JSON header line, e.g.
`{"modality": "visual", "dim": 4096, "count": 3}`, followed by `count`
binary records: a little-endian uint16 id length, the UTF-8 item id, then
`dim` little-endian float32 values. A file whose name ends in `.tsv` is
read as the headerless text variant (`item_id<TAB>v1<TAB>v2...`) instead.

Loading and binding work on whole blocks: load_features copies each
record's float block into one preallocated matrix through a memoryview
slice, with no numpy call per record, and MultimodalStore binds each
modality with one gather by source row.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass
from itertools import repeat

import numpy as np

log = logging.getLogger(__name__)

MODALITIES = ("visual", "textual", "audio")
MISSING_POLICIES = ("error", "zero_fill", "mean_impute")


class FeatureFormatError(ValueError):
    """Corrupt or inconsistent feature file."""


class MissingFeatureError(KeyError):
    """An item has no feature row under the `error` policy."""


@dataclass
class ModalityFeatures:
    """Feature rows for one modality, keyed by raw item id."""

    modality: str
    dim: int
    ids: list
    matrix: np.ndarray  # (len(ids), dim) float32

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(
                f"unknown modality {self.modality!r}, expected one of {MODALITIES}"
            )
        if self.matrix.shape != (len(self.ids), self.dim):
            raise FeatureFormatError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{len(self.ids)} ids x dim {self.dim}"
            )
        if len(set(self.ids)) != len(self.ids):
            raise FeatureFormatError("duplicate item ids in feature set")
        if not np.isfinite(self.matrix).all():
            raise FeatureFormatError("non-finite feature values")


def write_features(feats: ModalityFeatures, path):
    """Serialize to the binary header+records format."""
    header = json.dumps(
        {"modality": feats.modality, "dim": feats.dim, "count": len(feats.ids)}
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for item_id, row in zip(feats.ids, feats.matrix):
            raw = item_id.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(row.astype("<f4").tobytes())


def load_features(path, modality=None) -> ModalityFeatures:
    """Read a feature file: TSV if its name ends in `.tsv`, else binary, whose
    header must declare a modality in MODALITIES, and `modality` if given."""
    if str(path).endswith(".tsv"):
        return _load_text(path, modality)
    with open(path, "rb") as fh:
        data = fh.read()  # one read: a read after readline() copies twice
    end = data.find(b"\n") + 1 or len(data)
    try:
        header = json.loads(data[:end].decode("utf-8"))
        m, dim, count = header["modality"], int(header["dim"]), int(header["count"])
    except (ValueError, KeyError, TypeError) as exc:
        raise FeatureFormatError(f"bad header line: {exc}") from None
    payload = memoryview(data)[end:]
    if dim <= 0 or count < 0:
        raise FeatureFormatError(f"header declares dim={dim}, count={count}")
    if m not in MODALITIES or modality not in (None, m):
        raise FeatureFormatError(f"header declares modality {m!r}, expected "
                                 f"{modality or MODALITIES!r}")
    ids = []
    row_bytes = 4 * dim  # a record takes at least 2 + row_bytes payload bytes
    matrix = np.empty((min(count, len(payload) // (2 + row_bytes)), dim), dtype="<f4")
    rows = memoryview(matrix.reshape(-1).view(np.uint8))
    offset = 0
    for n in range(count):
        if offset + 2 > len(payload):
            raise FeatureFormatError(
                f"truncated at record {n}: expected at least "
                f"{(count - n) * (2 + row_bytes)} more bytes, found {len(payload) - offset}"
            )
        id_len = payload[offset] | payload[offset + 1] << 8  # little-endian uint16
        offset += 2
        need = id_len + row_bytes
        if offset + need > len(payload):
            raise FeatureFormatError(
                f"truncated at record {n}: expected {need} more bytes, "
                f"found {len(payload) - offset}"
            )
        try:
            ids.append(str(payload[offset:offset + id_len], "utf-8"))
        except UnicodeDecodeError as exc:
            raise FeatureFormatError(f"record {n}: item id is not UTF-8: {exc}") from None
        offset += id_len
        rows[n * row_bytes:(n + 1) * row_bytes] = payload[offset:offset + row_bytes]
        offset += row_bytes
    if offset != len(payload):
        raise FeatureFormatError(
            f"trailing bytes: expected {offset} payload bytes, found {len(payload)}"
        )
    matrix = matrix.astype(np.float32, copy=False)
    return ModalityFeatures(m, dim, ids, matrix)


def _load_text(path, modality):
    if modality is None:
        raise ValueError("text format carries no header; pass modality=")
    ids, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise FeatureFormatError(f"line {lineno}: no feature values")
            ids.append(parts[0])
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise FeatureFormatError(f"line {lineno}: {exc}") from None
    if not rows:
        raise FeatureFormatError("empty feature file")
    dim = len(rows[0])
    if any(len(r) != dim for r in rows):
        raise FeatureFormatError("inconsistent feature dimensions")
    return ModalityFeatures(modality, dim, ids, np.array(rows, dtype=np.float32))


class MultimodalStore:
    """Binds per-modality features to a dataset's dense item index.

    Items without a feature row are handled per `missing`: `error` raises on
    construction, `zero_fill` inserts zero rows, `mean_impute` inserts the
    per-dimension mean of the present rows. The availability mask records
    which rows were real.
    """

    def __init__(self, item_ids, features, missing="error"):
        if missing not in MISSING_POLICIES:
            raise ValueError(
                f"missing policy {missing!r} not in {MISSING_POLICIES}"
            )
        self.item_ids = list(item_ids)
        self.missing = missing
        self.matrices = {}
        self.masks = {}
        self.filled = {}
        seen = set()
        for feats in features:
            if feats.modality in seen:
                raise ValueError(f"duplicate modality {feats.modality!r}")
            seen.add(feats.modality)
            self._bind(feats)

    def _bind(self, feats: ModalityFeatures):
        n = len(self.item_ids)
        lookup = dict(zip(feats.ids, range(len(feats.ids))))
        src = np.fromiter(map(lookup.get, self.item_ids, repeat(-1)), np.int64, n)
        mask = src >= 0
        missing = n - int(np.count_nonzero(mask))
        if missing and self.missing == "error":
            raise MissingFeatureError(
                f"{missing} items lack {feats.modality} features, "
                f"first: {self.item_ids[int(np.argmin(mask))]!r}"
            )
        if missing and self.missing == "mean_impute" and not mask.any():
            raise MissingFeatureError(
                f"mean_impute impossible: no {feats.modality} rows present"
            )
        if missing:
            present = feats.matrix[src[mask]]
            matrix = np.zeros((n, feats.dim), dtype=np.float32)
            matrix[mask] = present
            if self.missing == "mean_impute":
                matrix[~mask] = present.mean(axis=0)
            log.warning("%s: %d/%d items filled by %s", feats.modality,
                        missing, n, self.missing)
        else:
            matrix = feats.matrix[src].astype(np.float32, copy=False)
        self.matrices[feats.modality] = matrix
        self.masks[feats.modality] = mask
        self.filled[feats.modality] = missing

    @property
    def modalities(self):
        return sorted(self.matrices)

    def matrix(self, modality):
        """Dense (n_items, dim) feature matrix aligned to the item index."""
        if modality not in self.matrices:
            raise KeyError(f"no {modality!r} features bound")
        return self.matrices[modality]

