"""Pre-extracted modality features: file formats, item binding, imputation.

A feature file is one UTF-8 JSON header line, e.g.
`{"modality": "visual", "dim": 4096, "count": 3}`, followed by `count`
binary records: a little-endian uint16 id length, the UTF-8 item id, then
`dim` little-endian float32 values. A TSV text variant
(`item_id<TAB>v1<TAB>v2...`) exists for fixtures behind a flag.
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass

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


def load_features(path, text=False, modality=None) -> ModalityFeatures:
    """Read a feature file; `text=True` selects the TSV fixture format."""
    if text:
        return _load_text(path, modality)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
            m, dim, count = header["modality"], int(header["dim"]), int(header["count"])
        except (ValueError, KeyError, TypeError) as exc:
            raise FeatureFormatError(f"bad header line: {exc}") from None
        payload = fh.read()
    if dim <= 0 or count < 0:
        raise FeatureFormatError(f"header declares dim={dim}, count={count}")
    ids = []
    matrix = np.empty((count, dim), dtype=np.float32)
    offset = 0
    row_bytes = 4 * dim
    for n in range(count):
        if offset + 2 > len(payload):
            raise FeatureFormatError(
                f"truncated at record {n}: expected at least "
                f"{(count - n) * (2 + row_bytes)} more bytes, found {len(payload) - offset}"
            )
        (id_len,) = struct.unpack_from("<H", payload, offset)
        offset += 2
        need = id_len + row_bytes
        if offset + need > len(payload):
            raise FeatureFormatError(
                f"truncated at record {n}: expected {need} more bytes, "
                f"found {len(payload) - offset}"
            )
        try:
            ids.append(payload[offset:offset + id_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FeatureFormatError(f"record {n}: item id is not UTF-8: {exc}") from None
        offset += id_len
        matrix[n] = np.frombuffer(payload, dtype="<f4", count=dim, offset=offset)
        offset += row_bytes
    if offset != len(payload):
        raise FeatureFormatError(
            f"trailing bytes: expected {offset} payload bytes, found {len(payload)}"
        )
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
        lookup = {i: r for r, i in enumerate(feats.ids)}
        mask = np.zeros(n, dtype=bool)
        matrix = np.zeros((n, feats.dim), dtype=np.float32)
        missing_ids = []
        for r, item in enumerate(self.item_ids):
            src = lookup.get(item)
            if src is None:
                missing_ids.append(item)
            else:
                mask[r] = True
                matrix[r] = feats.matrix[src]
        if missing_ids and self.missing == "error":
            raise MissingFeatureError(
                f"{len(missing_ids)} items lack {feats.modality} features, "
                f"first: {missing_ids[0]!r}"
            )
        if missing_ids and self.missing == "mean_impute":
            if not mask.any():
                raise MissingFeatureError(
                    f"mean_impute impossible: no {feats.modality} rows present"
                )
            matrix[~mask] = feats.matrix[[lookup[i] for i in self.item_ids
                                          if i in lookup]].mean(axis=0)
        if missing_ids:
            log.warning("%s: %d/%d items filled by %s", feats.modality,
                        len(missing_ids), n, self.missing)
        self.matrices[feats.modality] = matrix
        self.masks[feats.modality] = mask
        self.filled[feats.modality] = len(missing_ids)

    @property
    def modalities(self):
        return sorted(self.matrices)

    def matrix(self, modality):
        """Dense (n_items, dim) feature matrix aligned to the item index."""
        if modality not in self.matrices:
            raise KeyError(f"no {modality!r} features bound")
        return self.matrices[modality]

