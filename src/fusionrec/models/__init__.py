"""Six multimedia recommenders over the shared pipeline schema."""

import numpy as np

from .base import (
    MODEL_TAGS,
    ModelConfig,
    ModelData,
    RecommenderModel,
    bipartite_adjacency,
    item_graph,
    knn_graph,
    load_checkpoint,
    save_checkpoint,
)
from .vbpr import VBPR
from .mmgcn import MMGCN
from .grcn import GRCN
from .lattice import LATTICE
from .bm3 import BM3
from .freedom import FREEDOM

REGISTRY = {cls.tag: cls for cls in (VBPR, MMGCN, GRCN, LATTICE, BM3, FREEDOM)}


def build_model(config: ModelConfig, data: ModelData, seed=0, dtype=np.float32):
    """Instantiate the recommender named by config.tag."""
    if config.tag not in REGISTRY:
        raise ValueError(f"unknown model tag {config.tag!r}, "
                         f"expected one of {sorted(REGISTRY)}")
    return REGISTRY[config.tag](config, data, seed=seed, dtype=dtype)


__all__ = [
    "MODEL_TAGS", "REGISTRY", "ModelConfig", "ModelData",
    "RecommenderModel", "build_model", "bipartite_adjacency", "item_graph",
    "knn_graph", "save_checkpoint", "load_checkpoint",
    "VBPR", "MMGCN", "GRCN", "LATTICE", "BM3", "FREEDOM",
]
