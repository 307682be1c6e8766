"""Seeded sparse corpus generator for the benchmark.

Writes `interactions.tsv` (user, item, rating, timestamp) and one binary
feature file per modality in fusionrec's on-disk format, so that set-up
goes through the program's own parsers. Nothing here imports fusionrec: the
corpus is outside input to the program.

The generator never holds a users x items matrix. Each user's items are
drawn one user at a time from a power-law popularity tilted by a low-rank
affinity, so the features carry a learnable signal. Every item is first
given five distinct users and every user draws at least five items, so the
5-core filter keeps the whole corpus and its counts are exact at any seed.

    python3 perfbench/corpus.py --shape office --seed 1 --out DIR
"""

import argparse
import json
import os
import sys

import numpy as np

# name -> (users, items, interactions, {modality: dim})
SHAPES = {
    "office": (4905, 2420, 53258, {"visual": 2048, "textual": 768}),
    "small": (250, 125, 3000, {"visual": 128, "textual": 64}),
}
MIN_DEGREE = 5
LATENT_DIM = 16
POPULARITY_EXPONENT = 0.9
AFFINITY_WEIGHT = 3.0
FEATURE_NOISE = 1.0


def _item_popularity(rng, n_items):
    ranks = rng.permutation(n_items)
    pop = (ranks + 1.0) ** -POPULARITY_EXPONENT
    return pop / pop.sum()


def draw_pairs(rng, n_users, n_items, n_interactions, item_factors):
    """(n, 2) int64 distinct (user, item) pairs, every degree >= MIN_DEGREE."""
    cover = MIN_DEGREE * n_items
    free = n_interactions - cover - MIN_DEGREE * n_users
    if free < 0:
        raise ValueError("too few interactions for the minimum degrees")
    held = [set() for _ in range(n_users)]
    for i in range(n_items):
        for u in rng.choice(n_users, size=MIN_DEGREE, replace=False):
            held[u].add(i)
    # heavy-tailed user activity; the multinomial keeps the total exact
    activity = rng.lognormal(0.0, 1.0, size=n_users)
    extra = rng.multinomial(free, activity / activity.sum())
    user_factors = rng.standard_normal((n_users, LATENT_DIM))
    log_pop = np.log(_item_popularity(rng, n_items))
    scale = AFFINITY_WEIGHT / np.sqrt(LATENT_DIM)
    rows = []
    for u in range(n_users):
        logits = log_pop + scale * (item_factors @ user_factors[u])
        p = np.exp(logits - logits.max())
        taken = np.fromiter(held[u], dtype=np.int64, count=len(held[u]))
        p[taken] = 0.0
        want = min(MIN_DEGREE + int(extra[u]), n_items - taken.size)
        new = rng.choice(n_items, size=want, replace=False, p=p / p.sum())
        items = np.concatenate([taken, new])
        rows.append(np.stack([np.full(items.size, u), items], axis=1))
    return np.concatenate(rows).astype(np.int64)


def write_interactions(path, pairs, rng):
    """Shuffled log lines `u<id>\\ti<id>\\t<rating>\\t<timestamp>`."""
    order = rng.permutation(pairs.shape[0])
    ratings = rng.integers(1, 6, size=pairs.shape[0])
    stamps = 1_300_000_000 + np.sort(rng.integers(0, 10**8, size=pairs.shape[0]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for n, j in enumerate(order):
            u, i = pairs[j]
            fh.write(f"u{u:05d}\ti{i:05d}\t{ratings[n]}\t{stamps[n]}\n")


def write_feature_file(path, modality, matrix):
    """Binary format: JSON header line, then <u16 id length><id><dim x f32>."""
    n, dim = matrix.shape
    record = np.dtype([("len", "<u2"), ("id", "S6"), ("vec", "<f4", (dim,))])
    body = np.empty(n, dtype=record)
    body["len"] = 6
    body["id"] = [f"i{i:05d}".encode() for i in range(n)]
    body["vec"] = matrix
    header = json.dumps({"modality": modality, "dim": dim, "count": n})
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(body.tobytes())


def generate(shape, seed, out_dir):
    """Write the corpus for `shape` under out_dir; return its file paths."""
    n_users, n_items, n_interactions, dims = SHAPES[shape]
    rng = np.random.default_rng(seed)
    item_factors = rng.standard_normal((n_items, LATENT_DIM))
    pairs = draw_pairs(rng, n_users, n_items, n_interactions, item_factors)
    os.makedirs(out_dir, exist_ok=True)
    paths = {"interactions": os.path.join(out_dir, "interactions.tsv")}
    write_interactions(paths["interactions"], pairs, rng)
    for modality, dim in sorted(dims.items()):
        mix = rng.standard_normal((LATENT_DIM, dim)) / np.sqrt(LATENT_DIM)
        feats = item_factors @ mix + FEATURE_NOISE * rng.standard_normal((n_items, dim))
        paths[modality] = os.path.join(out_dir, f"{modality}.bin")
        write_feature_file(paths[modality], modality, feats.astype(np.float32))
    return paths


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.shape, args.seed, args.out), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
