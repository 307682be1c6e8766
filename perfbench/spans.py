"""Span tracer for the traced benchmark run.

The tracer wraps fusionrec's public calls from outside the program: each
wrapped call records a span (name, start, end, parent span, run id) in
memory, and spans are written out once the run ends. A layer's self time is
its span's duration minus the time its child spans cover; calls run on one
thread, so child spans nest inside their parent.

Tape primitives are spans only on training tapes. The gradient-free tape
inside models.score_users stays part of that call's self time, so the
tensor.* numbers describe training and models.score_users describes
scoring, propagation included.

Each name is patched where callers look it up. A name imported with
`from x import f` is patched in the importing module too, since patching
only the defining module would miss those calls. A name that no longer
exists stops the run: a refactor must break the trace visibly, not report
zeros.

The benchmark's speed probe (workloads.Speed.probe) can be traced too, as
trace.probe spans, so that probes run inside program calls are no layer's
self time.
"""

import functools
import os
import time
import weakref
from collections import defaultdict

from fusionrec import dataset, evaluation, experiment, modality, schema, tensor, training
from fusionrec import models
from fusionrec.models import base as models_base
from fusionrec.models import bm3, freedom, grcn, lattice, mmgcn


class TraceError(RuntimeError):
    """A name the tracer must wrap is missing from the program."""


def _tape_primitives():
    """Public Tape operations that record a node, grouped into span names."""
    own = {"spmm": "tensor.spmm", "spmm_weighted": "tensor.spmm_weighted",
           "matmul": "tensor.matmul", "matmul_nt": "tensor.matmul",
           "row_gather": "tensor.row_gather"}
    names = {}
    for attr, value in vars(tensor.Tape).items():
        if attr.startswith("_") or attr in ("backward", "reset") \
                or not callable(value):
            continue
        names[attr] = own.get(attr, "tensor.fwd_other")
    missing = sorted(set(own) - set(names))
    if missing:
        raise TraceError(f"tensor.Tape has no {', '.join(missing)}")
    return names


def targets():
    """(owner, attribute, span name) for every call the trace wraps."""
    out = [(tensor.Tape, attr, name) for attr, name in _tape_primitives().items()]
    out += [
        (tensor.Tape, "backward", "tensor.backward"),
        (training, "sample_triples", "training.sample"),
        (training, "total_loss", "training.total_loss"),
        (training.Adam, "step", "training.optimizer"),
        (training.SGD, "step", "training.optimizer"),
        (training, "grid_search", "training.grid_search"),
        (schema, "train_loop", "schema.train_loop"),
        (experiment, "train_loop", "schema.train_loop"),
        (models, "build_model", "models.build"),
        (experiment, "build_model", "models.build"),
        (models, "knn_graph", "models.knn_graph"),
        (models_base, "knn_graph", "models.knn_graph"),
        (lattice, "knn_graph", "models.knn_graph"),
        (models, "bipartite_adjacency", "models.adjacency"),
        (models_base, "bipartite_adjacency", "models.adjacency"),
        (bm3, "bipartite_adjacency", "models.adjacency"),
        (freedom, "bipartite_adjacency", "models.adjacency"),
        (mmgcn, "bipartite_adjacency", "models.adjacency"),
        (models_base, "bipartite_structure", "models.adjacency"),
        (grcn, "bipartite_structure", "models.adjacency"),
        (models_base.RecommenderModel, "score_users", "models.score_users"),
        (models, "save_checkpoint", "models.checkpoint"),
        (models_base, "save_checkpoint", "models.checkpoint"),
        (experiment, "save_checkpoint", "models.checkpoint"),
        (evaluation, "rank_topk", "evaluation.rank_topk"),
        (evaluation, "evaluate_lists", "evaluation.metrics"),
        (evaluation.PopularityProfile, "from_train", "evaluation.popularity"),
        (evaluation, "write_recommendations_tsv", "evaluation.write_recs"),
        (dataset, "parse_interactions", "dataset.parse"),
        (dataset, "index_log", "dataset.index"),
        (dataset, "k_core_filter", "dataset.kcore"),
        (dataset, "holdout_split", "dataset.split"),
        (dataset, "write_split", "dataset.write_split"),
        (modality, "load_features", "modality.load_features"),
        (experiment, "load_features", "modality.load_features"),
        (modality.MultimodalStore, "__init__", "modality.bind"),
        (experiment, "cmd_prepare", "experiment.prepare"),
        (experiment, "cmd_tune", "experiment.tune"),
        (experiment, "cmd_train", "experiment.train"),
        (experiment, "cmd_evaluate", "experiment.evaluate"),
        (experiment, "render_report", "experiment.report"),
    ]
    return out


PROBE_SPAN = "trace.probe"
SPAN_NAMES = sorted({name for _, _, name in targets()} | {PROBE_SPAN})


class Tracer:
    """Installs the wrappers, keeps spans in memory, derives per-layer numbers.

    Spans are rows [name, start, end, parent index, run id]; index -1 marks
    a span with no traced parent.
    """

    def __init__(self, run_id):
        self.spans = []
        self.run_id = run_id
        self._stack = []
        self._saved = []
        self.score_rows = 0
        self.ranked_users = 0
        self.batch_nodes = []
        self.batch_out_bytes = []
        self._tape_bytes = weakref.WeakKeyDictionary()

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_primitive = name.startswith("tensor.") and name != "tensor.backward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_primitive and stack and spans[stack[-1]][0] == "models.score_users":
                return fn(*args, **kwargs)
            self._count(name, args)
            row = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(row)
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if is_primitive:
                tape = args[0]
                self._tape_bytes[tape] = self._tape_bytes.get(tape, 0) + out.data.nbytes
            return out

        return traced

    def _count(self, name, args):
        if name == "models.score_users":
            self.score_rows += len(args[1])
        elif name == "evaluation.rank_topk":
            self.ranked_users += len(args[1])
        elif name == "tensor.backward":
            tape = args[0]
            self.batch_nodes.append(len(tape.op_names))
            self.batch_out_bytes.append(self._tape_bytes.pop(tape, 0))

    def install(self, probe=None):
        """Wrap every target; also probe.probe, when given, as trace.probe."""
        extra = [(probe, "probe", PROBE_SPAN)] if probe is not None else []
        for owner, attr, name in targets() + extra:
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None and not hasattr(owner, attr):
                raise TraceError(f"{owner.__name__}.{attr} no longer exists")
            if raw is None:
                raw = getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- results --------------------------------------------------------

    def self_times(self):
        """name -> (summed self seconds, call count)."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0.0, 0] for name in SPAN_NAMES}
        for n, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += end - start - child[n]
            out[name][1] += 1
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span\tname\tstart\tend\tparent\trun\n")
            for n, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{n}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run}\n")

    def layer_metrics(self):
        """Per-layer values keyed by the names BENCHMARK.json lists."""
        times = self.self_times()
        batches = len(self.batch_nodes)
        score_calls = times["models.score_users"][1]
        values = {f"{name}.s": seconds for name, (seconds, _) in times.items()}
        for name in ("tensor.spmm", "tensor.spmm_weighted", "tensor.matmul",
                     "training.sample", "schema.train_loop", "models.knn_graph",
                     "models.score_users"):
            values[f"{name}.calls"] = times[name][1]
        values.update({
            "tensor.nodes_per_batch":
                sum(self.batch_nodes) / batches if batches else 0.0,
            "tensor.out_mb_per_batch":
                sum(self.batch_out_bytes) / batches / 2**20 if batches else 0.0,
            "models.rows_per_score_call":
                self.score_rows / score_calls if score_calls else 0.0,
            "evaluation.rank_topk.users": self.ranked_users,
        })
        return values
