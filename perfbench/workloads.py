"""The benchmark's workloads, their output checks and their metrics.

All workloads are closed-loop: one process makes each call after the
previous one returned, with the program's default threads=1. The corpus,
split and training seeds are all the benchmark's --seed.

  office-vbpr     Office-shaped corpus, VBPR: the dense, graph-free path
                  (Tape.matmul and its backward through the 2048-d
                  projection, Adam, sample_triples, rank_topk).
  office-freedom  The same corpus and run, FREEDOM: LightGCN propagation
                  through Tape.spmm, two dense kNN item graphs in set-up,
                  and the highest memory. The counter-workload to
                  office-vbpr for sparse-product and kNN changes.
  small-protocol  experiment.cmd_benchmark over all six models on a small
                  corpus: prepare, tune, retrain, evaluate and write every
                  artifact. Per-user scoring in write_recommendations_tsv
                  and the orchestration layer do most of the work here.

End-to-end numbers come from an untraced pass. The only wrappers in that
pass are the benchmark's clocks around the validation callable from
evaluation.recall_eval_fn, around evaluation.evaluate_model and on
training.sample_triples (batch boundaries). Times are scaled by the Speed
probe below.
"""

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from fusionrec import dataset as ds
from fusionrec import evaluation as ev
from fusionrec import experiment as ex
from fusionrec import models as fm
from fusionrec import schema
from fusionrec import training as tr

import spans

BENCH_DIR = "perfbench"
WORK_DIR = os.path.join(BENCH_DIR, "_work")
FAILURES = (tr.TrainingDivergedError, FloatingPointError, MemoryError)
CUTOFFS = (10, 20)
# Set-up repeats: at least 3, more while they add up to under 4 s.
SETUP_MIN, SETUP_SECONDS, SETUP_MAX = 3, 4.0, 15
TEST_REPEATS = 3
# Epochs per training: the first epoch of each training is a warm-up, so
# these give 2 (VBPR) and 1 (FREEDOM) counted epochs per round.
OFFICE_EPOCHS = {"vbpr": 3, "freedom": 2}
PROTOCOL_EPOCHS = 2
TRAINER = dict(batch_size=1024, lr=0.01, reg=1e-5, eval_every=1)

clock = time.perf_counter


class Ledger:
    """Operations attempted and failed: epochs, validation passes,
    evaluations and protocol runs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def ok(self):
        self.attempted += 1

    def fail(self, what, exc):
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def vm_rss_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    return 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


PROBES_AROUND = 3


class Speed:
    """Machine-speed probe that times are scaled by.

    On a shared machine the CPU runs up to a third slower for spells of a
    few seconds to a minute, so raw wall times of one run differ from the
    next by more than any bound worth having. A fixed kernel of a few
    milliseconds (a BLAS product, an np.add.at scatter, a lexsort and a
    Python loop, the kinds of work the program does) runs at every sample
    boundary. A sample's time is reported at the speed where the kernel
    takes REFERENCE_S: its raw time, without the probes inside it, times
    REFERENCE_S over the median probe within NEAR_S of it.
    """

    REFERENCE_S = 0.0033
    NEAR_S = 0.5

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mat = rng.random((256, 256), dtype=np.float32)
        self._idx = rng.integers(0, 4096, size=80_000)
        self._acc = np.zeros(4096)
        self._keys = rng.random(2420)
        self.log = []  # (end time, seconds) of every probe
        for _ in range(20):
            self._kernel()

    def _kernel(self):
        self._mat @ self._mat @ self._mat
        np.add.at(self._acc, self._idx, 1.0)
        np.lexsort((np.arange(self._keys.size), -self._keys))
        total = 0
        for i in range(40_000):
            total += i
        return total

    def probe(self):
        start = clock()
        self._kernel()
        end = clock()
        self.log.append((end, end - start))

    def scaled(self, interval):
        start, end = interval
        inside = sum(d for t, d in self.log if start <= t - d and t <= end)
        near = [d for t, d in self.log if start - self.NEAR_S <= t <= end + self.NEAR_S]
        return (end - start - inside) * self.REFERENCE_S / statistics.median(near)


class BatchTicks:
    """Batch boundaries: a clock and a speed probe on training.sample_triples,
    which train_loop calls once at the start of each batch. Each tick is
    (end of the previous batch, start of this one)."""

    def __init__(self, speed):
        self.speed = speed
        self.times = []
        self._saved = None

    def __enter__(self):
        sample = self._saved = tr.sample_triples

        def sample_triples(*args, **kwargs):
            before = clock()
            self.speed.probe()
            self.times.append((before, clock()))
            return sample(*args, **kwargs)

        tr.sample_triples = sample_triples
        return self

    def __exit__(self, *exc):
        tr.sample_triples = self._saved


def timed(run, fn, *args, **kwargs):
    """(result, (start, end)) with speed probes on both sides."""
    for _ in range(PROBES_AROUND):
        run.speed.probe()
    start = clock()
    out = fn(*args, **kwargs)
    end = clock()
    for _ in range(PROBES_AROUND):
        run.speed.probe()
    return out, (start, end)


class EpochClock:
    """Times a validation callable and, from outside, the epochs between calls.

    An epoch runs from the end of one call (or the start of training) to
    the start of the next; batch ticks split it into its lead-in (epoch
    hooks such as FREEDOM's edge pruning) and its batches. The first epoch
    of every training is a warm-up and is not counted; with eval_every=1 a
    training calls the clock once per epoch, so call n opens a training
    when n % epochs == 0. Samples are (start, end) intervals.
    """

    def __init__(self, fn, epochs, run, samples, ticks):
        self.fn, self.epochs, self.run = fn, epochs, run
        self.samples, self.ticks = samples, ticks
        self.calls = 0
        self.seen = len(ticks.times)
        self.mark = clock()
        self.values = []

    def __call__(self, model):
        end = clock()
        ticks = self.ticks.times[self.seen:]
        self.seen = len(self.ticks.times)
        record = self.samples.setdefault(model.tag, {})
        if self.calls % self.epochs and ticks:
            record.setdefault("lead_in", []).append((self.mark, ticks[0][0]))
            record.setdefault("batches", []).append(len(ticks))
            ends = [before for before, _ in ticks[1:]] + [end]
            record.setdefault("batch", []).extend(
                (after, stop) for (_, after), stop in zip(ticks, ends))
        self.calls += 1
        self.samples.setdefault("_rss", []).append(vm_rss_mb())
        self.run.ledger.ok()
        value, interval = timed(self.run, self.fn, model)
        record.setdefault("val", []).append(interval)
        self.run.ledger.ok()
        self.values.append(value)
        self.mark = clock()
        return value


class ProgramClocks(BatchTicks):
    """Batch ticks plus clocks on evaluation.recall_eval_fn's callables and
    on evaluate_model, for runs where the program itself calls them
    (cmd_benchmark)."""

    def __init__(self, run, samples):
        super().__init__(run.speed)
        self.run, self.samples = run, samples
        self._saved_ev = None

    def __enter__(self):
        super().__enter__()
        make_fn, evaluate = self._saved_ev = ev.recall_eval_fn, ev.evaluate_model

        def recall_eval_fn(*args, **kwargs):
            return EpochClock(make_fn(*args, **kwargs), PROTOCOL_EPOCHS,
                              self.run, self.samples, self)

        def evaluate_model(model, *args, **kwargs):
            out, interval = timed(self.run, evaluate, model, *args, **kwargs)
            self.samples.setdefault(model.tag, {}).setdefault("test", []).append(interval)
            self.run.ledger.ok()
            return out

        ev.recall_eval_fn, ev.evaluate_model = recall_eval_fn, evaluate_model
        return self

    def __exit__(self, *exc):
        ev.recall_eval_fn, ev.evaluate_model = self._saved_ev
        super().__exit__(*exc)


def roster_seconds(run, samples, kind):
    """Sum over models of each model's median scaled sample of one kind.

    An epoch is the median lead-in plus the median batch count times the
    median batch, so a few slow batches do not move it.
    """
    total = 0.0
    for tag, record in sorted(samples.items()):
        if tag.startswith("_"):
            continue
        if kind == "epoch":
            total += (run.median_seconds(record["lead_in"])
                      + statistics.median(record["batches"]) * run.median_seconds(record["batch"]))
        else:
            total += run.median_seconds(record[kind])
    return total


def make_corpus(shape, seed, out_dir):
    """Generate in a child process, so peak RSS excludes the generator."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "corpus.py"),
           "--shape", shape, "--seed", str(seed), "--out", out_dir]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def experiment_config(tag, paths, seed, out_dir, epochs, **extra):
    return ex.ExperimentConfig(
        interactions=paths["interactions"],
        features={m: p for m, p in paths.items() if m != "interactions"},
        model=fm.ModelConfig(tag=tag),
        trainer=tr.TrainerConfig(epochs=epochs, seed=seed, **TRAINER),
        split_seed=seed, cutoffs=CUTOFFS, out_dir=out_dir, **extra)


def setup(config, tags):
    """Program set-up before the first batch: prepare, then the training and
    model views, then each model (adjacency, kNN graphs)."""
    split, store = ex.cmd_prepare(config)
    tdata = tr.TrainData.from_split(split)
    mdata = fm.ModelData.from_split(split, store)
    built = [fm.build_model(replace(config.model, tag=t), mdata,
                            seed=config.trainer.seed) for t in tags]
    return split, tdata, built


def repeat_set_up(set_up):
    """Set-up intervals: at least SETUP_MIN, more while under SETUP_SECONDS."""
    intervals = []
    while len(intervals) < SETUP_MIN or (
            sum(end - start for start, end in intervals) < SETUP_SECONDS
            and len(intervals) < SETUP_MAX):
        intervals.append(set_up())
    return intervals


def brute_force_recall(model, split, k=20):
    """Validation Recall@k from one score_users call and a per-user lexsort
    that excludes train items and breaks ties by ascending item id."""
    relevant, train = {}, {}
    for u, i in split.validation:
        relevant.setdefault(int(u), set()).add(int(i))
    for u, i in split.train:
        train.setdefault(int(u), []).append(int(i))
    users = sorted(relevant)
    scores = np.asarray(model.score_users(users), dtype=np.float64)
    ids = np.arange(scores.shape[1])
    hits = []
    for row, u in enumerate(users):
        s = scores[row]
        s[train.get(u, [])] = -np.inf
        top = np.lexsort((ids, -s))[:k]
        hits.append(len(relevant[u].intersection(top.tolist())) / len(relevant[u]))
    return float(np.mean(hits))


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Run:
    """What one benchmark invocation hands back to run.py."""

    def __init__(self):
        self.ledger = Ledger()
        self.speed = Speed()
        self.metrics = {}
        self.info = {}
        self.problems = []

    @property
    def correct(self):
        return not self.problems and self.ledger.failed == 0

    def median_seconds(self, intervals):
        return statistics.median(map(self.speed.scaled, intervals))


# ---------------------------------------------------------------- office

class Office:
    def __init__(self, tag, seed, seconds, run):
        self.tag, self.seed, self.seconds, self.run = tag, seed, seconds, run
        self.epochs = OFFICE_EPOCHS[tag]
        self.dir = _fresh_dir(os.path.join(WORK_DIR, f"office-{tag}-s{seed}"))
        paths = make_corpus("office", seed, os.path.join(self.dir, "corpus"))
        self.config = experiment_config(tag, paths, seed,
                                        os.path.join(self.dir, "out"), self.epochs)
        self.state = None

    def set_up(self):
        self.state = None
        gc.collect()
        (split, tdata, (model,)), interval = timed(self.run, setup, self.config, [self.tag])
        self.state = (split, tdata, model,
                        {n: t.data.copy() for n, t in model.params().named().items()})
        self.run.info["corpus"] = asdict(ds.stats(split.dataset))
        return interval

    def train(self, samples):
        """One training of `epochs` epochs from the initial parameters;
        returns the validation recall of its last pass."""
        split, tdata, model, initial = self.state
        for name, t in model.params().named().items():
            t.data[...] = initial[name]
        fn = ev.recall_eval_fn(split, "validation", k=20)
        try:
            with BatchTicks(self.run.speed) as ticks:
                eval_fn = EpochClock(fn, self.epochs, self.run, samples, ticks)
                schema.train_loop(model.spec, model, tdata, self.config.trainer,
                                  eval_fn=eval_fn)
        except FAILURES as exc:
            self.run.ledger.fail("training", exc)
            raise
        return eval_fn.values[-1]

    def evaluate(self, samples):
        split, _, model, _ = self.state
        try:
            (report, _), interval = timed(self.run, ev.evaluate_model, model, split,
                                          part="test", cutoffs=CUTOFFS)
        except FAILURES as exc:
            self.run.ledger.fail("test evaluation", exc)
            raise
        samples[self.tag].setdefault("test", []).append(interval)
        self.run.ledger.ok()
        bad = [key for key, v in report.values.items() if not np.isfinite(v)]
        if bad:
            self.run.problems.append(f"non-finite test metrics {bad}")

    def check(self, recall):
        split, _, model, _ = self.state
        expected = brute_force_recall(model, split)
        if abs(expected - recall) > 1e-9:
            self.run.problems.append(
                f"validation Recall@20 {recall!r} != brute force {expected!r}")

    def measure(self):
        samples, recalls = {}, []
        setups = repeat_set_up(self.set_up)
        train_start = clock()
        recalls.append(self.train(samples))
        trained = clock() - train_start
        self.evaluate(samples)
        protocol = (setups[-1][0], samples[self.tag]["test"][0][1])
        for _ in range(TEST_REPEATS - 1):
            self.evaluate(samples)
        while trained < self.seconds:
            start = clock()
            recalls.append(self.train(samples))
            trained += clock() - start
        peak = peak_rss_mb()
        self.check(recalls[-1])
        if len(set(recalls)) != 1:
            self.run.problems.append(f"recall differs between equal trainings {recalls}")
        self.run.metrics.update(
            setup_s=self.run.median_seconds(setups),
            train_epoch_s=roster_seconds(self.run, samples, "epoch"),
            val_pass_s=roster_seconds(self.run, samples, "val"),
            test_eval_s=roster_seconds(self.run, samples, "test"),
            protocol_s=self.run.speed.scaled(protocol),
            peak_rss_mb=peak,
            recall20=recalls[-1],
        )
        record = samples[self.tag]
        self.run.info["samples"] = {"setup": len(setups), "batch": len(record["batch"]),
                                    "val": len(record["val"]), "test": len(record["test"]),
                                    "trainings": len(recalls)}
        self.run.info["batches_per_epoch"] = record["batches"][0]
        self.run.info["raw_protocol_s"] = protocol[1] - protocol[0]

    def one_pass(self, samples):
        """Set-up, one training, one test evaluation; returns the recall."""
        self.set_up()
        recall = self.train(samples)
        self.evaluate(samples)
        return recall


# ---------------------------------------------------------- small protocol

class SmallProtocol:
    tags = fm.MODEL_TAGS

    def __init__(self, seed, seconds, run):
        self.seed, self.seconds, self.run = seed, seconds, run
        self.dir = _fresh_dir(os.path.join(WORK_DIR, f"small-protocol-s{seed}"))
        paths = make_corpus("small", seed, os.path.join(self.dir, "corpus"))
        self.config = experiment_config(
            "vbpr", paths, seed, os.path.join(self.dir, "out"), PROTOCOL_EPOCHS,
            grid_lrs=(TRAINER["lr"],), grid_regs=(1e-5, 1e-2))

    def set_up(self):
        gc.collect()
        return timed(self.run, setup, self.config, self.tags)[1]

    def protocol(self, samples):
        """One cmd_benchmark over all six models: its interval and digest."""
        shutil.rmtree(self.config.out_dir, ignore_errors=True)
        try:
            with ProgramClocks(self.run, samples):
                rows, interval = timed(self.run, ex.cmd_benchmark, self.config)
        except FAILURES as exc:
            self.run.ledger.fail("protocol", exc)
            raise
        self.run.ledger.ok()
        with open(os.path.join(self.config.out_dir, "prepared", "stats.json"),
                  encoding="utf-8") as fh:
            self.run.info["corpus"] = json.load(fh)
        for tag in self.tags:
            missing = ex.audit_run_dir(os.path.join(self.config.out_dir, tag))
            if missing:
                self.run.problems.append(f"{tag}: missing artifacts {missing}")
        if [tag for tag, _ in rows] != list(self.tags):
            self.run.problems.append(f"report rows {[t for t, _ in rows]}")
        return interval, artifact_digest(self.config.out_dir)

    def mean_test_recall(self):
        values = []
        for tag in self.tags:
            with open(os.path.join(self.config.out_dir, tag, "metrics.json"),
                      encoding="utf-8") as fh:
                values.append(json.load(fh)["values"]["recall@20"])
        return float(np.mean(values))

    def check_digests(self, digests):
        if len(set(digests)) != 1:
            self.run.problems.append(f"artifact digests differ within the run {digests}")
        key = f"{code_identity()}/seed{self.seed}"
        known = remember_digest(key, digests[0])
        if known != digests[0]:
            self.run.problems.append(
                f"artifact digest {digests[0]} differs from {known} recorded "
                f"by an earlier run of this code at seed {self.seed}")
        self.run.info["artifact_digest"] = digests[0]

    def measure(self):
        samples = {}
        setups = repeat_set_up(self.set_up)
        walls, digests = [], []
        while not walls or sum(end - start for start, end in walls) < self.seconds:
            wall, digest = self.protocol(samples)
            walls.append(wall)
            digests.append(digest)
        peak = peak_rss_mb()
        self.check_digests(digests)
        self.run.metrics.update(
            setup_s=self.run.median_seconds(setups),
            train_epoch_s=roster_seconds(self.run, samples, "epoch"),
            val_pass_s=roster_seconds(self.run, samples, "val"),
            test_eval_s=roster_seconds(self.run, samples, "test"),
            protocol_s=self.run.median_seconds(walls),
            peak_rss_mb=peak,
            recall20=self.mean_test_recall(),
        )
        self.run.info["samples"] = {"setup": len(setups), "protocol": len(walls)}
        self.run.info["raw_protocol_s"] = walls[0][1] - walls[0][0]

    def one_pass(self, samples):
        """One cmd_benchmark; returns the artifact digest."""
        return self.protocol(samples)[1]


# ------------------------------------------------------------- artifacts

NONDETERMINISTIC = ("timings.json", "trace.tsv")


def artifact_digest(root):
    """sha256 over every artifact under root except the wall-clock files."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name in NONDETERMINISTIC:
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def code_identity():
    """sha256 over the program's sources and the benchmark's own code."""
    h = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__" and not d.startswith("_"))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def remember_digest(key, digest):
    """Record digest under key unless one is there; return the recorded one."""
    path = os.path.join(WORK_DIR, "digests.json")
    known = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    if key not in known:
        known[key] = digest
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return known[key]


# ----------------------------------------------------------------- entry

WORKLOADS = {
    "office-vbpr": lambda seed, seconds, run: Office("vbpr", seed, seconds, run),
    "office-freedom": lambda seed, seconds, run: Office("freedom", seed, seconds, run),
    "small-protocol": lambda seed, seconds, run: SmallProtocol(seed, seconds, run),
}


def measure(name, seed, seconds, run):
    """Untraced run: every end-to-end metric, into run.metrics."""
    workload = WORKLOADS[name](seed, seconds, run)
    try:
        workload.measure()
    finally:
        shutil.rmtree(workload.dir, ignore_errors=True)


def trace(name, seed, seconds, run):
    """Traced run: a warm-up pass, an untraced pass, then the same pass traced.

    Per-layer numbers come from the traced pass, in raw seconds. In that
    pass every speed probe is a trace.probe span of its own, so no layer's
    self time holds probe time. trace.overhead_pct compares the traced
    pass's scaled time with the untraced pass's; the warm-up pass takes the
    first set-up and allocations off both.
    """
    workload = WORKLOADS[name](seed, seconds, run)
    tracer = spans.Tracer(f"{name}-s{seed}")
    outs, intervals = [], []
    try:
        for traced in (False, False, True):
            samples = {}
            if traced:
                tracer.install(probe=run.speed)
            try:
                out, interval = timed(run, workload.one_pass, samples)
            finally:
                tracer.uninstall()
            outs.append(out)
            intervals.append(interval)
        tracer.write(os.path.join(WORK_DIR, f"spans-{name}.tsv"))
        if isinstance(workload, Office):
            workload.check(outs[-1])
            if len(set(outs)) != 1:
                run.problems.append(f"recall differs between passes {outs} (last traced)")
        else:
            workload.check_digests(outs)
    finally:
        shutil.rmtree(workload.dir, ignore_errors=True)
    scaled = [run.speed.scaled(interval) for interval in intervals]
    rss = samples.get("_rss", [0.0])
    run.metrics.update(tracer.layer_metrics())
    run.metrics["training.rss_growth_mb"] = rss[-1] - rss[0]
    run.metrics["trace.overhead_pct"] = 100.0 * (scaled[2] - scaled[1]) / scaled[1]
    run.info["spans"] = len(tracer.spans)
    run.info["pass_scaled_s"] = scaled
    run.info["pass_raw_s"] = [end - start for start, end in intervals]
