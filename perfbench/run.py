"""fusionrec benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload office-vbpr --seed 1 --seconds 15 --trace 0

Run from the root of a fusionrec checkout; the program is imported from
its `src/` directory. With --trace 0 the run reports every end-to-end
metric in BENCHMARK.json, with --trace 1 every per-layer metric. The last
line of standard output is {"correct", "attempted", "failed", "metrics"};
the lines before it name each metric with its unit and record the
environment. A failed operation or output check makes `correct` false and
the exit code 1.
"""

import os

# One BLAS thread, so the second core absorbs machine noise; set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in symbols:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def environment(workloads, seed, name):
    import numpy
    import scipy
    from fusionrec import experiment

    return {
        "workload": name,
        "seed": seed,
        "git_sha": git_sha(),
        "code_sha256": workloads.code_identity(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "program_threads":
            inspect.signature(experiment.cmd_benchmark).parameters["threads"].default,
        "blas_threads": blas_threads(),
    }


def main(argv=None):
    with open(CONTRACT, encoding="utf-8") as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fusionrec", "__init__.py")):
        print(f"error: no fusionrec sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, src)
    import workloads

    run = workloads.Run()
    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    try:
        if args.trace:
            workloads.trace(args.workload, args.seed, args.seconds, run)
        else:
            workloads.measure(args.workload, args.seed, args.seconds, run)
    except workloads.FAILURES:
        wanted = [m for m in wanted if m["name"] in run.metrics]
    metrics = {}
    for m in wanted:
        if m["name"] not in run.metrics:
            raise KeyError(f"run produced no {m['name']}")
        metrics[m["name"]] = {"value": run.metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:32s} {run.metrics[m['name']]:>14.6f} {m['unit']}")
    env = environment(workloads, args.seed, args.workload)
    record = {"env": env, "info": run.info, "problems": run.problems,
              "errors": run.ledger.errors}
    print("record " + json.dumps(record, sort_keys=True))
    for line in run.problems + run.ledger.errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": run.correct, "attempted": run.ledger.attempted,
                      "failed": run.ledger.failed, "metrics": metrics}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
