"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/_work/sweep.json
    python3 perfbench/sweep.py --seeds 1-10 --traced --out perfbench/baseline.json

Every workload in BENCHMARK.json runs at its run_seconds. Each run is a
separate `perfbench/run.py` process, one at a time, seeds in the outer loop so that slow spells of the machine spread over all
workloads. For every end-to-end metric the summary gives the median, the
quartiles from statistics.quantiles(values, n=4), and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json. With
--traced, one traced run per workload (first seed) adds the per-layer
metrics. A run whose output check fails makes the exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), None)
    if done.returncode != 0 or result is None or not result["correct"]:
        print(f"  {workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}",
              file=sys.stderr)
    return {"seed": seed, "exit": done.returncode, "wall_s": wall,
            "result": result, "record": record}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in contract["workloads"]]
    seconds = contract["run_seconds"]
    seeds = parse_seeds(args.seeds)

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(run_once(w, seed, seconds, 0))
            print(f"{w} seed {seed}: {runs[w][-1]['wall_s']:.1f} s", flush=True)
    traced = {}
    if args.traced:
        for w in workloads:
            traced[w] = run_once(w, seeds[0], seconds, 1)

    ok = True
    summary = {}
    for w in workloads:
        results = [r["result"] for r in runs[w]]
        ok &= all(r is not None and r["correct"] for r in results)
        summary[w] = {}
        print(f"\n{w}  ({len(results)} runs)")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for m in contract["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results if r]
            if len(values) < 2:
                continue
            s = spread(values)
            s.update(unit=m["unit"], bound=m["bound"], values=values)
            summary[w][m["name"]] = s
            flag = "" if s["spread"] < m["bound"] / 3 else \
                "  above bound/3" if s["spread"] < m["bound"] else "  ABOVE BOUND"
            print(f"  {m['name']:16s} {s['median']:12.4f} {s['q1']:12.4f} "
                  f"{s['q3']:12.4f} {s['spread']:7.3f} {m['bound']:6.2f} "
                  f"{m['unit']}{flag}")
    body = {
        "env": next((r["record"]["env"] for w in workloads for r in runs[w]
                     if r["record"]), None),
        "seeds": seeds,
        "run_seconds": seconds,
        "end_to_end": summary,
        "runs": {w: [{k: r[k] for k in ("seed", "exit", "wall_s")} |
                     {"info": (r["record"] or {}).get("info")} for r in runs[w]]
                 for w in workloads},
    }
    if traced:
        body["per_layer"] = {
            w: {"seed": t["seed"], "wall_s": t["wall_s"],
                "metrics": {k: v["value"] for k, v in t["result"]["metrics"].items()}
                if t["result"] else None}
            for w, t in traced.items()}
        ok &= all(t["result"] is not None and t["result"]["correct"]
                  for t in traced.values())
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.out}; all checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
