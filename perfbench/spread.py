"""Repeat benchmark runs over seeds and check their spread against the bounds.

    python3 perfbench/spread.py run --workloads decrypt-wide --seeds 1-5 --out runs.jsonl
    python3 perfbench/spread.py show runs.jsonl [second.jsonl]

``run`` starts ``run.py`` once per workload and seed, one process at a time,
and appends each run's report and result to a JSON-lines file. ``show``
prints, per workload and metric, the median over seeds and the distance
between the first and third quartiles as a share of the median, next to the
metric's bound in ``BENCHMARK.json``; a spread of a third of the bound or
more is flagged. Given a second file it also prints the change of each
median, as a second set of runs of one commit is judged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(args, spec) -> int:
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                cmd = [
                    sys.executable,
                    str(HERE / "run.py"),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(seconds),
                    "--trace", str(args.trace),
                ]  # fmt: skip
                start = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                wall_s = time.perf_counter() - start
                lines = proc.stdout.strip().splitlines()
                if proc.returncode or len(lines) < 2:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    return 1
                report = json.loads(lines[-2])["report"]
                result = json.loads(lines[-1])
                out.write(json.dumps({"report": report, "result": result, "wall_s": wall_s}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: {wall_s:.1f} s wall", flush=True)
    return 0


def load(path):
    runs = defaultdict(lambda: defaultdict(list))  # (workload, trace) -> metric -> values
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec["report"]["workload"], rec["report"]["trace"])
            for name, m in rec["result"]["metrics"].items():
                runs[key][name].append(m["value"])
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def show(args, spec) -> int:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(p) for p in args.files]
    bad = 0
    for key in sorted(sets[0]):
        workload, trace = key
        print(f"\n{workload} (trace {trace}, {len(next(iter(sets[0][key].values())))} runs)")
        for name, values in sets[0][key].items():
            med, sp = spread(values)
            line = f"  {name:40s} median {med:<14.6g} spread {sp:7.2%}"
            b = bounds.get(name) if trace == 0 else None
            if b:
                flag = ""
                if sp > b["bound"] and name != "setup_s":
                    flag, bad = "  OVER BOUND", bad + 1
                elif sp >= b["bound"] / 3:
                    flag = "  >= bound/3"
                line += f" bound {b['bound']:.2f}{flag}"
                if len(sets) > 1 and key in sets[1]:
                    med2 = statistics.median(sets[1][key][name])
                    worse = (med2 - med) / med if b["better"] == "lower" else (med - med2) / med
                    line += f" | second median {med2:.6g} worse by {worse:+.2%}"
                    if worse > b["bound"]:
                        line += "  REGRESSED"
                        bad += 1
            print(line)
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=float)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("show")
    s.add_argument("files", nargs="+")
    args = ap.parse_args(argv)
    return run(args, spec) if args.cmd == "run" else show(args, spec)


if __name__ == "__main__":
    sys.exit(main())
