"""Self-test of the benchmark harness on the small ``desk`` preset.

    python3 perfbench/selftest.py

Runs every workload's code path on ``desk`` for one second, untraced and
traced, and checks that:

* the result line has exactly the keys the benchmark contract names, and
  every end-to-end and per-layer metric of ``BENCHMARK.json`` appears with
  its unit (end-to-end values above zero);
* no traced span's children exceed the span, self times stay within busy
  times, and no Viterbi decoding runs inside a keygen or a key load;
* one seed gives the same key material traced and untraced;
* a span label the package no longer defines is reported as absent;
* without the package sources, ``run.py`` exits non-zero and prints no result.

Exits 1 and names each failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SELF_PAIRS = (
    ("cryptopipe.invert_highmem.self_s", "cryptopipe.invert_highmem.s"),
    ("keyring.deserialize_key.priv_self_s", "keyring.deserialize_key.priv_s"),
    ("bitlinalg.rank_invert.load_s", "keyring.deserialize_key.priv_s"),
)


def run_bench(cwd: Path, workload: str, trace: int, timeout=180):
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--preset", "desk",
    ]  # fmt: skip
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def check_run(spec, workload, trace, errors):
    proc = run_bench(ROOT, workload, trace)
    where = f"{workload} trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: correct/attempted {result.get('correct')}/{result.get('attempted')}")
    want = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in want}:
        errors.append(f"{where}: metric names differ: {sorted(set(metrics) ^ {m['name'] for m in want})}")
    for m in want:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got["value"]
        if got["unit"] != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got['unit']} != {m['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
            errors.append(f"{where}: {m['name']} = {value!r}")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end {m['name']} is zero")
    if trace:
        if report["worst_child_excess_s"] > 1e-9:
            errors.append(f"{where}: children exceed a span by {report['worst_child_excess_s']}")
        if report["absent"]:
            errors.append(f"{where}: absent span labels {report['absent']}")
        v = {k: m["value"] for k, m in metrics.items()}
        for part, whole in SELF_PAIRS:
            if v[part] > v[whole] + 1e-9:
                errors.append(f"{where}: {part} {v[part]} exceeds {whole} {v[whole]}")
        if v["trellis.viterbi_decode.share"] > 1:
            errors.append(f"{where}: Viterbi time exceeds decrypt time")
        if not 0 < v["trellis.useful_decode_frac"] <= 1:
            errors.append(f"{where}: useful decode fraction {v['trellis.useful_decode_frac']}")
        if report["viterbi_outside_decrypt"]:
            errors.append(f"{where}: Viterbi decoding outside decrypt")
    return report


def check_absent(errors):
    """A label the package lost reads 0 and is listed, without a crash."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import mcc
    import mcc.cryptopipe
    from layers import derive
    from tracer import Tracer

    params = mcc.load_preset("desk").params
    saved = [(m, m.viterbi_decode) for m in (mcc, mcc.cryptopipe, sys.modules["mcc.trellis"])]
    try:
        for module, _ in saved:
            del module.viterbi_decode
        with Tracer(mcc) as tracer:
            metrics, absent = derive(tracer, {"decrypt": 1}, {}, 0, params, 0.0)
    finally:
        for module, fn in saved:
            module.viterbi_decode = fn
    if absent != ["trellis.viterbi_decode"] or metrics["trellis.viterbi_decode.s"][0] != 0:
        errors.append(f"absent label: got {absent}")


def check_no_sources(spec, errors):
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("without sources: run.py reported a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    for w in spec["workloads"]:
        reports = [check_run(spec, w["name"], trace, errors) for trace in (0, 1)]
        if all(reports) and reports[0]["setup_pub_key_sha256"] != reports[1]["setup_pub_key_sha256"]:
            errors.append(f"{w['name']}: one seed gave different keys traced and untraced")
        print(f"{w['name']}: ran untraced and traced", flush=True)
    check_absent(errors)
    check_no_sources(spec, errors)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
