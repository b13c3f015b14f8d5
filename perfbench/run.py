"""Benchmark of the mcc pipeline: decrypt, encrypt, key load and set-up.

    python3 perfbench/run.py --workload decrypt-deep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. One
process runs one workload as a single client in a closed loop: each
operation starts when the previous one has returned, and decrypt runs
serially (``workers`` is never set).

A run first sets up ``SETUP_REPS`` times: preset load, keygen, save of both
keys, load of both keys. It keeps the last loaded key pair and measures
``KEY_ROUND_TRIPS`` more save/load round trips with it. After every key
cycle and round trip it encrypts ``ENCRYPT_BATCH`` fresh plaintexts with the
loaded public key. It then decrypts the last of them cold, which pays any
lazy work of the first decrypt. The timed loop then runs for ``--seconds``:
fresh plaintexts, each encrypted with the loaded public key and decrypted
with the loaded private key.

Every decrypted plaintext is compared with the message sent and every loaded
key is serialized again and compared with its file; a mismatch aborts with
exit code 1 and no result. A detected ``DecryptionFailure`` is counted as a
failed operation.

The last line of standard output is the result: end-to-end metrics with
``--trace 0``; with ``--trace 1`` the package's functions are wrapped (see
``tracer.py``) and the per-layer metrics of ``layers.py`` are reported. The
line before it is a report with the machine, the seeds, sample counts and
percentiles, operation counts and SHA-256 digests of the set-up public keys
(equal for equal seeds) and of the ciphertext stream (equal for equal seeds
when the loop ran as many operations). ``--preset`` runs a workload's code
path on another preset, for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# workload -> preset; later changes refer to these names
WORKLOADS = {"decrypt-deep": "bench-a", "decrypt-wide": "bench-b"}
SETUP_REPS = 3
KEY_ROUND_TRIPS = 4
ENCRYPT_BATCH = 8
# sub-seed streams derived from the workload seed
_SETUP_KEYS, _MESSAGES = 1, 2


class Abort(Exception):
    """The program returned a wrong result; the run must not report."""


def median(values):
    return statistics.median(values) if values else 0.0


def high_percentile(values):
    """Highest percentile with ten samples above it; None below 20 samples."""
    n = len(values)
    k = n - 10
    if k < 10:
        return None
    return {"pct": round(100.0 * k / n, 1), "value": sorted(values)[k - 1]}


class Harness:
    def __init__(self, mcc, np, tracer, tmpdir: Path):
        self.mcc = mcc
        self.np = np
        self.tracer = tracer
        self.priv_path = tmpdir / "key.priv"
        self.pub_path = tmpdir / "key.pub"
        self.phase = "setup"
        self.samples = defaultdict(list)  # (phase, op) -> seconds
        self.counts = Counter()  # operations of the set-up and the loop
        self.setup_counts = Counter()
        self.attempted = 0
        self.failed = 0
        self.decrypts = Counter()
        self.key_bytes = {}
        self.pub_digest = hashlib.sha256()
        self.ct_digest = hashlib.sha256()
        self.ciphertexts = 0

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        if self.tracer:
            self.tracer.phase = phase

    @contextmanager
    def checking(self):
        """Run verification work outside the measured phases."""
        saved = self.phase
        self.set_phase("check")
        try:
            yield
        finally:
            self.set_phase(saved)

    def timed(self, op, fn, *args):
        if self.tracer:
            self.tracer.op = op
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.samples[(self.phase, op)].append(perf_counter() - start)
            self.attempted += 1
            self.counts[op] += 1
            if self.phase == "setup":
                self.setup_counts[op] += 1
            if self.tracer:
                self.tracer.op = None

    def times(self, op, phases=("setup", "loop")):
        return [t for ph in phases for t in self.samples[(ph, op)]]

    def _save(self, pub, priv):
        self.mcc.save_key(priv, self.priv_path)
        self.mcc.save_key(pub, self.pub_path)

    def round_trip(self, pub, priv):
        """Save both keys, load them back and check them; returns the loaded pair."""
        mcc = self.mcc
        self.timed("save_keys", self._save, pub, priv)
        priv = self.timed("load_priv", mcc.load_key, self.priv_path)
        pub = self.timed("load_pub", mcc.load_key, self.pub_path)
        with self.checking():
            for kind, key, path in (("priv", priv, self.priv_path), ("pub", pub, self.pub_path)):
                data = path.read_bytes()
                if mcc.serialize_key(key) != data:
                    raise Abort(f"re-serialized {kind} key differs from the saved file")
                self.key_bytes[kind] = data
        return pub, priv

    def key_cycle(self, preset: str, seed_key):
        """Keygen and a save/load round trip; returns (params, pub, priv, seconds)."""
        mcc = self.mcc
        start = perf_counter()
        pf = self.timed("preset", mcc.load_preset, preset)
        pub, priv = self.timed(
            "keygen", mcc.keygen, pf.params, pf.g_p, pf.g_q, self.np.random.default_rng(seed_key)
        )
        pub, priv = self.round_trip(pub, priv)
        elapsed = perf_counter() - start
        self.pub_digest.update(self.key_bytes["pub"])
        return pf.params, pub, priv, elapsed

    def encrypt(self, pub, params, rng):
        m = self.mcc.BitVec.random(params.plaintext_len, rng)
        ct = self.timed("encrypt", self.mcc.encrypt, pub, m, rng)
        with self.checking():
            self.ct_digest.update(self.mcc.serialize_ciphertext(ct))
        self.ciphertexts += 1
        return m, ct

    def decrypt(self, pub, priv, m, ct) -> None:
        """Decrypt and compare; a detected failure is counted."""
        self.decrypts["attempted"] += 1
        try:
            out = self.timed("decrypt", self.mcc.decrypt, priv, pub, ct)
        except self.mcc.DecryptionFailure:
            self.decrypts["failed"] += 1
            self.failed += 1
            return
        if out != m:
            raise Abort("decrypt returned a wrong plaintext")
        self.decrypts["ok"] += 1


def run_workload(h: Harness, preset: str, seed: int, seconds: float):
    rng = h.np.random.default_rng([seed, _MESSAGES])
    rep_s = []
    # encrypt batches follow every key cycle and round trip, so that the
    # encrypt samples spread over the set-up instead of one burst
    for i in range(SETUP_REPS):
        params, pub, priv, elapsed = h.key_cycle(preset, [seed, _SETUP_KEYS, i])
        rep_s.append(elapsed)
        sent = [h.encrypt(pub, params, rng) for _ in range(ENCRYPT_BATCH)]
    for _ in range(KEY_ROUND_TRIPS):
        pub, priv = h.round_trip(pub, priv)
        sent = [h.encrypt(pub, params, rng) for _ in range(ENCRYPT_BATCH)]
    h.decrypt(pub, priv, *sent[-1])
    first_decrypt_s = h.samples[("setup", "decrypt")][0]

    # stop before a decrypt that would end after the deadline; at least one
    h.set_phase("loop")
    start = now = perf_counter()
    n = 0
    while n == 0 or (now - start) + (now - before) <= seconds:
        before = perf_counter()
        h.decrypt(pub, priv, *h.encrypt(pub, params, rng))
        n += 1
        now = perf_counter()
    info = {
        "seed_streams": {
            "keygen": [[seed, _SETUP_KEYS, i] for i in range(SETUP_REPS)],
            "messages": [seed, _MESSAGES],
        },
        "setup_reps_s": rep_s,
        "first_decrypt_s": first_decrypt_s,
        "loop_ops": n,
        "loop_s": now - start,
    }
    return params, info


def end_to_end(h: Harness, info, import_s):
    # the cold first decrypt is a latency sample too; set-up time counts it whole
    setup_s = import_s + median(info["setup_reps_s"]) + info["first_decrypt_s"]
    return {
        "decrypt_s": (median(h.times("decrypt")), "s"),
        "decrypt_per_s": (info["loop_ops"] / info["loop_s"], "1/s"),
        "decrypt_ok_frac": (h.decrypts["ok"] / h.decrypts["attempted"], "frac"),
        "encrypt_ms": (1000.0 * median(h.times("encrypt")), "ms"),
        "load_priv_s": (median(h.times("load_priv")), "s"),
        "priv_key_bytes": (len(h.key_bytes["priv"]), "bytes"),
        "pub_key_bytes": (len(h.key_bytes["pub"]), "bytes"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def machine_info(np):
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--preset", help="run the workload's code path on another preset")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mcc" / "__init__.py").is_file():
        print(f"perfbench: no mcc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import mcc

    import_s = perf_counter() - start
    import numpy as np

    preset = args.preset or WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer(mcc)
    tmpdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        h = Harness(mcc, np, tracer, tmpdir)
        params, info = run_workload(h, preset, args.seed, args.seconds)
    except Abort as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer:
            tracer.close()
        shutil.rmtree(tmpdir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "preset": preset,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(np),
        "import_s": import_s,
        **info,
        "samples": {
            f"{ph}.{op}": {"n": len(v), "median": median(v), "high": high_percentile(v)}
            for (ph, op), v in sorted(h.samples.items())
        },
        "decrypts": dict(h.decrypts),
        "setup_pub_key_sha256": h.pub_digest.hexdigest(),
        "ciphertexts": h.ciphertexts,
        "ciphertext_sha256": h.ct_digest.hexdigest(),
    }
    if tracer:
        from layers import derive

        metrics, absent = derive(
            tracer, h.counts, h.setup_counts, h.decrypts["ok"], params, median(h.times("decrypt"))
        )
        report.update(
            absent=absent,
            spans=tracer.spans,
            worst_child_excess_s=tracer.worst_child_excess,
            viterbi_outside_decrypt=tracer.total("trellis.viterbi_decode", "calls")
            - tracer.total("trellis.viterbi_decode", "calls", op="decrypt"),
        )
    else:
        metrics = end_to_end(h, info, import_s)
    print(json.dumps({"report": report}))
    result = {
        "correct": True,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
