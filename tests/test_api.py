"""The package's top-level names: what the benchmark harness reads, and no more."""

import re
import types
from pathlib import Path

import mcc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TOP_LEVEL = {
    "BitVec",
    "DecryptionFailure",
    "KeyFormatError",
    "ParamFileError",
    "decrypt",
    "deserialize_ciphertext",
    "deserialize_key",
    "encrypt",
    "keygen",
    "load_key",
    "load_preset",
    "save_key",
    "serialize_ciphertext",
    "serialize_key",
    "viterbi_decode",
}


def perfbench_reads():
    names = set()
    for path in PERFBENCH.glob("*.py"):
        names |= set(re.findall(r"\bmcc\.([A-Za-z_]\w*)", path.read_text()))
    # selftest.py deletes and restores viterbi_decode on every module holding it
    return names | {"viterbi_decode"}


def test_top_level_names_are_exactly_the_public_set():
    assert set(mcc.__all__) == TOP_LEVEL
    assert all(hasattr(mcc, name) for name in TOP_LEVEL)


def test_every_name_the_benchmark_reads_resolves():
    names = perfbench_reads()
    assert {"decrypt", "keygen", "load_key", "save_key"} <= names
    for name in names:
        obj = getattr(mcc, name, None)
        assert obj is not None, f"perfbench reads mcc.{name}, which is gone"
        if not isinstance(obj, types.ModuleType):
            assert name in mcc.__all__, name
