"""The package's top-level names and span labels: what the benchmark harness
reads, and no more."""

import ast
import importlib.util
import re
import sys
import types
from pathlib import Path

import mcc
from mcc.presets import load_preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(mcc.__file__).resolve().parent

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


def load_perfbench(name):
    """Import perfbench/<name>.py without writing bytecode under perfbench/."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


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


def test_every_span_label_the_benchmark_reads_is_traced():
    # a traced function that is renamed, moved or made private reads 0 in the
    # benchmark and is listed as absent
    tracer_mod, layers = load_perfbench("tracer"), load_perfbench("layers")
    ops = ("decrypt", "encrypt", "keygen", "load_priv", "load_pub", "save_keys")
    with tracer_mod.Tracer(mcc) as tracer:
        _, absent = layers.derive(
            tracer, dict.fromkeys(ops, 1), {}, 0, load_preset("desk").params, 0.0
        )
    assert absent == []


def unused_imports(source: str) -> set[str]:
    """Names a module imports and never reads; its __all__ counts as a read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_unused_import_guard_sees_unread_names():
    assert unused_imports("import numpy as np\nfrom .a import b, c\nc()\n") == {"np", "b"}
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == set()
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == set()


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert unused == {}


def nested_imports(source: str) -> list[int]:
    """Lines of the imports inside a function or class.

    A module-level ``if TYPE_CHECKING:`` block counts as module level.
    """
    tree = ast.parse(source)
    top = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name):
            if node.test.id == "TYPE_CHECKING":
                top += node.body
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in top
    ]


def test_nested_import_guard_sees_function_and_class_imports():
    source = (
        "import os\nif TYPE_CHECKING:\n    from .a import B\n"
        "def f():\n    import sys\nclass C:\n    from .b import d\n"
    )
    assert nested_imports(source) == [5, 7]


def test_no_module_imports_inside_a_function_or_class():
    nested = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := nested_imports(path.read_text()))
    }
    assert nested == {}


def assert_lines(source: str) -> list[int]:
    """Lines of the assert statements, which ``python -O`` strips."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_guard_sees_nested_asserts():
    source = "assert a\ndef f():\n    x = 1\n    assert x, 'msg'\nclass C:\n    assert True\n"
    assert assert_lines(source) == [1, 4, 6]


def test_no_module_checks_an_invariant_with_assert():
    asserts = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := assert_lines(path.read_text()))
    }
    assert asserts == {}
