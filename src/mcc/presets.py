"""Parameter file parsing, shipped presets and injected key material.

Parameter files are line-oriented ``key = value`` text. Polynomials are
written either as exponent lists like ``[0,5,12,16]``, each exponent named
once, or as octal generator strings like ``0o753`` of the digits 0-7 (most
significant bit = constant term); several polynomials are separated by
semicolons. N is always derived from n * (K + p + q) and may not be
specified directly.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .bitlinalg import BitVec, MatF2, Permutation
from .convcode import MAX_N, CodeParams, PolyGenMatrix
from .gf2poly import from_exponents, from_octal
from .keyring import KeyMaterial, MaskBasis

# degree-16 CRC used when a parameter file does not pick one
DEFAULT_CRC_POLY = from_exponents([0, 5, 12, 16])

PRESET_NAMES = ("demo", "desk", "bench-a", "bench-b")


class ParamFileError(ValueError):
    """Raised for unreadable or inconsistent parameter files."""


@dataclass(frozen=True)
class ParamFile:
    params: CodeParams
    g_p: PolyGenMatrix
    g_q: PolyGenMatrix
    seed: int | None


def _parse_poly(token: str) -> int:
    # every degree a valid file names is below N, which is capped; messages
    # quote a token shortened, because a token can be megabytes long
    token = token.strip()
    quoted = reprlib.repr(token)
    if token.startswith("0o"):
        poly = from_octal(token)
        if poly.bit_length() > MAX_N:
            raise ParamFileError(f"octal polynomial of degree {poly.bit_length() - 1} >= {MAX_N}")
        return poly
    if token.startswith("[") and token.endswith("]"):
        inner = token[1:-1].strip()
        exps = [int(x) for x in inner.split(",")] if inner else []
        if any(not 0 <= e < MAX_N for e in exps):
            raise ParamFileError(f"exponent outside 0..{MAX_N - 1} in {quoted}")
        if len(set(exps)) != len(exps):
            raise ParamFileError(f"repeated exponent in {quoted}")
        return from_exponents(exps)
    raise ParamFileError(f"cannot parse polynomial {quoted}")


def _parse_poly_list(value: str) -> PolyGenMatrix:
    return PolyGenMatrix(tuple(_parse_poly(tok) for tok in value.split(";")))


def _parse_rational(value: str) -> Fraction:
    value = value.strip()
    try:
        if "/" in value:
            num, den = value.split("/")
            return Fraction(int(num), int(den))
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParamFileError(f"cannot parse rational {value!r}") from exc


def _parse_int(entries: dict[str, str], key: str) -> int:
    try:
        return int(entries[key])
    except ValueError as exc:
        raise ParamFileError(f"{key}: {exc}") from exc


def parse_param_file(text: str) -> ParamFile:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamFileError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ParamFileError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    if "N" in entries:
        raise ParamFileError("N is derived from n * (K + p + q) and cannot be set")
    required = {"n", "p", "q", "K", "l", "e", "g_p", "g_q"}
    missing = required - entries.keys()
    if missing:
        raise ParamFileError(f"missing keys: {sorted(missing)}")
    known = required | {"crc_poly", "seed"}
    unknown = entries.keys() - known
    if unknown:
        raise ParamFileError(f"unknown keys: {sorted(unknown)}")
    try:
        g_p = _parse_poly_list(entries["g_p"])
        g_q = _parse_poly_list(entries["g_q"])
        crc = (
            _parse_poly(entries["crc_poly"])
            if "crc_poly" in entries
            else DEFAULT_CRC_POLY
        )
        params = CodeParams(
            n=_parse_int(entries, "n"),
            p=_parse_int(entries, "p"),
            q=_parse_int(entries, "q"),
            K=_parse_int(entries, "K"),
            l=_parse_int(entries, "l"),
            e=_parse_rational(entries["e"]),
            r_poly=crc,
        )
        params.check_generators(g_p, g_q)
        seed = _parse_int(entries, "seed") if "seed" in entries else None
    except ParamFileError:
        raise
    except ValueError as exc:
        raise ParamFileError(str(exc)) from exc
    if seed is not None and seed < 0:
        raise ParamFileError(f"seed must be nonnegative, not {seed}")
    return ParamFile(params=params, g_p=g_p, g_q=g_q, seed=seed)


def _data_text(name: str) -> str:
    return resources.files("mcc").joinpath("data", name).read_text()


def load_preset(name: str) -> ParamFile:
    if name not in PRESET_NAMES:
        raise ParamFileError(f"unknown preset {name!r}; have {PRESET_NAMES}")
    return parse_param_file(_data_text(name.replace("-", "_") + ".params"))


def load_params(path_or_preset: str) -> ParamFile:
    """Resolve a preset name or read a parameter file from disk."""
    if path_or_preset in PRESET_NAMES:
        return load_preset(path_or_preset)
    try:
        with open(path_or_preset, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParamFileError(f"cannot read {path_or_preset}: {exc}") from exc
    return parse_param_file(text)


def _json_list(doc, key: str, item: type) -> list:
    """doc[key], which must be a list of `item` values."""
    value = doc.get(key)
    # type(), not isinstance(): JSON true and false are not source indices
    if not isinstance(value, list) or any(type(x) is not item for x in value):
        raise ValueError(f"{key} must be a list of {item.__name__}")
    return value


def parse_inject_json(text: str) -> KeyMaterial:
    """Read the key material an inject file pins; other fields are ignored.

    keygen checks that the material fits the parameters.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParamFileError(f"bad inject file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParamFileError("bad inject file: expected a JSON object")
    try:
        return KeyMaterial(
            s=MatF2.from_bitstrings(_json_list(doc, "s_rows", str)),
            perm=Permutation(_json_list(doc, "perm_sources", int)),
            mask_basis=MaskBasis(tuple(map(BitVec.from01, _json_list(doc, "mask_basis", str)))),
            mask_matrix=MatF2.from_bitstrings(_json_list(doc, "mask_rows", str)),
        )
    # a source index beyond int64 overflows before Permutation can refuse it
    except (ValueError, OverflowError) as exc:
        raise ParamFileError(f"bad inject file: {exc}") from exc
