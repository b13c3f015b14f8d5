"""Parameter file parsing, shipped presets and injected key material.

Parameter files are line-oriented ``key = value`` text. Polynomials are
written either as exponent lists like ``[0,5,12,16]`` or as octal generator
strings like ``0o753`` (most significant bit = constant term); several
polynomials are separated by semicolons. N is always derived from
n * (K + p + q) and may not be specified directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from .bitlinalg import BitVec, MatF2, Permutation
from .convcode import MAX_N, CodeParams, PolyGenMatrix
from .gf2poly import BinPoly
from .keyring import KeyMaterial, MaskBasis

# degree-16 CRC used when a parameter file does not pick one
DEFAULT_CRC_POLY = BinPoly.from_exponents([0, 5, 12, 16])

PRESET_NAMES = ("demo", "desk", "bench-a", "bench-b")


class ParamFileError(ValueError):
    """Raised for unreadable or inconsistent parameter files."""


@dataclass(frozen=True)
class ParamFile:
    params: CodeParams
    g_p: PolyGenMatrix
    g_q: PolyGenMatrix
    seed: int | None


def _parse_poly(token: str) -> BinPoly:
    token = token.strip()
    if token.startswith("0o"):
        return BinPoly.from_octal(token)
    if token.startswith("[") and token.endswith("]"):
        inner = token[1:-1].strip()
        exps = [int(x) for x in inner.split(",")] if inner else []
        # every degree a valid file names is below N, which is capped
        if any(not 0 <= e < MAX_N for e in exps):
            raise ParamFileError(f"exponent outside 0..{MAX_N - 1} in {token!r}")
        return BinPoly.from_exponents(exps)
    raise ParamFileError(f"cannot parse polynomial {token!r}")


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
            n=int(entries["n"]),
            p=int(entries["p"]),
            q=int(entries["q"]),
            K=int(entries["K"]),
            l=int(entries["l"]),
            e=_parse_rational(entries["e"]),
            r_poly=crc,
        )
    except ParamFileError:
        raise
    except ValueError as exc:
        raise ParamFileError(str(exc)) from exc
    if g_p.n != params.n or g_q.n != params.n:
        raise ParamFileError("polynomial counts disagree with n")
    if g_p.memory != params.p:
        raise ParamFileError(f"g_p memory {g_p.memory} does not equal p = {params.p}")
    if g_q.memory != params.q:
        raise ParamFileError(f"g_q memory {g_q.memory} does not equal q = {params.q}")
    seed = int(entries["seed"]) if "seed" in entries else None
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
    except OSError as exc:
        raise ParamFileError(f"cannot read {path_or_preset}: {exc}") from exc
    return parse_param_file(text)


def parse_inject_json(text: str, params: CodeParams) -> KeyMaterial:
    """Read the key material an inject file pins; other fields are ignored."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParamFileError(f"bad inject file: {exc}") from exc
    try:
        s = MatF2.from_bitstrings(doc["s_rows"])
        perm = Permutation(np.array(doc["perm_sources"], dtype=np.int64))
        basis = MaskBasis(tuple(BitVec.from01(v) for v in doc["mask_basis"]))
        mask = MatF2.from_bitstrings(doc["mask_rows"])
        material = KeyMaterial(s=s, perm=perm, mask_basis=basis, mask_matrix=mask)
        material.check(params)
    except (KeyError, ValueError) as exc:
        raise ParamFileError(f"bad inject file: {exc}") from exc
    return material
