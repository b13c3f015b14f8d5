import json
from dataclasses import dataclass
from importlib import resources

import numpy as np
import pytest

from mcc.bitlinalg import BitVec
from mcc.convcode import CodeParams, PolyGenMatrix
from mcc.keyring import KeyMaterial, keygen
from mcc.presets import load_preset, parse_inject_json


@dataclass(frozen=True)
class DemoFixture:
    """Fully pinned 30-bit key set with a known message and error pattern."""

    params: CodeParams
    g_p: PolyGenMatrix
    g_q: PolyGenMatrix
    material: KeyMaterial
    message: BitVec
    error_positions: tuple[int, ...]

    @property
    def error_vector(self) -> BitVec:
        return BitVec.from_indices(self.params.N, self.error_positions)


@pytest.fixture(scope="session")
def demo():
    pf = load_preset("demo")
    text = resources.files("mcc").joinpath("data", "demo_inject.json").read_text()
    doc = json.loads(text)
    return DemoFixture(
        params=pf.params,
        g_p=pf.g_p,
        g_q=pf.g_q,
        material=parse_inject_json(text, pf.params),
        message=BitVec.from01(doc["message"]),
        error_positions=tuple(doc["error_positions"]),
    )


@pytest.fixture(scope="session")
def demo_keys(demo):
    return keygen(
        demo.params, demo.g_p, demo.g_q, np.random.default_rng(0), material=demo.material
    )


@pytest.fixture(scope="session")
def desk():
    return load_preset("desk")


@pytest.fixture(scope="session")
def desk_keys(desk):
    return keygen(desk.params, desk.g_p, desk.g_q, np.random.default_rng(1234))
