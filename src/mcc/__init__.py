"""Public-key encryption from masked high-memory convolutional codes."""

from .bitlinalg import BitVec
from .cryptopipe import DecryptionFailure, decrypt, encrypt
from .keyring import KeyFormatError, deserialize_key, keygen, load_key, save_key, serialize_key
from .keyring import deserialize_ciphertext, serialize_ciphertext
from .presets import ParamFileError, load_preset

# perfbench/selftest.py deletes and restores mcc.viterbi_decode to check that
# a lost span label is reported; the name must stay here until it stops.
from .trellis import viterbi_decode

__version__ = "0.1.0"

__all__ = [
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
]
