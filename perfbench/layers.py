"""Per-layer metrics derived from a traced run.

Each metric is a span total normalised by the number of harness operations
it belongs to: per decrypt, per encrypt, per keygen, per save of a key pair
or per key load, over the set-up and the timed loop. The set-up's keygens and
key round trips carry the keygen and key-file layers; decrypts carry the
decoder. ``analysis.estimate_alpha.s`` is a per-run total, because the gate's
alpha estimate is lazy work done once.

``setup.<layer>.self_s`` splits ``setup_s`` by layer: a layer's self time in
each kind of set-up operation, divided by how often the set-up ran that
operation, so that it adds up over one preset load, keygen, key round trip,
encrypt and the first decrypt.

A span label that the package no longer defines reads 0 and is listed as
absent, so the benchmark keeps running when a later commit replaces it.
"""

from __future__ import annotations

PHASES = ("setup", "loop")
SETUP_LAYERS = (
    "analysis",
    "bitlinalg",
    "convcode",
    "cryptopipe",
    "gf2poly",
    "keyring",
    "presets",
    "trellis",
)
ELIMINATIONS = ("bitlinalg.rank", "bitlinalg.rank_invert")


class _Query:
    def __init__(self, tracer, counts):
        self.tracer = tracer
        self.counts = counts
        self.used: set[str] = set()

    def sum(self, label, field="busy", op=None, parent=None, phases=PHASES):
        self.used.add(label)
        return self.tracer.total(label, field, phases=phases, op=op, parent=parent)

    def per(self, op, label, field="busy", parent=None):
        """Span total inside harness operations `op`, per such operation."""
        n = self.counts.get(op, 0)
        return self.sum(label, field, op=op, parent=parent) / n if n else 0.0

    def frac(self, op, label):
        calls = self.sum(label, "calls", op=op)
        return self.sum(label, "true", op=op) / calls if calls else 0.0


def derive(tracer, counts, setup_counts, ok_decrypts, params, trace_decrypt_s):
    """Return ({name: (value, unit)}, sorted absent labels)."""
    q = _Query(tracer, counts)
    vit_calls = q.per("decrypt", "trellis.viterbi_decode", "calls")
    vit_s = q.per("decrypt", "trellis.viterbi_decode")
    dec_busy = q.per("decrypt", "cryptopipe.decrypt")
    updates = vit_calls * (params.K + params.p) * (1 << params.p)
    vit_total = q.sum("trellis.viterbi_decode", "calls", op="decrypt")
    out = {
        "trellis.viterbi_decode.calls": (vit_calls, "count"),
        "trellis.viterbi_decode.s": (vit_s, "s"),
        "trellis.viterbi_decode.share": (vit_s / dec_busy if dec_busy else 0.0, "frac"),
        "trellis.state_updates": (updates, "count"),
        "trellis.state_updates_per_s": (updates / vit_s if vit_s else 0.0, "1/s"),
        "trellis.useful_decode_frac": (ok_decrypts / vit_total if vit_total else 0.0, "frac"),
        "trellis.build_trellis.s": (q.per("decrypt", "trellis.build_trellis"), "s"),
        "convcode.encode_streams.s": (q.per("decrypt", "convcode.encode_streams"), "s"),
        "convcode.interleave.s": (q.per("decrypt", "convcode.interleave"), "s"),
        "convcode.deinterleave.s": (q.per("decrypt", "convcode.deinterleave"), "s"),
        "convcode.expand_scalar.s": (q.per("keygen", "convcode.expand_scalar"), "s"),
        "gf2poly.poly_divmod.calls": (q.per("decrypt", "gf2poly.poly_divmod", "calls"), "count"),
        "gf2poly.poly_divmod.s": (q.per("decrypt", "gf2poly.poly_divmod"), "s"),
        "gf2poly.crc_verify.calls": (q.per("decrypt", "gf2poly.crc_verify", "calls"), "count"),
        "gf2poly.crc_verify.s": (q.per("decrypt", "gf2poly.crc_verify"), "s"),
        "gf2poly.crc_pass_frac": (q.frac("decrypt", "gf2poly.crc_verify"), "frac"),
        "gf2poly.crc_append.s": (q.per("encrypt", "gf2poly.crc_append"), "s"),
        "cryptopipe.decrypt.self_s": (q.per("decrypt", "cryptopipe.decrypt", "self"), "s"),
        "cryptopipe.invert_highmem.s": (q.per("decrypt", "cryptopipe.invert_highmem"), "s"),
        "cryptopipe.invert_highmem.self_s": (
            q.per("decrypt", "cryptopipe.invert_highmem", "self"),
            "s",
        ),
        "cryptopipe.enumerate_candidates.s": (
            q.per("decrypt", "cryptopipe.enumerate_candidates"),
            "s",
        ),
        "cryptopipe.candidate_gate.calls": (
            q.per("decrypt", "cryptopipe.candidate_gate", "calls"),
            "count",
        ),
        "cryptopipe.candidate_gate.accept_frac": (
            q.frac("decrypt", "cryptopipe.candidate_gate"),
            "frac",
        ),
        "cryptopipe.encrypt.s": (q.per("encrypt", "cryptopipe.encrypt"), "s"),
        "analysis.estimate_alpha.s": (q.sum("analysis.estimate_alpha"), "s"),
        "bitlinalg.permute.s": (q.per("decrypt", "bitlinalg.permute"), "s"),
        "bitlinalg.mat_vec_mul.decrypt_s": (q.per("decrypt", "bitlinalg.mat_vec_mul"), "s"),
        "bitlinalg.mat_vec_mul.encrypt_s": (q.per("encrypt", "bitlinalg.mat_vec_mul"), "s"),
        "bitlinalg.eliminations.keygen": (
            sum(q.per("keygen", lab, "calls") for lab in ELIMINATIONS),
            "count",
        ),
        "bitlinalg.eliminations.load": (
            sum(q.per("load_priv", lab, "calls") for lab in ELIMINATIONS),
            "count",
        ),
        "bitlinalg.rank.s": (q.per("keygen", "bitlinalg.rank"), "s"),
        "bitlinalg.rank_invert.s": (q.per("keygen", "bitlinalg.rank_invert"), "s"),
        "bitlinalg.rank_invert.load_s": (q.per("load_priv", "bitlinalg.rank_invert"), "s"),
        "bitlinalg.mat_mul.calls": (q.per("keygen", "bitlinalg.mat_mul", "calls"), "count"),
        "bitlinalg.mat_mul.s": (q.per("keygen", "bitlinalg.mat_mul"), "s"),
        "bitlinalg.mat_permute_cols.s": (q.per("keygen", "bitlinalg.mat_permute_cols"), "s"),
        "bitlinalg.random_nonsingular.tries": (
            q.per("keygen", "bitlinalg.rank", "calls", parent="bitlinalg.random_nonsingular"),
            "count",
        ),
        "keyring.keygen.s": (q.per("keygen", "keyring.keygen"), "s"),
        "keyring.keygen.self_s": (q.per("keygen", "keyring.keygen", "self"), "s"),
        "keyring.gen_mask_basis.s": (q.per("keygen", "keyring.gen_mask_basis"), "s"),
        "keyring.gen_mask_matrix.s": (q.per("keygen", "keyring.gen_mask_matrix"), "s"),
        "keyring.gen_mask_matrix.tries": (
            q.per("keygen", "bitlinalg.rank", "calls", parent="keyring.gen_mask_matrix"),
            "count",
        ),
        "keyring.serialize_key.s": (q.per("save_keys", "keyring.serialize_key"), "s"),
        "keyring.deserialize_key.priv_s": (
            q.per("load_priv", "keyring.deserialize_key"),
            "s",
        ),
        "keyring.deserialize_key.priv_self_s": (
            q.per("load_priv", "keyring.deserialize_key", "self"),
            "s",
        ),
        "keyring.deserialize_key.pub_s": (q.per("load_pub", "keyring.deserialize_key"), "s"),
        "trace.decrypt_s": (trace_decrypt_s, "s"),
    }
    setup = {layer: 0.0 for layer in SETUP_LAYERS}
    for (ph, op, _, lab), s in tracer.stats.items():
        layer = lab.split(".", 1)[0]
        if ph == "setup" and layer in setup and setup_counts.get(op):
            setup[layer] += s.self / setup_counts[op]
    for layer, self_s in setup.items():
        out[f"setup.{layer}.self_s"] = (self_s, "s")
    absent = sorted(q.used - tracer.labels)
    return out, absent
