"""Command line front end.

Subcommands: keygen, encrypt, decrypt, analyze (isd, gilbert, alpha,
failure, keyrand), simulate. All randomness is seeded; omitting --seed
draws one from system entropy and prints it so runs can be reproduced.

Exit codes: 0 success, 1 usage error, 2 malformed input file,
3 decryption failure (retransmission advised), 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys

import numpy as np

from . import analysis, cryptopipe, keyring
from .bitlinalg import BitVec
from .keyring import KeyFormatError, PrivateKey, PublicKey
from .presets import PRESET_NAMES, ParamFileError, load_params, parse_inject_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_INPUT = 2
EXIT_DECRYPT_FAILED = 3
EXIT_INTERNAL = 4


class _InputError(Exception):
    """User-supplied file or value that cannot be used."""


def _resolve_seed(seed: int | None, out) -> int:
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed = {seed}", file=out)
    return seed


def _read_plaintext(path: str, nbits: int, fmt: str) -> BitVec:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    if fmt == "bits":
        text = "".join(raw.decode("ascii", errors="replace").split())
        if set(text) - {"0", "1"}:
            raise _InputError(f"{path}: plaintext must be ASCII 0/1")
        if len(text) != nbits:
            raise _InputError(f"{path}: expected {nbits} bits, found {len(text)}")
        return BitVec.from01(text)
    if nbits % 8:
        raise _InputError(f"raw format needs a byte-aligned length, not {nbits} bits")
    if len(raw) * 8 != nbits:
        raise _InputError(f"{path}: expected {nbits // 8} bytes, found {len(raw)}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return BitVec.from_bits(bits)


def _write_plaintext(path: str | None, v: BitVec, fmt: str) -> None:
    if fmt == "raw":
        if v.n % 8:
            raise _InputError("raw format needs a byte-aligned plaintext")
        data = np.packbits(v.to_bits(), bitorder="little").tobytes()
        if path is None:
            sys.stdout.buffer.write(data)
            return
        with open(path, "wb") as fh:
            fh.write(data)
        return
    text = v.to01()
    if path is None:
        print(text)
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


def _load_key(path: str, want) -> PublicKey | PrivateKey:
    try:
        key = keyring.load_key(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(key, want):
        raise _InputError(f"{path} does not hold a {want.__name__}")
    return key


def _emit(pairs: list[tuple[str, object]], json_path: str | None) -> None:
    for key, value in pairs:
        print(f"{key} = {value}")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(dict(pairs), fh, indent=2, default=str)
            fh.write("\n")


def _fmt_float(x: float) -> str:
    return f"{x:.6g}"


def _cmd_keygen(args) -> int:
    pf = load_params(args.params)
    seed = args.seed if args.seed is not None else pf.seed
    seed = _resolve_seed(seed, sys.stdout)
    material = None
    if args.inject:
        try:
            with open(args.inject, "r", encoding="utf-8") as fh:
                material = parse_inject_json(fh.read(), pf.params)
        except OSError as exc:
            raise _InputError(f"cannot read {args.inject}: {exc}") from exc
    try:
        pub, priv = keyring.keygen(
            pf.params, pf.g_p, pf.g_q, np.random.default_rng(seed), material=material
        )
    except ValueError as exc:
        # injected draws come from a file; random ones failing is internal
        if material is None:
            raise
        raise _InputError(f"{args.inject}: {exc}") from exc
    keyring.save_key(pub, args.out_pub)
    keyring.save_key(priv, args.out_priv)
    print(f"public key written to {args.out_pub}")
    print(f"private key written to {args.out_priv}")
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    pub = _load_key(args.pub, PublicKey)
    m = _read_plaintext(args.infile, pub.params.plaintext_len, args.format)
    error = None
    if args.inject_errors is not None:
        text = args.inject_errors.strip()
        try:
            positions = [int(x) for x in text.split(",")] if text else []
        except ValueError as exc:
            raise _InputError(f"--inject-errors: {exc}") from exc
        if any(not 0 <= p < pub.params.N for p in positions):
            raise _InputError("injected error position out of range")
        error = BitVec.from_indices(pub.params.N, positions)
    seed = _resolve_seed(args.seed, sys.stdout)
    ct = cryptopipe.encrypt(pub, m, np.random.default_rng(seed), error=error)
    with open(args.out, "wb") as fh:
        fh.write(cryptopipe.serialize_ciphertext(ct))
    print(f"ciphertext written to {args.out}")
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    priv = _load_key(args.priv, PrivateKey)
    pub = _load_key(args.pub, PublicKey)
    try:
        with open(args.infile, "rb") as fh:
            ct = cryptopipe.deserialize_ciphertext(fh.read())
    except OSError as exc:
        raise _InputError(f"cannot read {args.infile}: {exc}") from exc
    if ct.bits.n != priv.params.N:
        raise _InputError(f"ciphertext has {ct.bits.n} bits; the key expects N = {priv.params.N}")
    try:
        plaintext = cryptopipe.decrypt(priv, pub, ct, use_gate=not args.no_gate)
    except cryptopipe.DecryptionFailure as exc:
        print("decryption failed; request retransmission", file=sys.stderr)
        print(f"candidate error weights: {exc.weights_text()}", file=sys.stderr)
        return EXIT_DECRYPT_FAILED
    _write_plaintext(args.out, plaintext, args.format)
    if args.out is not None:
        print(f"plaintext written to {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    """Out-of-range values (rates, sizes, stream lengths) are input errors."""
    try:
        _analyze(args)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    return EXIT_OK


def _analyze(args) -> None:
    if args.what == "isd":
        isd = analysis.isd_log2(args.n, args.k, args.t)
        pairs = [
            ("N", args.n),
            ("K", args.k),
            ("t", args.t),
            ("isd_log2", _fmt_float(isd)),
            ("qisd_log2", _fmt_float(analysis.qisd_log2(args.n, args.k, args.t))),
        ]
        if args.l is not None and args.p is not None:
            pairs.append(("acs_per_bit_log2", args.l + args.p))
        if args.baseline:
            bn, bk, bt = args.baseline
            base = analysis.isd_log2(bn, bk, bt)
            pairs += [
                ("baseline_isd_log2", _fmt_float(base)),
                ("improvement_log2", _fmt_float(isd - base)),
            ]
        _emit(pairs, args.json)
    elif args.what == "gilbert":
        delta = analysis.gilbert_relative_distance(args.rate)
        _emit([("rate", args.rate), ("relative_distance", f"{delta:.3f}")], args.json)
    elif args.what == "alpha":
        pf = load_params(args.params)
        stream_len = args.stream_len or (pf.params.K + pf.params.p + pf.params.q)
        e = float(pf.params.e)
        per_stream = analysis.estimate_alpha(pf.g_q, e, stream_len)
        alpha = sum(per_stream)
        N = pf.params.n * stream_len
        pairs = [
            ("stream_len", stream_len),
            ("per_stream", ",".join(_fmt_float(v) for v in per_stream)),
            ("alpha_total", _fmt_float(alpha)),
            ("alpha_over_N", _fmt_float(alpha / N)),
            ("effective_error_rate", _fmt_float(analysis.effective_error_rate(e, alpha, N))),
        ]
        _emit(pairs, args.json)
    elif args.what == "failure":
        p_window, p_all = analysis.window_failure(
            args.p_eff, args.window_bits, args.t_corr, args.windows
        )
        _emit(
            [
                ("p_window", _fmt_float(p_window)),
                ("p_success_all", _fmt_float(p_all)),
            ],
            args.json,
        )
    elif args.what == "keyrand":
        pub = _load_key(args.pub, PublicKey)
        rep = analysis.key_randomness_report(pub.g)
        pairs = [
            ("rows", rep.rows),
            ("cols", rep.cols),
            ("rank", rep.rank),
            ("full_rank", rep.full_rank),
            ("col_weight_mean", _fmt_float(rep.col_weight_mean)),
            ("col_weight_std", _fmt_float(rep.col_weight_std)),
            ("col_weight_min", rep.col_weight_min),
            ("col_weight_max", rep.col_weight_max),
            ("row_weight_mean", _fmt_float(rep.row_weight_mean)),
            ("row_weight_std", _fmt_float(rep.row_weight_std)),
            ("mean_col_weight_z", _fmt_float(rep.mean_col_weight_z)),
        ]
        _emit(pairs, args.json)


def _cmd_simulate(args) -> int:
    pf = load_params(args.params)
    seed = args.seed if args.seed is not None else pf.seed
    if args.trials < 1:
        raise _InputError("--trials must be at least 1")
    seed = _resolve_seed(seed, sys.stdout)
    seq = np.random.SeedSequence(seed)
    key_seed, *trial_seeds = seq.spawn(args.trials + 1)
    pub, priv = keyring.keygen(pf.params, pf.g_p, pf.g_q, np.random.default_rng(key_seed))
    successes = 0
    detected = 0
    wrong = 0
    for ts in trial_seeds:
        rng = np.random.default_rng(ts)
        m = BitVec.random(pf.params.plaintext_len, rng)
        ct = cryptopipe.encrypt(pub, m, rng)
        try:
            out = cryptopipe.decrypt(priv, pub, ct)
        except cryptopipe.DecryptionFailure:
            detected += 1
            continue
        if out == m:
            successes += 1
        else:
            wrong += 1
    pairs = [
        ("params", args.params),
        ("seed", seed),
        ("trials", args.trials),
        ("successes", successes),
        ("failures_detected", detected),
        ("wrong_plaintext", wrong),
        ("success_rate", f"{successes / args.trials:.4f}"),
    ]
    _emit(pairs, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcc",
        description="Masked convolutional code public-key tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--params", required=True, help=f"param file or preset {PRESET_NAMES}")
    kg.add_argument("--out-pub", required=True)
    kg.add_argument("--out-priv", required=True)
    kg.add_argument("--seed", type=int)
    kg.add_argument("--inject", help="JSON file pinning the random draws")
    kg.set_defaults(func=_cmd_keygen)

    enc = sub.add_parser("encrypt", help="encrypt a plaintext file")
    enc.add_argument("--pub", required=True)
    enc.add_argument("--in", dest="infile", required=True)
    enc.add_argument("--out", required=True)
    enc.add_argument("--seed", type=int)
    enc.add_argument("--format", choices=("bits", "raw"), default="bits")
    enc.add_argument("--inject-errors", help="comma-separated 0-based error positions")
    enc.set_defaults(func=_cmd_encrypt)

    dec = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    dec.add_argument("--priv", required=True)
    dec.add_argument("--pub", required=True)
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", help="write here instead of stdout")
    dec.add_argument("--format", choices=("bits", "raw"), default="bits")
    dec.add_argument("--no-gate", action="store_true", help="accept on CRC alone")
    dec.set_defaults(func=_cmd_decrypt)

    ana = sub.add_parser("analyze", help="numeric reports")
    anasub = ana.add_subparsers(dest="what", required=True)

    isd = anasub.add_parser("isd", help="generic decoding attack cost")
    isd.add_argument("--n", type=int, required=True)
    isd.add_argument("--k", type=int, required=True)
    isd.add_argument("--t", type=int, required=True)
    isd.add_argument("--l", type=int)
    isd.add_argument("--p", type=int)
    isd.add_argument(
        "--baseline",
        type=int,
        nargs=3,
        metavar=("N", "K", "T"),
        help="also report the cost ratio against this code",
    )
    isd.add_argument("--json")
    isd.set_defaults(func=_cmd_analyze)

    gil = anasub.add_parser("gilbert", help="typical nearest-codeword distance")
    gil.add_argument("--rate", type=float, required=True)
    gil.add_argument("--json")
    gil.set_defaults(func=_cmd_analyze)

    alp = anasub.add_parser("alpha", help="division error propagation")
    alp.add_argument("--params", required=True)
    alp.add_argument("--stream-len", type=int)
    alp.add_argument("--json")
    alp.set_defaults(func=_cmd_analyze)

    fail = anasub.add_parser("failure", help="window overload probability")
    fail.add_argument("--p-eff", type=float, required=True)
    fail.add_argument("--window-bits", type=int, required=True)
    fail.add_argument("--t-corr", type=int, required=True)
    fail.add_argument("--windows", type=int, required=True)
    fail.add_argument("--json")
    fail.set_defaults(func=_cmd_analyze)

    krand = anasub.add_parser("keyrand", help="public key randomness diagnostics")
    krand.add_argument("--pub", required=True)
    krand.add_argument("--json")
    krand.set_defaults(func=_cmd_analyze)

    sim = sub.add_parser("simulate", help="end-to-end success rate")
    sim.add_argument("--params", required=True)
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--json")
    sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (_InputError, KeyFormatError, ParamFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
