"""Command-line front end: construct, encode, decode, simulate, compare.

Runs are driven by a JSON config whose sections feed the config classes;
every emitted artifact embeds the resolved config (defaults expanded) and
the tool version.
Exit codes: 0 ok, 1 usage or config error, 2 comparison failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .construction import (
    ROLE_NAMES,
    CodeSpec,
    build_code,
    chain_groups,
    check_invariants,
)
from .decoders import DECODER_KINDS, DampingConfig, DecoderConfig, engine, make_decoder
from .encoder import csr_precode, encode, polar_transform
from .sim import SimConfig, sweep

FER_TARGETS = (1e-1, 1e-2, 1e-3)


class CliError(Exception):
    """Usage or configuration error (exit code 1)."""


_SECTIONS = {"code": CodeSpec, "decoder": DecoderConfig, "sim": SimConfig}

CSV_COLUMNS = (
    "decoder",
    "snr_db",
    "iter",
    "frames",
    "frame_errors",
    "bit_errors",
    "fer",
    "ber",
    "fer_ci_lo",
    "fer_ci_hi",
    "seconds",
)


def _json_is(value, hint) -> bool:
    """Whether a JSON value fits a config field's type: a bool is never a
    number, an integer is a float, and an array stands for a tuple[T, ...]."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_json_is(v, args[0]) for v in value)
    if args:  # a union such as float | None
        return any(_json_is(value, a) for a in args)
    if isinstance(value, bool) or hint is bool:
        return isinstance(value, bool) and hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _field_types(cls) -> dict:
    """The keys of the config section that feeds `cls`, with their types:
    DampingConfig's fields stand in for the damping field, and SimConfig's
    spec and decoder are sections of their own."""
    types: dict = {}
    for name, hint in get_type_hints(cls).items():
        if hint is DampingConfig:
            types.update(_field_types(hint))
        elif not is_dataclass(hint):
            types[name] = hint
    return types


def _read_text(path: str, what: str = "file") -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {what} {path}: {e}")


def load_config(path: str) -> dict:
    """Read a JSON config and check each section's keys and types against
    the fields of the config class it feeds; arrays come back as tuples."""

    def non_finite(literal):
        raise CliError(f"config {path} holds the non-finite number {literal}")

    try:
        cfg = json.loads(_read_text(path, "config"), parse_constant=non_finite)
    except json.JSONDecodeError as e:
        raise CliError(f"config {path} is not valid JSON: {e}")
    if not isinstance(cfg, dict) or "code" not in cfg:
        raise CliError(f"config {path} must be a JSON object with a code section")
    for name, section in cfg.items():
        if name not in _SECTIONS:
            raise CliError(f"config {path} has an unknown section {name!r}, expected {list(_SECTIONS)}")
        if not isinstance(section, dict):
            raise CliError(f"config {path}: section {name!r} must be a JSON object")
        types = _field_types(_SECTIONS[name])
        for key, value in section.items():
            if key not in types:
                raise CliError(f"config {path}: unknown key {key!r} in section {name!r}")
            t = types[key]
            if not _json_is(value, t):
                want = t.__name__ if isinstance(t, type) else t
                raise CliError(f"config {path}: {name}.{key} must be {want}, got {value!r}")
        cfg[name] = {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}
    return cfg


# The resolve_* functions pass on only the keys a config holds, so every
# default comes from the config dataclasses.


def resolve_spec(cfg: dict) -> CodeSpec:
    # after load_config's checks, a TypeError here is a required field left out
    try:
        return CodeSpec(**cfg["code"])
    except (TypeError, ValueError) as e:
        raise CliError(f"invalid code config: {e}")


def resolve_decoder(cfg: dict, kind: str | None = None) -> DecoderConfig:
    d = dict(cfg.get("decoder", {}))
    damping = {f.name: d.pop(f.name) for f in fields(DampingConfig) if f.name in d}
    if kind:
        d["kind"] = kind
    try:
        return DecoderConfig(damping=DampingConfig(**damping), **d)
    except ValueError as e:
        raise CliError(f"invalid decoder config: {e}")


def resolve_sim(cfg: dict, spec: CodeSpec, dec: DecoderConfig, args) -> SimConfig:
    s = dict(cfg.get("sim", {}))
    # SimConfig requires snr_points; a config may leave them out
    s.setdefault("snr_points", (0.0,))
    if args.seed is not None:
        s["master_seed"] = args.seed
    if args.workers is not None:
        s["workers"] = args.workers
    if args.noiseless:
        s["noiseless"] = True
    try:
        return SimConfig(spec=spec, decoder=dec, **s)
    except ValueError as e:
        raise CliError(f"invalid sim config: {e}")


def _config_fields(obj) -> dict:
    """A config dataclass's fields as JSON values, tuples as lists; the
    damping schedules stand in for the damping field, and SimConfig's spec
    and decoder are left to their own sections."""
    out: dict = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, DampingConfig):
            out.update(_config_fields(v))
        elif not is_dataclass(v):
            out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def resolved_config_dict(spec: CodeSpec, dec: DecoderConfig | None = None, sim: SimConfig | None = None) -> dict:
    """Loadable config echo with all defaults expanded (L resolved)."""
    out: dict = {"code": {**_config_fields(spec), "L": spec.register_length}}
    if dec is not None:
        out["decoder"] = _config_fields(dec)
    if sim is not None:
        out["sim"] = _config_fields(sim)
    return out


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}")


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args) -> int:
    cfg = load_config(args.config)
    spec = resolve_spec(cfg)
    rolemap, pcs = build_code(spec)
    if args.check:
        check_invariants(spec, rolemap, pcs)
        print("construction invariants ok", file=sys.stderr)
    doc = {
        "tool": "pcpolar",
        "version": __version__,
        "config": resolved_config_dict(spec),
        "register_length": pcs.L,
        "role": [ROLE_NAMES[r] for r in rolemap.role],
        # chains are only meaningful once the code has PC bits
        "chains": [list(c) for c in pcs.chains] if pcs.checked_sets else [],
        "checked_sets": {str(u): list(iu) for u, iu in sorted(pcs.checked_sets.items())},
        "checking_sets": {str(u): list(pu) for u, pu in sorted(pcs.checking_sets.items())},
        "checked_info": list(pcs.checked_info),
        "unchecked_info": list(pcs.unchecked_info),
        "chain_groups": chain_groups(rolemap, pcs),
    }
    _write_text(args.out, json.dumps(doc, indent=2))
    return 0


# ---------------------------------------------------------------------------
# encode


def _parse_message(text: str, K: int) -> np.ndarray:
    text = text.strip()
    if text.lower().startswith("0x"):
        digits = text[2:]
        try:
            bits = "".join(f"{int(c, 16):04b}" for c in digits)
        except ValueError:
            raise CliError(f"invalid hex message {text!r}")
        if not digits:
            raise CliError(f"hex message {text!r} has no digits")
        if "1" in bits[:-K]:
            raise CliError(f"hex message {text!r} sets a bit at or above K={K}")
        bits = bits.zfill(K)[-K:]
    else:
        bits = text
        if len(bits) != K:
            raise CliError(f"binary message must have exactly K={K} bits, got {len(bits)}")
    if set(bits) - {"0", "1"}:
        raise CliError(f"message {text!r} is not binary")
    return np.array([int(b) for b in bits], dtype=np.uint8)


def cmd_encode(args) -> int:
    cfg = load_config(args.config)
    spec = resolve_spec(cfg)
    rolemap, pcs = build_code(spec)
    if args.message is not None:
        text = args.message
    elif args.infile is not None:
        text = _read_text(args.infile)
    else:
        raise CliError("encode needs a message argument or --in file")
    msg = _parse_message(text, spec.K)
    lines = []
    if args.emit_q:
        s = np.zeros(spec.N, dtype=np.uint8)
        s[rolemap.info_positions] = msg
        q = csr_precode(s, rolemap, pcs.L)
        lines.append("q=" + "".join(str(b) for b in q))
        x = polar_transform(q)
    else:
        x = encode(msg, spec, rolemap, pcs)
    lines.append("".join(str(b) for b in x))
    _write_text(args.out, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# decode


def _parse_llr_line(line: str, N: int) -> np.ndarray:
    try:
        vals = [float(v) for v in line.replace(",", " ").split()]
    except ValueError:
        raise CliError(f"cannot parse LLR line {line!r}")
    if len(vals) != N:
        raise CliError(f"LLR vector has {len(vals)} entries, expected N={N}")
    if np.isnan(vals).any():
        raise CliError(f"LLR line {line!r} contains NaN")
    return np.array(vals)


def _json_llrs(values) -> list:
    """LLRs as strict-JSON values: floats, with +-inf as the strings "inf"/"-inf"."""
    return [float(v) if np.isfinite(v) else ("inf" if v > 0 else "-inf") for v in values]


def cmd_decode(args) -> int:
    cfg = load_config(args.config)
    spec = resolve_spec(cfg)
    dec = resolve_decoder(cfg, kind=args.decoder)
    rolemap, pcs = build_code(spec)
    if args.llrs is not None:
        frames = [_parse_llr_line(args.llrs, spec.N)]
    elif args.infile is not None:
        lines = [l for l in _read_text(args.infile).splitlines() if l.strip()]
        frames = [_parse_llr_line(l, spec.N) for l in lines]
    else:
        raise CliError("decode needs --llrs or --in file")
    if args.t_max is not None:
        dec = replace(dec, t_max=args.t_max)
    decoder = make_decoder(rolemap, pcs, dec)
    results = []
    for llr in frames:
        r = decoder.decode(llr, dec.iterations)
        results.append(
            {
                "info_bits": [int(b) for b in r.info_bits],
                "leaf_posteriors": _json_llrs(r.leaf_posteriors),
                "coded_extrinsics": _json_llrs(r.coded_extrinsics),
                "coded_posteriors": _json_llrs(r.coded_posteriors),
                "iterations_run": r.iterations_run,
            }
        )
    doc = {
        "tool": "pcpolar",
        "version": __version__,
        "config": resolved_config_dict(spec, dec),
        "engine": decoder.engine,
        "results": results,
    }
    _write_text(args.out, json.dumps(doc, indent=2, allow_nan=False))
    return 0


# ---------------------------------------------------------------------------
# simulate


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _csv_text(config_echo: dict, rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(f"# pcpolar {__version__}\n")
    buf.write("# config: " + json.dumps(config_echo, sort_keys=True) + "\n")
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def _dat_text(config_echo: dict, rows: list[dict]) -> str:
    """Gnuplot-ready blocks, one per (decoder, iteration)."""
    buf = io.StringIO()
    buf.write(f"# pcpolar {__version__}\n")
    buf.write("# config: " + json.dumps(config_echo, sort_keys=True) + "\n")
    blocks: dict[tuple, list[dict]] = {}
    for row in rows:
        blocks.setdefault((row["decoder"], row["iter"]), []).append(row)
    for (dec, it), block in blocks.items():
        buf.write(f"\n# decoder={dec} iter={it}\n")
        buf.write("# snr_db fer ber fer_ci_lo fer_ci_hi frames\n")
        for r in sorted(block, key=lambda r: r["snr_db"]):
            buf.write(
                f"{_fmt(r['snr_db'])} {_fmt(r['fer'])} {_fmt(r['ber'])} "
                f"{_fmt(r['fer_ci_lo'])} {_fmt(r['fer_ci_hi'])} {r['frames']}\n"
            )
    return buf.getvalue()


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    spec = resolve_spec(cfg)
    kinds = [k.strip() for k in args.decoders.split(",")] if args.decoders is not None else [None]
    if "" in kinds:
        raise CliError(f"--decoders {args.decoders!r} holds an empty entry")
    rows: list[dict] = []
    per_decoder = []
    config_echo = None
    engines = set()
    t_start = time.perf_counter()
    for kind in kinds:
        dec = resolve_decoder(cfg, kind=kind)
        engines.add(engine(dec.kind))
        sim_cfg = resolve_sim(cfg, spec, dec, args)
        if config_echo is None:
            config_echo = resolved_config_dict(spec, dec, sim_cfg)
        result = sweep(sim_cfg)
        cell_rows = []
        for cell in result.cells:
            row = {"decoder": dec.kind, **cell.row()}
            rows.append(row)
            cell_rows.append(row)
        per_decoder.append(
            {
                "decoder": dec.kind,
                "t_max": dec.t_max,
                "cells": cell_rows,
            }
        )
    assert config_echo is not None
    doc = {
        "tool": "pcpolar",
        "version": __version__,
        "config": config_echo,
        "results": per_decoder,
        "timing": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "total_seconds": time.perf_counter() - t_start,
            # "c" when the SCAN-family decoders ran the compiled tree pass
            "engine": "c" if "c" in engines else "numpy",
        },
    }
    out = args.out or "simulation"
    _write_text(out + ".csv", _csv_text(config_echo, rows))
    _write_text(out + ".json", json.dumps(doc, indent=2, allow_nan=False))
    _write_text(out + ".dat", _dat_text(config_echo, rows))
    print(f"wrote {out}.csv, {out}.json, {out}.dat", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# compare


def read_result_csv(path: str) -> list[dict]:
    lines = [l for l in _read_text(path).splitlines() if l.strip() and not l.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    ints = ("iter", "frames", "frame_errors", "bit_errors")
    floats = ("snr_db", "fer", "ber", "fer_ci_lo", "fer_ci_hi", "seconds")
    rows = []
    for raw in reader:
        try:
            row = {"decoder": raw["decoder"]}
            row.update({k: int(raw[k]) for k in ints})
            row.update({k: float(raw[k]) for k in floats})
        except (KeyError, TypeError, ValueError) as e:
            raise CliError(f"{path} is not a pcpolar result CSV: {e}")
        if not all(math.isfinite(row[k]) for k in floats):
            raise CliError(f"{path} holds a non-finite number in row {raw}")
        rows.append(row)
    if not rows:
        raise CliError(f"{path} contains no result rows")
    return rows


def _curve(rows: list[dict], decoder: str | None, iteration: int | None, path: str):
    decoders = sorted({r["decoder"] for r in rows})
    if decoder is None:
        if len(decoders) > 1:
            raise CliError(f"{path} holds {decoders}; select one with --decoder-a/--decoder-b")
        decoder = decoders[0]
    rows = [r for r in rows if r["decoder"] == decoder]
    if not rows:
        raise CliError(f"{path} has no rows for decoder {decoder!r}")
    iters = sorted({r["iter"] for r in rows})
    it = iteration if iteration is not None else iters[-1]
    rows = [r for r in rows if r["iter"] == it]
    if not rows:
        raise CliError(f"{path} has no rows for iteration {it}")
    return sorted(rows, key=lambda r: r["snr_db"]), decoder, it


def snr_at_fer(points: list[tuple[float, float, int]], target: float) -> float | None:
    """SNR where the FER curve crosses `target`, log-linear in FER.

    Zero-FER cells are clamped to 0.5/frames so the interpolation stays
    defined; returns None when the curve never reaches the target.
    """
    pts = [(s, max(f, 0.5 / n)) for s, f, n in points]
    for (s0, f0), (s1, f1) in zip(pts, pts[1:]):
        if f0 == target:
            return s0
        if f0 > target >= f1:
            if f0 == f1:
                return s0
            w = (np.log10(f0) - np.log10(target)) / (np.log10(f0) - np.log10(f1))
            return float(s0 + (s1 - s0) * w)
    if pts and pts[-1][1] == target:
        return pts[-1][0]
    return None


def cmd_compare(args) -> int:
    if not math.isfinite(args.tolerance):
        raise CliError(f"--tolerance must be a finite number of dB, got {args.tolerance}")
    targets = [float(t) for t in args.targets.split(",")] if args.targets else list(FER_TARGETS)
    if not all(0 < t < 1 for t in targets):
        raise CliError(f"--targets must lie in (0, 1), got {args.targets}")
    rows_a = read_result_csv(args.csv_a)
    rows_b = read_result_csv(args.csv_b)
    curve_a, dec_a, it_a = _curve(rows_a, args.decoder_a, args.iter, args.csv_a)
    curve_b, dec_b, it_b = _curve(rows_b, args.decoder_b, args.iter, args.csv_b)
    grid_a = {r["snr_db"] for r in curve_a}
    grid_b = {r["snr_db"] for r in curve_b}
    if not grid_a & grid_b:
        raise CliError("the two result files have disjoint SNR grids")
    pts_a = [(r["snr_db"], r["fer"], r["frames"]) for r in curve_a]
    pts_b = [(r["snr_db"], r["fer"], r["frames"]) for r in curve_b]
    report = {
        "tool": "pcpolar",
        "version": __version__,
        "curve_a": {"file": args.csv_a, "decoder": dec_a, "iter": it_a},
        "curve_b": {"file": args.csv_b, "decoder": dec_b, "iter": it_b},
        "tolerance_db": args.tolerance,
        "targets": [],
    }
    failed = False
    for target in targets:
        sa = snr_at_fer(pts_a, target)
        sb = snr_at_fer(pts_b, target)
        entry = {"fer": target, "snr_a": sa, "snr_b": sb, "gap_db": None, "evaluable": False}
        if sa is not None and sb is not None:
            gap = sb - sa
            entry.update(gap_db=gap, evaluable=True)
            if gap > args.tolerance:
                failed = True
        report["targets"].append(entry)
    _write_text(args.out, json.dumps(report, indent=2, allow_nan=False))
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="pcpolar", description=__doc__)
    p.add_argument("--version", action="version", version=f"pcpolar {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="dump role map and PC chain structure as JSON")
    c.add_argument("--config", required=True)
    c.add_argument("--out", default=None)
    c.add_argument("--check", action="store_true", help="run construction invariants")
    c.set_defaults(func=cmd_construct)

    e = sub.add_parser("encode", help="encode a message to a codeword")
    e.add_argument("message", nargs="?", default=None, help="binary string of K bits or 0x-hex")
    e.add_argument("--config", required=True)
    e.add_argument("--in", dest="infile", default=None)
    e.add_argument("--out", default=None)
    e.add_argument("--emit-q", action="store_true", help="also dump the pre-coded sequence")
    e.set_defaults(func=cmd_encode)

    d = sub.add_parser("decode", help="decode LLR vectors to a DecodeResult JSON")
    d.add_argument("--config", required=True)
    d.add_argument("--llrs", default=None, help="comma/space separated LLR floats")
    d.add_argument("--in", dest="infile", default=None, help="file with one LLR vector per line")
    d.add_argument("--decoder", choices=DECODER_KINDS, default=None)
    d.add_argument("--t-max", type=int, default=None)
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_decode)

    s = sub.add_parser("simulate", help="run a Monte-Carlo FER/BER sweep")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=None, help="output file prefix")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--workers", type=int, default=None)
    s.add_argument("--noiseless", action="store_true")
    s.add_argument("--decoders", default=None, help="comma list, e.g. sc,csr-scan")
    s.set_defaults(func=cmd_simulate)

    x = sub.add_parser("compare", help="dB gap between two FER curves at target FERs")
    x.add_argument("csv_a")
    x.add_argument("csv_b")
    x.add_argument("--tolerance", type=float, default=0.15, help="max allowed gap (b minus a) in dB")
    x.add_argument("--targets", default=None, help="comma list of FER targets")
    x.add_argument("--iter", type=int, default=None, help="iteration to compare (default: last)")
    x.add_argument("--decoder-a", default=None)
    x.add_argument("--decoder-b", default=None)
    x.add_argument("--out", default=None)
    x.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
