import contextlib
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcpolar import __version__, sim, treepass
from pcpolar.channel import channel_llrs, modulate_bpsk
from pcpolar.cli import main, read_result_csv, snr_at_fer
from pcpolar.construction import N_MAX, SCHEMES, CodeSpec, build_code
from pcpolar.decoders import (
    DECODER_KINDS,
    SCHEDULES,
    CsrScanDecoder,
    DecoderConfig,
    PcScanDecoder,
    ScanDecoder,
    ScDecoder,
    make_decoder,
)
from pcpolar.encoder import encode


BASE_CONFIG = {
    "code": {"N": 16, "K": 8, "scheme": "fc", "L": 3},
    "decoder": {"kind": "csr-scan", "t_max": 2},
    "sim": {
        "snr_points": [2.0],
        "max_frames": 200,
        "min_frame_errors": 1000000,
        "master_seed": 5,
        "batch_frames": 50,
    },
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = dict(BASE_CONFIG)
    for key, val in overrides.items():
        if val is None:
            cfg.pop(key, None)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv_rows(path):
    return read_result_csv(str(path))


def test_construct_outputs_roles_and_chains(tmp_path, capsys):
    cfg = write_config(
        tmp_path, code={"N": 64, "K": 32, "scheme": "fc", "A": 0.5, "L": 5}
    )
    out = tmp_path / "construct.json"
    assert main(["construct", "--config", cfg, "--out", str(out), "--check"]) == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == __version__
    assert doc["config"]["code"]["L"] == 5
    assert len(doc["role"]) == 64
    assert doc["role"].count("info") == 32
    assert doc["role"].count("pc") == 32
    assert len(doc["chains"]) == 5
    assert doc["checked_sets"]["20"] == [15]
    g0 = doc["chain_groups"][0]
    assert set(g0) == {"F", "P", "I_checked", "I_unchecked"}
    members = sorted(i for grp in g0.values() for i in grp)
    assert members == list(range(0, 64, 5))


def test_construct_scheme_none_has_empty_chains(tmp_path):
    cfg = write_config(tmp_path, code={"N": 16, "K": 8, "scheme": "none"})
    out = tmp_path / "c.json"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["chains"] == []
    assert doc["checked_sets"] == {}
    assert doc["role"].count("pc") == 0


# sha256 of the construct JSON bytes; --check derives and checks the chain structure too
CONSTRUCT_DIGESTS = {
    "fc": ({"N": 64, "K": 32, "scheme": "fc", "A": 0.5}, "385794495fc7557da7edca06f42fbb94770d4bf59a013d948b23da3ae14766e9"),
    "mc": (
        {"N": 128, "K": 64, "scheme": "mc", "L": 7, "mc_weights": [1, 2]},
        "df2954369b0d4e3be764480f8ea068156ecf9a9263777589fc1339aa4d9d9b63",
    ),
    "nr": (
        {"N": 64, "K": 32, "scheme": "nr", "L": 3, "nr_npc": 6, "nr_npc_wm": 2},
        "652753781d34f3bb037e8bf37f921756fa9c44119a2d4d1f71c5186f645a2f8f",
    ),
    "none": ({"N": 32, "K": 16}, "8ce1b0263acc6800f9357562aba354876665352863330bea3e0d4f75d6d96fdb"),
}


@pytest.mark.parametrize("scheme", list(CONSTRUCT_DIGESTS))
def test_construct_json_golden_digest(tmp_path, scheme):
    code, want = CONSTRUCT_DIGESTS[scheme]
    cfg = write_config(tmp_path, code=code, decoder=None, sim=None)
    out = tmp_path / "construct.json"
    assert main(["construct", "--config", cfg, "--out", str(out), "--check"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_construct_rejects_oversized_k(tmp_path):
    cfg = write_config(tmp_path, code={"N": 16, "K": 17})
    assert main(["construct", "--config", cfg]) == 1


def test_construct_rejects_coefficient_beyond_sqrt_n(tmp_path, capsys):
    # these used to trial-divide for a prime near 1e21, or overflow to inf
    for A in (1e20, 1e308, 8.5):
        cfg = write_config(tmp_path, code={"N": 64, "K": 32, "scheme": "fc", "A": A})
        assert main(["construct", "--config", cfg]) == 1, A
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sqrt(N)" in err
    cfg = write_config(tmp_path, code={"N": 64, "K": 32, "scheme": "fc", "A": 8})
    out = tmp_path / "c.json"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["register_length"] == 67


def test_construct_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"code": {"N": 16, "K": 8, "bogus": 1}}))
    assert main(["construct", "--config", str(path)]) == 1


def test_encode_matches_library(tmp_path):
    cfg = write_config(tmp_path)
    spec = CodeSpec(N=16, K=8, scheme="fc", L=3)
    rm, L = build_code(spec)
    msg = "10110001"
    out = tmp_path / "cw.txt"
    assert main(["encode", msg, "--config", cfg, "--out", str(out)]) == 0
    bits = np.array([int(b) for b in out.read_text().strip()], dtype=np.uint8)
    expected = encode(np.array([int(b) for b in msg], dtype=np.uint8), spec, rm, L)
    assert np.array_equal(bits, expected)


def test_encode_hex_and_emit_q(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cw.txt"
    assert main(["encode", "0xb1", "--config", cfg, "--out", str(out), "--emit-q"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("q=")
    assert len(lines[0]) == 2 + 16
    assert len(lines[1]) == 16
    # 0xb1 -> 10110001, same as the binary-string path
    out2 = tmp_path / "cw2.txt"
    main(["encode", "10110001", "--config", cfg, "--out", str(out2)])
    assert lines[1] == out2.read_text().strip()


def test_encode_rejects_bad_messages(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["encode", "101", "--config", cfg]) == 1
    assert main(["encode", "2222222x", "--config", cfg]) == 1
    assert main(["encode", "--config", cfg]) == 1  # no message at all
    # K=8: a hex message needs digits and may set no bit at or above K
    for bad in ("0x", "0X", "0xfff1", "0x100", "0x1_0"):
        assert main(["encode", bad, "--config", cfg]) == 1, bad
    out = tmp_path / "cw.txt"
    assert main(["encode", "0x00f1", "--config", cfg, "--out", str(out)]) == 0
    out2 = tmp_path / "cw2.txt"
    assert main(["encode", "11110001", "--config", cfg, "--out", str(out2)]) == 0
    assert out.read_text() == out2.read_text()  # leading zeros are allowed


def test_decode_round_trip(tmp_path):
    cfg = write_config(tmp_path)
    spec = CodeSpec(N=16, K=8, scheme="fc", L=3)
    rm, L = build_code(spec)
    msg = np.array([1, 0, 1, 1, 0, 0, 0, 1], dtype=np.uint8)
    llr = channel_llrs(modulate_bpsk(encode(msg, spec, rm, L)), 0.0, noiseless=True)
    out = tmp_path / "dec.json"
    args = ["decode", "--config", cfg, "--llrs", ",".join(str(v) for v in llr), "--out", str(out)]
    assert main(args) == 0
    doc = strict_json(out.read_text())
    assert doc["results"][0]["info_bits"] == msg.tolist()
    assert doc["results"][0]["iterations_run"] == 2
    assert len(doc["results"][0]["coded_extrinsics"]) == 16


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_decode_encodes_infinities_as_strings(tmp_path):
    # SC posteriors are all +-inf; each must round-trip through "inf"/"-inf"
    cfg = write_config(tmp_path)
    spec = CodeSpec(N=16, K=8, scheme="fc", L=3)
    rm, L = build_code(spec)
    llr = np.random.default_rng(4).normal(0.5, 1.0, 16)
    out = tmp_path / "dec.json"
    args = ["decode", "--config", cfg, "--decoder", "sc", "--llrs=" + ",".join(repr(float(v)) for v in llr)]
    assert main(args + ["--out", str(out)]) == 0
    post = strict_json(out.read_text())["results"][0]["leaf_posteriors"]
    assert set(post) <= {"inf", "-inf"}
    expected = ScDecoder(rm, L).decode(llr).leaf_posteriors
    assert np.array_equal(np.array(post, dtype=float), expected)


def test_decode_rejects_nan_llrs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    llrs = ",".join(["nan"] + ["1.0"] * 15)
    assert main(["decode", "--config", cfg, "--llrs", llrs]) == 1
    assert "NaN" in capsys.readouterr().err


def test_decode_file_with_multiple_frames(tmp_path):
    cfg = write_config(tmp_path)
    spec = CodeSpec(N=16, K=8, scheme="fc", L=3)
    rm, L = build_code(spec)
    rng = np.random.default_rng(3)
    msgs = rng.integers(0, 2, (3, 8), dtype=np.uint8)
    lines = []
    for m in msgs:
        llr = channel_llrs(modulate_bpsk(encode(m, spec, rm, L)), 0.0, noiseless=True)
        lines.append(" ".join(str(v) for v in llr))
    frames = tmp_path / "frames.txt"
    frames.write_text("\n".join(lines))
    out = tmp_path / "dec.json"
    assert main(["decode", "--config", cfg, "--in", str(frames), "--decoder", "sc", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [r["info_bits"] for r in doc["results"]] == msgs.tolist()


KIND_CLASSES = {"sc": ScDecoder, "scan": ScanDecoder, "pc-scan": PcScanDecoder, "csr-scan": CsrScanDecoder}


@pytest.mark.parametrize("kind", DECODER_KINDS)
def test_decode_is_make_decoder_decode(tmp_path, kind):
    # scan decodes codes without PC bits only
    code = {"N": 16, "K": 8} if kind == "scan" else {"N": 16, "K": 8, "scheme": "fc", "L": 3}
    cfg = write_config(tmp_path, code=code)
    rm, L = build_code(CodeSpec(**code))
    dec = DecoderConfig(kind=kind, t_max=2)
    decoder = make_decoder(rm, L, dec)
    assert type(decoder) is KIND_CLASSES[kind]
    llr = np.random.default_rng(9).normal(0.5, 1.5, (2, 16))
    frames = tmp_path / "frames.txt"
    frames.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in llr))
    out = tmp_path / "dec.json"
    assert main(["decode", "--config", cfg, "--in", str(frames), "--decoder", kind, "--out", str(out)]) == 0
    results = strict_json(out.read_text())["results"]
    assert len(results) == 2
    for row, got in zip(llr, results):
        want = decoder.decode(row, dec.iterations)
        assert got["info_bits"] == want.info_bits.tolist()
        assert got["iterations_run"] == want.iterations_run
        for name in ("leaf_posteriors", "coded_extrinsics", "coded_posteriors"):
            assert np.array_equal([float(v) for v in got[name]], getattr(want, name)), name
    # --t-max goes through DecoderConfig's check for every kind, SC included
    ones = ",".join(["1.0"] * 16)
    assert main(["decode", "--config", cfg, "--llrs", ones, "--decoder", kind, "--t-max", "0"]) == 1


# sha256 of the decode --in JSON bytes over decode_frames_text(), without
# the engine line; the same on both engines
DECODE_CODES = {"fc": {"N": 64, "K": 32, "scheme": "fc", "L": 5}, "none": {"N": 64, "K": 32}}
DECODE_DIGESTS = {
    ("fc", "sc"): "31ef94176f6f245a2b3771dc0d278ce6713d34fc4e0ea90817d1011ce678fc7f",
    ("fc", "pc-scan"): "7019c874276d3542689c159aa18a60e7422840cc20cae2ccaa0f61bd41753aca",
    ("fc", "csr-scan"): "13766be60b447265fc0d82aa259f554f1fe621cbd2f9aa74639125718dca5269",
    ("none", "scan"): "6cafbef8dd34af9cc4112184af923e20e6c8a8e9035ae13329746576399658d2",
}


def decode_frames_text() -> str:
    """20 N=64 LLR lines: noisy frames, then lines holding 0.0, -0.0,
    values above LLR_MAX and +-inf; the first line comma-separated."""
    llr = np.random.default_rng(29).normal(1.0, 2.0, (20, 64))
    llr[16, :12] = 0.0
    llr[17, :12] = -0.0
    llr[18, ::4] = np.where(llr[18, ::4] < 0, -1e300, 2e9)
    llr[19, :6] = [np.inf, -np.inf, 0.0, -0.0, np.inf, 5e9]
    lines = [" ".join(repr(float(v)) for v in row) for row in llr]
    lines[0] = lines[0].replace(" ", ", ")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("engine", ["c", "numpy"])
@pytest.mark.parametrize("code, kind", list(DECODE_DIGESTS))
def test_decode_file_json_golden_digest(tmp_path, monkeypatch, code, kind, engine):
    if engine == "numpy":
        monkeypatch.setattr(treepass, "load", lambda: None)
    elif treepass.load() is None:
        pytest.skip("no compiled tree pass on this platform")
    cfg = write_config(tmp_path, code=DECODE_CODES[code], decoder={"kind": kind, "t_max": 3}, sim=None)
    frames = tmp_path / "frames.txt"
    frames.write_text(decode_frames_text())
    out = tmp_path / "dec.json"
    assert main(["decode", "--config", cfg, "--in", str(frames), "--out", str(out)]) == 0
    text = out.read_text()
    line = f'  "engine": "{engine}",\n'
    assert line in text
    assert hashlib.sha256(text.replace(line, "").encode()).hexdigest() == DECODE_DIGESTS[code, kind]


def test_decode_rejects_a_file_with_no_llr_lines(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for text in ("", "\n  \n"):
        frames = tmp_path / "frames.txt"
        frames.write_text(text)
        out = tmp_path / "dec.json"
        capsys.readouterr()
        assert main(["decode", "--config", cfg, "--in", str(frames), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not out.exists()


def test_decode_rejects_wrong_length(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["decode", "--config", cfg, "--llrs", "1.0,2.0"]) == 1


def test_simulate_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    prefix = str(tmp_path / "runs" / "out")  # exercise directory creation
    assert main(["simulate", "--config", cfg, "--out", prefix]) == 0
    rows = read_csv_rows(prefix + ".csv")
    assert {r["iter"] for r in rows} == {1, 2}
    assert {r["decoder"] for r in rows} == {"csr-scan"}
    doc = json.loads((tmp_path / "runs" / "out.json").read_text())
    assert doc["config"]["sim"]["max_frames"] == 200
    assert doc["config"]["decoder"]["kind"] == "csr-scan"
    assert "timing" in doc
    dat = (tmp_path / "runs" / "out.dat").read_text()
    assert "# decoder=csr-scan iter=1" in dat
    assert "# decoder=csr-scan iter=2" in dat


def test_engine_is_reported(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    llrs = "--llrs=" + ",".join(["1.0"] * 16)

    def engines(decoder):
        """The decode output's engine, then the simulate JSON's decoder and frame engines."""
        decode = ["decode", "--config", cfg, llrs, "--decoder", decoder, "--out", str(tmp_path / "d.json")]
        assert main(decode) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s"), "--decoders", decoder]) == 0
        timing = json.loads((tmp_path / "s.json").read_text())["timing"]
        return json.loads((tmp_path / "d.json").read_text())["engine"], timing["engine"], timing["frames_engine"]

    # SC runs on the same engine as the SCAN family; the frames have their own
    compiled = "numpy" if treepass.load() is None else "c"
    frames = "numpy" if treepass.load_frames() is None else "c"
    assert engines("csr-scan") == engines("sc") == (compiled, compiled, frames)
    monkeypatch.setattr(treepass, "load", lambda: None)
    assert engines("csr-scan") == engines("sc") == ("numpy", "numpy", frames)
    monkeypatch.setattr(treepass, "load_frames", lambda: None)
    assert engines("csr-scan") == engines("sc") == ("numpy", "numpy", "numpy")


def test_simulate_reports_the_engine_its_decoders_ran_on(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    built = []
    real = sim.make_decoder

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    def simulate() -> str:
        """The simulate JSON's engine, checked against the decoders this run built."""
        built.clear()
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "s"), "--decoders", "sc,csr-scan"]
        assert main(argv) == 0
        reported = json.loads((tmp_path / "s.json").read_text())["timing"]["engine"]
        assert len(built) == 2 and [d.engine for d in built] == [reported] * 2
        return reported

    monkeypatch.setattr(sim, "make_decoder", recording)
    assert simulate() == ("numpy" if treepass.load() is None else "c")
    monkeypatch.setattr(treepass, "load", lambda: None)
    assert simulate() == "numpy"


def test_simulate_noiseless_flag(tmp_path):
    cfg = write_config(tmp_path)
    prefix = str(tmp_path / "nl")
    assert main(["simulate", "--config", cfg, "--out", prefix, "--noiseless"]) == 0
    for row in read_csv_rows(prefix + ".csv"):
        assert row["fer"] == 0.0


def test_simulate_multiple_decoders_interleave(tmp_path):
    cfg = write_config(tmp_path)
    prefix = str(tmp_path / "multi")
    assert main(["simulate", "--config", cfg, "--out", prefix, "--decoders", "sc,csr-scan"]) == 0
    rows = read_csv_rows(prefix + ".csv")
    assert {r["decoder"] for r in rows} == {"sc", "csr-scan"}
    sc_rows = [r for r in rows if r["decoder"] == "sc"]
    assert {r["iter"] for r in sc_rows} == {1}


def test_simulate_csv_header_is_the_documented_columns(tmp_path):
    columns = "decoder, snr_db, iter, frames, frame_errors, bit_errors, fer, ber, fer_ci_lo, fer_ci_hi, seconds"
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = re.search(r"CSV rows are `([^`]*)`", readme).group(1)
    assert " ".join(documented.split()) == columns
    prefix = str(tmp_path / "h")
    assert main(["simulate", "--config", write_config(tmp_path), "--out", prefix, "--decoders", "sc,pc-scan"]) == 0
    header = [line for line in (tmp_path / "h.csv").read_text().splitlines() if not line.startswith("#")][0]
    assert header == columns.replace(", ", ",")


def test_simulate_reproducible_counters(tmp_path):
    cfg = write_config(tmp_path)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--out", a]) == 0
    assert main(["simulate", "--config", cfg, "--out", b]) == 0
    rows_a, rows_b = read_csv_rows(a + ".csv"), read_csv_rows(b + ".csv")
    strip = lambda rows: [(r["decoder"], r["snr_db"], r["iter"], r["frames"], r["fer"]) for r in rows]
    assert strip(rows_a) == strip(rows_b)
    # byte identity holds for everything except the wall-time column
    mask = lambda text: "\n".join(
        ",".join(v for i, v in enumerate(line.split(",")) if i != 10)
        for line in text.splitlines()
    )
    assert mask((tmp_path / "a.csv").read_text()) == mask((tmp_path / "b.csv").read_text())


def test_rerun_from_embedded_config_reproduces_artifact(tmp_path):
    cfg = write_config(tmp_path)
    a = str(tmp_path / "orig")
    assert main(["simulate", "--config", cfg, "--out", a]) == 0
    embedded = json.loads((tmp_path / "orig.json").read_text())["config"]
    cfg2 = tmp_path / "embedded.json"
    cfg2.write_text(json.dumps(embedded))
    b = str(tmp_path / "rerun")
    assert main(["simulate", "--config", str(cfg2), "--out", b]) == 0
    strip = lambda rows: [
        (r["decoder"], r["snr_db"], r["iter"], r["frames"], r["frame_errors"], r["fer"])
        for r in rows
    ]
    assert strip(read_csv_rows(a + ".csv")) == strip(read_csv_rows(b + ".csv"))


# A three-decoder, three-SNR simulate whose cells stop early at six
# different chunks (1 to 12 of 100 frames), and the SHA-256 of its outputs
# without their timing fields per worker count (the config echo holds the
# count), taken when each (decoder, SNR) cell made its own frames
EARLY_STOP_CONFIG = {
    "code": {"N": 64, "K": 32, "scheme": "fc", "L": 5},
    "decoder": {"t_max": 2},
    "sim": {
        "snr_points": [1.0, 2.0, 3.0],
        "max_frames": 1200,
        "min_frame_errors": 40,
        "master_seed": 2028,
        "batch_frames": 100,
    },
}
EARLY_STOP_DIGESTS = {
    1: "3b811309d7500db76c526f0fb206c54e63f39db305dbaf2363c62e0e6f249f35",
    2: "bbefc6e6aafe7179ca95872a502cab005bc655392e47cca449ce4ec10c528407",
}


def simulate_digest(prefix: str) -> str:
    """SHA-256 of a simulate's .csv without its last column (seconds), its
    .json without the timing block and the cells' seconds, and its .dat."""
    h = hashlib.sha256()
    for line in Path(prefix + ".csv").read_text().splitlines():
        h.update((line if line.startswith("#") else line.rsplit(",", 1)[0]).encode() + b"\n")
    doc = json.loads(Path(prefix + ".json").read_text())
    del doc["timing"]
    for result in doc["results"]:
        for cell in result["cells"]:
            del cell["seconds"]
    h.update(json.dumps(doc, indent=2).encode())
    h.update(Path(prefix + ".dat").read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("engines", ["compiled", "numpy frames", "numpy"])
@pytest.mark.parametrize("workers", list(EARLY_STOP_DIGESTS))
def test_early_stopping_multi_decoder_simulate_golden_digest(tmp_path, monkeypatch, workers, engines):
    if engines != "compiled":
        monkeypatch.setattr(treepass, "load_frames", lambda: None)
    if engines == "numpy":
        monkeypatch.setattr(treepass, "load", lambda: None)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(EARLY_STOP_CONFIG))
    prefix = str(tmp_path / "out")
    argv = ["simulate", "--config", str(cfg), "--out", prefix, "--decoders", "sc,pc-scan,csr-scan"]
    assert main(argv + ["--workers", str(workers)]) == 0
    assert simulate_digest(prefix) == EARLY_STOP_DIGESTS[workers]


def test_simulate_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path)
    a, b = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["simulate", "--config", cfg, "--out", a, "--seed", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", b, "--seed", "2"]) == 0
    fe = lambda p: [r["frame_errors"] for r in read_csv_rows(p + ".csv")]
    assert fe(a) != fe(b)


def make_curve_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["decoder", "snr_db", "iter", "frames", "frame_errors", "bit_errors",
             "fer", "ber", "fer_ci_lo", "fer_ci_hi", "seconds"]
        )
        for snr, fer in rows:
            errs = int(round(fer * 10000))
            w.writerow(["x", snr, 1, 10000, errs, errs, fer, fer / 8, 0, 1, 0.1])


def test_snr_at_fer_interpolation():
    pts = [(2.0, 1e-1, 10000), (3.0, 1e-2, 10000), (4.0, 1e-3, 10000)]
    assert snr_at_fer(pts, 1e-2) == pytest.approx(3.0)
    assert snr_at_fer(pts, 10**-1.5) == pytest.approx(2.5, abs=1e-9)
    assert snr_at_fer(pts, 1e-4) is None
    assert snr_at_fer(pts, 0.5) is None


def test_compare_identical_files(tmp_path, capsys):
    rows = [(2.0, 0.2), (3.0, 0.02), (4.0, 0.002)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    make_curve_csv(a, rows)
    make_curve_csv(b, rows)
    out = tmp_path / "report.json"
    assert main(["compare", str(a), str(b), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    gaps = [t["gap_db"] for t in report["targets"] if t["evaluable"]]
    assert gaps and all(g == pytest.approx(0.0) for g in gaps)


def test_compare_offset_curves(tmp_path):
    rows_a = [(2.0, 0.2), (3.0, 0.02), (4.0, 0.002)]
    # same grid, FER values of a curve displaced right by exactly 0.1 dB
    # (the fixture curve is log-linear at one decade per dB)
    rows_b = [(s, f * 10**0.1) for s, f in rows_a]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    make_curve_csv(a, rows_a)
    make_curve_csv(b, rows_b)
    out = tmp_path / "r.json"
    rc = main(["compare", str(a), str(b), "--tolerance", "0.15", "--targets", "1e-2", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["targets"][0]["gap_db"] == pytest.approx(0.1, abs=0.01)
    # tightening the tolerance below the offset must fail with exit code 2
    assert main(["compare", str(a), str(b), "--tolerance", "0.05", "--targets", "1e-2"]) == 2


def test_compare_not_evaluable_target_is_not_a_failure(tmp_path):
    rows = [(2.0, 0.2), (3.0, 0.05)]  # never reaches 1e-3
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    make_curve_csv(a, rows)
    make_curve_csv(b, rows)
    out = tmp_path / "r.json"
    assert main(["compare", str(a), str(b), "--targets", "1e-3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["targets"][0]["evaluable"] is False


def test_compare_disjoint_grids_is_usage_error(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    make_curve_csv(a, [(2.0, 0.1), (3.0, 0.01)])
    make_curve_csv(b, [(5.0, 0.1), (6.0, 0.01)])
    assert main(["compare", str(a), str(b)]) == 1


def test_compare_rejects_non_finite_tolerance_and_targets_outside_unit_interval(tmp_path):
    rows_a = [(2.0, 0.2), (3.0, 0.02), (4.0, 0.002)]
    rows_b = [(s, f * 10**0.5) for s, f in rows_a]  # 0.5 dB to the right
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    make_curve_csv(a, rows_a)
    make_curve_csv(b, rows_b)
    assert main(["compare", str(a), str(b)]) == 2
    bad = ["--tolerance=nan", "--tolerance=inf", "--tolerance=-inf", "--targets=0", "--targets=1",
           "--targets=1e-2,1.5", "--targets=-0.1", "--targets=nan", "--targets=inf"]
    for arg in bad:
        assert main(["compare", str(a), str(b), arg]) == 1, arg
    # a result CSV holding a non-finite number is no input either
    make_curve_csv(b, rows_a)
    text = b.read_text()
    assert ",0.02," in text
    for value in ("nan", "inf"):
        b.write_text(text.replace(",0.02,", f",{value},"))
        assert main(["compare", str(a), str(b)]) == 1, value


def test_non_finite_config_numbers_are_usage_errors(tmp_path, capsys):
    decoder = {"kind": "pc-scan", "t_max": 2, "lambda_p": [0.125]}
    write_config(tmp_path, decoder=decoder)
    text = (tmp_path / "cfg.json").read_text()
    assert "[0.125]" in text
    for literal in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "bad.json"
        path.write_text(text.replace("0.125", literal))
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", str(path), "--out", out]) == 1, literal
        assert "non-finite" in capsys.readouterr().err


def _with(section, **entries):
    """BASE_CONFIG with `entries` set in one of its sections."""
    return {**BASE_CONFIG, section: {**BASE_CONFIG[section], **entries}}


BAD_CONFIGS = {
    # top level
    "list": [BASE_CONFIG],
    "unknown-section": {**BASE_CONFIG, "channel": {}},
    "missing-code": {k: v for k, v in BASE_CONFIG.items() if k != "code"},
    "section-not-object": {**BASE_CONFIG, "sim": [2.0]},
    # unknown keys
    "code-unknown-key": _with("code", bogus=1),
    "decoder-unknown-key": _with("decoder", bogus=1),
    "sim-unknown-key": _with("sim", bogus=1),
    "decoder-damping": _with("decoder", damping={"lambda_p": [1.0]}),
    "sim-spec": _with("sim", spec={"N": 16, "K": 8}),
    # wrong JSON types
    "N-string": _with("code", N="16"),
    "N-bool": _with("code", N=True),
    "N-null": _with("code", N=None),
    "A-string": _with("code", A="0.5"),
    "mc_weights-strings": _with("code", mc_weights=["1"]),
    "lambda_p-number": _with("decoder", lambda_p=1.0),
    "lambda_p-strings": _with("decoder", lambda_p=["a"]),
    "snr_points-string": _with("sim", snr_points="1.0"),
    "noiseless-int": _with("sim", noiseless=1),
    "max_frames-bool": _with("sim", max_frames=True),
    # bad values
    "mc_weights-empty": _with("code", mc_weights=[]),
    "lambda_i-empty": _with("decoder", lambda_i=[]),
    "lambda_i-negative": _with("decoder", lambda_i=[-0.5]),
    "t_max-zero": _with("decoder", t_max=0),
    "workers-zero": _with("sim", workers=0),
    "batch_frames-zero": _with("sim", batch_frames=0),
    "snr_points-empty": _with("sim", snr_points=[]),
    "master_seed-negative": _with("sim", master_seed=-1),
    "nr_npc-negative-fc": _with("code", nr_npc=-1),
    "scheme-unknown": _with("code", scheme="zz"),
    "kind-unknown": _with("decoder", kind="warp"),
    "schedule-unknown-pc-scan": _with("decoder", kind="pc-scan", schedule="zigzag"),
    "schedule-unknown-sc": _with("decoder", kind="sc", schedule="zigzag"),
    # integers must be JSON integers
    "N-float": _with("code", N=16.0),
    "K-float": _with("code", K=8.0),
    "t_max-float": _with("decoder", t_max=2.0),
    "master_seed-float": _with("sim", master_seed=3.0),
    "workers-float": _with("sim", workers=2.0),
}


@pytest.mark.parametrize("name", BAD_CONFIGS)
def test_bad_configs_are_config_errors(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_CONFIGS[name]))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not (tmp_path / "sim.csv").exists()


@pytest.mark.parametrize(
    "message",
    # numpy's words where a chunk's batch_frames x N arrays exceed the commit limit, and a bare MemoryError
    ["Unable to allocate 64.0 GiB for an array with shape (134217728, 1024) and data type float64", ""],
)
def test_simulate_reports_a_memory_error_as_one_line(tmp_path, capsys, monkeypatch, message):
    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(sim, "chunk_frames", refuse)
    assert main(["simulate", "--config", write_config(tmp_path), "--out", str(tmp_path / "sim")]) == 1
    assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"
    assert not (tmp_path / "sim.csv").exists()


def test_simulate_rejects_more_workers_than_the_cap(tmp_path, capsys):
    out = str(tmp_path / "sim")
    argv = ["simulate", "--config", write_config(tmp_path), "--out", out, "--workers", "257"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: invalid sim config: workers must be in [1, 256], got 257\n"
    assert not (tmp_path / "sim.csv").exists()


def test_simulate_rejects_chunks_over_the_memory_ceiling(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a chunk or a thread was started")

    monkeypatch.setattr(sim, "chunk_frames", refuse)
    monkeypatch.setattr(sim, "ThreadPoolExecutor", refuse)
    code = {"N": 1024, "K": 512, "scheme": "fc", "A": 0.5}
    s = {**BASE_CONFIG["sim"], "batch_frames": 2**27, "max_frames": 2**27}
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", write_config(tmp_path, code=code, sim=s), "--out", out]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: invalid sim config: the chunks in flight would hold ") and "ceiling" in err
    assert not (tmp_path / "sim.csv").exists()


def test_simulate_rejects_a_code_longer_than_the_cap(tmp_path, capsys):
    out = str(tmp_path / "sim")
    code = {**BASE_CONFIG["code"], "N": 2**17, "K": 1}
    assert main(["simulate", "--config", write_config(tmp_path, code=code), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == "error: invalid code config: N must be a power of two from 4 to 65536, got 131072\n"
    assert not (tmp_path / "sim.csv").exists()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["construct", "--config", str(tmp_path / "missing.json")]) == 1
    assert main(["bogus-command"]) == 1
    assert main(["simulate", "--config", write_config(tmp_path), "--decoders", "warp"]) == 1
    # an empty entry names no decoder; it used to add the config's own kind.
    # A repeated one used to run its sweep again and write each row twice
    for decoders in ("sc,", ",sc", "sc,,csr-scan", "", "sc,sc", "csr-scan,pc-scan,csr-scan"):
        out = str(tmp_path / "empty")
        capsys.readouterr()
        assert main(["simulate", "--config", write_config(tmp_path), "--decoders", decoders, "--out", out]) == 1
        assert not (tmp_path / "empty.csv").exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (decoders, err)
    # a missing or unreadable --in and an unwritable --out end in one error line
    cfg, a_file = write_config(tmp_path), tmp_path / "cfg.json"
    for argv in (
        ["encode", "--config", cfg, "--in", str(tmp_path / "missing.txt")],
        ["encode", "--config", cfg, "--in", str(tmp_path)],
        ["decode", "--config", cfg, "--in", str(tmp_path / "missing.txt")],
        ["decode", "--config", cfg, "--in", str(tmp_path)],
        ["construct", "--config", cfg, "--out", str(tmp_path)],
        ["encode", "10110001", "--config", cfg, "--out", str(a_file / "cw.txt")],
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


# Per config key: values in range, kept tiny (N <= 64, max_frames <= 200,
# workers <= 2), so a drawn run is short and starts at most two threads,
# and values out of range, which the configs refuse before any thread
# starts or any chunk is made
# (edge_configs draws N from 4, 8, ..., 64 and K up to N)
IN_RANGE = {
    "code": {
        "scheme": st.sampled_from(SCHEMES),
        "A": st.none() | st.floats(0.1, 2.0),
        "L": st.none() | st.integers(1, 8),
        "mc_weights": st.sampled_from([[1], [1, 2]]),
        "nr_npc": st.integers(0, 8),
        "nr_npc_wm": st.integers(0, 4),
    },
    "decoder": {
        "kind": st.sampled_from(DECODER_KINDS),
        "t_max": st.integers(1, 4),
        "lambda_p": st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
        "lambda_i": st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
        "schedule": st.sampled_from(SCHEDULES),
    },
    "sim": {
        "snr_points": st.lists(st.floats(-2.0, 6.0), min_size=1, max_size=3),
        "max_frames": st.integers(1, 200),
        "min_frame_errors": st.integers(1, 10**6),
        "master_seed": st.integers(0, 2**70),
        "workers": st.integers(1, 2),
        "noiseless": st.booleans(),
        "batch_frames": st.integers(1, 200) | st.just(10**9),
    },
}
OUT_OF_RANGE = {
    "N": [-1, 0, 2, 3, 5, 48, 2 * N_MAX, 2**70],
    "K": [-1, 0, 65, 2**70],
    "scheme": ["", "pc", "FC"],
    "A": [-1.0, 0.0, 8.5, 1e300],
    "L": [-3, 0],
    "mc_weights": [[], [0], [2], [1, 2, 3]],
    "nr_npc": [-1, 100, 2**70],
    "nr_npc_wm": [-1, 100],
    "kind": ["", "warp", "SC"],
    "t_max": [-1, 0, 2**70],
    "lambda_p": [[], [-1.0], [1.0, -0.5], [1e308]],
    "lambda_i": [[], [-1.0], [1.0, -0.5], [1e308]],
    "schedule": ["", "parallel"],
    "snr_points": [[], [1e6], [-1e300], [2.0, 1e6]],
    "max_frames": [-1, 0, 2**63 + 1],
    "min_frame_errors": [-1, 0],
    "master_seed": [-1, -(2**70)],
    "workers": [-1, 0, 257, 2**70],
    "noiseless": [0, 1],
    "batch_frames": [-5, 0],
}
# JSON values of the wrong type for most keys, non-finite numbers included
WRONG_TYPE = (
    st.none() | st.booleans() | st.text(max_size=3) | st.floats() | st.integers(-3, 3)
    | st.lists(st.text(max_size=2), min_size=1, max_size=2) | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)
)
CONFIG_KEYS = [("code", "N"), ("code", "K")] + [(section, key) for section, keys in IN_RANGE.items() for key in keys]


@st.composite
def edge_configs(draw):
    """A config of in-range values, N and K always given, with up to three
    keys set to a value out of range or of the wrong JSON type."""
    N = draw(st.sampled_from([4, 8, 16, 32, 64]))
    cfg = {section: draw(st.fixed_dictionaries({}, optional=keys)) for section, keys in IN_RANGE.items()}
    cfg["code"].update(N=N, K=draw(st.integers(1, N)))
    for section, key in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=3, unique=True)):
        cfg[section][key] = draw(st.sampled_from(OUT_OF_RANGE[key]) | WRONG_TYPE)
    return cfg


@settings(max_examples=60, deadline=None)
@given(cfg=edge_configs())
@example(cfg=BASE_CONFIG)
def test_simulate_config_edges_exit_zero_or_one_error_line(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", str(Path(tmp) / "sim")
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["simulate", "--config", str(path), "--out", out])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == [f"wrote {out}.csv, {out}.json, {out}.dat"]
        else:
            assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not Path(out + ".csv").exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pcpolar.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout
