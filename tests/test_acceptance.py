"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 5 is implemented exactly as stated and is expected to fail on this
implementation; the test prints the measured FERs, and the README's "Known
discrepancies" section records what is known of the cause. Run with
`pytest -s tests/test_acceptance.py` to see every line.
"""

import json
import time

import numpy as np
import pytest

from pcpolar import __version__
from pcpolar.channel import channel_llrs, ebn0_to_sigma, modulate_bpsk
from pcpolar.cli import main
from pcpolar.construction import (
    INFO,
    PC,
    CodeSpec,
    RoleMap,
    build_code,
    chain_groups,
    check_invariants,
    derive_pc_structure,
)
from pcpolar.decoders import (
    CsrScanDecoder,
    DampingConfig,
    PcScanDecoder,
    ScanDecoder,
    ScDecoder,
)
from pcpolar.encoder import csr_precode, encode, polar_transform
from pcpolar.sim import DecoderConfig, SimConfig, run_cell, wilson_interval

from oracles import dense_transform, direct_precode, f_op

FIG3_SPEC = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
N128_SPEC = CodeSpec(N=128, K=64, scheme="fc", A=1.0)


def report(criterion, passed, detail):
    tag = "PASS" if passed else "FAIL"
    line = f"[{tag}] criterion {criterion}: {detail}"
    print("\n" + line, flush=True)
    return line


def random_llr_frames(spec, rm, L, frames, ebn0_db, seed):
    rng = np.random.default_rng(seed)
    msg = rng.integers(0, 2, (frames, spec.K), dtype=np.uint8)
    x = encode(msg, spec, rm, L)
    sigma = ebn0_to_sigma(ebn0_db, spec.rate)
    y = modulate_bpsk(x) + sigma * rng.standard_normal(x.shape)
    return msg, channel_llrs(y, sigma)


def results_equal(a, b):
    return (
        np.array_equal(a.info_bits, b.info_bits)
        and np.array_equal(a.leaf_posteriors, b.leaf_posteriors)
        and np.array_equal(a.coded_extrinsics, b.coded_extrinsics)
        and np.array_equal(a.coded_posteriors, b.coded_posteriors)
    )


def test_criterion_1_oracle_equivalences():
    t0 = time.perf_counter()
    mismatches = 0
    rng = np.random.default_rng(1001)
    specs = {
        8: CodeSpec(N=8, K=4, scheme="fc", L=2),
        64: FIG3_SPEC,
        512: CodeSpec(N=512, K=256, scheme="fc", A=1.5),
    }
    for N, spec in specs.items():
        rm, L = build_code(spec)
        pcs = derive_pc_structure(rm, L)
        s = np.zeros((10_000, N), dtype=np.uint8)
        s[:, rm.info_positions] = rng.integers(0, 2, (10_000, spec.K), dtype=np.uint8)
        mismatches += int((csr_precode(s, rm, L) != direct_precode(s, pcs)).sum())
        q = rng.integers(0, 2, (10_000, N), dtype=np.uint8)
        mismatches += int((polar_transform(q) != dense_transform(q)).sum())
    # exhaustive small lengths
    for N in (4, 8):
        q = ((np.arange(1 << N)[:, None] >> np.arange(N)[None, :]) & 1).astype(np.uint8)
        mismatches += int((polar_transform(q) != dense_transform(q)).sum())
    rm, L = build_code(CodeSpec(N=8, K=4, scheme="fc", L=2))
    pcs = derive_pc_structure(rm, L)
    m = ((np.arange(16)[:, None] >> np.arange(4)[None, :]) & 1).astype(np.uint8)
    s = np.zeros((16, 8), dtype=np.uint8)
    s[:, rm.info_positions] = m
    mismatches += int((csr_precode(s, rm, L) != direct_precode(s, pcs)).sum())
    elapsed = time.perf_counter() - t0
    line = report(
        1,
        mismatches == 0 and elapsed < 60,
        f"oracle equivalences, 0 mismatches required; got {mismatches}, {elapsed:.1f}s",
    )
    assert mismatches == 0, line
    assert elapsed < 60, line


def test_criterion_2_flagship_csr_equivalence():
    t0 = time.perf_counter()
    unit = DampingConfig(lambda_p=(1.0,), lambda_i=(0.0,))
    failures = []
    for spec, seed in ((FIG3_SPEC, 2001), (N128_SPEC, 2002)):
        rm, L = build_code(spec)
        _, llr = random_llr_frames(spec, rm, L, 1000, 2.0, seed)
        for t_max in (1, 4):
            a = PcScanDecoder(rm, L, unit).decode(llr, t_max)
            b = CsrScanDecoder(rm, L).decode(llr, t_max)
            if not results_equal(a, b):
                failures.append((spec.N, t_max))
    elapsed = time.perf_counter() - t0
    line = report(
        2,
        not failures and elapsed < 120,
        f"csr-scan bitwise-equals pc-scan(lp=1, li=0) on 1000 noisy frames, "
        f"t in (1,4), N in (64,128); mismatches={failures}, {elapsed:.1f}s",
    )
    assert not failures, line
    assert elapsed < 120, line


def test_criterion_3_reduction_to_scan():
    failures = []
    for N, seed in ((64, 3001), (512, 3002)):
        spec = CodeSpec(N=N, K=N // 2)
        rm, L = build_code(spec)
        _, llr = random_llr_frames(spec, rm, L, 1000, 2.0, seed)
        for t_max in (1, 4):
            a = PcScanDecoder(rm, L).decode(llr, t_max)
            b = ScanDecoder(rm).decode(llr, t_max)
            if not results_equal(a, b):
                failures.append((N, t_max))
    line = report(
        3,
        not failures,
        f"pc-scan with empty PC set bitwise-equals scan on 1000 frames, "
        f"N in (64,512); mismatches={failures}",
    )
    assert not failures, line


def test_criterion_4_noiseless_correctness():
    specs = {
        "none": CodeSpec(N=64, K=32),
        "fc": FIG3_SPEC,
        "mc": CodeSpec(N=64, K=32, scheme="mc", A=0.5, L=5),
        "nr": CodeSpec(N=64, K=20, scheme="nr", L=5),
    }
    failures = []
    for name, spec in specs.items():
        rm, L = build_code(spec)
        rng = np.random.default_rng(4000 + spec.N)
        msg = rng.integers(0, 2, (1000, spec.K), dtype=np.uint8)
        x = encode(msg, spec, rm, L)
        llr = channel_llrs(modulate_bpsk(x), 0.0, noiseless=True)
        runs = {
            "sc": ScDecoder(rm, L).decode(llr).info_bits,
            "pc-scan": PcScanDecoder(rm, L).decode(llr, 2).info_bits,
            "csr-scan": CsrScanDecoder(rm, L).decode(llr, 2).info_bits,
        }
        if name == "none":
            # plain scan requires an empty PC set by contract
            runs["scan"] = ScanDecoder(rm).decode(llr, 2).info_bits
        for dec, bits in runs.items():
            if not np.array_equal(bits, msg):
                failures.append((name, dec))
    line = report(
        4,
        not failures,
        f"noiseless exact recovery, 1000 frames per scheme, all decoders; "
        f"failures={failures}",
    )
    assert not failures, line


def test_criterion_5_pc_scan_beats_sc_fig5_trend():
    """Expected to fail; see the README's "Known discrepancies" section.

    Measured on this setup, PC-SCAN at t=4 gives FER 0.0431 against 0.0329
    for SC. The shortfall is neither the construction nor min-sum: with
    the published chain-0 roles forced (25 info, 50 PC) the frame-error
    counts are still 1063 against 889 at 3 dB and 178 against 164 at 4 dB,
    and an exact box-plus in place of min-sum gives 0.0458 against 0.0321.
    It belongs to the fc scheme under the SCAN family: fc makes every
    frozen position after a chain's first info bit a PC bit, and the
    feedback at a PC leaf is a min over the whole checked prefix of its
    chain. PC-SCAN trails SC at every fc point measured (N=128 at 3.0 dB:
    1019 against 972 errors of 40,000 frames; N=256 at 2.5 dB: 944 against
    880 of 20,000; N=1024 at 2.0 dB: 672 against 415 of 5,000). On the
    nr code it beats SC (N=1024 at 2.0 dB: 356 against 501 errors of
    5,000 frames, disjoint Wilson intervals). Whether the fc shortfall
    departs from the paper's PC-SCAN cannot be settled without the
    paper's update rules and Fig. 5 data, so the check stays as stated.
    """
    frames = 20_000
    sc_cells = run_cell(
        SimConfig(
            spec=FIG3_SPEC,
            decoder=DecoderConfig(kind="sc"),
            snr_points=(3.0,),
            max_frames=frames,
            min_frame_errors=10**9,
            master_seed=501,
        ),
        3.0,
    )
    pc_cells = run_cell(
        SimConfig(
            spec=FIG3_SPEC,
            decoder=DecoderConfig(kind="pc-scan", t_max=4, lambda_p=(1.0,), lambda_i=(0.67,)),
            snr_points=(3.0,),
            max_frames=frames,
            min_frame_errors=10**9,
            master_seed=501,
        ),
        3.0,
    )
    sc = sc_cells[0]
    pc = pc_cells[3]
    sc_lo, sc_hi = sc.fer_ci_95
    pc_lo, pc_hi = pc.fer_ci_95
    ordered = pc.fer < sc.fer and pc_hi < sc_lo
    line = report(
        5,
        ordered,
        f"FER(pc-scan,t=4,li=0.67)={pc.fer:.4f} [{pc_lo:.4f},{pc_hi:.4f}] vs "
        f"FER(sc)={sc.fer:.4f} [{sc_lo:.4f},{sc_hi:.4f}] at Eb/N0=3.0dB, "
        f"{frames} frames; requires pc-scan below sc with disjoint CIs",
    )
    assert ordered, line + " — see the README, \"Known discrepancies\""


def _interp_gap(curve_a, curve_b, target):
    from pcpolar.cli import snr_at_fer

    sa = snr_at_fer(curve_a, target)
    sb = snr_at_fer(curve_b, target)
    if sa is None or sb is None:
        return None
    return sb - sa


def test_criterion_6_csr_loss_bound(tmp_path):
    config = {
        "code": {"N": 128, "K": 64, "scheme": "fc", "A": 1.0},
        "decoder": {"kind": "pc-scan", "t_max": 4, "lambda_p": [1.0], "lambda_i": [0.67]},
        "sim": {
            "snr_points": [2.0, 2.5, 3.0, 3.5],
            "max_frames": 20_000,
            "min_frame_errors": 1_000_000,
            "master_seed": 601,
        },
    }
    cfg_path = tmp_path / "c6.json"
    cfg_path.write_text(json.dumps(config))
    out_a = str(tmp_path / "pcscan")
    out_b = str(tmp_path / "csrscan")
    assert main(["simulate", "--config", str(cfg_path), "--out", out_a, "--decoders", "pc-scan"]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", out_b, "--decoders", "csr-scan"]) == 0
    report_path = tmp_path / "compare.json"
    rc = main(
        [
            "compare",
            out_a + ".csv",
            out_b + ".csv",
            "--targets",
            "1e-2",
            "--iter",
            "4",
            "--tolerance",
            "0.15",
            "--out",
            str(report_path),
        ]
    )
    doc = json.loads(report_path.read_text())
    entry = doc["targets"][0]
    ok = rc == 0 and entry["evaluable"] and abs(entry["gap_db"]) <= 0.15
    line = report(
        6,
        ok,
        f"cmd_compare dB gap at FER=1e-2 between pc-scan and csr-scan (t=4): "
        f"{round(entry['gap_db'], 4) if entry['evaluable'] else 'n/a'} dB, limit 0.15, exit code {rc}",
    )
    assert ok, line


def test_criterion_7_first_iteration_tracks_sc():
    frames = 20_000
    grid = (2.5, 3.0, 3.5)
    sc_curve, csr_curve = [], []
    sc_at_3 = csr_at_3 = None
    for snr in grid:
        sc = run_cell(
            SimConfig(
                spec=FIG3_SPEC,
                decoder=DecoderConfig(kind="sc"),
                snr_points=(snr,),
                max_frames=frames,
                min_frame_errors=10**9,
                master_seed=701,
            ),
            snr,
        )[0]
        csr = run_cell(
            SimConfig(
                spec=FIG3_SPEC,
                decoder=DecoderConfig(kind="csr-scan", t_max=1),
                snr_points=(snr,),
                max_frames=frames,
                min_frame_errors=10**9,
                master_seed=701,
            ),
            snr,
        )[0]
        sc_curve.append((snr, sc.fer, sc.frames))
        csr_curve.append((snr, csr.fer, csr.frames))
        if snr == 3.0:
            sc_at_3, csr_at_3 = sc, csr
    sc_lo, sc_hi = sc_at_3.fer_ci_95
    csr_lo, csr_hi = csr_at_3.fer_ci_95
    overlap = max(sc_lo, csr_lo) <= min(sc_hi, csr_hi)
    gap = _interp_gap(sc_curve, csr_curve, sc_at_3.fer)
    within_gap = gap is not None and gap <= 0.2
    line = report(
        7,
        overlap or within_gap,
        f"CSR-SCAN t=1 FER={csr_at_3.fer:.4f} [{csr_lo:.4f},{csr_hi:.4f}] vs "
        f"SC FER={sc_at_3.fer:.4f} [{sc_lo:.4f},{sc_hi:.4f}] at 3.0dB; "
        f"CI overlap={overlap}, interpolated gap={gap if gap is None else round(gap, 3)}dB (limit 0.2)",
    )
    assert overlap or within_gap, line


# Chain 0 of the (64, 32) fc code with L=5 as published (Fig. 3). It is the
# PW grouping below with the roles of 25 and 50 swapped, which no reliability
# threshold can give: 50 (110010b) is 25 (011001b) with every 1 moved up one
# place, so under the natural-order transform F^{(x)n} the synthetic channel
# W^(50) is upgraded from W^(25) for every binary memoryless symmetric channel
# (Schürch, "A partial order for the synthesized channels of a polar code",
# ISIT 2016). Any rule that respects that order ranks 50 above 25.
PUBLISHED_CHAIN0 = {
    "F": [0, 5, 10],
    "P": [20, 35, 40, 50],
    "I_checked": [15, 25, 30, 45],
    "I_unchecked": [55, 60],
}

# Chain 0 under the documented rule: w[i] = sum_j b_j 2^(j/4), the 32 largest
# weights are info, and under fc every other position is PC. Along chain 0
# (i = 0 mod 5) the ascending ranks (threshold 32) are 0:0, 5:8, 10:11,
# 15:37, 20:16, 25:30, 30:48, 35:28, 40:22, 45:49, 50:40, 55:59, 60:57.
# So 15, 30, 45, 50, 55, 60 are info and the rest PC. 0, 5 and 10 precede
# the chain's first info bit, check nothing and count as frozen; 20 and 25
# check 15, 35 and 40 check 15 and 30; no PC bit follows 45, so 45..60 are
# unchecked.
PW_CHAIN0 = {
    "F": [0, 5, 10],
    "P": [20, 25, 35, 40],
    "I_checked": [15, 30],
    "I_unchecked": [45, 50, 55, 60],
}


def test_criterion_8_construction_golden_vector(tmp_path):
    """`construct --check` emits the PW-derived chain-0 grouping, and the
    grouping step reproduces the published partition from the figure's
    roles. The published info set itself is not PW-derivable; see the
    README's "Known discrepancies" section."""
    cfg_path = tmp_path / "c8.json"
    cfg_path.write_text(
        json.dumps({"code": {"N": 64, "K": 32, "scheme": "fc", "A": 0.5, "L": 5}})
    )
    out = tmp_path / "construct.json"
    assert main(["construct", "--config", str(cfg_path), "--out", str(out), "--check"]) == 0
    doc = json.loads(out.read_text())
    assert doc["checked_sets"]["20"] == [15]
    assert 20 in doc["checking_sets"]["15"]
    got = doc["chain_groups"][0]

    rm, _ = build_code(FIG3_SPEC)
    role = rm.role.copy()
    role[25], role[50] = INFO, PC
    fig_rm = RoleMap(role=role)
    fig_chain0 = chain_groups(fig_rm, FIG3_SPEC.L)[0]

    pw_ok = got == PW_CHAIN0
    fig_ok = fig_chain0 == PUBLISHED_CHAIN0
    line = report(
        8,
        pw_ok and fig_ok,
        f"chain 0 from construct: {got} (PW rule requires {PW_CHAIN0}); "
        f"chain 0 from the figure's roles: {fig_chain0} "
        f"(published {PUBLISHED_CHAIN0})",
    )
    assert pw_ok, line
    assert fig_ok, line


def test_criterion_9_property_suites():
    rng = np.random.default_rng(901)
    problems = []

    # f_op algebra over 1e5 random tuples: vectorized permutation check
    from oracles import f_reduce

    vals = rng.normal(0, 5, (100_000, 5))
    vals[rng.random(vals.shape) < 0.02] = np.inf  # sprinkle identity elements
    perm = rng.permutation(5)
    if not np.array_equal(f_reduce(vals), f_reduce(vals[:, perm])):
        problems.append("f_reduce permutation invariance")
    sample = vals[rng.integers(0, len(vals), 2000)]
    for row in sample:
        fold = row[0]
        for v in row[1:]:
            fold = f_op(fold, v)
        if fold != f_op(*row):
            problems.append("f_op left-fold mismatch")
            break
    if any(f_op(np.inf, x) != x for x in (-3.0, 0.0, 7.25)):
        problems.append("f_op identity")

    # encoder linearity and involution
    spec = FIG3_SPEC
    rm, L = build_code(spec)
    a = rng.integers(0, 2, (500, 32), dtype=np.uint8)
    b = rng.integers(0, 2, (500, 32), dtype=np.uint8)
    if not np.array_equal(
        encode(a ^ b, spec, rm, L), encode(a, spec, rm, L) ^ encode(b, spec, rm, L)
    ):
        problems.append("encoder linearity")
    q = rng.integers(0, 2, (500, 256), dtype=np.uint8)
    if not np.array_equal(polar_transform(polar_transform(q)), q):
        problems.append("transform involution")

    # PcStructure duality across schemes
    for spec2 in (
        FIG3_SPEC,
        CodeSpec(N=64, K=32, scheme="mc", A=0.5, L=5),
        CodeSpec(N=64, K=20, scheme="nr", L=5),
        CodeSpec(N=128, K=64, scheme="fc", A=1.0),
    ):
        rm2, L2 = build_code(spec2)
        pcs2 = derive_pc_structure(rm2, L2)
        try:
            check_invariants(spec2, rm2, pcs2)
        except AssertionError as e:
            problems.append(f"invariants {spec2.scheme}: {e}")

    # reproducibility under workers 1 and 8
    counters = {}
    for workers in (1, 8):
        cfg = SimConfig(
            spec=FIG3_SPEC,
            decoder=DecoderConfig(kind="csr-scan", t_max=2),
            snr_points=(2.0,),
            max_frames=4000,
            min_frame_errors=10**9,
            master_seed=902,
            workers=workers,
            batch_frames=500,
        )
        cells = run_cell(cfg, 2.0)
        counters[workers] = [(c.frames, c.frame_errors, c.bit_errors) for c in cells]
    if counters[1] != counters[8]:
        problems.append(f"workers reproducibility: {counters}")

    line = report(9, not problems, f"property suites; problems={problems or 'none'}")
    assert not problems, line
