import ctypes
import functools
import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpolar import construction, treepass
from pcpolar.channel import LLR_MAX, channel_llrs, ebn0_to_sigma, modulate_bpsk
from pcpolar.construction import FROZEN, INFO, PC, CodeSpec, RoleMap, build_code, derive_pc_structure
from pcpolar.decoders import (
    DECODER_KINDS,
    CsrScanDecoder,
    DampingConfig,
    DecodeResult,
    DecoderConfig,
    PcScanDecoder,
    ScanDecoder,
    ScDecoder,
    f_pair,
    make_decoder,
)
from pcpolar.encoder import csr_precode, encode, polar_transform

from oracles import f_op, hard_output

llr_values = st.floats(min_value=-50, max_value=50, allow_nan=False)


def numpy_engine():
    """Inside this block, decoders are built on the numpy engine."""
    return mock.patch.object(treepass, "load", lambda: None)


def noisy_llrs(spec, rm, L, frames, ebn0_db, seed):
    rng = np.random.default_rng(seed)
    msg = rng.integers(0, 2, (frames, spec.K), dtype=np.uint8)
    x = encode(msg, spec, rm, L)
    sigma = ebn0_to_sigma(ebn0_db, spec.rate)
    y = modulate_bpsk(x) + sigma * rng.standard_normal(x.shape)
    return msg, channel_llrs(y, sigma)


# ---------------------------------------------------------------------------
# f-function algebra


def test_f_op_examples():
    assert f_op(2.0, -3.0) == -2.0
    assert f_op(np.inf, -7.5) == -7.5
    assert f_op(np.inf, 0.125) == 0.125
    assert f_op(1.5, -0.5, -2.0) == 0.5


def test_f_op_single_and_empty():
    assert f_op(-3.25) == -3.25
    assert f_op(np.inf) == np.inf
    with pytest.raises(ValueError):
        f_op()


def test_f_op_zero_counts_positive():
    assert f_op(0.0, -4.0) == 0.0
    assert f_op(-0.0, -4.0) == 0.0


@settings(max_examples=300, deadline=None)
@given(st.lists(llr_values, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_f_op_is_permutation_invariant(values, rnd):
    shuffled = values[:]
    rnd.shuffle(shuffled)
    left_fold = values[0]
    for v in values[1:]:
        left_fold = f_op(left_fold, v)
    assert f_op(*shuffled) == f_op(*values) == left_fold


@settings(max_examples=200, deadline=None)
@given(st.lists(llr_values, min_size=1, max_size=6))
def test_f_op_magnitude_and_sign(values):
    out = f_op(*values)
    assert abs(out) <= min(abs(v) for v in values)
    negatives = sum(1 for v in values if v < 0)
    if out != 0:
        assert (out < 0) == (negatives % 2 == 1)


def test_f_op_identity_element():
    for x in (-3.0, 0.0, 5.5, np.inf):
        assert f_op(np.inf, x) == x


signed_edge_values = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5, 2.0, -7.0, np.inf, -np.inf])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(signed_edge_values, signed_edge_values), min_size=1, max_size=12))
def test_f_pair_in_place_forms_are_bitwise_the_where_form(pairs):
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    m = np.minimum(np.abs(a), np.abs(b))
    ref = np.where((a < 0) != (b < 0), -m, m).tobytes()
    assert f_pair(a, b).tobytes() == ref
    out = np.full_like(a, np.nan)
    assert f_pair(a, b, out=out) is out and out.tobytes() == ref
    a2, b2 = a.copy(), b.copy()
    f_pair(a2, b, out=a2)
    f_pair(a, b2, out=b2)
    assert a2.tobytes() == b2.tobytes() == ref


def test_hard_output_rules():
    role = np.array([FROZEN, INFO, INFO, INFO], dtype=np.int8)
    rm = RoleMap(role=role)
    bits = hard_output(np.array([np.inf, -0.3, 0.0, np.inf]), rm)
    assert np.array_equal(bits, [1, 0, 0])


# ---------------------------------------------------------------------------
# SC


def test_sc_noiseless_all_zero():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm, L = build_code(spec)
    llr = channel_llrs(modulate_bpsk(np.zeros(64, dtype=np.uint8)), 0.0, noiseless=True)
    res = ScDecoder(rm, L).decode(llr)
    assert not res.info_bits.any()
    assert res.iterations_run == 1


@pytest.mark.parametrize("roles", [[FROZEN] * 16, [FROZEN] * 8 + [PC] * 8])
def test_sc_on_a_code_without_info_leaves_keeps_zero_extrinsics(roles):
    # every leaf is frozen-kind, so the root is a rate-0 node; SC never
    # updates its root's beta, so the decoder does not prune it either
    rm = RoleMap(np.array(roles, dtype=np.int8))
    llr = np.array([-0.0, 0.0, -1.5, 2.0] * 4)
    for engine in (nullcontext(), numpy_engine()):
        with engine:
            res = ScDecoder(rm, 3).decode(llr)
        assert res.info_bits.shape == (0,)
        assert np.array_equal(res.leaf_posteriors, np.full(16, np.inf))
        assert res.coded_extrinsics.tobytes() == np.zeros(16).tobytes()
        assert res.coded_posteriors.tobytes() == llr.tobytes()  # -0.0 kept


@pytest.mark.parametrize(
    "spec",
    [
        CodeSpec(N=64, K=32),
        CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5),
        CodeSpec(N=64, K=40, scheme="mc", L=5),
        CodeSpec(N=64, K=20, scheme="nr", L=5),
    ],
)
def test_sc_noiseless_round_trip(spec):
    rm, L = build_code(spec)
    rng = np.random.default_rng(7)
    msg = rng.integers(0, 2, (200, spec.K), dtype=np.uint8)
    x = encode(msg, spec, rm, L)
    llr = channel_llrs(modulate_bpsk(x), 0.0, noiseless=True)
    res = ScDecoder(rm, L).decode(llr)
    assert np.array_equal(res.info_bits, msg)


def brute_force_map(llr, spec, rm, L):
    """Exhaustive max-correlation decoding over all 2^K codewords."""
    best, best_msg = -np.inf, None
    for m in range(1 << spec.K):
        msg = np.array([(m >> j) & 1 for j in range(spec.K)], dtype=np.uint8)
        x = encode(msg, spec, rm, L)
        score = float(np.sum((1 - 2 * x.astype(float)) * llr))
        if score > best:
            best, best_msg = score, msg
    return best_msg


def test_sc_rate_one_matches_map():
    spec = CodeSpec(N=4, K=4)
    rm, L = build_code(spec)
    llr = np.array([-1.0, -1.0, -1.0, -1.0])
    res = ScDecoder(rm, L).decode(llr)
    assert np.array_equal(res.info_bits, brute_force_map(llr, spec, rm, L))


def test_sc_rejects_more_than_one_pass():
    spec = CodeSpec(N=16, K=8, scheme="fc", L=3)
    rm, L = build_code(spec)
    _, llr = noisy_llrs(spec, rm, L, 2, 2.0, 1)
    dec = ScDecoder(rm, L)
    assert dec.decode(llr, 1).iterations_run == 1
    with pytest.raises(ValueError, match="t_max"):
        dec.decode(llr, 2)


def test_sc_soft_fields_shape():
    spec = CodeSpec(N=16, K=8, scheme="fc", L=3)
    rm, L = build_code(spec)
    msg, llr = noisy_llrs(spec, rm, L, 3, 2.0, 0)
    res = ScDecoder(rm, L).decode(llr)
    assert res.leaf_posteriors.shape == (3, 16)
    assert np.all(np.isinf(res.leaf_posteriors))
    assert not res.coded_extrinsics.any()
    assert np.array_equal(res.coded_posteriors, llr)


# ---------------------------------------------------------------------------
# SCAN


def scan_reference(llr, frozen, t_max):
    """Hand-rolled scalar SCAN, kept structurally independent of the package."""

    def f(x, y):
        s = -1.0 if (x < 0) != (y < 0) else 1.0
        return s * min(abs(x), abs(y))

    N = len(llr)
    n = N.bit_length() - 1
    beta = {}

    def get_beta(s, base):
        if s == 0:
            return [math.inf if frozen[base] else 0.0]
        return beta.setdefault((s, base), [0.0] * (1 << s))

    leaf_alpha = [0.0] * N

    def traverse(s, base, alpha):
        if s == 0:
            leaf_alpha[base] = alpha[0]
            return get_beta(0, base)
        half = 1 << (s - 1)
        bl, br = get_beta(s - 1, base), get_beta(s - 1, base + half)
        al = [f(alpha[i], br[i] + alpha[i + half]) for i in range(half)]
        bl = traverse(s - 1, base, al)
        ar = [f(alpha[i], bl[i]) + alpha[i + half] for i in range(half)]
        br = traverse(s - 1, base + half, ar)
        bv = [f(bl[i], alpha[i + half] + br[i]) for i in range(half)] + [
            f(bl[i], alpha[i]) + br[i] for i in range(half)
        ]
        beta[(s, base)] = bv
        return bv

    for _ in range(t_max):
        root_beta = traverse(n, 0, list(llr))
    return (
        np.array([leaf_alpha[u] + (math.inf if frozen[u] else 0.0) for u in range(N)]),
        np.array(root_beta),
    )


GOLDEN_LLR = [0.9, -1.7, 2.3, 0.4, -0.6, 1.1, -2.2, 3.0]
# frozen {0,1,2,4}; generated once from scan_reference and frozen in
GOLDEN_POST = {
    1: [np.inf, np.inf, np.inf, -3.5000000000000004, np.inf, 4.1, -4.1, 4.1],
    2: [np.inf, np.inf, np.inf, -4.5, np.inf, 4.1, -4.1, 4.1],
}
GOLDEN_BETA_ROOT = {
    1: [2.9000000000000004, -2.4000000000000004, 1.3, -3.9000000000000004, -3.5, 3.2, -2.8, 1.1],
    2: [3.2, -2.6, 2.1999999999999997, -4.5, -3.5, 3.2, -3.6999999999999997, 1.1],
}


def test_scan_matches_reference_golden_vectors():
    spec = CodeSpec(N=8, K=4)
    rm, _ = build_code(spec)
    assert list(rm.frozen_positions) == [0, 1, 2, 4]
    llr = np.array(GOLDEN_LLR)
    for t in (1, 2):
        res = ScanDecoder(rm).decode(llr, t)
        ref_post, ref_root = scan_reference(GOLDEN_LLR, rm.role == FROZEN, t)
        assert np.array_equal(res.leaf_posteriors, ref_post)
        assert np.array_equal(res.coded_extrinsics, ref_root)
        assert res.leaf_posteriors == pytest.approx(GOLDEN_POST[t])
        assert res.coded_extrinsics == pytest.approx(GOLDEN_BETA_ROOT[t])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), t_max=st.integers(min_value=1, max_value=3))
def test_scan_matches_reference_randomized(seed, t_max):
    spec = CodeSpec(N=16, K=8)
    rm, _ = build_code(spec)
    llr = np.random.default_rng(seed).normal(0, 2, 16)
    res = ScanDecoder(rm).decode(llr, t_max)
    ref_post, ref_root = scan_reference(list(llr), rm.role == FROZEN, t_max)
    assert np.allclose(res.leaf_posteriors, ref_post, atol=1e-12)
    assert np.allclose(res.coded_extrinsics, ref_root, atol=1e-12)


def test_scan_noiseless_single_iteration():
    spec = CodeSpec(N=64, K=32)
    rm, L = build_code(spec)
    rng = np.random.default_rng(11)
    msg = rng.integers(0, 2, (100, 32), dtype=np.uint8)
    x = encode(msg, spec, rm, L)
    llr = channel_llrs(modulate_bpsk(x), 0.0, noiseless=True)
    res = ScanDecoder(rm).decode(llr, 1)
    assert np.array_equal(res.info_bits, msg)


def test_scan_rate_one_has_zero_extrinsics():
    spec = CodeSpec(N=16, K=16)
    rm, _ = build_code(spec)
    llr = np.random.default_rng(3).normal(0, 1, 16)
    res = ScanDecoder(rm).decode(llr, 1)
    assert not res.coded_extrinsics.any()


def test_scan_rejects_pc_codes():
    spec = CodeSpec(N=16, K=8, scheme="fc", L=3)
    rm, _ = build_code(spec)
    with pytest.raises(ValueError, match="PC"):
        ScanDecoder(rm).decode(np.zeros(16), 1)


def test_scan_rejects_bad_inputs():
    spec = CodeSpec(N=16, K=8)
    rm, _ = build_code(spec)
    with pytest.raises(ValueError):
        ScanDecoder(rm).decode(np.zeros(15), 1)
    with pytest.raises(ValueError):
        ScanDecoder(rm).decode(np.zeros(16), 0)
    with pytest.raises(ValueError):
        ScanDecoder(rm, schedule="zigzag")


# ---------------------------------------------------------------------------
# PC-SCAN


def test_pc_scan_first_iteration_checked_info_feedback_is_zero():
    # in iteration 1 every checking PC leaf is still unvisited (cached alpha
    # 0), so a checked info leaf feeds back 0 whatever lambda_i is: the
    # whole result must not depend on lambda_i
    specs = [
        CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5),
        CodeSpec(N=256, K=128, scheme="fc", A=0.5, L=5),
        CodeSpec(N=256, K=128, scheme="nr", L=5),
    ]
    for spec in specs:
        rm, L = build_code(spec)
        pcs = derive_pc_structure(rm, L)
        assert pcs.checked_info
        full = PcScanDecoder(rm, L, damping=DampingConfig((1.0,), (1.0,)))
        off = PcScanDecoder(rm, L, damping=DampingConfig((1.0,), (0.0,)))
        for seed in range(5):
            _, llr = noisy_llrs(spec, rm, L, 4, 2.0, seed)
            a, b = full.decode(llr, 1), off.decode(llr, 1)
            assert result_digest(a) == result_digest(b)


def test_pc_scan_zero_damping_equals_scan_with_neutralized_pcs():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm, L = build_code(spec)
    pcs = derive_pc_structure(rm, L)
    _, llr = noisy_llrs(spec, rm, L, 20, 2.0, 2)
    res = PcScanDecoder(rm, L, DampingConfig((0.0,), (0.0,))).decode(llr, 3)
    # neutralized comparison: PC positions play as unchecked info (beta = 0),
    # except degenerate PCs which stay frozen-equivalent
    role2 = rm.role.copy()
    for u in rm.pc_positions:
        role2[u] = INFO if pcs.checked_sets[int(u)] else FROZEN
    rm2 = RoleMap(role=role2)
    ref = ScanDecoder(rm2).decode(llr, 3)
    assert np.array_equal(res.leaf_posteriors, ref.leaf_posteriors)
    assert np.array_equal(res.coded_extrinsics, ref.coded_extrinsics)


def test_pc_scan_reduces_to_scan_without_pcs():
    spec = CodeSpec(N=64, K=32)
    rm, L = build_code(spec)
    _, llr = noisy_llrs(spec, rm, L, 25, 2.0, 3)
    for t in (1, 3):
        a = PcScanDecoder(rm, L).decode(llr, t)
        b = ScanDecoder(rm).decode(llr, t)
        assert np.array_equal(a.info_bits, b.info_bits)
        assert np.array_equal(a.leaf_posteriors, b.leaf_posteriors)
        assert np.array_equal(a.coded_extrinsics, b.coded_extrinsics)
        assert np.array_equal(a.coded_posteriors, b.coded_posteriors)


def test_pc_scan_noiseless():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm, L = build_code(spec)
    rng = np.random.default_rng(13)
    msg = rng.integers(0, 2, (100, 32), dtype=np.uint8)
    x = encode(msg, spec, rm, L)
    llr = channel_llrs(modulate_bpsk(x), 0.0, noiseless=True)
    res = PcScanDecoder(rm, L).decode(llr, 2)
    assert np.array_equal(res.info_bits, msg)


def test_pc_scan_iteration_snapshots():
    spec = CodeSpec(N=32, K=16, scheme="fc", L=3)
    rm, L = build_code(spec)
    _, llr = noisy_llrs(spec, rm, L, 10, 2.0, 4)
    res = PcScanDecoder(rm, L).decode(llr, 4)
    assert res.iterations_run == 4
    assert len(res.iteration_info_bits) == 4
    assert np.array_equal(res.iteration_info_bits[-1], res.info_bits)


# ---------------------------------------------------------------------------
# CSR-SCAN


@pytest.mark.parametrize(
    "spec",
    [
        CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5),
        CodeSpec(N=64, K=40, scheme="mc", L=5),
        CodeSpec(N=64, K=20, scheme="nr", L=5),
        CodeSpec(N=128, K=64, scheme="fc", A=1.0),
    ],
)
@pytest.mark.parametrize("t_max", [1, 4])
def test_csr_equals_pc_scan_with_unit_damping(spec, t_max):
    rm, L = build_code(spec)
    _, llr = noisy_llrs(spec, rm, L, 50, 2.0, 5)
    a = PcScanDecoder(rm, L, DampingConfig((1.0,), (0.0,))).decode(llr, t_max)
    b = CsrScanDecoder(rm, L).decode(llr, t_max)
    assert np.array_equal(a.info_bits, b.info_bits)
    assert np.array_equal(a.leaf_posteriors, b.leaf_posteriors)
    assert np.array_equal(a.coded_extrinsics, b.coded_extrinsics)
    assert np.array_equal(a.coded_posteriors, b.coded_posteriors)


def test_csr_equals_pc_scan_exhaustive_n8():
    # every +-1 LLR pattern at N=8: 256 inputs, exact equality
    role = np.full(8, FROZEN, dtype=np.int8)
    role[[3, 5, 6, 7]] = INFO
    role[[2, 4]] = PC
    rm = RoleMap(role=role)
    patterns = ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1).astype(float)
    llr = 1.0 - 2.0 * patterns
    for t in (1, 2, 3):
        a = PcScanDecoder(rm, 2, DampingConfig((1.0,), (0.0,))).decode(llr, t)
        b = CsrScanDecoder(rm, 2).decode(llr, t)
        assert np.array_equal(a.leaf_posteriors, b.leaf_posteriors)
        assert np.array_equal(a.coded_extrinsics, b.coded_extrinsics)


def test_csr_degenerate_pc_feeds_back_infinity():
    # PC at index 1 precedes any info bit of its chain
    role = np.array([FROZEN, PC, FROZEN, INFO, PC, INFO, INFO, INFO], dtype=np.int8)
    rm = RoleMap(role=role)
    llr = np.random.default_rng(6).normal(0, 2, 8)
    res = CsrScanDecoder(rm, 3).decode(llr, 2)
    assert res.leaf_posteriors[1] == np.inf


def test_csr_noiseless():
    spec = CodeSpec(N=64, K=20, scheme="nr", L=5)
    rm, L = build_code(spec)
    rng = np.random.default_rng(14)
    msg = rng.integers(0, 2, (100, 20), dtype=np.uint8)
    x = encode(msg, spec, rm, L)
    llr = channel_llrs(modulate_bpsk(x), 0.0, noiseless=True)
    res = CsrScanDecoder(rm, L).decode(llr, 3)
    assert np.array_equal(res.info_bits, msg)


# ---------------------------------------------------------------------------
# shared decoder behavior


def test_decoders_are_deterministic():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm, L = build_code(spec)
    _, llr = noisy_llrs(spec, rm, L, 10, 2.0, 8)
    a, b = ScDecoder(rm, L).decode(llr), ScDecoder(rm, L).decode(llr)
    assert np.array_equal(a.info_bits, b.info_bits)
    c, d = (CsrScanDecoder(rm, L).decode(llr, 3) for _ in range(2))
    assert np.array_equal(c.leaf_posteriors, d.leaf_posteriors)


def test_single_frame_equals_batch_row():
    spec = CodeSpec(N=32, K=16, scheme="fc", L=3)
    rm, L = build_code(spec)
    _, llr = noisy_llrs(spec, rm, L, 4, 2.0, 9)
    batch = CsrScanDecoder(rm, L).decode(llr, 2)
    one = CsrScanDecoder(rm, L).decode(llr[2], 2)
    assert one.info_bits.shape == (16,)
    assert np.array_equal(one.info_bits, batch.info_bits[2])
    assert np.array_equal(one.leaf_posteriors, batch.leaf_posteriors[2])
    sc_b = ScDecoder(rm, L).decode(llr)
    sc_1 = ScDecoder(rm, L).decode(llr[2])
    assert np.array_equal(sc_1.info_bits, sc_b.info_bits[2])


def test_no_nans_anywhere_in_soft_outputs():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm, L = build_code(spec)
    rng = np.random.default_rng(15)
    msg = rng.integers(0, 2, (50, 32), dtype=np.uint8)
    x = encode(msg, spec, rm, L)
    llr = channel_llrs(modulate_bpsk(x), 0.0, noiseless=True)  # saturated, worst case
    res = PcScanDecoder(rm, L).decode(llr, 4)
    assert not np.isnan(res.leaf_posteriors).any()
    assert not np.isnan(res.coded_extrinsics).any()
    assert not np.isnan(res.coded_posteriors).any()


def array_bytes(dec):
    return sum(v.nbytes for v in vars(dec).values() if isinstance(v, np.ndarray))


@pytest.mark.parametrize("kind", ["pc-scan", "csr-scan"])
def test_idle_decoder_holds_no_per_decode_buffers(kind):
    spec = CodeSpec(N=256, K=128, scheme="fc", A=0.5)
    rm, L = build_code(spec)
    _, llr = noisy_llrs(spec, rm, L, 50, 2.0, 18)
    dec = make_decoder(rm, L, DecoderConfig(kind=kind, t_max=2))
    idle = array_bytes(dec)
    dec.decode(llr, 2)
    assert array_bytes(dec) == idle


def test_codec_rejects_a_register_length_below_one_or_a_chain_structure():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm, L = build_code(spec)
    msg = np.zeros((1, spec.K), dtype=np.uint8)
    s = np.zeros(spec.N, dtype=np.uint8)
    builds = [lambda L: ScDecoder(rm, L), lambda L: PcScanDecoder(rm, L), lambda L: CsrScanDecoder(rm, L)]
    builds += [lambda L, k=kind: make_decoder(rm, L, DecoderConfig(kind=k)) for kind in ("sc", "pc-scan", "csr-scan")]
    builds += [lambda L: encode(msg, spec, rm, L), lambda L: csr_precode(s, rm, L)]
    cases = [(rm, L, build) for build in builds]
    # SCAN runs on one register, yet make_decoder checks the L it is given;
    # a code without PC bits, since ScanDecoder rejects PC codes anyway
    none_rm, none_L = build_code(CodeSpec(N=16, K=8))
    cases.append((none_rm, none_L, lambda L: make_decoder(none_rm, L, DecoderConfig(kind="scan"))))
    for code, good, build in cases:
        build(good)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="L must be >= 1"):
                build(bad)
        # the old API's PcStructure where L belongs
        with pytest.raises(TypeError):
            build(derive_pc_structure(code, good))


# ---------------------------------------------------------------------------
# golden digests: every DecodeResult byte of every decoder, pinned

GOLDEN_CODES = {
    "64-fc": CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5),
    "1024-fc": CodeSpec(N=1024, K=512, scheme="fc", A=0.5),
    "256-nr": CodeSpec(N=256, K=128, scheme="nr", L=5),
    # one chain: under the literal schedule a level-1 node computes its right
    # leaf's alpha before its left (checked info) leaf is visited
    "64-fc-L1": CodeSpec(N=64, K=32, scheme="fc", L=1),
    "64-fc-L2": CodeSpec(N=64, K=32, scheme="fc", L=2),
    "128-mc": CodeSpec(N=128, K=64, scheme="mc", L=5),
    "64-none": CodeSpec(N=64, K=20),  # no PC bits
}
# SHA-256 of result_digest() per code/decoder/schedule/input. They pin the
# exact output bytes (posteriors, extrinsics, per-iteration decisions), so a
# speed change to the engine must leave them as they are; regenerate them
# only for an intended change of what the decoders compute
GOLDEN_DIGESTS = {
    "64-fc/scan/sequential/batch": "06bb565bd18ee9b02c713d961e19f6cf76f29298bd277a45e5f5f01e7383fd8c",
    "64-fc/scan/sequential/single": "3c4a082a38807ec6050ccee85eaf71f49ac52aed02e48b8355b21d5f18039f91",
    "64-fc/scan/literal/batch": "55288848e74b296e35ef0107720f376742aa8e93788d05f2381c9855210e054c",
    "64-fc/scan/literal/single": "91eecd8157deafcee20837f7d6e1da2c8cbec85568c598a66aa1400d8b9d5e42",
    "64-fc/pc-scan/sequential/batch": "f9c50aa377eeb37941e19d449907274ad51dc4ac4e087d0bcdcec93868ca8f6b",
    "64-fc/pc-scan/sequential/single": "0940c546016e8fd966e8729fc293f7afa8679e1e22d5d27e0e25099b4abe586a",
    "64-fc/pc-scan/literal/batch": "7851461fe794362c808b083abe98d9ec19e7fb7d8d79e05428d6bba648ed75f9",
    "64-fc/pc-scan/literal/single": "a7724c268a6ad302d259549934463b766ddf374bdecd7d0fe2ab0922d82b17cf",
    "64-fc/pc-scan-damped/sequential/batch": "ae6c8c569e598a6bc3736135ff0c7989852136e177c1070ce508de6fb290d42a",
    "64-fc/pc-scan-damped/sequential/single": "ccddd77df2c8fabb1e75071f5a7e8265daf322a50589042f92bb0a3870eed267",
    "64-fc/pc-scan-damped/literal/batch": "781fed3b30757f970bd734f91f3e0c23dfebcf0ff9bf6d4875f03ab8f2807240",
    "64-fc/pc-scan-damped/literal/single": "6d5a99708cb25977eb5419e1e3f134e12772c64754b10ae4b09c34761b51a430",
    "64-fc/csr-scan/sequential/batch": "a135f6a44f0078b2ca68d6c8a95a2ba801dae6c9c08bd717b4d117f7cf7c7c57",
    "64-fc/csr-scan/sequential/single": "6f065675ab24488bd8f9626d710c66e95e3437fff78a9fe412569575496d5ca2",
    "64-fc/csr-scan/literal/batch": "6346ee6f0c3323e0d2e6729a2ed9979196c541839518d11fcef16ff31e5b4c9d",
    "64-fc/csr-scan/literal/single": "ab4c6cb9308dac5c60213712057d657e8b55cd0d03ad7e782edafba4858bb3f7",
    "1024-fc/scan/sequential/batch": "6604316ff2129cab5a3ca7ff0af27ee085b3c2656be2b0de219683115bdb2b42",
    "1024-fc/scan/sequential/single": "15f8027a7e77035bd22295547588122589c765657b4dd2730a916f4afa379ba2",
    "1024-fc/scan/literal/batch": "4994a370bc6a436fb91af3563c7c110fb206be016fc792b3bc4be7fcc2d5560e",
    "1024-fc/scan/literal/single": "7edefd801af181b99e27da2ce9276e626c321daade3dbf501a682ed0ad20a3d4",
    "1024-fc/pc-scan/sequential/batch": "8364f5f7d4d9e0892eaae7e872b83b92c93c394a2cd657d703169574341caf45",
    "1024-fc/pc-scan/sequential/single": "93cfffe1f395ce7a4534cfa27f06580de0705344bbb177be21f090bd51983780",
    "1024-fc/pc-scan/literal/batch": "fdf10d38f83bd3294d3fb88d999c4adb902adb905b78a4ea026f2a97c1ab23e5",
    "1024-fc/pc-scan/literal/single": "6318e261fe06e03e9955b3c18b7e9ccb54145910e2d7487e4ae67762fbef6da7",
    "1024-fc/pc-scan-damped/sequential/batch": "1a78ca263c01d3fbcbb05a3d9cbfbae6a7445bf900f8748085023907142ba440",
    "1024-fc/pc-scan-damped/sequential/single": "67959789baeecd13b0c2d505c178b190cd7809303c4cb07805e930c56e8df861",
    "1024-fc/pc-scan-damped/literal/batch": "cb122dbaeb0594355e396529bbe6155214c2b41bdd12683b1f935d4feb1bc5fa",
    "1024-fc/pc-scan-damped/literal/single": "3d9b4422c536db0698a7d80fd0bd2386b212143bac3dd2d1c4656dbb1aed78a2",
    "1024-fc/csr-scan/sequential/batch": "ca93c179ed8983d228006f8f7787359301fc65f947f529df3f0e0cfdc325dce9",
    "1024-fc/csr-scan/sequential/single": "813b5b7ec1fe4edf4bd72c63a5495f83cf81cc9b7bc133c12471c2c8b79a623d",
    "1024-fc/csr-scan/literal/batch": "c13f26b2b7cd17bafc5aeded1d6f7fb8b51eea1bc0813ee1e85262d46904d408",
    "1024-fc/csr-scan/literal/single": "f61d94586fb5830c15de34ed2a2d0913b7037e63120e452d13c9e07b7ddfeca3",
    "256-nr/scan/sequential/batch": "7dd9c19eb5ab7acb41460c5a99c7424485ce6960c137540dac853736b17991d4",
    "256-nr/scan/sequential/single": "6095ff9d30da6fa1a5a5a4c980e9a9f7c5eeafc19f1c8b24214838cfd3f46b3a",
    "256-nr/scan/literal/batch": "8b6759b14737612dda8f88ec20ca12ad942d87533f27cca340f51f8dfbdf7e0a",
    "256-nr/scan/literal/single": "448efb481ff54cdea00d62d34d8ef1ed1c669b2327d425ea3f8fc7fb097f508b",
    "256-nr/pc-scan/sequential/batch": "2a5c09853fabb558a970372f0d0fc0f9f54b6268268ab4d618b0e63a3ec4ae64",
    "256-nr/pc-scan/sequential/single": "65b7afb59a2b09aa60922bc20e99f69112689a72201036a4f53563358094490e",
    "256-nr/pc-scan/literal/batch": "b673f97245fc0075ac8dc75636c31b43270abef49cb17d5c2e1c24478f43c882",
    "256-nr/pc-scan/literal/single": "a65b87e8546ed20b33add8f4f53af626e6c087463d78f8e4acf4650ce9d01bde",
    "256-nr/pc-scan-damped/sequential/batch": "ff5aa9c852c4a342252be3af758edd7918e1824d014b8abca699afa15c69d1d8",
    "256-nr/pc-scan-damped/sequential/single": "46a474cd53ad6bbdb215fef8256bfa0af896a024943badd21a7ed6db8b1e7e87",
    "256-nr/pc-scan-damped/literal/batch": "7dfefe47fca79211b91c9edec4a3e41550186f1a652c5d850df68a13c3ae0346",
    "256-nr/pc-scan-damped/literal/single": "5f31469c7c2a84b7f48d7e13626230250d6818afcf625125b96cdb6f35d23eb3",
    "256-nr/csr-scan/sequential/batch": "a1886c0a5c5b3f44d97b18e60da8782b4e348fcdc2692ab75fb28357d037e772",
    "256-nr/csr-scan/sequential/single": "522bf5796447f3109be2aff1544b9c291d31b22e2071517766f382325cbe1151",
    "256-nr/csr-scan/literal/batch": "23f7ec6af455b7e48866059f3d1e0065cf2cc1c1f8fdfaa0d7999ef43abf1b9f",
    "256-nr/csr-scan/literal/single": "fcdcc9d3d60bc5ee43ae2f6061908aa3bab8ddc2efe76bf287a9e5cb4d9ce3b8",
    "64-fc/sc/-/batch": "70c31b915dc899608bd4219733da5776e369dcde23c399f8501b04c440826967",
    "64-fc/sc/-/single": "d89b62b8ed016a77cbadc17728def986a0e81e6a2c2fb709e0eba821de45d335",
    "1024-fc/sc/-/batch": "7e4e2212d08f1572efbff9d3fc1f1c868b5c54c68d780486ebb961ae4c1d1727",
    "1024-fc/sc/-/single": "77de0de489f550fa81c9aeef3dcccf53124a6da52354e4adf0dc6ab6c5f00489",
    "256-nr/sc/-/batch": "66bd6a860e2e9613c4e2f7338b60411075af7c57c3bfc3492d721e0591f8e39f",
    "256-nr/sc/-/single": "09ea97d0aea8d335c0c987512abbf81d978c4808c7d9e0b75047f260480f756c",
    "128-mc/sc/-/batch": "3dddf6c43ed97dcc564595dbad4eefe5d71c4de313c3baa11e77753ae5f8c158",
    "128-mc/sc/-/single": "6118188b51795df59c27493c16b5c604681711594fe94be08161c79d7d2af337",
    "64-none/sc/-/batch": "994314300b3380b4b159ae8d26b4014e4b14b8459f2d75713438ef256d1553c4",
    "64-none/sc/-/single": "ac5907db33b2c0d793fb21183aeea3f154fa640828f63eb3dad0920cdf10002c",
    "64-fc-L1/pc-scan/sequential/batch": "e62604f4f004208077d40710d108d6d99247eeba3c63ed54e8cb51595a3fa969",
    "64-fc-L1/pc-scan/sequential/single": "f175ba83f1f1650f1464f0cbf3c0b089286cb79a346a3596000f0f972f6be735",
    "64-fc-L1/pc-scan/literal/batch": "18035961fa85095cee0ce58b8302e1a295fddf735f127b021953e4db09d1ca74",
    "64-fc-L1/pc-scan/literal/single": "f2cad11fc8cb5cbe04ad2f4943790d230046f2f771f15988994f0d7d8d64aa3f",
    "64-fc-L1/pc-scan-damped/sequential/batch": "0890a11bad782c0c36bb64dea68a7e2fb5847b7c55ee6de9249b76ff039eaa97",
    "64-fc-L1/pc-scan-damped/sequential/single": "62d1115ed921d74ad08212c705cbd0633aa66f733ad71de76e3fd698fa80bd81",
    "64-fc-L1/pc-scan-damped/literal/batch": "621682408bbf86b12c14a8d3a7b2684400f8314ce8bdf899c8dd86cec7f86ae3",
    "64-fc-L1/pc-scan-damped/literal/single": "fb389890c6b624aa7e9adb4780b64500c8b6646723e5b504c18e2526ddd7fbc6",
    "64-fc-L1/csr-scan/sequential/batch": "a4440c9a8d7ba108553c508d5ff9fc5a56089c4bbd449a3bde053a48e70e103f",
    "64-fc-L1/csr-scan/sequential/single": "24119fd0d6241499164adf29c0bf38a0bd012e07aa07e1c9a0fe49e7036e4a2c",
    "64-fc-L1/csr-scan/literal/batch": "0b104b27d1287be012eb2566256d41cc6b47a714291089561e23a7339a7c12ae",
    "64-fc-L1/csr-scan/literal/single": "94be1b73599e8ad2f82d83ff10fc00edfa2afdcd13079c0925934f27a456564b",
    "64-fc-L2/pc-scan/sequential/batch": "9442cbcae561c0be73badee47ebf3ecbdc92e5fae4eba411a222fe3d09b1e406",
    "64-fc-L2/pc-scan/sequential/single": "17231efafced51fc154d768efc1a783690503f04b1f8faecdccaa4882e4af8f5",
    "64-fc-L2/pc-scan/literal/batch": "8873f2a0808f270e6e26aa53ff75987671c0d3940af34469be3d2eb4de42e8f1",
    "64-fc-L2/pc-scan/literal/single": "20d991a536a2c39a72eadc3036610bbb3d06ab3afce7e33d793d280e58415541",
    "64-fc-L2/pc-scan-damped/sequential/batch": "d8cc64e15698821cb7a155e9abedce02621bebf71e59e027a43239ba0f1b83f6",
    "64-fc-L2/pc-scan-damped/sequential/single": "3e7b96837f17b07d13cfbb6590fbe90cd20b1972dac8dc2c51fa1932d484c522",
    "64-fc-L2/pc-scan-damped/literal/batch": "efab908c23b84608f21a157742f4aadb69f5dd5c79ee416b7246021b24585a69",
    "64-fc-L2/pc-scan-damped/literal/single": "a58399d361baf9ff7e47e097957a80abe111c2c0ef8074468ad533a7b507e109",
    "64-fc-L2/csr-scan/sequential/batch": "8ba146be746f509c9f32022909bc35d9d9697c832398283b52bcb0cf7971b464",
    "64-fc-L2/csr-scan/sequential/single": "1fabf6d6ec148ad855e9c9983d0a250aaa30f3fac0c5a80ef8a0a1afd375ff49",
    "64-fc-L2/csr-scan/literal/batch": "31afbbf60b1f7527ab912fddb4a065af5ab6262900ea3a39a38f77cb9fc46d0c",
    "64-fc-L2/csr-scan/literal/single": "e495aca8debe456f3c16fe1fe6ad1f2f36683b7779ea8242a046639f523c6b6c",
}


GOLDEN_DAMPING = DampingConfig((0.5, 1.0), (0.0, 0.67))


def arrays_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def result_digest(res):
    soft = (res.leaf_posteriors, res.coded_extrinsics, res.coded_posteriors)
    return arrays_digest(res.info_bits, *soft, np.int64(res.iterations_run), *res.iteration_info_bits)


def decisions_digest(res):
    """The digest of a DecodeResult's decisions alone: what soft=False returns."""
    return arrays_digest(res.info_bits, np.int64(res.iterations_run), *res.iteration_info_bits)


def golden_decoder(code, decoder, schedule):
    """The decoder a golden digest key names, built on a golden code."""
    spec = GOLDEN_CODES[code]
    rm, L = build_code(spec)
    if decoder == "sc":  # one pass, no schedule ("-" in the key)
        return ScDecoder(rm, L)
    if decoder == "scan":  # same N and K, no PC bits
        return ScanDecoder(build_code(CodeSpec(N=spec.N, K=spec.K))[0], schedule)
    if decoder == "pc-scan":
        return PcScanDecoder(rm, L, schedule=schedule)
    if decoder == "pc-scan-damped":  # lambda_i = 0 in pass 1, lambda_p != 1
        return PcScanDecoder(rm, L, GOLDEN_DAMPING, schedule)
    return CsrScanDecoder(rm, L, schedule)


def golden_decode(code, decoder, schedule, frames):
    spec = GOLDEN_CODES[code]
    rm, L = build_code(spec)
    seed = 100 + list(GOLDEN_CODES).index(code)
    _, llr = noisy_llrs(spec, rm, L, 6, 1.5, seed)
    if frames == "single":
        llr = llr[3]
    dec = golden_decoder(code, decoder, schedule)
    return dec.decode(llr) if decoder == "sc" else dec.decode(llr, 3)


def changed_golden_digests(keys=GOLDEN_DIGESTS):
    return [key for key in keys if result_digest(golden_decode(*key.split("/"))) != GOLDEN_DIGESTS[key]]


def test_scan_family_golden_digests():
    changed = changed_golden_digests()
    assert not changed, f"decoder outputs changed for {changed}"


def test_scan_family_golden_digests_numpy_engine():
    with numpy_engine():
        changed = changed_golden_digests()
    assert not changed, f"numpy engine outputs changed for {changed}"




def zero_llr_decode(L, schedule):
    """pc-scan on (64, 32, fc, L) where every seventh LLR of the batch is
    +-0.0, so checked-info feedback sums f results of either zero sign (at
    every third LLR nearly all feedback is zero and the schedules agree)."""
    spec = CodeSpec(N=64, K=32, scheme="fc", L=L)
    rm, _ = build_code(spec)
    _, llr = noisy_llrs(spec, rm, L, 8, 1.5, 200 + L)
    flat = llr.reshape(-1)
    negative = np.random.default_rng(L).random(flat[::7].shape) < 0.5
    flat[::7] = np.where(negative, -0.0, 0.0)
    return PcScanDecoder(rm, L, schedule=schedule).decode(llr, 3)


ZERO_LLR_DIGESTS = {
    "1/sequential": "b06a855d9a2ee9b7732e79f1e1af115190c5e308baa01f7dbb456c092c98996f",
    "1/literal": "35b0f3b0737995552b04704bd2574b8e29b0110f6f5877e2e426173d1e29b85b",
    "2/sequential": "a262b79b9b9ea0a4b270a36bf04333aa7b254063ea14f6c524a1a40df1393f6a",
    "2/literal": "f62dca9bd47c1c8deca009d2ba98f7ae5a6976eb00ac147b63c4dbd7203a2349",
    "5/sequential": "3fe344d798f773adedfb949a40db7a39674a537708d1f38f50968c3221ac6cc8",
    "5/literal": "b65d1b5f277448e6feac8dc7b153ce978cd7e0227860e9a14a008af3840d4c08",
}


def test_pc_scan_zero_llrs_golden_digests_on_both_engines():
    for key, want in ZERO_LLR_DIGESTS.items():
        L, schedule = key.split("/")
        assert result_digest(zero_llr_decode(int(L), schedule)) == want, key
        with numpy_engine():
            assert result_digest(zero_llr_decode(int(L), schedule)) == want, f"{key} (numpy)"


# ---------------------------------------------------------------------------
# finite-LLR input contract

CONTRACT_SPEC = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)


def all_four_decoders():
    rm, L = build_code(CONTRACT_SPEC)
    plain_rm, _ = build_code(CodeSpec(N=64, K=32))
    return {
        "sc": lambda llr: ScDecoder(rm, L).decode(llr),
        "scan": lambda llr: ScanDecoder(plain_rm).decode(llr, 2),
        "pc-scan": lambda llr: PcScanDecoder(rm, L).decode(llr, 2),
        "csr-scan": lambda llr: CsrScanDecoder(rm, L).decode(llr, 2),
    }


def test_decoders_reject_nan_llrs():
    llr = np.ones((2, 64))
    llr[1, 7] = np.nan
    for decode in all_four_decoders().values():
        with pytest.raises(ValueError, match="NaN"):
            decode(llr)


def test_llrs_beyond_llr_max_are_clamped_on_a_copy():
    rng = np.random.default_rng(21)
    llr = rng.normal(0, 3, (3, 64))
    llr[0, :4] = [np.inf, -np.inf, 1.7e308, -1.7e308]
    llr[2, 10] = -1e12
    given = llr.copy()
    clamped = np.clip(llr, -LLR_MAX, LLR_MAX)
    for name, decode in all_four_decoders().items():
        assert result_digest(decode(llr)) == result_digest(decode(clamped)), name
        assert np.array_equal(llr, given), name


extreme_llrs = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e9, -1e9, 1.7e308, -1.7e308, np.inf, -np.inf]
)


@settings(max_examples=40, deadline=None)
@given(st.lists(extreme_llrs, min_size=64, max_size=64))
def test_no_nans_at_extreme_llr_magnitudes(values):
    llr = np.array(values)
    for name, decode in all_four_decoders().items():
        res = decode(llr)
        for field in (res.leaf_posteriors, res.coded_extrinsics, res.coded_posteriors):
            assert not np.isnan(field).any(), name
        with numpy_engine():  # the compiled pass equals the numpy engine bitwise
            assert result_digest(res) == result_digest(decode(llr)), name


def test_literal_schedule_noiseless_round_trip():
    spec = CodeSpec(N=32, K=16, scheme="fc", L=3)
    rm, L = build_code(spec)
    rng = np.random.default_rng(16)
    msg = rng.integers(0, 2, (50, 16), dtype=np.uint8)
    x = encode(msg, spec, rm, L)
    llr = channel_llrs(modulate_bpsk(x), 0.0, noiseless=True)
    res = PcScanDecoder(rm, L, schedule="literal").decode(llr, 2)
    assert np.array_equal(res.info_bits, msg)
    # the two schedules genuinely differ on noisy input
    _, noisy = noisy_llrs(spec, rm, L, 50, 1.0, 17)
    seq = PcScanDecoder(rm, L, schedule="sequential").decode(noisy, 2)
    lit = PcScanDecoder(rm, L, schedule="literal").decode(noisy, 2)
    assert not np.array_equal(seq.leaf_posteriors, lit.leaf_posteriors)


def test_damping_config_validation():
    with pytest.raises(ValueError):
        DampingConfig(lambda_p=(), lambda_i=(0.5,))
    with pytest.raises(ValueError):
        DampingConfig(lambda_p=(1.0,), lambda_i=(-0.1,))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            DampingConfig(lambda_p=(1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            DampingConfig(lambda_i=(bad,))
    d = DampingConfig(lambda_p=(1.0, 0.5), lambda_i=(0.67,))
    assert d.lambda_p_at(0) == 1.0
    assert d.lambda_p_at(1) == 0.5
    assert d.lambda_p_at(9) == 0.5  # last entry repeats
    assert d.lambda_i_at(9) == 0.67


# ---------------------------------------------------------------------------
# compiled tree pass: bitwise equal to the numpy engine, safe to build

needs_compiled = pytest.mark.skipif(treepass.load() is None, reason="no compiled tree pass on this platform")


@needs_compiled
@pytest.mark.parametrize("schedule", ["sequential", "literal"])
def test_compiled_pass_equals_numpy_engine_n1024(schedule):
    spec = GOLDEN_CODES["1024-fc"]
    rm, L = build_code(spec)
    plain_rm, _ = build_code(CodeSpec(N=1024, K=512))
    _, llr = noisy_llrs(spec, rm, L, 64, 1.5, 4242)
    llr[0, :7] = [0.0, -0.0, 5e-324, -5e-324, 1e12, -1e12, LLR_MAX]
    builds = {
        "scan": lambda: ScanDecoder(plain_rm, schedule),
        "csr-scan": lambda: CsrScanDecoder(rm, L, schedule),
    }
    for damping in (None, DampingConfig((0.8, 1.0), (0.5, 0.67, 0.9)), DampingConfig((1.0,), (0.0,))):
        builds[f"pc-scan {damping}"] = lambda d=damping: PcScanDecoder(rm, L, d, schedule)
    for name, build in builds.items():
        dec = build()
        with numpy_engine():
            ref = build()
        assert (dec.engine, ref.engine) == ("c", "numpy")
        assert result_digest(dec.decode(llr, 4)) == result_digest(ref.decode(llr, 4)), name


# frames per block of the compiled decode, read from its source
FRAME_BLOCK = int(re.search(r"BLOCK = (\d+)", treepass.SOURCE.read_text()).group(1))
BLOCK_BATCHES = [1, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, 2 * FRAME_BLOCK + 3, 300]


def first_rows(res, B):
    """A batch DecodeResult cut to its first B frames."""
    cut = [a[:B] for a in (res.info_bits, res.leaf_posteriors, res.coded_extrinsics, res.coded_posteriors)]
    return DecodeResult(*cut, res.iterations_run, tuple(a[:B] for a in res.iteration_info_bits))


@needs_compiled
@pytest.mark.parametrize("code", list(GOLDEN_CODES))
def test_compiled_decode_equals_numpy_engine_across_frame_blocks(code):
    spec = GOLDEN_CODES[code]
    rm, L = build_code(spec)
    _, llr = noisy_llrs(spec, rm, L, max(BLOCK_BATCHES), 1.5, 31)
    scan_family = ("scan", "pc-scan", "pc-scan-damped", "csr-scan")
    builds = [("sc", "-")] + [(name, s) for s in ("sequential", "literal") for name in scan_family]
    for name, schedule in builds:
        t_max = 1 if name == "sc" else 2
        dec = golden_decoder(code, name, schedule)
        with numpy_engine():
            ref = golden_decoder(code, name, schedule)
        # numpy decodes each frame on its own, so its first B rows are
        # its decode of the first B frames (and one decode costs less)
        want = ref.decode(llr, t_max)
        for B in BLOCK_BATCHES:
            got = dec.decode(llr[:B], t_max)
            assert result_digest(got) == result_digest(first_rows(want, B)), (name, schedule, B)


@needs_compiled
def test_compiled_decode_takes_integer_damping_and_any_batch_layout():
    """Integer damping factors and F-ordered or strided batches, which the
    numpy engine takes as they are, decode bitwise alike on the compiled one."""
    spec = GOLDEN_CODES["64-fc"]
    rm, L = build_code(spec)
    _, llr = noisy_llrs(spec, rm, L, 2 * FRAME_BLOCK + 3, 1.5, 33)
    fortran = np.asfortranarray(llr)
    layouts = {"F-ordered": fortran, "row-strided": llr[::2], "strided frame": fortran[3]}
    for damping in (DampingConfig((1,), (0,)), DampingConfig((1, 0), (0, 1))):
        dec = PcScanDecoder(rm, L, damping)
        with numpy_engine():
            ref = PcScanDecoder(rm, L, damping)
        for name, batch in layouts.items():
            assert result_digest(dec.decode(batch, 3)) == result_digest(ref.decode(batch, 3)), (damping, name)


@needs_compiled
def test_compiled_decode_finds_a_nan_in_a_later_frame_block():
    """The compiled pass checks each block's LLRs as it loads them: a NaN
    only in the last frame of FRAME_BLOCK + 1, the second block, raises."""
    llr = np.ones((FRAME_BLOCK + 1, 64))
    llr[FRAME_BLOCK, 63] = np.nan
    for name, decode in all_four_decoders().items():
        with pytest.raises(ValueError, match="NaN"):
            decode(llr)


@needs_compiled
def test_compiled_clamp_of_infinite_and_huge_llrs_equals_the_numpy_engine():
    """A batch of nothing but +-inf and +-1.7e308, clamped inside the
    compiled pass, decodes to the numpy engine's bits, and the caller's
    array stays as it was."""
    rng = np.random.default_rng(19)
    llr = rng.choice([np.inf, -np.inf, 1.7e308, -1.7e308], (FRAME_BLOCK + 1, 64))
    given_llr = llr.copy()
    for name, decode in all_four_decoders().items():
        got = result_digest(decode(llr))
        with numpy_engine():
            assert got == result_digest(decode(llr)), name
        assert np.array_equal(llr, given_llr), name


@pytest.mark.parametrize("kind", ["sc", "scan", "pc-scan", "csr-scan"])
def test_empty_batch_gives_empty_results_on_both_engines(kind):
    spec = CodeSpec(N=64, K=32) if kind == "scan" else GOLDEN_CODES["64-fc"]
    rm, L = build_code(spec)
    dec = DecoderConfig(kind=kind, t_max=1 if kind == "sc" else 3)
    results = [make_decoder(rm, L, dec).decode(np.empty((0, 64)), dec.iterations)]
    with numpy_engine():
        results.append(make_decoder(rm, L, dec).decode(np.empty((0, 64)), dec.iterations))
    for res in results:
        assert res.info_bits.shape == (0, 32) and res.info_bits.dtype == np.uint8
        for field in (res.leaf_posteriors, res.coded_extrinsics, res.coded_posteriors):
            assert field.shape == (0, 64) and field.dtype == np.float64
        assert res.iterations_run == dec.iterations
        assert [a.shape for a in res.iteration_info_bits] == [(0, 32)] * dec.iterations
    assert result_digest(results[0]) == result_digest(results[1])


@pytest.mark.parametrize("engine", ["c", "numpy"])
@pytest.mark.parametrize("code", list(GOLDEN_CODES))
def test_decisions_only_decode_equals_the_full_decode(code, engine):
    """decode(..., soft=False) makes no soft block, on either engine, and
    its per-pass decisions are bitwise the full decode's, for every kind
    and schedule, for one frame and for batches: around the compiled
    pass's frame block, and one batch on the numpy engine, which runs a
    batch as one array."""
    spec = GOLDEN_CODES[code]
    rm, L = build_code(spec)
    _, llr = noisy_llrs(spec, rm, L, 300, 1.5, 37)
    scan_family = ("scan", "pc-scan", "pc-scan-damped", "csr-scan")
    builds = [("sc", "-")] + [(name, s) for s in ("sequential", "literal") for name in scan_family]
    sizes = (1, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, 300) if engine == "c" else (FRAME_BLOCK + 1,)
    for name, schedule in builds:
        t_max = 1 if name == "sc" else 2
        with numpy_engine() if engine == "numpy" else nullcontext():
            dec = golden_decoder(code, name, schedule)
        if dec.engine != engine:
            pytest.skip("no compiled tree pass on this platform")
        # frames decode on their own, so a batch's first rows are the decode of those frames
        want = dec.decode(llr[: max(sizes)], t_max)
        for rows in [slice(B) for B in sizes] + [0]:
            got = dec.decode(llr[rows], t_max, soft=False)
            assert (got.leaf_posteriors, got.coded_extrinsics, got.coded_posteriors) == (None, None, None)
            assert got.iterations_run == t_max
            for g, w in zip((got.info_bits, *got.iteration_info_bits), (want.info_bits, *want.iteration_info_bits)):
                w = w[rows]
                assert (g.dtype, g.shape) == (w.dtype, w.shape) and np.array_equal(g, w), (name, schedule, rows)


@pytest.mark.parametrize("engine", ["c", "numpy"])
def test_one_decoder_decodes_with_several_t_max_in_turn(engine):
    """A decoder keeps each t_max's damping array after its first decode:
    decodes with t_max 3, 1, 2, 3, 1 through one instance give the bits of
    a fresh decoder's, under PC-SCAN with damping that differs by pass."""
    spec = GOLDEN_CODES["64-fc"]
    rm, L = build_code(spec)
    _, llr = noisy_llrs(spec, rm, L, FRAME_BLOCK + 1, 1.5, 41)
    with numpy_engine() if engine == "numpy" else nullcontext():
        key = ("64-fc", "pc-scan-damped", "sequential")
        dec = golden_decoder(*key)
        got = [result_digest(dec.decode(llr, t)) for t in (3, 1, 2, 3, 1)]
        fresh = [result_digest(golden_decoder(*key).decode(llr, t)) for t in (3, 1, 2, 3, 1)]
    if dec.engine != engine:
        pytest.skip("no compiled tree pass on this platform")
    assert got == fresh


@pytest.mark.parametrize("engine", ["c", "numpy"])
def test_decoders_reject_a_role_map_of_a_length_codespec_refuses(engine):
    """Every decoder takes a role map of the N CodeSpec takes, a power of
    two from 4 to N_MAX: at N = 1 the two engines used to decide apart."""
    builds = [
        lambda rm: ScDecoder(rm, 1),
        lambda rm: ScanDecoder(rm),
        lambda rm: PcScanDecoder(rm, 1),
        lambda rm: CsrScanDecoder(rm, 1),
    ]
    builds += [lambda rm, k=kind: make_decoder(rm, 1, DecoderConfig(kind=k)) for kind in DECODER_KINDS]
    with numpy_engine() if engine == "numpy" else nullcontext():
        for N in (1, 2, 3, 6, construction.N_MAX + 4, 2 * construction.N_MAX):
            rm = RoleMap(np.full(N, INFO, dtype=np.int8))
            for build in builds:
                with pytest.raises(ValueError, match="power of two"):
                    build(rm)
        for N in (4, construction.N_MAX):
            assert {build(RoleMap(np.full(N, INFO, dtype=np.int8))).N for build in builds} == {N}


@pytest.mark.parametrize("engine", ["c", "numpy"])
@pytest.mark.parametrize("kind", ["sc", "scan", "pc-scan", "csr-scan"])
def test_one_decoder_decodes_from_several_threads_at_once(kind, engine):
    """A decoder keeps no per-decode state: 8 batches of different sizes
    decoded through one instance from 4 threads give the bits of decoding
    them one after another."""
    spec = GOLDEN_CODES["64-none" if kind == "scan" else "64-fc"]
    rm, L = build_code(spec)
    dec = DecoderConfig(kind=kind, t_max=1 if kind == "sc" else 3)
    with numpy_engine() if engine == "numpy" else nullcontext():
        decoder = make_decoder(rm, L, dec)
    if decoder.engine != engine:
        pytest.skip("no compiled tree pass on this platform")
    batches = [noisy_llrs(spec, rm, L, 40 + 7 * i, 1.5, 900 + i)[1] for i in range(8)]
    want = [result_digest(decoder.decode(b, dec.iterations)) for b in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the numpy engine's traversal too
    try:
        with ThreadPoolExecutor(max_workers=4) as ex:
            got = list(ex.map(lambda b: decoder.decode(b, dec.iterations), batches, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert [result_digest(r) for r in got] == want


def test_package_data_ships_both_c_sources():
    # an installed pcpolar builds its libraries from these files on first use;
    # without one its loader returns None and the numpy path runs instead
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    shipped = pyproject["tool"]["setuptools"]["package-data"]["pcpolar"]
    assert treepass.SOURCE.name in shipped
    assert treepass.FRAME_SOURCE.name in shipped


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not installed")
def test_tree_pass_source_compiles_without_warnings():
    # as built here, and with no clone attribute, as on other ISAs and libcs
    for clones in ([], ["-DCLONES="]):
        cmd = ["gcc", "-Wall", "-Wextra", "-Werror", "-Wshadow", "-Wvla", "-Wcast-qual", "-Wpointer-arith"]
        cmd += ["-fsyntax-only", *clones, str(treepass.SOURCE)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (clones, done.stderr)


def c_prototype(source: Path, name: str) -> tuple[str, list[str]]:
    """The return type and parameter types of `name`'s definition in a C
    source, each with its const qualifiers and parameter name dropped."""
    m = re.search(r"(\w+)\s+" + name + r"\s*\(([^)]*)\)\s*\{", source.read_text())
    params = [re.sub(r"\bconst\b|\w+$", "", p).strip() for p in m.group(2).split(",")]
    return m.group(1), [" ".join(p.split()) for p in params]


def c_enum(source: Path, first: str) -> dict:
    """The constants of the enum in a C source whose first name is `first`."""
    body = re.search(r"enum\s*\{\s*(" + first + r"\b[^}]*)\}", source.read_text()).group(1)
    values, value = {}, -1
    for item in body.split(","):
        name, _, expr = item.partition("=")
        value = int(expr, 0) if expr.strip() else value + 1
        values[name.strip()] = value
    return values


class _TypedLibrary:
    """Stands in for ctypes.CDLL: records the types set on its functions."""

    def __init__(self, path):
        pass

    def __getattr__(self, name):
        setattr(self, name, types.SimpleNamespace())
        return getattr(self, name)


@pytest.mark.parametrize(
    "source, name, opener",
    [
        (treepass.SOURCE, "scan_decode", treepass.open_library),
        (treepass.FRAME_SOURCE, "frame_chunk", treepass.open_frame_library),
        (treepass.FRAME_SOURCE, "frame_llrs", treepass.open_frame_library),
    ],
)
def test_c_entry_points_match_their_ctypes_types(source, name, opener):
    # arrays go in as unchecked c_void_p, so a shifted or dropped argument
    # would reach C as some other value without any error
    c_types = {"int": ctypes.c_int, "int64_t": ctypes.c_int64, "double": ctypes.c_double, "void": None}
    restype, params = c_prototype(source, name)
    with mock.patch.object(ctypes, "CDLL", _TypedLibrary):
        fn = getattr(opener(Path("unused.so")), name)
    assert fn.restype is c_types[restype]
    assert fn.argtypes == [ctypes.c_void_p if p.endswith("*") else c_types[p] for p in params]


def test_c_enums_match_construction():
    leaf_kinds = ("LEAF_FROZEN", "LEAF_PC", "LEAF_CHECKED", "LEAF_UNCHECKED")
    assert c_enum(treepass.SOURCE, "LEAF_FROZEN") == {k: getattr(construction, k) for k in leaf_kinds}
    roles = ("FROZEN", "INFO", "PC")
    assert c_enum(treepass.FRAME_SOURCE, "FROZEN") == {k: getattr(construction, k) for k in roles}


def cpu_flags() -> set:
    """The CPU's feature flags as /proc/cpuinfo lists them (none where it is missing)."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags") for flag in line.split(":", 1)[1].split()}


# each clone of the tree pass on its own, as its -DCLONES= value
CLONE_BUILDS = {
    "default": "",
    "avx2": '__attribute__((target("avx2")))',
    "avx512f": '__attribute__((target("avx512f")))',
}


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not installed")
@pytest.mark.parametrize("clone", list(CLONE_BUILDS))
def test_each_clone_keeps_the_golden_digests(clone, tmp_path, monkeypatch):
    """The loaded library runs only the widest clone this CPU has, so each
    clone is built alone here and held to the 1024-fc and 64-fc digests."""
    if clone != "default" and clone not in cpu_flags():
        pytest.skip(f"this CPU has no {clone}")
    lib = tmp_path / f"treepass-{clone}.so"
    cmd = ["gcc", *treepass.FLAGS, f"-DCLONES={CLONE_BUILDS[clone]}", str(treepass.SOURCE), "-o", str(lib)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=300)
    compiled = treepass.open_library(lib)
    monkeypatch.setattr(treepass, "load", lambda: compiled)
    assert golden_decoder("64-fc", "pc-scan", "sequential").engine == "c"
    keys = [k for k in GOLDEN_DIGESTS if k.split("/")[0] in ("1024-fc", "64-fc")]
    changed = changed_golden_digests(keys)
    assert not changed, f"the {clone} clone changed {changed}"


# the smallest trees, where the compiled pass's path-only alpha levels are
# shortest: PC and checked info leaves, and rate-1 codes that prune nothing
SMALLEST_CODES = {
    "4-nr": CodeSpec(N=4, K=2, scheme="nr", L=1, nr_npc=1),
    "4-rate1": CodeSpec(N=4, K=4),
    "8-nr": CodeSpec(N=8, K=3, scheme="nr", L=1, nr_npc=2),
    "8-rate1": CodeSpec(N=8, K=8),
}

# run with the sanitized library as argv[1]: every golden code at B=300 (past
# 256 frames and not a whole number of frame blocks), B=1 and one frame past
# a block, and the smallest codes at B=1, one block and one frame past it,
# each result against the plain build's, and each decisions-only decode (a
# NULL soft block) against the full decode's decisions
SANITIZED_DECODES = """
import sys
from pcpolar import treepass
from pcpolar.decoders import DecoderConfig, make_decoder
import test_decoders as t

libs = (treepass.load(), treepass.open_library(sys.argv[1]))
codes = [(code, spec, (300, 1, t.FRAME_BLOCK + 1)) for code, spec in t.GOLDEN_CODES.items()]
codes += [(code, spec, (1, t.FRAME_BLOCK, t.FRAME_BLOCK + 1)) for code, spec in t.SMALLEST_CODES.items()]
changed = []
for code, spec, batches in codes:
    rm, L = t.build_code(spec)
    _, llr = t.noisy_llrs(spec, rm, L, max(batches), 1.5, 7)
    kinds = [("sc", "sequential")] + [(k, s) for k in ("pc-scan", "csr-scan") for s in ("sequential", "literal")]
    for kind, schedule in kinds:
        dec = DecoderConfig(kind, 2, schedule=schedule)
        for frames in (llr[0] if B == 1 else llr[:B] for B in batches):
            digests, decided = set(), set()
            for lib in libs:
                treepass.load = lambda: lib
                decoder = make_decoder(rm, L, dec)
                full = decoder.decode(frames, dec.iterations)
                digests.add(t.result_digest(full))
                decided |= {t.decisions_digest(r) for r in (full, decoder.decode(frames, dec.iterations, soft=False))}
            if len(digests) != 1 or len(decided) != 1:
                changed.append((code, kind, schedule, frames.shape))
print(changed)
sys.exit(bool(changed))
"""


@needs_compiled
def test_sanitized_tree_pass_equals_the_plain_build(tmp_path):
    """treepass.c under ASan and UBSan: no invalid access, no undefined
    behaviour, and the same bits as the plain build."""
    asan = subprocess.run(["gcc", "-print-file-name=libasan.so"], capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(asan):
        pytest.skip("gcc has no libasan")
    lib = tmp_path / "treepass-sanitized.so"
    flags = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-ffp-contract=off"]
    cmd = ["gcc", *flags, "-shared", "-fPIC", str(treepass.SOURCE), "-o", str(lib)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=300)
    src = os.path.dirname(os.path.dirname(treepass.__file__))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)]),
        "LD_PRELOAD": asan,
        "ASAN_OPTIONS": "detect_leaks=0",
    }
    done = subprocess.run(
        [sys.executable, "-c", SANITIZED_DECODES, str(lib)], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout + done.stderr[-3000:]


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """treepass.load() with a process cache of its own, still empty, and the
    build cache under tmp_path; the real loader is restored afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(treepass, "load", functools.cache(treepass.load.__wrapped__))
    return tmp_path / "cache" / "pcpolar"


FALLBACK_KEYS = [k for k in GOLDEN_DIGESTS if k.startswith("64-fc/")]


def assert_numpy_fallback():
    pc_code, plain_code = build_code(GOLDEN_CODES["64-fc"]), build_code(CodeSpec(N=64, K=32))
    for kind, code in (("sc", pc_code), ("scan", plain_code), ("pc-scan", pc_code), ("csr-scan", pc_code)):
        assert make_decoder(*code, DecoderConfig(kind=kind, t_max=3)).engine == "numpy"
    assert not changed_golden_digests(FALLBACK_KEYS)


def test_no_compiler_falls_back_to_numpy(fresh_loader, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert_numpy_fallback()
    assert not list(fresh_loader.glob("*.so"))


@pytest.mark.parametrize("how", ["not-a-directory", "writable-by-others"])
def test_unusable_cache_dir_falls_back_to_numpy(fresh_loader, tmp_path, monkeypatch, how):
    if how == "not-a-directory":
        fresh_loader.parent.write_text("")
    else:
        fresh_loader.mkdir(parents=True)
        fresh_loader.chmod(0o777)
    assert_numpy_fallback()


@needs_compiled
def test_build_is_keyed_and_leaves_no_temporaries(fresh_loader):
    fresh_loader.mkdir(mode=0o700, parents=True)
    stale = fresh_loader / ("treepass-" + "0" * 64 + ".so")
    stale.write_bytes(b"not a library")
    assert treepass.load() is not None  # the stale file would not load
    built = treepass.build(fresh_loader)
    assert built != stale and built.name.startswith("treepass-")
    assert sorted(fresh_loader.iterdir()) == sorted([stale, built])


@needs_compiled
def test_concurrent_builds_both_load(fresh_loader):
    script = "import sys; from pcpolar import treepass; sys.exit(treepass.load() is None)"
    src = os.path.dirname(os.path.dirname(treepass.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    procs = [subprocess.Popen([sys.executable, "-c", script], env=env) for _ in range(2)]
    try:
        assert [p.wait(timeout=300) for p in procs] == [0, 0]
    finally:
        for p in procs:
            p.kill()
    assert fresh_loader.stat().st_mode & 0o777 == 0o700
    assert len(list(fresh_loader.glob("*.so"))) == 1
    assert not list(fresh_loader.glob("*.tmp"))
