import functools
import hashlib
import os
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpolar.channel import frame_batch
from pcpolar.construction import CodeSpec, build_code
from pcpolar.decoders import DampingConfig
from pcpolar import sim, treepass
from pcpolar.sim import DecoderConfig, SimConfig, run_cell, sweep, wilson_interval


def small_config(**kw):
    defaults = dict(
        spec=CodeSpec(N=16, K=8, scheme="fc", L=3),
        decoder=DecoderConfig(kind="csr-scan", t_max=2),
        snr_points=(2.0,),
        max_frames=400,
        min_frame_errors=10**9,
        master_seed=77,
        batch_frames=100,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0


def test_wilson_interval_midpoint():
    lo, hi = wilson_interval(50, 100)
    assert (lo + hi) / 2 == pytest.approx(0.5, abs=1e-9)
    assert hi - lo == pytest.approx(0.1923, abs=5e-4)  # closed-form at z=1.96


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(6, 5)


@settings(max_examples=200, deadline=None)
@given(
    trials=st.integers(min_value=1, max_value=10**6),
    frac=st.floats(min_value=0, max_value=1),
)
def test_wilson_interval_contains_estimate(trials, frac):
    errors = min(trials, int(round(frac * trials)))
    lo, hi = wilson_interval(errors, trials)
    p = errors / trials
    assert 0.0 <= lo <= p <= hi <= 1.0


def test_sim_config_validation():
    with pytest.raises(ValueError):
        small_config(snr_points=())
    with pytest.raises(ValueError):
        small_config(max_frames=0)
    with pytest.raises(ValueError):
        small_config(workers=0)
    with pytest.raises(ValueError, match="master_seed"):
        small_config(master_seed=-1)
    small_config(master_seed=0)
    # every SNR must give a noise sigma before any chunk runs
    for snr in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            small_config(snr_points=(2.0, snr))
        with pytest.raises(ValueError, match="finite"):
            small_config(snr_points=(snr,), noiseless=True)
    for snr in (-3300.0, -3100.0, 3090.0, 6000.0):  # sigma 0, inf, or beyond float range
        with pytest.raises(ValueError, match="sigma"):
            small_config(snr_points=(snr,))
    small_config(snr_points=(6000.0,), noiseless=True)  # a noiseless sweep has no sigma
    with pytest.raises(ValueError):
        DecoderConfig(kind="magic")
    # the schedule is checked for every kind, also for SC, which has none
    for kind in ("sc", "pc-scan"):
        with pytest.raises(ValueError, match="schedule"):
            DecoderConfig(kind=kind, schedule="zigzag")


def test_noiseless_cell_has_zero_errors():
    cfg = small_config(noiseless=True)
    cells = run_cell(cfg, 2.0)
    for c in cells:
        assert c.frame_errors == 0
        assert c.bit_errors == 0
        assert c.fer == 0.0
        assert c.ber == 0.0


def test_cell_counts_and_shapes():
    cfg = small_config()
    cells = run_cell(cfg, 2.0)
    assert [c.iteration for c in cells] == [1, 2]
    for c in cells:
        assert c.frames == 400
        assert c.info_bits_total == 400 * 8
        assert 0 <= c.frame_errors <= c.frames
        assert c.frame_errors <= c.bit_errors <= c.info_bits_total
        lo, hi = c.fer_ci_95
        assert lo <= c.fer <= hi


def test_sc_high_snr_sanity():
    cfg = small_config(
        spec=CodeSpec(N=64, K=32),
        decoder=DecoderConfig(kind="sc"),
        snr_points=(10.0,),
        max_frames=1000,
        batch_frames=500,
    )
    cells = run_cell(cfg, 10.0)
    assert len(cells) == 1
    assert cells[0].fer == 0.0


def test_same_config_reproduces_exactly():
    cfg = small_config()
    a = run_cell(cfg, 2.0)
    b = run_cell(cfg, 2.0)
    assert [(c.frames, c.frame_errors, c.bit_errors) for c in a] == [
        (c.frames, c.frame_errors, c.bit_errors) for c in b
    ]


def test_results_independent_of_workers():
    base = small_config(max_frames=600, batch_frames=150)
    counts = {}
    for w in (1, 2, 3):
        cfg = small_config(max_frames=600, batch_frames=150, workers=w)
        cells = run_cell(cfg, 2.0)
        counts[w] = [(c.frames, c.frame_errors, c.bit_errors) for c in cells]
    assert counts[1] == counts[2] == counts[3]


def test_results_independent_of_chunking_given_no_early_stop():
    a = run_cell(small_config(batch_frames=100), 2.0)
    b = run_cell(small_config(batch_frames=37), 2.0)
    assert [(c.frames, c.frame_errors) for c in a] == [(c.frames, c.frame_errors) for c in b]


def test_early_stop_at_chunk_boundary():
    cfg = small_config(
        snr_points=(-2.0,),
        max_frames=100_000,
        min_frame_errors=20,
        batch_frames=50,
    )
    cells = run_cell(cfg, -2.0)
    assert cells[-1].frame_errors >= 20
    assert cells[-1].frames < 100_000
    assert cells[-1].frames % 50 == 0


def early_stop_config(**kw):
    return small_config(snr_points=(-2.0,), max_frames=100_000, min_frame_errors=20, batch_frames=50, **kw)


def test_early_stop_counts_independent_of_workers():
    counts = {}
    for w in (1, 2, 3):
        cells = run_cell(early_stop_config(workers=w), -2.0)
        counts[w] = [(c.frames, c.frame_errors, c.bit_errors) for c in cells]
    assert counts[1] == counts[2] == counts[3]


class RecordingPool(ProcessPoolExecutor):
    submitted = 0

    def submit(self, *args, **kwargs):
        RecordingPool.submitted += 1
        return super().submit(*args, **kwargs)


def test_early_stop_submits_only_workers_chunks_past_the_counted(monkeypatch):
    monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.submitted = 0
    cells = run_cell(early_stop_config(workers=2), -2.0)
    counted_chunks = cells[-1].frames // 50
    assert counted_chunks < 100_000 // 50
    assert RecordingPool.submitted == counted_chunks + 2


def test_worker_exception_reaches_caller():
    # plain SCAN on a PC code fails only once a worker builds the decoder
    cfg = small_config(decoder=DecoderConfig(kind="scan"), workers=2)
    with pytest.raises(ValueError, match="PC"):
        run_cell(cfg, 2.0)

def test_master_seed_changes_noise():
    a = run_cell(small_config(master_seed=1, max_frames=300), 2.0)
    b = run_cell(small_config(master_seed=2, max_frames=300), 2.0)
    assert (a[-1].frame_errors, a[-1].bit_errors) != (b[-1].frame_errors, b[-1].bit_errors)


def test_sweep_equals_concatenated_cells():
    cfg = small_config(snr_points=(1.0, 3.0))
    result = sweep(cfg)
    by_hand = run_cell(cfg, 1.0) + run_cell(cfg, 3.0)
    assert [(c.snr_db, c.iteration, c.frames, c.frame_errors) for c in result.cells] == [
        (c.snr_db, c.iteration, c.frames, c.frame_errors) for c in by_hand
    ]
    one = sweep(small_config(snr_points=(1.0,)))
    assert [(c.frame_errors, c.bit_errors) for c in one.cells] == [
        (c.frame_errors, c.bit_errors) for c in run_cell(small_config(snr_points=(1.0,)), 1.0)
    ]


def test_fer_decreases_with_snr_within_noise():
    cfg = small_config(
        spec=CodeSpec(N=64, K=32),
        decoder=DecoderConfig(kind="sc"),
        snr_points=(0.0, 2.0, 4.0),
        max_frames=2000,
        batch_frames=1000,
    )
    result = sweep(cfg)
    fers = [c.fer for c in result.cells]
    # generous CI slack: each step down the sweep must not rise materially
    assert fers[0] > fers[2]
    assert all(fers[i + 1] <= fers[i] + 0.02 for i in range(2))


def test_iteration_gain_soft_trend():
    # soft check with CI slack: more iterations should not hurt on average
    cfg = SimConfig(
        spec=CodeSpec(N=128, K=64, scheme="fc", A=1.0),
        decoder=DecoderConfig(kind="csr-scan", t_max=4),
        snr_points=(3.0,),
        max_frames=6000,
        min_frame_errors=10**9,
        master_seed=31,
        batch_frames=2000,
    )
    cells = run_cell(cfg, 3.0)
    slack = cells[0].fer_ci_95[1] - cells[0].fer_ci_95[0]
    assert cells[-1].fer <= cells[0].fer + slack


def test_scan_family_reports_per_iteration_cells():
    cfg = small_config(
        decoder=DecoderConfig(kind="pc-scan", t_max=3, damping=DampingConfig()),
        max_frames=200,
    )
    cells = run_cell(cfg, 2.0)
    assert [c.iteration for c in cells] == [1, 2, 3]
    # final iteration usually differs from the first on a noisy channel
    assert cells[0].frames == cells[2].frames


# SHA-256 of the (messages, noise) of frames [lo, hi), keyed by
# (master_seed, lo, hi, K, N), and seeded sweep counts, both captured from
# the simulator when it drew every frame through its own frame_rng
FRAME_DIGESTS = {
    (77, 0, 100, 8, 16): "48488e2d54e72087352d1fb34d70e9e1a1b5cae972469fc1db0066bd2f01f2e6",
    (0, 7000, 7040, 33, 64): "45ecce66a4ccba9f3d355509b27cad05d3a9cb8407fc962ad91989e5a55b66b9",
    (501, 0, 50, 512, 1024): "5f5221b17fe4341200b8ddbebdd0c3123c79bd9a3e11ff219941012e7c9b908f",
    (2**32 - 1, 2**32 - 1001, 2**32 - 960, 36, 64): "2c2ce1179c39b524c5b1fff090f057d06f352918b32a0bc568e6503dba59100d",
    (1, 2**32 - 20, 2**32 + 20, 7, 16): "b6155ec43cf44490f67a2d766f4c05da7186f1dac2fb498bfce5edb8730bb547",
    (2**32, 0, 20, 9, 16): "43798bd968ab543057d6dd2610f8e15c2ff8020c53b4a4cc8ceff01bcf2881ca",
    (123456789, 3, 4, 1, 8): "f9534bc2508baa17062e9093f9abdb9e6d3069c96fb806171c0104a1cbcf4bb0",
}
# (snr_db, iteration, frames, frame_errors, bit_errors) of the sweep below
SWEEP_COUNTS = {
    "sc": [(1.0, 1, 600, 209, 2218), (3.0, 1, 600, 17, 134)],
    "pc-scan": [
        (1.0, 1, 600, 249, 2486),
        (1.0, 2, 600, 249, 2741),
        (3.0, 1, 600, 20, 144),
        (3.0, 2, 600, 26, 247),
    ],
}


@pytest.mark.parametrize("key", list(FRAME_DIGESTS))
def test_frame_batch_golden_digest(key):
    seed, lo, hi, K, N = key
    h = hashlib.sha256()
    for a in frame_batch(seed, lo, hi, K, N):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    assert h.hexdigest() == FRAME_DIGESTS[key]


@pytest.mark.parametrize("kind", list(SWEEP_COUNTS))
def test_seeded_sweep_counts_golden(kind):
    cfg = SimConfig(
        spec=CodeSpec(N=64, K=32, scheme="fc", L=5),
        decoder=DecoderConfig(kind=kind, t_max=2),
        snr_points=(1.0, 3.0),
        max_frames=600,
        min_frame_errors=10**9,
        master_seed=2026,
        batch_frames=200,
    )
    cells = sweep(cfg).cells
    assert [(c.snr_db, c.iteration, c.frames, c.frame_errors, c.bit_errors) for c in cells] == SWEEP_COUNTS[kind]


# ---------------------------------------------------------------------------
# compiled frame chunk: bitwise the numpy chain, and that chain as its fallback

needs_frames = pytest.mark.skipif(treepass.load_frames() is None, reason="no compiled frame chunk on this platform")


def numpy_chain():
    """Inside this block, chunks are made by the numpy chain."""
    return mock.patch.object(treepass, "load_frames", lambda: None)


CHUNK_CODES = {(5, 8): 0.5, (32, 64): 0.5, (512, 1024): 0.5}


def chunk_bytes(spec, seed, noiseless, lo, hi):
    cfg = SimConfig(spec, DecoderConfig(), (1.5,), master_seed=seed, noiseless=noiseless)
    msgs, llr = sim.chunk_llrs(cfg, 1.5, lo, hi, *build_code(spec))
    assert msgs.dtype == np.uint8 and msgs.shape == (hi - lo, spec.K)
    assert llr.dtype == np.float64 and llr.shape == (hi - lo, spec.N)
    return msgs.tobytes(), llr.tobytes()


@needs_frames
@pytest.mark.parametrize("noiseless", [False, True])
@pytest.mark.parametrize("code", list(CHUNK_CODES))
@pytest.mark.parametrize("scheme", ["fc", "mc", "nr", "none"])
@pytest.mark.parametrize("seed", [0, 1, 501, 2**32 - 1])
def test_compiled_chunk_equals_numpy_chain(seed, scheme, code, noiseless):
    K, N = code
    spec = CodeSpec(N=N, K=K, scheme=scheme, A=CHUNK_CODES[code])
    # a chunk, single frames, and the last frame below 2**32
    for lo, hi in ((7, 307), (7, 8), (1006, 1007), (2**32 - 2, 2**32)):
        got = chunk_bytes(spec, seed, noiseless, lo, hi)
        with numpy_chain():
            assert got == chunk_bytes(spec, seed, noiseless, lo, hi), (lo, hi)


class NoCall:
    def frame_chunk(self, *args):
        raise AssertionError("the compiled chunk was called")


@pytest.mark.parametrize("seed, lo, hi", [(1, 2**32 - 3, 2**32 + 3), (2**32, 0, 5), (2**32 - 1, 2**32, 2**32 + 1)])
def test_seeds_and_frames_past_32_bits_take_the_numpy_chain(seed, lo, hi):
    spec = CodeSpec(N=16, K=7, scheme="fc", L=3)
    with numpy_chain():
        want = chunk_bytes(spec, seed, False, lo, hi)
    with mock.patch.object(treepass, "load_frames", NoCall):
        assert chunk_bytes(spec, seed, False, lo, hi) == want


GOLDEN_SIM_TESTS = {
    "workers": test_results_independent_of_workers,
    **{f"sweep-{kind}": functools.partial(test_seeded_sweep_counts_golden, kind) for kind in SWEEP_COUNTS},
    **{f"frames-{key}": functools.partial(test_frame_batch_golden_digest, key) for key in FRAME_DIGESTS},
}


@pytest.mark.parametrize("name", list(GOLDEN_SIM_TESTS))
def test_golden_sim_tests_hold_on_the_numpy_chain(name):
    with numpy_chain():
        GOLDEN_SIM_TESTS[name]()


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not installed")
def test_frame_chunk_source_compiles_without_warnings():
    cmd = ["gcc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", "-I", np.get_include(), str(treepass.FRAME_SOURCE)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# run with the sanitized library as argv[1]: chunks past 256 frames, single
# frames and noiseless ones, each against the plain build's
SANITIZED_CHUNKS = """
import sys
from unittest import mock
from pcpolar import treepass
import test_sim as t

libs = (treepass.load_frames(), treepass.open_frame_library(sys.argv[1]))
changed = []
for (K, N), A in t.CHUNK_CODES.items():
    for scheme in ("fc", "mc", "nr", "none"):
        spec = t.CodeSpec(N=N, K=K, scheme=scheme, A=A)
        for noiseless in (False, True):
            for lo, hi in ((3, 303), (2**32 - 1, 2**32)):
                outs = set()
                for lib in libs:
                    with mock.patch.object(treepass, "load_frames", lambda: lib):
                        outs.add(t.chunk_bytes(spec, 501, noiseless, lo, hi))
                if len(outs) != 1:
                    changed.append((K, N, scheme, noiseless, lo))
print(changed)
sys.exit(bool(changed))
"""


@needs_frames
def test_sanitized_frame_chunk_equals_the_plain_build(tmp_path):
    """framechunk.c under ASan and UBSan: no invalid access, no undefined
    behaviour, and the same bits as the plain build."""
    asan = subprocess.run(["gcc", "-print-file-name=libasan.so"], capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(asan):
        pytest.skip("gcc has no libasan")
    lib = tmp_path / "framechunk-sanitized.so"
    flags = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-ffp-contract=off"]
    cmd = ["gcc", *flags, "-shared", "-fPIC", "-I", np.get_include(), str(treepass.FRAME_SOURCE)]
    cmd += [str(treepass.numpy_random_archive()), "-lm", "-o", str(lib)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=300)
    src = os.path.dirname(os.path.dirname(treepass.__file__))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)]),
        "LD_PRELOAD": asan,
        "ASAN_OPTIONS": "detect_leaks=0",
    }
    done = subprocess.run(
        [sys.executable, "-c", SANITIZED_CHUNKS, str(lib)], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout + done.stderr[-3000:]


@needs_frames
def test_frame_library_key_covers_numpy_and_its_archive(tmp_path):
    archive = tmp_path / "libnpyrandom.a"
    archive.write_bytes(treepass.numpy_random_archive().read_bytes())
    source = treepass.FRAME_SOURCE.read_bytes()
    flags = (*treepass.FLAGS, "-I", np.get_include())
    key = treepass.cache_key(source, flags, (archive,), np.__version__)
    built = [p.name for p in treepass.cache_dir().glob("framechunk-*.so")]
    assert f"framechunk-{key}.so" in built  # the loaded build is the archive's
    assert treepass.cache_key(source, flags, (archive,), "0.0") != key
    data = bytearray(archive.read_bytes())
    data[-1] ^= 1
    archive.write_bytes(bytes(data))
    assert treepass.cache_key(source, flags, (archive,), np.__version__) != key


def test_missing_archive_falls_back_to_the_numpy_chain(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(treepass, "numpy_random_archive", lambda: tmp_path / "missing.a")
    treepass.load_frames.cache_clear()
    try:
        assert treepass.load_frames() is None
        for kind in SWEEP_COUNTS:
            test_seeded_sweep_counts_golden(kind)
        assert not list((tmp_path / "cache").rglob("framechunk-*"))
    finally:
        treepass.load_frames.cache_clear()
