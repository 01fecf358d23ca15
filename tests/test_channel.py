import numpy as np
import pytest

from pcpolar.channel import (
    LLR_MAX,
    awgn,
    channel_llrs,
    ebn0_to_sigma,
    frame_batch,
    frame_rng,
    modulate_bpsk,
)


def test_modulate_bpsk():
    assert np.array_equal(modulate_bpsk(np.zeros(8, dtype=np.uint8)), np.ones(8))
    assert np.array_equal(modulate_bpsk(np.array([0, 1])), [1.0, -1.0])


def test_modulate_demodulate_sign_identity():
    bits = np.random.default_rng(0).integers(0, 2, 256, dtype=np.uint8)
    assert np.array_equal((modulate_bpsk(bits) < 0).astype(np.uint8), bits)


def test_awgn_zero_sigma_is_identity():
    s = modulate_bpsk(np.array([0, 1, 1, 0]))
    assert np.array_equal(awgn(s, 0.0, np.random.default_rng(1)), s)


def test_awgn_rejects_negative_sigma():
    with pytest.raises(ValueError):
        awgn(np.ones(4), -0.1, np.random.default_rng(1))


def test_awgn_noise_moments():
    n = 10**6
    sigma = 0.8
    y = awgn(np.zeros(n), sigma, np.random.default_rng(42))
    assert abs(y.mean()) < 4 * sigma / np.sqrt(n)
    assert abs(y.var() - sigma**2) < 0.02 * sigma**2


def test_ebn0_sigma_round_trip():
    for ebn0 in (-2.0, 0.0, 3.0, 7.5):
        for rate in (0.25, 0.5, 0.75, 1.0):
            sigma = ebn0_to_sigma(ebn0, rate)
            # Eb/N0 = 1 / (2 R sigma^2) for unit-energy BPSK
            assert 10 * np.log10(1 / (2 * rate * sigma**2)) == pytest.approx(ebn0, rel=1e-12, abs=1e-12)


def test_channel_llrs_formula():
    assert channel_llrs(np.array([1.0]), 1.0)[0] == pytest.approx(2.0)
    y = np.random.default_rng(2).normal(0, 1, 100)
    llr = channel_llrs(y, 0.7)
    assert np.array_equal(np.sign(llr), np.sign(y))


def test_channel_llrs_noiseless_saturates():
    y = np.array([0.3, -0.2, 1.5])
    llr = channel_llrs(y, 0.0, noiseless=True)
    assert np.array_equal(llr, [LLR_MAX, -LLR_MAX, LLR_MAX])
    assert np.all(np.isfinite(llr))


def test_channel_llrs_rejects_zero_sigma_without_flag():
    with pytest.raises(ValueError):
        channel_llrs(np.ones(4), 0.0)


def test_frame_rng_is_deterministic_per_frame():
    a = frame_rng(123, 7).standard_normal(16)
    b = frame_rng(123, 7).standard_normal(16)
    c = frame_rng(123, 8).standard_normal(16)
    d = frame_rng(124, 7).standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def frame_rng_loop(seed, lo, hi, K, N):
    """The frames as the seeding rule defines them, spelled through numpy's
    own seeding: default_rng([seed, f]) is PCG64 over SeedSequence([seed,
    f]), with no call into channel.frame_rng."""
    msgs = np.empty((hi - lo, K), dtype=np.uint8)
    noise = np.empty((hi - lo, N))
    for i, f in enumerate(range(lo, hi)):
        g = np.random.default_rng([seed, f])
        msgs[i] = g.integers(0, 2, K, dtype=np.uint8)
        noise[i] = g.standard_normal(N)
    return msgs, noise


@pytest.mark.parametrize("K", [1, 7, 8, 9, 33, 36, 512])
@pytest.mark.parametrize("seed", [0, 1, 501, 2**32 - 1, 2**32])
def test_frame_batch_equals_frame_rng_loop(K, seed):
    N = 2 * K + 3
    # the last two ranges end at and cross frame 2**32, where a frame's entropy gains a word
    for lo, hi in ((0, 20), (7000, 7013), (2**32 - 20, 2**32), (2**32 - 10, 2**32 + 10)):
        msgs, noise = frame_batch(seed, lo, hi, K, N)
        ref_msgs, ref_noise = frame_rng_loop(seed, lo, hi, K, N)
        assert msgs.dtype == ref_msgs.dtype == np.uint8
        assert msgs.shape == (hi - lo, K) and noise.shape == (hi - lo, N)
        assert msgs.tobytes() == ref_msgs.tobytes()
        assert noise.tobytes() == ref_noise.tobytes()
