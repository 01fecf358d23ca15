"""BPSK over AWGN and the channel LLRs feeding the decoding tree root.

Frame f of a simulation draws its K message bits
(`integers(0, 2, K, dtype=np.uint8)`) and then its N unit normals from
`frame_rng(master_seed, f)`, so a result depends only on (master seed,
frame index), never on worker count or trial order; `frame_batch` runs
that loop over a chunk. The simulator's compiled frame chunk
(framechunk.c, see `sim.chunk_frames`) makes the same frames, with numpy's
SeedSequence hash and PCG64 written out in C, and the fast path of
numpy's ziggurat normal sampler inline over its tables, read from numpy's
own sampler; the rare rejected draw runs numpy's sampler itself, linked
in. It goes on to encode the frames, and a second entry point forms
their LLRs at each SNR point from the same codeword bits and normals
(`sim.frame_llrs`), so a sweep draws each frame once for all its SNR
points; `frame_batch`, `modulate_bpsk` and `channel_llrs` are its
reference and its fallback.
"""

from __future__ import annotations

import numpy as np

# Saturating LLR magnitude used at the channel interface for noiseless
# frames; decoders treat true infinities separately.
LLR_MAX = 1e9


def ebn0_to_sigma(ebn0_db: float, rate: float) -> float:
    """Noise standard deviation for unit-energy BPSK at Eb/N0 (dB)."""
    if not 0 < rate <= 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    return float(np.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))))


def modulate_bpsk(x) -> np.ndarray:
    """Map bit 0 -> +1.0, bit 1 -> -1.0."""
    return 1.0 - 2.0 * np.asarray(x, dtype=np.float64)


def awgn(symbols, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. Gaussian noise of standard deviation sigma."""
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    s = np.asarray(symbols, dtype=np.float64)
    return s + sigma * rng.standard_normal(s.shape)


def channel_llrs(y, sigma: float, noiseless: bool = False) -> np.ndarray:
    """LLRs of BPSK observations: 2*y/sigma^2, or saturated if noiseless."""
    y = np.asarray(y, dtype=np.float64)
    if noiseless:
        return np.where(y >= 0, LLR_MAX, -LLR_MAX)
    if sigma <= 0:
        raise ValueError("sigma must be positive unless the noiseless flag is set")
    return 2.0 * y / (sigma * sigma)


def frame_rng(master_seed: int, frame_index: int) -> np.random.Generator:
    """Deterministic per-frame generator keyed by (master seed, frame index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, frame_index))))


def frame_batch(master_seed: int, lo: int, hi: int, K: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Messages (B, K) uint8 and unit noise (B, N) of frames [lo, hi), each drawn from its `frame_rng`."""
    msgs = np.empty((hi - lo, K), dtype=np.uint8)
    noise = np.empty((hi - lo, N))
    for i, f in enumerate(range(lo, hi)):
        g = frame_rng(master_seed, f)
        msgs[i] = g.integers(0, 2, K, dtype=np.uint8)
        g.standard_normal(out=noise[i])
    return msgs, noise
