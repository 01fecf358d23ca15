"""BPSK over AWGN and the channel LLRs feeding the decoding tree root.

Frame f of a simulation draws its K message bits
(`integers(0, 2, K, dtype=np.uint8)`) and then its N unit normals from
`frame_rng(master_seed, f)`, so a result depends only on (master seed,
frame index), never on worker count or trial order. `frame_batch` makes
the frames of a whole chunk in one pass, bitwise equal to that per-frame
loop.
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


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_consts(init: int, mult: int, n: int) -> list[int]:
    """The first n + 1 values of a SeedSequence hash constant: init * mult**i mod 2**32."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _M32)
    return consts


def _hashmix(value: np.ndarray, consts: list[int], k: int) -> np.ndarray:
    """SeedSequence's hash step number k on uint32 words: xor with consts[k], multiply by consts[k + 1], xor-shift."""
    value = (value ^ np.uint32(consts[k])) * np.uint32(consts[k + 1])
    return value ^ value >> np.uint32(16)


def seed_words(master_seed: int, frames: np.ndarray) -> np.ndarray:
    """`SeedSequence((master_seed, f)).generate_state(4, np.uint64)` for every f, as (B, 4) uint64.

    Valid while master_seed and every f are below 2**32: the entropy is
    then the two words (master_seed, f), padded with zeros to the pool of
    four. The hash constants do not depend on the data, so the chain of
    uint32 xor/multiply/shift steps runs on whole arrays.
    """
    frames = np.asarray(frames, dtype=np.uint32)
    ca = _hash_consts(_INIT_A, _MULT_A, 16)
    entropy = (np.full_like(frames, master_seed), frames, np.zeros_like(frames), np.zeros_like(frames))
    pool = [_hashmix(word, ca, k) for k, word in enumerate(entropy)]
    k = len(pool)
    # mix every pool word into every other, in SeedSequence.mix_entropy's order
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * _hashmix(pool[src], ca, k)
                pool[dst] = mixed ^ mixed >> np.uint32(16)
                k += 1
    cb = _hash_consts(_INIT_B, _MULT_B, 8)
    out = np.stack([_hashmix(pool[i % 4], cb, i) for i in range(8)], axis=-1)
    # uint64 word j is out[2j] | out[2j + 1] << 32
    return out.astype("<u4").view("<u8").astype(np.uint64)


def frame_batch(master_seed: int, lo: int, hi: int, K: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Messages (B, K) uint8 and unit noise (B, N) of frames [lo, hi), bitwise as `frame_rng` draws them.

    Frame f's generator is loaded into one chunk-wide PCG64 from its
    `seed_words`: PCG64 seeds with inc = (w2, w3) << 1 | 1 and state =
    ((w0, w1) + inc) * mult + inc, mod 2**128. Its K message bits are
    numpy's Lemire draw with range 2, which is bit 7 of each successive
    little-endian byte of ceil(K/8) raw 64-bit words. A master seed or
    frame index of 2**32 or more spans more entropy words; such chunks
    run the `frame_rng` loop.
    """
    msgs = np.empty((hi - lo, K), dtype=np.uint8)
    noise = np.empty((hi - lo, N))
    if master_seed >> 32 or hi > 1 << 32:
        for i, f in enumerate(range(lo, hi)):
            g = frame_rng(master_seed, f)
            msgs[i] = g.integers(0, 2, K, dtype=np.uint8)
            g.standard_normal(out=noise[i])
        return msgs, noise
    bg = np.random.PCG64(0)
    g = np.random.Generator(bg)
    raw = np.empty((hi - lo, -(-K // 8)), dtype="<u8")
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    for i, (w0, w1, w2, w3) in enumerate(seed_words(master_seed, np.arange(lo, hi, dtype=np.uint32)).tolist()):
        inc = (w2 << 65 | w3 << 1 | 1) & _M128
        inner["state"] = ((w0 << 64 | w1) + inc) * _PCG_MULT + inc & _M128
        inner["inc"] = inc
        bg.state = state
        raw[i] = bg.random_raw(raw.shape[1])
        g.standard_normal(out=noise[i])
    msgs[:] = raw.view(np.uint8)[:, :K] >> 7
    return msgs, noise
