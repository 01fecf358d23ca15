"""Monte-Carlo FER/BER estimation over AWGN.

Frames are processed in fixed-size chunks; each frame's message and noise
derive only from (master_seed, frame_index), and the early-stopping rule
is evaluated at chunk boundaries in frame order, so results are bitwise
reproducible for any worker count. A chunk's messages and channel LLRs
come from one call into the compiled frame chunk, which reads the code's
role map as `encode` does, or else from the numpy chain it is bitwise
equal to (`chunk_llrs`). SCAN-family decoders report statistics for every
iteration 1..t_max out of a single decode, of the decisions only
(soft=False), since a count reads no soft output.
With workers > 1 the chunks run on a thread pool (`_chunk_results`) and
share one cached decoder, which keeps no per-decode state.
A SimConfig checks that each SNR point gives a positive finite noise
sigma when it is built, so no chunk meets a bad one.
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from . import treepass
from .channel import LLR_MAX, channel_llrs, ebn0_to_sigma, frame_batch, modulate_bpsk
from .construction import CodeSpec, build_code
# DECODER_KINDS and DecoderConfig stay importable from this module too
from .decoders import DECODER_KINDS, DecoderConfig, make_decoder
from .encoder import encode

MAX_WORKERS = 256  # the most chunk threads a SimConfig may ask for; results do not depend on the count


@dataclass(frozen=True)
class SimConfig:
    spec: CodeSpec
    decoder: DecoderConfig
    snr_points: tuple[float, ...]
    max_frames: int = 100_000
    min_frame_errors: int = 100
    master_seed: int = 1
    workers: int = 1
    noiseless: bool = False
    batch_frames: int = 1000

    def __post_init__(self):
        if not self.snr_points:
            raise ValueError("snr_points must be non-empty")
        if not all(math.isfinite(snr) for snr in self.snr_points):
            raise ValueError(f"snr_points must be finite, got {self.snr_points}")
        for snr in () if self.noiseless else self.snr_points:
            # every chunk computes its sigma the same way; check it once here
            try:
                sigma = ebn0_to_sigma(float(snr), self.spec.rate)
            except (OverflowError, ZeroDivisionError):
                sigma = 0.0
            if not 0 < sigma < math.inf:
                raise ValueError(f"snr {snr} dB gives no positive finite noise sigma")
        # every frame index must fit the compiled frame chunk's int64
        if not 1 <= self.max_frames <= 2**63:
            raise ValueError(f"max_frames must be in [1, 2**63], got {self.max_frames}")
        if self.min_frame_errors < 1:
            raise ValueError("min_frame_errors must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be in [1, {MAX_WORKERS}], got {self.workers}")
        if self.batch_frames < 1:
            raise ValueError("batch_frames must be >= 1")


@dataclass
class CellStats:
    """Error counters of one (snr, iteration) cell."""

    snr_db: float
    iteration: int
    frames: int
    frame_errors: int
    bit_errors: int
    info_bits_total: int
    seconds: float

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames

    @property
    def ber(self) -> float:
        return self.bit_errors / self.info_bits_total

    @property
    def fer_ci_95(self) -> tuple[float, float]:
        return wilson_interval(self.frame_errors, self.frames)

    def row(self) -> dict:
        lo, hi = self.fer_ci_95
        return {
            "snr_db": self.snr_db,
            "iter": self.iteration,
            "frames": self.frames,
            "frame_errors": self.frame_errors,
            "bit_errors": self.bit_errors,
            "fer": self.fer,
            "ber": self.ber,
            "fer_ci_lo": lo,
            "fer_ci_hi": hi,
            "seconds": self.seconds,
        }


@dataclass
class SimResult:
    config: SimConfig
    cells: list[CellStats]


def wilson_interval(errors: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= errors <= trials:
        raise ValueError("need 0 <= errors <= trials and trials >= 1")
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # the exact interval always contains p; clamp out float rounding dust
    lo = max(0.0, min(float(center - half), p))
    hi = min(1.0, max(float(center + half), p))
    return lo, hi


@lru_cache(maxsize=64)
def _code(spec: CodeSpec):
    """The code's role map and register length L, built once per spec."""
    return build_code(spec)


@lru_cache(maxsize=64)
def _decoder(spec: CodeSpec, dec: DecoderConfig):
    return make_decoder(*_code(spec), dec)


def chunk_llrs(config: SimConfig, snr_db: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Messages (B, K) uint8 and channel LLRs (B, N) of frames [lo, hi).

    One call into the compiled frame chunk (framechunk.c) makes them,
    bitwise as the numpy chain `frame_batch` -> `encode` -> `modulate_bpsk`
    -> `channel_llrs` does, for any master seed and frame index. That
    chain runs where the library cannot be built or loaded.
    """
    spec = config.spec
    sigma = 0.0 if config.noiseless else ebn0_to_sigma(snr_db, spec.rate)
    rolemap, L = _code(spec)
    lib = treepass.load_frames()
    if lib is None:
        msgs, noise = frame_batch(config.master_seed, lo, hi, spec.K, spec.N)
        sym = modulate_bpsk(encode(msgs, spec, rolemap, L))
        if config.noiseless:
            return msgs, channel_llrs(sym, 0.0, noiseless=True)
        return msgs, channel_llrs(sym + sigma * noise, sigma)
    # the master seed's little-endian uint32 words, as SeedSequence splits it
    master = int(config.master_seed)
    seed = np.array([master >> s & 0xFFFFFFFF for s in range(0, max(master.bit_length(), 1), 32)], dtype=np.uint32)
    msgs = np.empty((hi - lo, spec.K), dtype=np.uint8)
    llr = np.empty((hi - lo, spec.N))
    failed = lib.frame_chunk(
        hi - lo, spec.N, spec.K, L, seed.ctypes.data, len(seed), lo, rolemap.role.ctypes.data, sigma, LLR_MAX,
        msgs.ctypes.data, llr.ctypes.data,
    )
    if failed:
        raise MemoryError("cannot allocate the compiled frame chunk's scratch buffer")
    return msgs, llr


def _simulate_chunk(config: SimConfig, snr_db: float, lo: int, hi: int):
    """Counters for frames [lo, hi): (frames, per-iteration (ferr, berr), seconds)."""
    t0 = time.perf_counter()
    decoder = _decoder(config.spec, config.decoder)
    msgs, llr = chunk_llrs(config, snr_db, lo, hi)
    res = decoder.decode(llr, config.decoder.iterations, soft=False)
    per_iter = []
    for bits in res.iteration_info_bits:
        errs = bits != msgs
        per_iter.append((int(errs.any(axis=1).sum()), int(errs.sum())))
    return hi - lo, per_iter, time.perf_counter() - t0


def _chunk_results(config: SimConfig, snr_db: float):
    """Yield chunk counters in frame order, fanned out over a thread pool.

    The pool holds one chunk per worker plus one queued, and a chunk is
    only submitted once the consumer has taken an earlier result, so when
    the consumer stops early (closing this generator) at most `workers`
    chunks are still in flight; any the pool has not started are cancelled,
    and the started ones run to their end, since a thread cannot be stopped.
    The threads overlap because the frame chunk and the tree pass release
    the GIL for the length of their C calls. One worker runs the chunks
    inline: a pool of one thread would overlap nothing, and its thread's
    own malloc arena raises peak memory.
    """
    step = config.batch_frames
    bounds = ((lo, min(lo + step, config.max_frames)) for lo in range(0, config.max_frames, step))
    if config.workers == 1:
        for lo, hi in bounds:
            yield _simulate_chunk(config, snr_db, lo, hi)
        return
    with ThreadPoolExecutor(max_workers=config.workers) as ex:
        pending: deque = deque()
        try:
            for lo, hi in bounds:
                if len(pending) > config.workers:
                    yield pending.popleft().result()
                pending.append(ex.submit(_simulate_chunk, config, snr_db, lo, hi))
            while pending:
                yield pending.popleft().result()
        finally:
            for fut in pending:
                fut.cancel()


def run_cell(config: SimConfig, snr_db: float) -> list[CellStats]:
    """Simulate one SNR point until max_frames or min_frame_errors.

    The stopping rule looks at the final iteration's cumulative frame
    errors at chunk boundaries in frame order, so the set of counted
    frames is a pure function of the config.
    """
    iters = config.decoder.iterations
    frames = 0
    ferr = np.zeros(iters, dtype=np.int64)
    berr = np.zeros(iters, dtype=np.int64)
    seconds = 0.0
    with closing(_chunk_results(config, snr_db)) as chunks:
        for chunk_frames, per_iter, secs in chunks:
            if len(per_iter) != iters:
                raise RuntimeError("decoder reported an unexpected iteration count")
            frames += chunk_frames
            for t, (fe, be) in enumerate(per_iter):
                ferr[t] += fe
                berr[t] += be
            seconds += secs
            if ferr[-1] >= config.min_frame_errors:
                break
    return [
        CellStats(
            snr_db=snr_db,
            iteration=t + 1,
            frames=frames,
            frame_errors=int(ferr[t]),
            bit_errors=int(berr[t]),
            info_bits_total=frames * config.spec.K,
            seconds=seconds,
        )
        for t in range(iters)
    ]


def sweep(config: SimConfig) -> SimResult:
    """Map run_cell over the configured SNR points."""
    cells: list[CellStats] = []
    for snr in config.snr_points:
        cells.extend(run_cell(config, snr))
    return SimResult(config=config, cells=cells)
