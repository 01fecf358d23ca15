"""Monte-Carlo FER/BER estimation over AWGN.

Frames are processed in fixed-size chunks; each frame's message and noise
derive only from (master_seed, frame_index), and each (decoder, SNR) cell's
early-stopping rule is evaluated at chunk boundaries in frame order, so
results are bitwise reproducible for any worker count. `sweep` runs every
cell of a simulate in lockstep through one chunk loop (`_run_cells`), and
`run_cell` is its one-cell case: one task per chunk index makes the
chunk's messages, codeword bits and unit normals once (`chunk_frames`),
forms each SNR point's channel LLRs from them (`frame_llrs`) and decodes
those with every decoder whose cell is still running when the task
starts. Both steps are one call each into the compiled frame chunk, which
reads the code's role map as `encode` does, or else the numpy chain they
are bitwise equal to.
SCAN-family decoders report statistics for every iteration 1..t_max out
of a single decode, of the decisions only (soft=False), since a count
reads no soft output.
A sweep builds its code and each of its decoders once, before any chunk
runs; with workers > 1 the tasks run on a thread pool (`_chunk_results`)
and share those decoders, which keep no per-decode state. A SimConfig
checks, when it is built, that each SNR point gives a positive finite
noise sigma, so no chunk meets a bad one, and that the chunks able to run
at once stay under CHUNK_MEMORY_MAX.
"""

from __future__ import annotations

import math
import time
from collections import deque
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from statistics import NormalDist

import numpy as np

from . import treepass
from .channel import LLR_MAX, channel_llrs, ebn0_to_sigma, frame_batch, modulate_bpsk
from .construction import CodeSpec, RoleMap, build_code
# DECODER_KINDS and DecoderConfig stay importable from this module too
from .decoders import DECODER_KINDS, DecoderConfig, make_decoder
from .encoder import encode

MAX_WORKERS = 256  # the most chunk threads a SimConfig may ask for; results do not depend on the count
# The most bytes the chunks in flight may hold at once, as SimConfig
# estimates them (chunk_memory): 4 GiB, half of an 8 GB machine. The
# default batch_frames and workers stay below it at every code length up
# to N_MAX with t_max up to 47.
CHUNK_MEMORY_MAX = 2**32


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
        if self.chunk_memory > CHUNK_MEMORY_MAX:
            raise ValueError(
                f"the chunks in flight would hold {self.chunk_memory / 2**30:.1f} GiB, above the "
                f"{CHUNK_MEMORY_MAX / 2**30:g} GiB ceiling; lower batch_frames or workers"
            )

    @property
    def chunk_memory(self) -> int:
        """Bytes of the arrays that the chunks able to run at once (up to
        `workers`) hold at their peak. A chunk of B frames holds its
        messages (B, K) and codeword bits (B, N) uint8, unit normals (B, N)
        float64, a spare LLR buffer as large where it has several SNR
        points, and one decode's decisions (iterations, B, K) uint8."""
        B, N, K = min(self.batch_frames, self.max_frames), self.spec.N, self.spec.K
        tasks = min(self.workers, -(-self.max_frames // B))
        spare = 8 * N if len(set(self.snr_points)) > 1 else 0
        return tasks * B * (K + N + 8 * N + spare + self.decoder.iterations * K)


@dataclass
class CellStats:
    """Error counters of one (decoder, snr, iteration) cell."""

    decoder: str
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
            "decoder": self.decoder,
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


def chunk_frames(
    config: SimConfig, rolemap: RoleMap, L: int, lo: int, hi: int, noise: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Messages (B, K) uint8, codeword bits x (B, N) uint8 and unit normals
    (B, N) float64 of frames [lo, hi) of the code (rolemap, L) that
    `build_code(config.spec)` gives, from which `frame_llrs` forms the LLRs
    at any SNR point.

    One call into the compiled frame chunk (framechunk.c) makes them,
    bitwise as `frame_batch` -> `encode` does, for any master seed and
    frame index, with the normals in `noise` where given (C-contiguous
    (B, N) float64), none drawn for a noiseless config. That numpy chain,
    with arrays of its own, runs where the library cannot be loaded.
    """
    spec = config.spec
    lib = treepass.load_frames()
    if lib is None:
        msgs, noise = frame_batch(config.master_seed, lo, hi, spec.K, spec.N)
        return msgs, encode(msgs, spec, rolemap, L), noise
    # the master seed's little-endian uint32 words, as SeedSequence splits it
    master = int(config.master_seed)
    seed = np.array([master >> s & 0xFFFFFFFF for s in range(0, max(master.bit_length(), 1), 32)], dtype=np.uint32)
    msgs = np.empty((hi - lo, spec.K), dtype=np.uint8)
    x = np.empty((hi - lo, spec.N), dtype=np.uint8)
    if noise is None:
        noise = np.empty((hi - lo, spec.N))
    failed = lib.frame_chunk(
        hi - lo, spec.N, spec.K, L, seed.ctypes.data, len(seed), lo, rolemap.role.ctypes.data,
        msgs.ctypes.data, x.ctypes.data, None if config.noiseless else noise.ctypes.data,
    )
    if failed:
        raise MemoryError("cannot allocate the compiled frame chunk's scratch buffer")
    return msgs, x, noise


def frame_llrs(config: SimConfig, x: np.ndarray, noise: np.ndarray, snr_db: float, out: np.ndarray) -> np.ndarray:
    """Channel LLRs (B, N) at snr_db of a chunk's codeword bits x over its
    unit normals, as `chunk_frames` made them: 2 * (1 - 2x + sigma * noise)
    / sigma^2 in numpy's order, or +-LLR_MAX for a noiseless config.

    The compiled frame chunk writes them into `out`, a C-contiguous (B, N)
    float64 array that may be `noise` itself; the numpy chain
    `modulate_bpsk` -> `channel_llrs`, where no library loads, returns a
    new array.
    """
    sigma = 0.0 if config.noiseless else ebn0_to_sigma(snr_db, config.spec.rate)
    lib = treepass.load_frames()
    if lib is None:
        sym = modulate_bpsk(x)
        if config.noiseless:
            return channel_llrs(sym, 0.0, noiseless=True)
        return channel_llrs(sym + sigma * noise, sigma)
    lib.frame_llrs(x.size, x.ctypes.data, noise.ctypes.data, sigma, LLR_MAX, out.ctypes.data)
    return out


def _errors(decoder, iterations: int, llr: np.ndarray, msgs: np.ndarray) -> list[tuple[int, int]]:
    """Per-iteration (frame errors, bit errors) of one decisions-only decode
    of llr against msgs; the decode's result is freed on return."""
    per_iter = []
    for bits in decoder.decode(llr, iterations, soft=False).iteration_info_bits:
        errs = bits != msgs
        per_iter.append((int(errs.any(axis=1).sum()), int(errs.sum())))
    return per_iter


def _chunk_task(config: SimConfig, rolemap: RoleMap, L: int, cells, live: list, lo: int, hi: int):
    """Counters of frames [lo, hi) of the code (rolemap, L) for each
    (decoder config, decoder, SNR) cell in `cells` that `live[0]` still
    names when the task starts: (frames, {cell index: (per-iteration
    (ferr, berr), seconds)}).

    The frames are made once. Each SNR point's LLRs go into one spare
    buffer, the last point's in place over the normals, and every live
    decoder at that point decodes them, the decisions only; each result is
    dropped before the next decode. A cell's seconds are its decode and
    count time plus an equal share of the frame and LLR time.
    """
    t0 = time.perf_counter()
    by_snr: dict[float, list[int]] = {}
    for c in live[0]:
        by_snr.setdefault(cells[c][2], []).append(c)
    # The normals and the spare buffer are one allocation. glibc raises its
    # mmap threshold to the largest block freed, and trims the heap once
    # twice that lies free at its top; the chunk's other arrays stay below
    # the block's size, so the heap is reused from chunk to chunk, not
    # trimmed and faulted in again (two blocks took 2000 page faults per
    # N=64 sweep of 40,000 frames).
    planes = np.empty((min(len(by_snr), 2), hi - lo, config.spec.N))
    msgs, x, noise = chunk_frames(config, rolemap, L, lo, hi, planes[0])
    spare = planes[-1]
    shared = time.perf_counter() - t0
    counts = {}
    for j, (snr_db, group) in enumerate(by_snr.items()):
        t0 = time.perf_counter()
        llr = frame_llrs(config, x, noise, snr_db, noise if j == len(by_snr) - 1 else spare)
        shared += time.perf_counter() - t0
        for c in group:
            t0 = time.perf_counter()
            dec, decoder, _ = cells[c]
            counts[c] = _errors(decoder, dec.iterations, llr, msgs), time.perf_counter() - t0
    share = shared / len(counts)
    return hi - lo, {c: (per_iter, secs + share) for c, (per_iter, secs) in counts.items()}


def _chunk_results(config: SimConfig, task):
    """Yield `task(lo, hi)` over the chunks in frame order, fanned out over a thread pool.

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
            yield task(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=config.workers) as ex:
        pending: deque = deque()
        try:
            for lo, hi in bounds:
                if len(pending) > config.workers:
                    yield pending.popleft().result()
                pending.append(ex.submit(task, lo, hi))
            while pending:
                yield pending.popleft().result()
        finally:
            for fut in pending:
                fut.cancel()


def _run_cells(config: SimConfig, decoders: Sequence[DecoderConfig], snr_points: Sequence[float]) -> list[CellStats]:
    """Simulate the (decoder, SNR) cells of each decoder at each SNR point
    over the same frames, in lockstep by chunk index, each until max_frames
    or min_frame_errors; their stats decoder by decoder, then by SNR point,
    then by iteration.

    The code and each decoder are built once, before any chunk runs, and
    the chunk threads share them: a decoder keeps no per-decode state.

    Each cell's stopping rule looks at its final iteration's cumulative
    frame errors at chunk boundaries in frame order, so the set of frames
    it counts is a pure function of the config. A stopped cell leaves
    `live`, which the tasks read when they start; a task that started
    before the stop still decodes it, and that result goes uncounted.
    """
    rolemap, L = build_code(config.spec)
    built = [(dec, make_decoder(rolemap, L, dec)) for dec in decoders]
    cells = [(dec, decoder, snr_db) for dec, decoder in built for snr_db in snr_points]
    live = [tuple(range(len(cells)))]  # one tuple, replaced whole, so a task reads it in one step
    frames = [0] * len(cells)
    errors = [np.zeros((dec.iterations, 2), dtype=np.int64) for dec, _, _ in cells]  # per iteration: frame, bit
    seconds = [0.0] * len(cells)
    task = partial(_chunk_task, config, rolemap, L, cells, live)
    with closing(_chunk_results(config, task)) as chunks:
        for n, counts in chunks:
            for c in live[0]:
                per_iter, secs = counts[c]
                if len(per_iter) != len(errors[c]):
                    raise RuntimeError("decoder reported an unexpected iteration count")
                frames[c] += n
                errors[c] += per_iter
                seconds[c] += secs
            live[0] = tuple(c for c in live[0] if errors[c][-1, 0] < config.min_frame_errors)
            if not live[0]:
                break
    return [
        CellStats(
            decoder=dec.kind,
            snr_db=snr_db,
            iteration=t + 1,
            frames=frames[c],
            frame_errors=int(errors[c][t, 0]),
            bit_errors=int(errors[c][t, 1]),
            info_bits_total=frames[c] * config.spec.K,
            seconds=seconds[c],
        )
        for c, (dec, _, snr_db) in enumerate(cells)
        for t in range(dec.iterations)
    ]


def run_cell(config: SimConfig, snr_db: float) -> list[CellStats]:
    """Simulate config.decoder at one SNR point until max_frames or
    min_frame_errors: the one-cell case of `sweep`."""
    return _run_cells(config, (config.decoder,), (snr_db,))


def sweep(config: SimConfig, decoders: Sequence[DecoderConfig] | None = None) -> SimResult:
    """Every (decoder, SNR point) cell of config, each decoder in `decoders`
    (config.decoder alone by default) at each of config.snr_points, run in
    lockstep over one pass of the frames; the cells come decoder by decoder,
    then by SNR point, then by iteration, each as `run_cell` gives it."""
    decoders = (config.decoder,) if decoders is None else decoders
    return SimResult(config=config, cells=_run_cells(config, decoders, config.snr_points))
