"""SC, SCAN, PC-SCAN and CSR-SCAN decoders over the shared polar tree: all
four are one engine, _ScanFamilyDecoder, built with other arguments. SC is
that engine run for one sequential pass with hard feedback at its leaves.

All message passing runs in min-sum LLR arithmetic with a genuine IEEE
+inf for known-zero feedback: f(+inf, x) = x exactly, which is what makes
the PC kernel's running chain register bitwise-equal to f over the
checked set. Beta messages are finite or +inf, so as long as the channel
LLRs are finite no inf - inf can arise anywhere in the tree. Every decoder
enforces that contract on its input: NaN LLRs raise ValueError, and
magnitudes above LLR_MAX (infinities included) are clamped to it, never
in the caller's array. Inputs within +-LLR_MAX (the channel's own
saturation value) pass through unchanged. The compiled pass does both
while it loads each frame block's LLRs into its scratch memory, and
returns the coded posteriors (clamped LLRs plus coded extrinsics) with
its other outputs, so around it a decode makes no numpy pass over the
batch; the numpy engine checks, clamps a copy and adds them itself.

Decoders accept a single frame of shape (N,) or a batch (B, N); every
array in the result mirrors the input's batch shape. A decoder is not
changed after it is built: every decode makes its own buffers, so one
instance may decode from several threads at once.

The engine stores its per-level alpha and beta messages (one (n+1, N, B)
array each), its leaf alpha cache and its chain registers frame-minor, as
(N, B) arrays per level ((L, B) for the registers): row i holds index i
of every frame, so the two halves of a tree node are contiguous row
blocks and every f runs in place over them. Subtrees whose leaves are
all frozen-kind (rate-0 nodes) are not descended into:
their leaves feed back +inf, and the beta update of two +inf children
over finite alphas is +inf again, so such a node always returns +inf. A
visit of one writes +inf into its beta rows at its own level (which the
parent reads) and at level 0 (which the leaf posteriors read); before
its first visit the node keeps beta 0, as an unpruned node would.

Each decode runs as one call into a compiled C tree pass (treepass.c's
one entry point, scan_decode: all passes, the traversal, rate-0 pruning,
both schedules, the leaf kernels, hard or soft, and the per-pass hard
decisions). It walks the frames in fixed-size blocks, each in its own
frame-minor scratch buffers, kept in cache across the passes, so its
scratch memory does not grow with the batch; they hold every beta level
but, between the leaf and root levels, only the alphas of the node being
visited's children (see treepass.c). It writes the decisions and one
(3, B, N) soft block (leaf posteriors, coded extrinsics, coded
posteriors; none with soft=False) into arrays numpy allocates; the
decoder hands it those, its own fixed arrays and each t_max's damping
(addresses read once) as bare addresses, so a call checks no array
flags. The first decoder built in a process builds the library with gcc
(-O3 -ffp-contract=off, no fast-math) into $XDG_CACHE_HOME/pcpolar or
~/.cache/pcpolar, keyed by a SHA-256 of source and flags, and loads it
through ctypes; see treepass.py. Where it cannot be built or loaded, the
decoders run the numpy engine below, with the layout above over the whole
batch; it stays the reference: the two are bitwise-equal, input for
input and for any block size, because the C code performs the same IEEE
operations in the same order on every frame. A decoder's `engine`
attribute reads "c" or "numpy", and `pcpolar decode` and `pcpolar
simulate` report it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import treepass
from .channel import LLR_MAX
from .construction import (
    LEAF_CHECKED, LEAF_FROZEN, LEAF_PC, LEAF_UNCHECKED, PC, RoleMap, check_code_length, check_register_length,
    classify_leaves,
)

SEQUENTIAL = "sequential"
SCHEDULES = (SEQUENTIAL, "literal")
DECODER_KINDS = ("sc", "scan", "pc-scan", "csr-scan")


def f_pair(a, b, out=None):
    """Elementwise two-input f over arrays, written into `out` if given.

    `out` may alias `a` or `b`. The magnitude m = min(|a|, |b|) gets its
    sign from copysign(m, +-0.5), which is bitwise -m where exactly one
    input is negative (zero counts positive) and m elsewhere.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    flip = np.not_equal(np.less(a, 0), np.less(b, 0))
    if out is None:
        out = np.empty(np.shape(flip))
    mag_b = np.abs(b)
    np.minimum(np.abs(a, out=out), mag_b, out=out)
    return np.copysign(out, np.subtract(0.5, flip), out=out)


@dataclass(frozen=True)
class DampingConfig:
    """Per-iteration damping schedules; the last entry repeats beyond its end."""

    lambda_p: tuple[float, ...] = (1.0,)
    lambda_i: tuple[float, ...] = (0.67,)

    def __post_init__(self):
        if not self.lambda_p or not self.lambda_i:
            raise ValueError("damping schedules must be non-empty")
        if not all(math.isfinite(x) and x >= 0 for x in (*self.lambda_p, *self.lambda_i)):
            raise ValueError("damping factors must be finite and non-negative")

    def lambda_p_at(self, t: int) -> float:
        return self.lambda_p[min(t, len(self.lambda_p) - 1)]

    def lambda_i_at(self, t: int) -> float:
        return self.lambda_i[min(t, len(self.lambda_i) - 1)]


@dataclass(frozen=True)
class DecoderConfig:
    """Which decoder make_decoder builds, and the passes and damping it runs with."""

    kind: str = "sc"
    t_max: int = 1
    lambda_p: tuple[float, ...] = DampingConfig.lambda_p
    lambda_i: tuple[float, ...] = DampingConfig.lambda_i
    schedule: str = SEQUENTIAL

    def __post_init__(self):
        for name in ("lambda_p", "lambda_i"):  # as lists they would make the config unhashable
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.kind not in DECODER_KINDS:
            raise ValueError(f"unknown decoder {self.kind!r}, expected one of {DECODER_KINDS}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        DampingConfig(self.lambda_p, self.lambda_i)  # checks the schedules
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")

    @property
    def damping(self) -> DampingConfig:
        """The schedules as the decoders take them."""
        return DampingConfig(self.lambda_p, self.lambda_i)

    @property
    def iterations(self) -> int:
        """Passes the decoder runs, the t_max its decode call takes: SC makes one."""
        return 1 if self.kind == "sc" else self.t_max


@dataclass
class DecodeResult:
    """Decoder output: hard info bits plus the soft leaf/coded LLRs.

    iteration_info_bits holds the hard decisions snapshot after each
    iteration (a single snapshot for SC), so one decode pass yields the
    per-iteration statistics of a simulation cell. The soft fields are
    C-contiguous planes of one block, so each keeps the others alive; all
    three are None from decode(..., soft=False)."""

    info_bits: np.ndarray
    leaf_posteriors: np.ndarray | None
    coded_extrinsics: np.ndarray | None
    coded_posteriors: np.ndarray | None
    iterations_run: int
    iteration_info_bits: tuple[np.ndarray, ...] = ()


def _shaped_result(snapshots, soft, single) -> DecodeResult:
    """A DecodeResult from per-pass (B, K) decisions and the (3, B, N) soft
    block (leaf posteriors, coded extrinsics, coded posteriors) or None,
    taking frame 0 of each when the input was a single frame."""
    if single:
        snapshots = [s[0] for s in snapshots]
    planes = (None,) * 3 if soft is None else soft[:, 0] if single else soft
    return DecodeResult(
        snapshots[-1], *planes, iterations_run=len(snapshots), iteration_info_bits=tuple(snapshots)
    )


def _as_llr_batch(llrs, N: int) -> tuple[np.ndarray, bool]:
    """The input as a C-contiguous float64 (B, N) array, a copy only where
    it is not one already, plus whether it was one frame."""
    a = np.asarray(llrs, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
        single = True
    elif a.ndim == 2:
        single = False
    else:
        raise ValueError(f"expected an LLR vector or batch, got shape {a.shape}")
    if a.shape[1] != N:
        raise ValueError(f"LLR length {a.shape[1]} != N {N}")
    return np.ascontiguousarray(a), single


class _ScanFamilyDecoder:
    """SCAN on the binary decoding tree with a parity-check tanner layer at
    its leaves; ScDecoder, ScanDecoder, PcScanDecoder and CsrScanDecoder
    only build it.

    The sequential schedule recomputes the right child's alpha after the
    left subtree has refreshed its beta; the literal schedule computes
    both child alphas on node entry from the pre-visit betas. Pruning
    leaves the leaf kernels the other leaves only, visited in index order.
    In each pass, with lambda_p and lambda_i read from `damping`:

    - an info leaf folds its alpha into chain register u % L (the L
      registers start each pass at +inf); an unchecked one feeds back 0;
    - a PC leaf feeds back lambda_p times its chain's register, which is
      bitwise f over I(u): I(u) is the chain's info prefix, all of it
      visited earlier in the pass, and f is exact. A PC leaf with an empty
      I(u) is a frozen leaf (classify_leaves);
    - a checked info leaf u feeds back 0.0 plus lambda_i * f over the set
      {v} + I(v) - {u} of each v in P(u), ascending (+0.0, the same bits,
      if lambda_i is 0). Before u joins its register it walks the chain
      v = u+L, u+2L, ... from g = that register: a checked info v sets g =
      f(g, cache[v]), a PC v adds lambda_i * f(g, cache[v]), an unchecked
      info v ends the walk. f's magnitude (a min) and sign (the parity of
      the negatives) do not depend on the order of a fold, so only a zero's
      sign can differ, which lambda_i * (+-0) added to a sum from +0.0 hides.

    With `hard`, an info leaf feeds back -inf where its alpha < 0 and +inf
    elsewhere (its decision) and folds that, not its alpha, into its
    register, so a PC leaf's register is +-inf with the parity of its
    chain's decided info bits. One sequential pass with (lambda_p,
    lambda_i) = (1, 0) is then SC: f(a, +-inf) = +-a, so alpha_r is SC's
    a_hi +- a_lo and the betas are its partial sums; only the sign of an
    internal zero can differ, which no output shows.

    Alphas are cached at PC and checked info leaves; one not yet visited
    in this pass holds its previous-pass alpha (zero in pass 1). Only the
    chain walk reads the cache, so the compiled decode skips it when
    lambda_i is 0 in every pass of the decode (never when it is 0 in some
    passes only: a later pass reads the alphas that earlier ones cached).
    A decode runs in one call into the compiled tree pass (`engine` "c"),
    block by block of frames in its own scratch memory, or else pass by
    pass through `_traverse` over the whole batch (`engine` "numpy"). Either
    way the buffers are the decode call's own, never the decoder's.
    """

    def __init__(
        self, rolemap: RoleMap, L: int, damping: DampingConfig, schedule: str, hard: bool = False
    ):
        if schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")
        self.n = check_code_length(rolemap.N)  # the N that CodeSpec takes
        self._kind = classify_leaves(rolemap, L)  # checks L
        self.rolemap = rolemap
        self.damping = damping
        self.schedule = schedule
        self.N = rolemap.N
        self.L = L
        self._info_pos = np.ascontiguousarray(rolemap.info_positions, dtype=np.int64)
        self._sequential = schedule == SEQUENTIAL
        self._hard = hard
        # _rate0[s, j], j < N >> s: the level-s node covering leaves [j 2^s, (j+1) 2^s)
        frozen = self._kind == LEAF_FROZEN
        self._rate0 = np.zeros((self.n + 1, self.N), dtype=np.uint8)
        for s in range(self.n + 1):
            self._rate0[s, : self.N >> s] = frozen.reshape(-1, 1 << s).all(axis=1)
        self._rate0[self.n, 0] &= not hard  # SC's coded extrinsics stay zero even with no info leaf
        self._lib = treepass.load()
        self.engine = "numpy" if self._lib is None else "c"
        # the compiled pass takes these fixed arrays by address, read once here
        self._addrs = tuple(a.ctypes.data for a in (self._rate0, self._kind, self._info_pos))
        self._lam = {}  # t_max -> its (2, t_max) damping (lambda_p row, lambda_i row) and that array's address

    def decode(self, llrs, t_max: int = 1, *, soft: bool = True) -> DecodeResult:
        """t_max passes; soft=False makes and writes no soft block (the soft
        fields are None), the decisions are bitwise the full decode's."""
        if t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {t_max}")
        root, single = _as_llr_batch(llrs, self.N)
        B = root.shape[0]
        lam = self._lam.get(t_max)
        if lam is None:  # one dict write, so threads that race here store equal arrays
            d = self.damping
            rows = np.array([[at(t) for t in range(t_max)] for at in (d.lambda_p_at, d.lambda_i_at)], dtype=np.float64)
            lam = self._lam[t_max] = rows, rows.ctypes.data
        lam, lam_addr = lam
        block = np.empty((3, B, self.N)) if soft else None  # leaf posteriors, coded extrinsics, coded posteriors
        if self._lib is not None:
            K = len(self._info_pos)
            decisions = np.empty((t_max, B, K), dtype=np.uint8)
            rate0, kind, info = self._addrs
            failed = self._lib.scan_decode(
                self.n, B, t_max, self._sequential, self._hard, root.ctypes.data, LLR_MAX, rate0, kind, self.L,
                lam_addr, info, K, decisions.ctypes.data, None if block is None else block.ctypes.data,
            )
            if failed == -2:
                raise ValueError("LLRs must not be NaN")
            if failed:
                raise MemoryError("cannot allocate the compiled tree pass's scratch buffers")
            return _shaped_result(list(decisions), block, single)
        if np.isnan(root).any():
            raise ValueError("LLRs must not be NaN")
        root = np.clip(root, -LLR_MAX, LLR_MAX)
        alpha = np.zeros((self.n + 1, self.N, B))
        beta = np.zeros((self.n + 1, self.N, B))
        alpha[self.n] = root.T
        reg = np.empty((self.L, B))
        cache = np.zeros((self.N, B))
        tmp = np.empty((self.N // 2, B))
        snapshots = []
        for t in range(t_max):
            reg.fill(np.inf)
            self._traverse((alpha, beta, tmp, reg, cache, lam[0, t], lam[1, t]), self.n, 0)
            snapshots.append(self._hard_info(alpha, beta))
        if soft:
            block[0] = (alpha[0] + beta[0]).T
            block[1] = beta[self.n].T  # SC's +0.0: its root's beta is never updated
            block[2] = root  # SC's coded posteriors: the clamped LLRs, -0.0 kept
            if not self._hard:
                block[2] += block[1]
        return _shaped_result(snapshots, block, single)

    def _hard_info(self, alpha, beta) -> np.ndarray:
        post = alpha[0][self._info_pos] + beta[0][self._info_pos]
        return np.ascontiguousarray((post < 0).T, dtype=np.uint8)

    def _traverse(self, work, s: int, base: int) -> None:
        """Visit the level-s node over leaves [base, base + 2^s); `work` is
        the decode's (alpha, beta, tmp, reg, cache) and the pass's
        (lambda_p, lambda_i)."""
        alphas, betas, tmps = work[:3]
        end = base + (1 << s)
        if self._rate0[s, base >> s]:
            betas[s][base:end] = np.inf
            betas[0][base:end] = np.inf
            return
        if s == 0:
            self._leaf_visit(work, base)
            return
        mid = base + (1 << (s - 1))
        alpha, beta = alphas[s], betas[s]
        asub, bsub = alphas[s - 1], betas[s - 1]
        a_lo, a_hi = alpha[base:mid], alpha[mid:end]
        b_lo, b_hi = bsub[base:mid], bsub[mid:end]
        tmp = tmps[: mid - base]
        # alpha_l = f(a_lo, b_hi + a_hi); alpha_r = f(a_lo, b_lo) + a_hi
        f_pair(a_lo, np.add(b_hi, a_hi, out=tmp), out=asub[base:mid])
        if self._sequential:
            self._traverse(work, s - 1, base)
        f_pair(a_lo, b_lo, out=asub[mid:end])
        asub[mid:end] += a_hi
        if not self._sequential:
            self._traverse(work, s - 1, base)
        self._traverse(work, s - 1, mid)
        if self._hard and s == self.n:  # SC outputs no coded extrinsics: the root's beta goes unread
            return
        # beta_lo = f(b_lo, a_hi + b_hi); beta_hi = f(b_lo, a_lo) + b_hi
        f_pair(b_lo, np.add(a_hi, b_hi, out=tmp), out=beta[base:mid])
        f_pair(b_lo, a_lo, out=beta[mid:end])
        beta[mid:end] += b_hi

    def _leaf_visit(self, work, u: int) -> None:
        alphas, betas, _, regs, cache, lam_p, lam_i = work
        k = self._kind[u]
        alpha, out, reg = alphas[0][u], betas[0][u], regs[u % self.L]
        if k != LEAF_UNCHECKED:
            cache[u] = alpha
        if k == LEAF_PC:
            np.multiply(lam_p, reg, out=out)
            return
        if self._hard:  # SC: the decision as +-inf is the feedback, and joins reg
            out[:] = np.where(alpha < 0, -np.inf, np.inf)
            alpha = out
        else:
            out[:] = 0.0
        if k == LEAF_CHECKED and lam_i != 0:  # the chain walk, before u joins reg
            g = reg.copy()
            for v in range(u + self.L, self.N, self.L):
                if self._kind[v] == LEAF_UNCHECKED:
                    break
                if self._kind[v] == LEAF_CHECKED:
                    f_pair(g, cache[v], out=g)
                elif self._kind[v] == LEAF_PC:
                    out += lam_i * f_pair(g, cache[v])
        f_pair(reg, alpha, out=reg)


class PcScanDecoder(_ScanFamilyDecoder):
    """PC-SCAN: soft cancellation with damped parity-check feedback at the
    PC and checked info leaves (default damping: DampingConfig())."""

    def __init__(
        self,
        rolemap: RoleMap,
        L: int,
        damping: DampingConfig | None = None,
        schedule: str = SEQUENTIAL,
    ):
        super().__init__(rolemap, L, damping if damping is not None else DampingConfig(), schedule)


class ScanDecoder(_ScanFamilyDecoder):
    """Plain soft cancellation for codes without PC bits: the engine on a
    code with no PC leaves, where every leaf is frozen (feedback +inf) or
    unchecked info (feedback 0)."""

    def __init__(self, rolemap: RoleMap, schedule: str = SEQUENTIAL):
        if np.any(rolemap.role == PC):
            raise ValueError("code has PC bits; use the PC-SCAN decoder")
        super().__init__(rolemap, 1, DampingConfig(), schedule)


class CsrScanDecoder(_ScanFamilyDecoder):
    """CSR-SCAN: PC-SCAN with (lambda_p, lambda_i) = (1, 0). A PC leaf feeds
    back its chain register as is and every info leaf feeds back 0, which
    is what L cyclic shift registers compute in hardware."""

    def __init__(self, rolemap: RoleMap, L: int, schedule: str = SEQUENTIAL):
        super().__init__(rolemap, L, DampingConfig((1.0,), (0.0,)), schedule)


class ScDecoder(_ScanFamilyDecoder):
    """Min-sum successive cancellation with hard PC constraint tracking: the
    engine with hard leaves, one sequential pass and (lambda_p, lambda_i) =
    (1, 0). Frozen leaves decide 0, PC leaves replay the encoder's register
    parity over the already-decided info bits, info leaves take the sign
    decision. Leaf posteriors are the +-inf of those decisions; coded
    extrinsics are all zero and coded posteriors are the (clamped) LLRs.
    """

    def __init__(self, rolemap: RoleMap, L: int):
        super().__init__(rolemap, L, DampingConfig((1.0,), (0.0,)), SEQUENTIAL, hard=True)

    def decode(self, llrs, t_max: int = 1, *, soft: bool = True) -> DecodeResult:
        if t_max != 1:
            raise ValueError(f"SC decodes in one pass; t_max must be 1, got {t_max}")
        return super().decode(llrs, soft=soft)


def make_decoder(rolemap: RoleMap, L: int, dec: DecoderConfig):
    """The decoder of kind `dec.kind` for the code (rolemap, L); call its
    decode(llrs, dec.iterations), with soft=False for the decisions only.
    L is checked for every kind, SCAN's too, which runs on one register."""
    check_register_length(L)
    build = {
        "sc": lambda: ScDecoder(rolemap, L),
        "scan": lambda: ScanDecoder(rolemap, dec.schedule),
        "pc-scan": lambda: PcScanDecoder(rolemap, L, dec.damping, dec.schedule),
        "csr-scan": lambda: CsrScanDecoder(rolemap, L, dec.schedule),
    }
    return build[dec.kind]()


def engine() -> str:
    """The engine decoders run on, as their `engine` attribute reads: "c"
    for the compiled tree pass, else "numpy", where it cannot be loaded."""
    return "numpy" if treepass.load() is None else "c"
