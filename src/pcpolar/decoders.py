"""SC, SCAN, PC-SCAN and CSR-SCAN decoders over the shared polar tree: all
four are one engine, _ScanFamilyDecoder, built with other arguments. SC is
that engine run for one sequential pass with hard feedback at its leaves.

All message passing runs in min-sum LLR arithmetic with a genuine IEEE
+inf for known-zero feedback: f(+inf, x) = x exactly, which is what makes
the PC kernel's running chain register bitwise-equal to f over the
checked set. Beta messages are finite or +inf, so as long as the channel
LLRs are finite no inf - inf can arise anywhere in the tree. Every decoder
enforces that contract on its input: NaN LLRs raise ValueError, and
magnitudes above LLR_MAX (infinities included) are clamped to it on a
copy, leaving the caller's array as it was. Inputs within +-LLR_MAX (the
channel's own saturation value) pass through unchanged.

Decoders accept a single frame of shape (N,) or a batch (B, N); every
array in the result mirrors the input's batch shape. A decoder instance
owns its buffers and is single-threaded; independent instances may run
concurrently.

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
scratch buffers laid out as above and kept in cache across the passes, so
its scratch memory does not grow with the batch; it writes the decisions,
leaf posteriors and coded extrinsics into arrays numpy allocates. The
first decoder built in a process builds the library with gcc
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
from dataclasses import dataclass, field

import numpy as np

from . import treepass
from .channel import LLR_MAX
from .construction import PC, PcStructure, RoleMap, classify_leaves, derive_pc_structure
from .construction import LEAF_CHECKED, LEAF_FROZEN, LEAF_PC, LEAF_UNCHECKED

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
    damping: DampingConfig = field(default_factory=DampingConfig)
    schedule: str = SEQUENTIAL

    def __post_init__(self):
        if self.kind not in DECODER_KINDS:
            raise ValueError(f"unknown decoder {self.kind!r}, expected one of {DECODER_KINDS}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")

    @property
    def iterations(self) -> int:
        """Passes the decoder runs, the t_max its decode call takes: SC makes one."""
        return 1 if self.kind == "sc" else self.t_max


@dataclass
class DecodeResult:
    """Decoder output: hard info bits plus the soft leaf/coded LLRs.

    iteration_info_bits holds the hard decisions snapshot after each
    iteration (a single snapshot for SC), so one decode pass yields the
    per-iteration statistics of a simulation cell.
    """

    info_bits: np.ndarray
    leaf_posteriors: np.ndarray
    coded_extrinsics: np.ndarray
    coded_posteriors: np.ndarray
    iterations_run: int
    iteration_info_bits: tuple[np.ndarray, ...] = ()


def _shaped_result(snapshots, leaf_posteriors, coded_extrinsics, coded_posteriors, single) -> DecodeResult:
    """A DecodeResult from (B, ...) arrays and per-pass decisions, taking
    row 0 of each when the input was a single frame."""
    soft = (leaf_posteriors, coded_extrinsics, coded_posteriors)
    if single:
        snapshots = [s[0] for s in snapshots]
        soft = tuple(a[0] for a in soft)
    return DecodeResult(
        snapshots[-1], *soft, iterations_run=len(snapshots), iteration_info_bits=tuple(snapshots)
    )


def _as_llr_batch(llrs, N: int) -> tuple[np.ndarray, bool]:
    """The input as a clamped, C-contiguous (B, N) copy, plus whether it was one frame."""
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
    if np.isnan(a).any():
        raise ValueError("LLRs must not be NaN")
    return np.ascontiguousarray(np.clip(a, -LLR_MAX, LLR_MAX)), single


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
      visited earlier in the pass, and f is exact. That needs `pcs` to be
      derive_pc_structure(rolemap, pcs.L); any other raises ValueError;
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
    pass through `_traverse` over the whole batch (`engine` "numpy"); the
    per-decode buffers live only as long as a decode call.
    """

    def __init__(
        self, rolemap: RoleMap, pcs: PcStructure, damping: DampingConfig, schedule: str, hard: bool = False
    ):
        if schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")
        if pcs != derive_pc_structure(rolemap, pcs.L):
            raise ValueError("pcs is not the chain structure of this role map (derive_pc_structure)")
        self.rolemap = rolemap
        self.damping = damping
        self.schedule = schedule
        self.N = rolemap.N
        self.n = self.N.bit_length() - 1
        self.L = pcs.L
        self._info_pos = np.ascontiguousarray(rolemap.info_positions, dtype=np.int64)
        self._sequential = schedule == SEQUENTIAL
        self._hard = hard
        self._kind = classify_leaves(rolemap, pcs)
        # _rate0[s, j], j < N >> s: the level-s node covering leaves [j 2^s, (j+1) 2^s)
        frozen = self._kind == LEAF_FROZEN
        self._rate0 = np.zeros((self.n + 1, self.N), dtype=np.uint8)
        for s in range(self.n + 1):
            self._rate0[s, : self.N >> s] = frozen.reshape(-1, 1 << s).all(axis=1)
        self._lib = treepass.load()
        self.engine = "numpy" if self._lib is None else "c"

    def decode(self, llrs, t_max: int = 1) -> DecodeResult:
        if t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {t_max}")
        root, single = _as_llr_batch(llrs, self.N)
        B = root.shape[0]
        lam_p = np.array([self.damping.lambda_p_at(t) for t in range(t_max)], dtype=np.float64)
        lam_i = np.array([self.damping.lambda_i_at(t) for t in range(t_max)], dtype=np.float64)
        if self._lib is not None:
            K = len(self._info_pos)
            decisions = np.empty((t_max, B, K), dtype=np.uint8)
            leaf_post = np.empty((B, self.N))
            # SC's coded extrinsics are all zero, and the pass does not write them
            extr = np.zeros((B, self.N)) if self._hard else np.empty((B, self.N))
            failed = self._lib.scan_decode(
                self.n, B, t_max, self._sequential, self._hard, root, self._rate0, self._kind, self.L,
                lam_p, lam_i, self._info_pos, K, decisions, leaf_post, extr,
            )
            if failed:
                raise MemoryError("cannot allocate the compiled tree pass's scratch buffers")
            return self._result(list(decisions), leaf_post, extr, root, single)
        self._alpha = np.zeros((self.n + 1, self.N, B))
        self._beta = np.zeros((self.n + 1, self.N, B))
        self._alpha[self.n] = root.T
        self._reg = np.empty((self.L, B))
        self._cache = np.zeros((self.N, B))
        self._tmp = np.empty((self.N // 2, B))
        snapshots = []
        for t in range(t_max):
            self._reg.fill(np.inf)
            self._lam_p, self._lam_i = lam_p[t], lam_i[t]
            self._traverse(self.n, 0)
            snapshots.append(self._hard_info())
        leaf_post = np.ascontiguousarray((self._alpha[0] + self._beta[0]).T)
        extr = np.zeros((B, self.N)) if self._hard else np.ascontiguousarray(self._beta[self.n].T)
        # the buffers are per decode; an idle decoder should not hold them
        self._alpha = self._beta = self._reg = self._cache = self._tmp = None
        return self._result(snapshots, leaf_post, extr, root, single)

    def _result(self, snapshots, leaf_post, extr, root, single) -> DecodeResult:
        if self._hard:  # SC's contract: the channel LLRs as coded posteriors
            return _shaped_result(snapshots, leaf_post, extr, root, single)
        return _shaped_result(snapshots, leaf_post, extr, root + extr, single)

    def _hard_info(self) -> np.ndarray:
        post = self._alpha[0][self._info_pos] + self._beta[0][self._info_pos]
        return np.ascontiguousarray((post < 0).T, dtype=np.uint8)

    def _traverse(self, s: int, base: int) -> None:
        end = base + (1 << s)
        if self._rate0[s, base >> s]:
            self._beta[s][base:end] = np.inf
            self._beta[0][base:end] = np.inf
            return
        if s == 0:
            self._leaf_visit(base)
            return
        mid = base + (1 << (s - 1))
        alpha, beta = self._alpha[s], self._beta[s]
        asub, bsub = self._alpha[s - 1], self._beta[s - 1]
        a_lo, a_hi = alpha[base:mid], alpha[mid:end]
        b_lo, b_hi = bsub[base:mid], bsub[mid:end]
        tmp = self._tmp[: mid - base]
        # alpha_l = f(a_lo, b_hi + a_hi); alpha_r = f(a_lo, b_lo) + a_hi
        f_pair(a_lo, np.add(b_hi, a_hi, out=tmp), out=asub[base:mid])
        if self._sequential:
            self._traverse(s - 1, base)
        f_pair(a_lo, b_lo, out=asub[mid:end])
        asub[mid:end] += a_hi
        if not self._sequential:
            self._traverse(s - 1, base)
        self._traverse(s - 1, mid)
        if self._hard and s == self.n:  # SC outputs no coded extrinsics: the root's beta goes unread
            return
        # beta_lo = f(b_lo, a_hi + b_hi); beta_hi = f(b_lo, a_lo) + b_hi
        f_pair(b_lo, np.add(a_hi, b_hi, out=tmp), out=beta[base:mid])
        f_pair(b_lo, a_lo, out=beta[mid:end])
        beta[mid:end] += b_hi

    def _leaf_visit(self, u: int) -> None:
        k = self._kind[u]
        alpha, out, reg = self._alpha[0][u], self._beta[0][u], self._reg[u % self.L]
        if k != LEAF_UNCHECKED:
            self._cache[u] = alpha
        if k == LEAF_PC:
            np.multiply(self._lam_p, reg, out=out)
            return
        if self._hard:  # SC: the decision as +-inf is the feedback, and joins reg
            out[:] = np.where(alpha < 0, -np.inf, np.inf)
            alpha = out
        else:
            out[:] = 0.0
        if k == LEAF_CHECKED and self._lam_i != 0:  # the chain walk, before u joins reg
            g = reg.copy()
            for v in range(u + self.L, self.N, self.L):
                if self._kind[v] == LEAF_UNCHECKED:
                    break
                if self._kind[v] == LEAF_CHECKED:
                    f_pair(g, self._cache[v], out=g)
                elif self._kind[v] == LEAF_PC:
                    out += self._lam_i * f_pair(g, self._cache[v])
        f_pair(reg, alpha, out=reg)


class PcScanDecoder(_ScanFamilyDecoder):
    """PC-SCAN: soft cancellation with damped parity-check feedback at the
    PC and checked info leaves (default damping: DampingConfig())."""

    def __init__(
        self,
        rolemap: RoleMap,
        pcs: PcStructure,
        damping: DampingConfig | None = None,
        schedule: str = SEQUENTIAL,
    ):
        super().__init__(rolemap, pcs, damping if damping is not None else DampingConfig(), schedule)


class ScanDecoder(_ScanFamilyDecoder):
    """Plain soft cancellation for codes without PC bits: the engine on a
    code with no PC leaves, where every leaf is frozen (feedback +inf) or
    unchecked info (feedback 0)."""

    def __init__(self, rolemap: RoleMap, schedule: str = SEQUENTIAL):
        if np.any(rolemap.role == PC):
            raise ValueError("code has PC bits; use the PC-SCAN decoder")
        super().__init__(rolemap, derive_pc_structure(rolemap, 1), DampingConfig(), schedule)


class CsrScanDecoder(_ScanFamilyDecoder):
    """CSR-SCAN: PC-SCAN with (lambda_p, lambda_i) = (1, 0). A PC leaf feeds
    back its chain register as is and every info leaf feeds back 0, which
    is what L cyclic shift registers compute in hardware."""

    def __init__(self, rolemap: RoleMap, pcs: PcStructure, schedule: str = SEQUENTIAL):
        super().__init__(rolemap, pcs, DampingConfig((1.0,), (0.0,)), schedule)


class ScDecoder(_ScanFamilyDecoder):
    """Min-sum successive cancellation with hard PC constraint tracking: the
    engine with hard leaves, one sequential pass and (lambda_p, lambda_i) =
    (1, 0). Frozen leaves decide 0, PC leaves replay the encoder's register
    parity over the already-decided info bits, info leaves take the sign
    decision. Leaf posteriors are the +-inf of those decisions; coded
    extrinsics are all zero and coded posteriors are the (clamped) LLRs.
    """

    def __init__(self, rolemap: RoleMap, pcs: PcStructure):
        super().__init__(rolemap, pcs, DampingConfig((1.0,), (0.0,)), SEQUENTIAL, hard=True)

    def decode(self, llrs, t_max: int = 1) -> DecodeResult:
        if t_max != 1:
            raise ValueError(f"SC decodes in one pass; t_max must be 1, got {t_max}")
        return super().decode(llrs)


def make_decoder(rolemap: RoleMap, pcs: PcStructure, dec: DecoderConfig):
    """The decoder of kind `dec.kind` for this code; call its
    decode(llrs, dec.iterations)."""
    build = {
        "sc": lambda: ScDecoder(rolemap, pcs),
        "scan": lambda: ScanDecoder(rolemap, dec.schedule),
        "pc-scan": lambda: PcScanDecoder(rolemap, pcs, dec.damping, dec.schedule),
        "csr-scan": lambda: CsrScanDecoder(rolemap, pcs, dec.schedule),
    }
    return build[dec.kind]()


def engine() -> str:
    """The engine decoders run on, as their `engine` attribute reads: "c"
    for the compiled tree pass, else "numpy", where it cannot be loaded."""
    return "numpy" if treepass.load() is None else "c"
