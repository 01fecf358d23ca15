"""Code construction for parity-check polar codes.

Builds the polarization-weight reliability sequence and assigns frozen /
information / parity-check roles for the supported schemes (none, fc, mc,
nr). A code is its role map and its register length L, which the encoder
and the decoders read; `pcpolar construct` also reports the chain structure
derived from the two.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

# Roles of a leaf position.
FROZEN = 0
INFO = 1
PC = 2
ROLE_NAMES = ("frozen", "info", "pc")

# Decoder leaf classes, and their names in chain_groups.
LEAF_FROZEN = 0
LEAF_PC = 1
LEAF_CHECKED = 2
LEAF_UNCHECKED = 3
LEAF_GROUPS = ("F", "P", "I_checked", "I_unchecked")

SCHEMES = ("none", "fc", "mc", "nr")

# Exponent base of the beta-expansion: beta = 2**PW_BETA_EXPONENT.
PW_BETA_EXPONENT = 0.25


N_MAX = 2**16  # 5G NR uses N <= 1024; pw_reliability's (N, log2 N) matrix is 3.2 GB at 2**24


def check_code_length(N: int) -> int:
    """log2 N for a power of two N from 4 to N_MAX; ValueError otherwise."""
    if not 4 <= N <= N_MAX or (N & (N - 1)) != 0:
        raise ValueError(f"N must be a power of two from 4 to {N_MAX}, got {N}")
    return N.bit_length() - 1


@dataclass(frozen=True)
class CodeSpec:
    """Static description of one parity-check polar code instance.

    Parameters
    ----------
    N : int
        Mother code length, a power of two from 4 to N_MAX (2**16).
    K : int
        Number of information bits, 0 < K <= N.
    scheme : str
        PC placement scheme: "none", "fc", "mc" or "nr".
    A : float, optional
        PC-density coefficient; used to derive the register length when
        `L` is not given explicitly.
    L : int, optional
        Cyclic shift register length. Overrides the A-derived value.
    mc_weights : tuple of int
        Row-weight multipliers for the mc scheme: (1,) selects rows of
        weight w_min, (1, 2) additionally selects 2*w_min, where w_min is
        the minimum row weight over the information set.
    nr_npc : int
        Total number of PC bits for the nr scheme.
    nr_npc_wm : int
        Number of nr PC bits placed by row weight (the rest go on the
        least reliable candidate positions).
    """

    N: int
    K: int
    scheme: str = "none"
    A: float | None = None
    L: int | None = None
    mc_weights: tuple[int, ...] = (1,)
    nr_npc: int = 3
    nr_npc_wm: int = 1

    def __post_init__(self):
        check_code_length(self.N)
        # K == N (no frozen bits) is a legal degenerate rate-1 code.
        if not 0 < self.K <= self.N:
            raise ValueError(f"K must satisfy 0 < K <= N, got K={self.K}, N={self.N}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.L is not None and self.L < 1:
            raise ValueError(f"register length L must be >= 1, got {self.L}")
        if self.L is None and self.scheme != "none" and self.A is None:
            raise ValueError(f"scheme {self.scheme!r} needs an explicit L or a coefficient A")
        object.__setattr__(self, "mc_weights", tuple(self.mc_weights))  # a list is unhashable
        if self.mc_weights not in ((1,), (1, 2)):
            raise ValueError(f"mc_weights must be (1,) or (1, 2), got {self.mc_weights}")
        if self.nr_npc < 0 or self.nr_npc_wm < 0:
            raise ValueError("nr_npc and nr_npc_wm must be non-negative")
        if self.scheme == "nr":
            if self.nr_npc_wm > self.nr_npc:
                raise ValueError(
                    f"nr_npc_wm ({self.nr_npc_wm}) cannot exceed nr_npc ({self.nr_npc})"
                )
            if self.K + self.nr_npc > self.N:
                raise ValueError(
                    f"K + nr_npc = {self.K + self.nr_npc} exceeds N = {self.N}"
                )

    @property
    def n(self) -> int:
        return self.N.bit_length() - 1

    @property
    def rate(self) -> float:
        return self.K / self.N

    @property
    def register_length(self) -> int:
        """Effective L: the explicit value if given, else derived from A."""
        if self.L is not None:
            return self.L
        if self.A is None:
            return 1
        return coefficient_to_register_length(self.N, self.A)


@dataclass(frozen=True)
class ReliabilitySequence:
    """Per-index polarization weights and the induced reliability order.

    `order` is a permutation of 0..N-1, least reliable first; ties in
    weight are broken by ascending index so construction is reproducible.
    """

    order: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class RoleMap:
    """Role (frozen / info / pc) of every leaf position."""

    role: np.ndarray

    @property
    def N(self) -> int:
        return len(self.role)

    @property
    def K(self) -> int:
        return int(np.count_nonzero(self.role == INFO))

    @property
    def info_positions(self) -> np.ndarray:
        return np.flatnonzero(self.role == INFO)

    @property
    def frozen_positions(self) -> np.ndarray:
        return np.flatnonzero(self.role == FROZEN)

    @property
    def pc_positions(self) -> np.ndarray:
        return np.flatnonzero(self.role == PC)


@dataclass(frozen=True)
class PcStructure:
    """Parity-check chain structure derived from a role map.

    chains[r] lists the info/PC leaf indices congruent to r mod L.
    checked_sets maps each PC index u to I(u), the ordered info indices
    it checks (possibly empty). checking_sets maps each checked info
    index u to P(u), the PC indices whose constraints include u.
    """

    L: int
    chains: tuple[tuple[int, ...], ...]
    checked_sets: dict[int, tuple[int, ...]]
    checking_sets: dict[int, tuple[int, ...]]
    checked_info: tuple[int, ...] = field(default=())
    unchecked_info: tuple[int, ...] = field(default=())


def pw_reliability(N: int) -> ReliabilitySequence:
    """Polarization-weight reliability sequence of length N.

    The weight of index i with binary expansion i = sum_j b_j 2^j is
    sum_j b_j * 2^(j/4). The order sorts ascending by weight, ties by
    ascending index, so the K most reliable indices are order[-K:].
    """
    n = check_code_length(N)
    beta = 2.0 ** PW_BETA_EXPONENT
    i = np.arange(N)
    bits = (i[:, None] >> np.arange(n)[None, :]) & 1
    weight = bits @ (beta ** np.arange(n))
    order = np.lexsort((i, weight))
    return ReliabilitySequence(order=order, weight=weight)


def row_weight(i: int) -> int:
    """Hamming weight of row i of the polar transform matrix: 2^popcount(i)."""
    if i < 0:
        raise ValueError(f"leaf index must be non-negative, got {i}")
    return 1 << bin(i).count("1")


def coefficient_to_register_length(N: int, A: float) -> int:
    """Map the PC-density coefficient A to a register length.

    Returns the smallest prime >= A * sqrt(N). Calibrated on the single
    known data point (N=64, A=0.5 -> L=5); callers may always override L
    explicitly in CodeSpec. A must lie in (0, sqrt(N)]: beyond that L
    would exceed N, where every PC bit is frozen anyway. A * sqrt(N) is
    then at most N, so the prime search ends below 2N.
    """
    check_code_length(N)
    if not 0 < A <= np.sqrt(N):
        raise ValueError(f"coefficient A must lie in (0, sqrt(N)] = (0, {np.sqrt(N):g}], got {A}")
    return _next_prime(A * np.sqrt(N))


def _next_prime(x: float) -> int:
    c = max(2, int(np.ceil(x)))
    while not _is_prime(c):
        c += 1
    return c


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def build_rolemap(spec: CodeSpec) -> RoleMap:
    """Assign frozen/info/PC roles per the spec's scheme.

    All schemes place information on the most reliable positions; they
    differ in how the complement splits into frozen and PC bits. The nr
    scheme carves its PC bits out of the K + nr_npc most reliable
    candidates, so its info set may differ from the other schemes'.
    """
    N, K = spec.N, spec.K
    rel = pw_reliability(N)
    order = rel.order
    role = np.full(N, FROZEN, dtype=np.int8)

    if spec.scheme == "nr":
        npc, npc_wm = spec.nr_npc, spec.nr_npc_wm
        cand = order[N - (K + npc):]  # ascending reliability
        pc = list(cand[: npc - npc_wm])  # least reliable candidates
        remainder = list(cand[npc - npc_wm:])
        if npc_wm > 0:
            # minimum row weight first, ties by highest reliability
            rank = {int(idx): r for r, idx in enumerate(order)}
            by_weight = sorted(remainder, key=lambda u: (row_weight(int(u)), -rank[int(u)]))
            wm_picks = by_weight[:npc_wm]
            pc.extend(wm_picks)
            remainder = [u for u in remainder if u not in set(int(v) for v in wm_picks)]
        role[np.array(remainder, dtype=int)] = INFO
        if pc:
            role[np.array(pc, dtype=int)] = PC
        return RoleMap(role=role)

    info = order[N - K:]
    role[info] = INFO
    if spec.scheme == "fc":
        role[role != INFO] = PC
    elif spec.scheme == "mc":
        w_min = min(row_weight(int(i)) for i in info)
        selected = {w_min * m for m in spec.mc_weights}
        for i in np.flatnonzero(role != INFO):
            if row_weight(int(i)) in selected:
                role[i] = PC
    return RoleMap(role=role)


def check_register_length(L: int) -> None:
    """Raise TypeError unless L is an integer, and ValueError if it is below 1."""
    if operator.index(L) < 1:
        raise ValueError(f"register length L must be >= 1, got {L}")


def derive_pc_structure(rolemap: RoleMap, L: int) -> PcStructure:
    """Derive chains, checked sets I(u) and checking sets P(u).

    Chain membership is index mod L over the info and PC positions.
    I(u) collects the info indices j < u with (u - j) % L == 0; an empty
    I(u) is legal and makes the PC bit semantically frozen.
    """
    check_register_length(L)
    role = rolemap.role.tolist()
    seen_info: list[list[int]] = [[] for _ in range(L)]
    checked_sets: dict[int, tuple[int, ...]] = {}
    checking_sets: dict[int, list[int]] = {}
    for i, r in enumerate(role):
        if r == INFO:
            seen_info[i % L].append(i)
        elif r == PC:
            checked_sets[i] = tuple(seen_info[i % L])
            for j in checked_sets[i]:
                checking_sets.setdefault(j, []).append(i)
    return PcStructure(
        L=L,
        chains=tuple(tuple(i for i in range(r, len(role), L) if role[i] != FROZEN) for r in range(L)),
        checked_sets=checked_sets,
        checking_sets={j: tuple(pu) for j, pu in checking_sets.items()},
        checked_info=tuple(sorted(checking_sets)),
        unchecked_info=tuple(j for j in rolemap.info_positions.tolist() if j not in checking_sets),
    )


def build_code(spec: CodeSpec) -> tuple[RoleMap, int]:
    """The code as the encoder and the decoders read it: its role map and
    its register length L."""
    return build_rolemap(spec), spec.register_length


def classify_leaves(rolemap: RoleMap, L: int) -> np.ndarray:
    """The decoder leaf class (LEAF_*) of every index: a PC leaf is LEAF_PC if
    an info leaf precedes it in its chain (a non-empty I(u)), else frozen,
    which it acts as; an info leaf is LEAF_CHECKED if a PC leaf follows it."""
    check_register_length(L)
    N = rolemap.N
    # padded to a multiple of L, the (-1, L) view holds chain r in column r
    role = np.pad(rolemap.role, (0, -N % L), constant_values=FROZEN).reshape(-1, L)
    info, pc = role == INFO, role == PC
    info_before = np.cumsum(info, axis=0) > 0
    pc_after = np.cumsum(pc[::-1], axis=0)[::-1] > 0
    kind = np.select([pc & info_before, info & pc_after, info], [LEAF_PC, LEAF_CHECKED, LEAF_UNCHECKED], LEAF_FROZEN)
    return kind.astype(np.int8).ravel()[:N]


def chain_groups(rolemap: RoleMap, L: int) -> list[dict[str, list[int]]]:
    """classify_leaves per chain: for each residue r mod L, its indices in
    ascending order under their LEAF_GROUPS name."""
    kind = classify_leaves(rolemap, L).tolist()
    return [{g: [i for i in range(r, len(kind), L) if LEAF_GROUPS[kind[i]] == g] for g in LEAF_GROUPS} for r in range(L)]


def check_invariants(spec: CodeSpec, rolemap: RoleMap, pcs: PcStructure) -> None:
    """Exhaustively assert the construction invariants; raises on violation."""
    role = rolemap.role
    if rolemap.K != spec.K:
        raise AssertionError(f"info count {rolemap.K} != K {spec.K}")
    if spec.scheme == "none" and len(rolemap.pc_positions) != 0:
        raise AssertionError("scheme none must have an empty PC set")
    for u, iu in pcs.checked_sets.items():
        if role[u] != PC:
            raise AssertionError(f"checked-set key {u} is not a PC position")
        for j in iu:
            if not (j < u and (u - j) % pcs.L == 0 and role[j] == INFO):
                raise AssertionError(f"invalid member {j} of I({u})")
    for u, pu in pcs.checking_sets.items():
        for up in pu:
            if u not in pcs.checked_sets[up]:
                raise AssertionError(f"duality violated for info {u}, pc {up}")
    for up, iu in pcs.checked_sets.items():
        for j in iu:
            if up not in pcs.checking_sets[j]:
                raise AssertionError(f"duality violated for pc {up}, info {j}")
    members = sorted(i for c in pcs.chains for i in c)
    expected = sorted(
        int(i) for i in np.flatnonzero((role == INFO) | (role == PC))
    )
    if members != expected:
        raise AssertionError("chains must partition the info and PC positions")
