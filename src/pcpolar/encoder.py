"""Parity-check polar encoding.

The pipeline has two linear stages over GF(2): cyclic-shift-register PC
pre-coding (setting each PC bit to the running parity of the preceding
information bits in its chain) and the Kronecker polar transform in
natural bit order. The tests check both against brute-force forms in
tests/oracles.py.

All functions accept a single frame of shape (N,) or a batch (B, N) and
return the same shape.
"""

from __future__ import annotations

import numpy as np

from .construction import PC, CodeSpec, RoleMap, check_register_length


def _as_batch(bits) -> tuple[np.ndarray, bool]:
    a = np.asarray(bits, dtype=np.uint8)
    if a.ndim == 1:
        return a[None, :], True
    if a.ndim == 2:
        return a, False
    raise ValueError(f"expected a bit vector or batch, got shape {a.shape}")


def _check_info_support(s: np.ndarray, info_positions: np.ndarray) -> None:
    mask = np.ones(s.shape[1], dtype=bool)
    mask[info_positions] = False
    if np.any(s[:, mask]):
        raise ValueError("sequence carries nonzero bits outside information positions")


def csr_precode(s, rolemap: RoleMap, L: int):
    """PC pre-coding with cyclic shift registers of length L.

    Single pass over i = 0..N-1 with registers sigma initially zero: a PC
    position reads q[i] = sigma[i % L], then every position folds s[i]
    into sigma[i % L]. PC values never feed back into the registers.
    """
    check_register_length(L)
    s2, single = _as_batch(s)
    if s2.shape[1] != rolemap.N:
        raise ValueError(f"sequence length {s2.shape[1]} != N {rolemap.N}")
    _check_info_support(s2, rolemap.info_positions)
    role = rolemap.role
    q = s2.copy()
    sigma = np.zeros((s2.shape[0], L), dtype=np.uint8)
    for i in range(rolemap.N):
        r = i % L
        if role[i] == PC:
            q[:, i] = sigma[:, r]
        sigma[:, r] ^= s2[:, i]
    return q[0] if single else q


def polar_transform(q):
    """Kronecker polar transform q * F^{tensor n} mod 2, natural bit order.

    In-place butterfly over stages of span 1, 2, ..., N/2; no bit-reversal
    permutation anywhere. The transform is an involution over GF(2).
    """
    q2, single = _as_batch(q)
    B, N = q2.shape
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {N}")
    x = q2.copy()
    h = 1
    while h < N:
        x = x.reshape(B, N // (2 * h), 2, h)
        x[:, :, 0, :] ^= x[:, :, 1, :]
        x = x.reshape(B, N)
        h *= 2
    return x[0] if single else x


def encode(info_bits, spec: CodeSpec, rolemap: RoleMap, L: int):
    """Full encoder: scatter info bits, PC pre-code with L registers, polar transform.

    Information bits map to the info positions in ascending index order.
    """
    m, single = _as_batch(info_bits)
    if m.shape[1] != spec.K:
        raise ValueError(f"message length {m.shape[1]} != K {spec.K}")
    s = np.zeros((m.shape[0], spec.N), dtype=np.uint8)
    s[:, rolemap.info_positions] = m
    q = csr_precode(s, rolemap, L)
    x = polar_transform(q)
    return x[0] if single else x
