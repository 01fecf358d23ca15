"""Brute-force reference forms the tests check the package against.

`f_op` is the scalar min-sum box-plus, `f_reduce` its fold along an
array axis, `hard_output` the info-bit decision rule, `direct_precode`
and `dense_transform` O(N*|I|) and O(N^2) forms of the encoder's two
stages, `transform_matrix` the generator matrix G = F^{tensor n}, and
`structure_leaf_classes` the decoder leaf classes read off the chain
structure's checked and checking sets.
"""

from __future__ import annotations

import numpy as np

from pcpolar.construction import LEAF_CHECKED, LEAF_FROZEN, LEAF_PC, LEAF_UNCHECKED, PcStructure, RoleMap
from pcpolar.encoder import _as_batch, _check_info_support


def f_op(*values: float) -> float:
    """Min-sum box-plus: sign product (zero counts positive), min magnitude.

    Associative and commutative with identity +inf; f(+inf, x) = x.
    """
    if not values:
        raise ValueError("f_op needs at least one argument")
    sign = 1.0
    mag = np.inf
    for v in values:
        if v < 0:
            sign = -sign
        mag = min(mag, abs(v))
    return sign * mag


def f_reduce(cols: np.ndarray, axis: int = -1) -> np.ndarray:
    """f folded along `axis` (the other axes reduce independently)."""
    neg = (cols < 0).sum(axis=axis) & 1
    mag = np.abs(cols).min(axis=axis)
    return np.where(neg.astype(bool), -mag, mag)


def hard_output(leaf_posteriors, rolemap: RoleMap) -> np.ndarray:
    """Hard decisions at the info positions: 1 iff posterior < 0, ties to 0."""
    post = np.asarray(leaf_posteriors, dtype=np.float64)
    return (post[..., rolemap.info_positions] < 0).astype(np.uint8)


def direct_precode(s, pcs: PcStructure):
    """Oracle pre-coder: q[u] = XOR of s over I(u) at each PC index u."""
    s2, single = _as_batch(s)
    _check_info_support(s2, list(pcs.checked_info + pcs.unchecked_info))
    q = s2.copy()
    for u, iu in pcs.checked_sets.items():
        if iu:
            q[:, u] = np.bitwise_xor.reduce(s2[:, list(iu)], axis=1)
        else:
            q[:, u] = 0
    return q[0] if single else q


def structure_leaf_classes(rolemap: RoleMap, pcs: PcStructure) -> np.ndarray:
    """The leaf class (LEAF_*) of every index from derive_pc_structure's
    output: a PC bit with an empty I(u) is frozen, an info bit with a
    non-empty P(u) is checked."""
    kind = np.full(rolemap.N, LEAF_FROZEN, dtype=np.int8)
    kind[rolemap.info_positions] = LEAF_UNCHECKED
    if pcs.checked_info:
        kind[np.array(pcs.checked_info)] = LEAF_CHECKED
    for u, iu in pcs.checked_sets.items():
        kind[u] = LEAF_PC if iu else LEAF_FROZEN
    return kind


def dense_transform(q):
    """Oracle transform: explicit matrix product with G = F^{tensor n}.

    The product runs in float64 (exact: row sums never exceed N << 2^53)
    so the N^2 matmul stays on the BLAS path.
    """
    q2, single = _as_batch(q)
    N = q2.shape[1]
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {N}")
    x = (q2.astype(np.float64) @ transform_matrix(N).astype(np.float64)) % 2
    x = x.astype(np.uint8)
    return x[0] if single else x


def transform_matrix(N: int) -> np.ndarray:
    """G = F^{tensor n} with F = [[1, 0], [1, 1]], built by Kronecker powers."""
    G = np.array([[1]], dtype=np.int64)
    F = np.array([[1, 0], [1, 1]], dtype=np.int64)
    while G.shape[0] < N:
        G = np.kron(G, F)
    return G
