import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpolar.construction import FROZEN, INFO, PC, CodeSpec, RoleMap, build_code, derive_pc_structure
from pcpolar.encoder import csr_precode, encode, polar_transform

from oracles import dense_transform, direct_precode, transform_matrix


def small_pc_code():
    """N=8, L=2, info {3,5,6,7}, PC {4} (empty check set), frozen elsewhere."""
    role = np.full(8, FROZEN, dtype=np.int8)
    role[[3, 5, 6, 7]] = INFO
    role[4] = PC
    rm = RoleMap(role=role)
    return rm, derive_pc_structure(rm, 2)


def test_precode_all_zero_is_identity():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm, L = build_code(spec)
    pcs = derive_pc_structure(rm, L)
    s = np.zeros(64, dtype=np.uint8)
    assert not csr_precode(s, rm, L).any()
    assert not direct_precode(s, pcs).any()


def test_precode_empty_check_set_gives_zero():
    rm, pcs = small_pc_code()
    s = np.zeros(8, dtype=np.uint8)
    s[3] = 1
    q = csr_precode(s, rm, pcs.L)
    assert q[4] == 0  # I(4) is empty: no info index below 4 in its chain
    assert np.array_equal(q, direct_precode(s, pcs))


def test_precode_single_one_hits_exactly_its_checkers():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm, L = build_code(spec)
    pcs = derive_pc_structure(rm, L)
    s = np.zeros(64, dtype=np.uint8)
    s[15] = 1
    q = csr_precode(s, rm, L)
    for u, iu in pcs.checked_sets.items():
        assert q[u] == (1 if 15 in iu else 0)
    assert set(pcs.checking_sets[15]) == {int(u) for u in rm.pc_positions if q[u] == 1}
    assert np.array_equal(q, direct_precode(s, pcs))


def test_precode_rejects_bits_off_info_support():
    rm, pcs = small_pc_code()
    s = np.zeros(8, dtype=np.uint8)
    s[0] = 1
    with pytest.raises(ValueError):
        csr_precode(s, rm, pcs.L)
    with pytest.raises(ValueError):
        direct_precode(s, pcs)


@pytest.mark.parametrize(
    "spec",
    [
        CodeSpec(N=16, K=9, scheme="fc", L=3),
        CodeSpec(N=32, K=16, scheme="mc", L=5),
        CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5),
        CodeSpec(N=64, K=20, scheme="nr", L=5),
    ],
)
def test_precode_oracle_equivalence_randomized(spec):
    rm, L = build_code(spec)
    pcs = derive_pc_structure(rm, L)
    rng = np.random.default_rng(1234)
    s = np.zeros((500, spec.N), dtype=np.uint8)
    s[:, rm.info_positions] = rng.integers(0, 2, (500, spec.K), dtype=np.uint8)
    assert np.array_equal(csr_precode(s, rm, L), direct_precode(s, pcs))


def test_precode_oracle_equivalence_exhaustive_n8():
    rm, pcs = small_pc_code()
    K = len(rm.info_positions)
    for m in range(1 << K):
        s = np.zeros(8, dtype=np.uint8)
        bits = [(m >> j) & 1 for j in range(K)]
        s[rm.info_positions] = bits
        assert np.array_equal(csr_precode(s, rm, pcs.L), direct_precode(s, pcs))


def test_polar_transform_n2():
    assert np.array_equal(polar_transform(np.array([1, 0], dtype=np.uint8)), [1, 0])
    assert np.array_equal(polar_transform(np.array([0, 1], dtype=np.uint8)), [1, 1])


def test_polar_transform_all_zero():
    assert not polar_transform(np.zeros(16, dtype=np.uint8)).any()


def test_dense_transform_basis_rows():
    e0 = np.zeros(4, dtype=np.uint8)
    e0[0] = 1
    assert np.array_equal(dense_transform(e0), [1, 0, 0, 0])
    e3 = np.zeros(4, dtype=np.uint8)
    e3[3] = 1
    assert np.array_equal(dense_transform(e3), [1, 1, 1, 1])
    # row i of G equals the transform of basis vector e_i
    G = transform_matrix(8)
    for i in range(8):
        e = np.zeros(8, dtype=np.uint8)
        e[i] = 1
        assert np.array_equal(dense_transform(e), G[i] % 2)


@pytest.mark.parametrize("N", [4, 8])
def test_transform_oracle_equivalence_exhaustive(N):
    for m in range(1 << N):
        q = np.array([(m >> j) & 1 for j in range(N)], dtype=np.uint8)
        assert np.array_equal(polar_transform(q), dense_transform(q))


@pytest.mark.parametrize("N", [16, 64, 512])
def test_transform_oracle_equivalence_randomized(N):
    rng = np.random.default_rng(99)
    q = rng.integers(0, 2, (200, N), dtype=np.uint8)
    assert np.array_equal(polar_transform(q), dense_transform(q))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=9), seed=st.integers(min_value=0, max_value=2**31))
def test_transform_is_involution(n, seed):
    N = 1 << n
    q = np.random.default_rng(seed).integers(0, 2, N, dtype=np.uint8)
    assert np.array_equal(polar_transform(polar_transform(q)), q)


def test_transform_rejects_bad_length():
    with pytest.raises(ValueError):
        polar_transform(np.zeros(6, dtype=np.uint8))
    with pytest.raises(ValueError):
        dense_transform(np.zeros(12, dtype=np.uint8))


def test_encode_all_zero():
    spec = CodeSpec(N=32, K=16, scheme="fc", L=3)
    rm, L = build_code(spec)
    assert not encode(np.zeros(16, dtype=np.uint8), spec, rm, L).any()


def test_encode_rejects_wrong_length():
    spec = CodeSpec(N=32, K=16, scheme="fc", L=3)
    rm, L = build_code(spec)
    with pytest.raises(ValueError):
        encode(np.zeros(15, dtype=np.uint8), spec, rm, L)


@pytest.mark.parametrize(
    "spec",
    [
        CodeSpec(N=32, K=16, scheme="fc", L=3),
        CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5),
        CodeSpec(N=64, K=40, scheme="mc", L=5),
    ],
)
def test_encoder_is_linear(spec):
    rm, L = build_code(spec)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, (100, spec.K), dtype=np.uint8)
    b = rng.integers(0, 2, (100, spec.K), dtype=np.uint8)
    assert np.array_equal(encode(a ^ b, spec, rm, L), encode(a, spec, rm, L) ^ encode(b, spec, rm, L))


def test_encode_matches_dense_pipeline():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm, L = build_code(spec)
    pcs = derive_pc_structure(rm, L)
    rng = np.random.default_rng(17)
    msg = rng.integers(0, 2, (50, 32), dtype=np.uint8)
    s = np.zeros((50, 64), dtype=np.uint8)
    s[:, rm.info_positions] = msg
    expected = dense_transform(direct_precode(s, pcs))
    assert np.array_equal(encode(msg, spec, rm, L), expected)


def test_every_codeword_satisfies_pc_constraints():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm, L = build_code(spec)
    pcs = derive_pc_structure(rm, L)
    rng = np.random.default_rng(23)
    msg = rng.integers(0, 2, (200, 32), dtype=np.uint8)
    x = encode(msg, spec, rm, L)
    q = polar_transform(x)  # involution recovers the pre-transform sequence
    for u, iu in pcs.checked_sets.items():
        parity = np.bitwise_xor.reduce(q[:, list(iu)], axis=1) if iu else 0
        assert np.array_equal(q[:, u], parity * np.ones_like(q[:, u]))
