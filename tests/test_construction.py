import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpolar import construction
from pcpolar.construction import (
    FROZEN,
    INFO,
    PC,
    CodeSpec,
    RoleMap,
    build_code,
    build_rolemap,
    chain_groups,
    check_invariants,
    classify_leaves,
    coefficient_to_register_length,
    derive_pc_structure,
    pw_reliability,
    row_weight,
)

from oracles import structure_leaf_classes, transform_matrix


def brute_force_pw(N):
    """Literal beta-expansion evaluated per index, sorted with the tie rule."""
    n = N.bit_length() - 1
    w = [sum(2 ** (j / 4) for j in range(n) if (i >> j) & 1) for i in range(N)]
    order = sorted(range(N), key=lambda i: (w[i], i))
    return w, order


def test_pw_weight_zero_index():
    rel = pw_reliability(4)
    assert rel.weight[0] == 0.0


def test_pw_weight_index_three():
    rel = pw_reliability(4)
    assert rel.weight[3] == pytest.approx(1.0 + 2 ** 0.25, abs=1e-12)


def test_pw_order_n8_matches_brute_force():
    rel = pw_reliability(8)
    w, order = brute_force_pw(8)
    assert list(rel.order) == order == [0, 1, 2, 4, 3, 5, 6, 7]
    assert rel.weight == pytest.approx(w)


@pytest.mark.parametrize("N", [4, 16, 64, 256, 512])
def test_pw_matches_brute_force(N):
    rel = pw_reliability(N)
    w, order = brute_force_pw(N)
    assert list(rel.order) == order
    assert sorted(rel.order) == list(range(N))
    assert np.all(np.diff(rel.weight[rel.order]) >= 0)


def test_pw_rejects_non_power_of_two():
    for bad in (0, 3, 6, 100):
        with pytest.raises(ValueError):
            pw_reliability(bad)


def test_code_length_is_capped_at_n_max():
    """N above N_MAX (2**16) is refused when the spec is built, before
    pw_reliability's (N, log2 N) matrix is made."""
    assert construction.N_MAX == 2**16
    assert CodeSpec(N=construction.N_MAX, K=1).n == 16
    for N in (2 * construction.N_MAX, 2**24, 2**40):
        with pytest.raises(ValueError, match="power of two from 4 to 65536"):
            CodeSpec(N=N, K=1)
        with pytest.raises(ValueError, match="power of two from 4 to 65536"):
            pw_reliability(N)


def test_row_weight_examples():
    assert row_weight(0) == 1
    G = transform_matrix(8)
    assert row_weight(5) == int(G[5].sum()) == 4
    assert row_weight(7) == int(G[7].sum()) == 8


@pytest.mark.parametrize("i", range(16))
def test_row_weight_is_kronecker_row_sum(i):
    assert row_weight(i) == int(transform_matrix(16)[i].sum())


def test_coefficient_to_register_length():
    assert coefficient_to_register_length(64, 0.5) == 5  # the Fig-3 calibration point
    assert coefficient_to_register_length(4, 1.0) == 2
    assert coefficient_to_register_length(512, 1.5) == 37
    # A = sqrt(N) is the largest A taken: L is then the first prime above N
    assert coefficient_to_register_length(64, 8.0) == 67
    assert coefficient_to_register_length(4, 2.0) == 5
    for bad in (0.0, -1.0, 8.001, 1e20, 1e308, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sqrt"):
            coefficient_to_register_length(64, bad)


def test_codespec_validation():
    with pytest.raises(ValueError):
        CodeSpec(N=48, K=24)
    with pytest.raises(ValueError):
        CodeSpec(N=16, K=0)
    with pytest.raises(ValueError):
        CodeSpec(N=16, K=17)
    with pytest.raises(ValueError):
        CodeSpec(N=16, K=8, scheme="bogus")
    with pytest.raises(ValueError):
        CodeSpec(N=16, K=8, scheme="fc")  # needs L or A
    with pytest.raises(ValueError):
        CodeSpec(N=16, K=8, scheme="nr", L=5, nr_npc=2, nr_npc_wm=3)
    with pytest.raises(ValueError):
        CodeSpec(N=16, K=15, scheme="nr", L=5, nr_npc=3)  # K + npc > N
    with pytest.raises(ValueError):
        CodeSpec(N=16, K=8, scheme="mc", L=3, mc_weights=(2,))
    # the nr counts must be non-negative under every scheme
    for scheme in ("none", "fc", "mc", "nr"):
        with pytest.raises(ValueError, match="non-negative"):
            CodeSpec(N=16, K=8, scheme=scheme, L=3, nr_npc=-1)
        with pytest.raises(ValueError, match="non-negative"):
            CodeSpec(N=16, K=8, scheme=scheme, L=3, nr_npc_wm=-1)


def test_scheme_none_rolemap():
    spec = CodeSpec(N=32, K=16)
    rm = build_rolemap(spec)
    assert rm.K == 16
    assert len(rm.pc_positions) == 0
    assert len(rm.frozen_positions) == 16
    info = set(pw_reliability(32).order[-16:].tolist())
    assert set(rm.info_positions.tolist()) == info


def test_rate_one_degenerate():
    rm = build_rolemap(CodeSpec(N=8, K=8))
    assert rm.K == 8
    assert len(rm.frozen_positions) == 0
    assert len(rm.pc_positions) == 0


def test_fc_marks_all_non_info_as_pc():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm = build_rolemap(spec)
    assert rm.K == 32
    assert len(rm.pc_positions) == 32
    assert len(rm.frozen_positions) == 0
    # info choice identical to scheme none
    assert np.array_equal(rm.info_positions, build_rolemap(CodeSpec(N=64, K=32)).info_positions)


def test_mc_selects_by_row_weight():
    spec = CodeSpec(N=16, K=8, scheme="mc", L=3)
    rm = build_rolemap(spec)
    info = rm.info_positions
    w_min = min(row_weight(int(i)) for i in info)
    assert w_min == 4
    expected_pc = {
        int(i)
        for i in build_rolemap(CodeSpec(N=16, K=8)).frozen_positions
        if row_weight(int(i)) == w_min
    }
    assert set(rm.pc_positions.tolist()) == expected_pc == {3, 5, 6}
    # the two-weight selector additionally takes rows of weight 2*w_min
    rm2 = build_rolemap(CodeSpec(N=16, K=8, scheme="mc", L=3, mc_weights=(1, 2)))
    expected2 = {
        int(i)
        for i in build_rolemap(CodeSpec(N=16, K=8)).frozen_positions
        if row_weight(int(i)) in (w_min, 2 * w_min)
    }
    assert set(rm2.pc_positions.tolist()) == expected2


def test_nr_pc_placement():
    spec = CodeSpec(N=64, K=20, scheme="nr", L=5, nr_npc=3, nr_npc_wm=1)
    rm = build_rolemap(spec)
    assert rm.K == 20
    assert len(rm.pc_positions) == 3
    # independent re-derivation of the placement rule
    order = pw_reliability(64).order
    cand = list(order[-23:])
    pc = set(int(i) for i in cand[:2])  # least reliable candidates
    rest = cand[2:]
    rank = {int(v): r for r, v in enumerate(order)}
    wm = min(rest, key=lambda u: (row_weight(int(u)), -rank[int(u)]))
    pc.add(int(wm))
    assert set(rm.pc_positions.tolist()) == pc
    assert set(rm.info_positions.tolist()) == {int(i) for i in rest if int(i) not in pc}


def test_nr_without_weight_placement():
    rm = build_rolemap(CodeSpec(N=64, K=20, scheme="nr", L=5, nr_npc=3, nr_npc_wm=0))
    order = pw_reliability(64).order
    assert set(rm.pc_positions.tolist()) == {int(i) for i in order[-23:][:3]}


def test_derive_pc_structure_fig3_like_checked_sets():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm, L = build_code(spec)
    pcs = derive_pc_structure(rm, L)
    assert pcs.checked_sets[20] == (15,)
    assert 20 in pcs.checking_sets[15]
    check_invariants(spec, rm, pcs)


def test_derive_pc_structure_small_example():
    # N=16, L=3, info 4..15 except PC at 9 and 12
    role = np.full(16, FROZEN, dtype=np.int8)
    role[4:] = INFO
    role[9] = PC
    role[12] = PC
    pcs = derive_pc_structure(RoleMap(role=role), 3)
    assert pcs.checked_sets[9] == (6,)
    assert pcs.checked_sets[12] == (6,)
    assert set(pcs.checking_sets[6]) == {9, 12}
    assert 6 in pcs.checked_info
    assert 5 in pcs.unchecked_info


def test_pc_before_first_info_is_degenerate():
    role = np.array([FROZEN, PC, FROZEN, INFO, PC, INFO, INFO, INFO], dtype=np.int8)
    pcs = derive_pc_structure(RoleMap(role=role), 3)
    assert pcs.checked_sets[1] == ()
    assert pcs.checked_sets[4] == ()  # 4 % 3 == 1, no info at index 1
    assert [u for u, iu in pcs.checked_sets.items() if not iu] == [1, 4]
    groups = chain_groups(RoleMap(role=role), 3)
    assert 1 in groups[1]["F"] and 4 in groups[1]["F"]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    k_frac=st.floats(min_value=0.1, max_value=0.95),
    scheme=st.sampled_from(["none", "fc", "mc", "nr"]),
    L=st.integers(min_value=1, max_value=9),
)
def test_construction_invariants_hold(n, k_frac, scheme, L):
    N = 1 << n
    K = max(1, min(N - (4 if scheme == "nr" else 0), int(round(k_frac * N))))
    spec = CodeSpec(N=N, K=K, scheme=scheme, L=L)
    rm, _ = build_code(spec)
    pcs = derive_pc_structure(rm, L)
    check_invariants(spec, rm, pcs)
    # duality both ways, exhaustively
    for u, iu in pcs.checked_sets.items():
        for j in iu:
            assert j < u and (u - j) % L == 0 and rm.role[j] == INFO
            assert u in pcs.checking_sets[j]
    union = set()
    for iu in pcs.checked_sets.values():
        union.update(iu)
    assert union == set(pcs.checked_info)
    assert set(pcs.unchecked_info) == set(rm.info_positions.tolist()) - union


def test_chain_groups_partition_every_index():
    spec = CodeSpec(N=64, K=32, scheme="fc", A=0.5, L=5)
    rm, L = build_code(spec)
    groups = chain_groups(rm, L)
    seen = []
    for r, g in enumerate(groups):
        for members in g.values():
            seen.extend(members)
            assert all(i % L == r for i in members)
    assert sorted(seen) == list(range(64))


@pytest.mark.parametrize("N", [4, 8, 16, 64, 256, 1024, 4096])
def test_classify_leaves_equals_the_chain_structure_classes_on_random_role_maps(N):
    rng = np.random.default_rng(N)
    roles = np.array([FROZEN, INFO, PC], dtype=np.int8)
    for L in sorted({1, 2, 3, 5, 7, 23, N - 1, N, N + 1, 2 * N}):
        for _ in range(3):
            rm = RoleMap(role=rng.choice(roles, N, p=rng.dirichlet(np.ones(3))))
            got = classify_leaves(rm, L)
            assert got.dtype == np.int8
            assert np.array_equal(got, structure_leaf_classes(rm, derive_pc_structure(rm, L))), L


@pytest.mark.parametrize(
    "spec",
    [
        CodeSpec(N=64, K=32),
        CodeSpec(N=64, K=32, scheme="fc", A=0.5),
        CodeSpec(N=128, K=64, scheme="mc", L=7, mc_weights=(1, 2)),
        CodeSpec(N=256, K=128, scheme="nr", L=5, nr_npc=8, nr_npc_wm=3),
    ],
)
def test_classify_leaves_equals_the_chain_structure_classes_on_every_scheme(spec):
    rm, L = build_code(spec)
    assert np.array_equal(classify_leaves(rm, L), structure_leaf_classes(rm, derive_pc_structure(rm, L)))


def test_codec_modules_do_not_use_the_chain_structure():
    """The encoder, the decoders and the simulator read a code as its role
    map and L; the chain structure serves construct and its check only."""
    forbidden = {"PcStructure", "derive_pc_structure"}
    src = Path(construction.__file__).parent
    for name in ("decoders.py", "encoder.py", "sim.py"):
        tree = ast.parse((src / name).read_text())
        used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not used & forbidden, name


def test_construction_is_deterministic():
    spec = CodeSpec(N=128, K=64, scheme="fc", A=1.0)
    a = build_rolemap(spec)
    b = build_rolemap(spec)
    assert np.array_equal(a.role, b.role)
