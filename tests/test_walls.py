"""Wall-synthesis tests: presets, conditional gates, synthesis, and block
recovery against a test-side oracle."""

from dataclasses import replace

import numpy as np
import pytest

from wallkit.layout import SeededRng, SystemLayout
from wallkit.linalg import dagger, embed, haar_unitary, kron
from wallkit.algebra import close_algebra, contains, equals
from wallkit.blocks import decompose, isomorphism_signature
from wallkit.dynamics import invariant_algebras, verify_wall
from wallkit.walls import (
    PAULI,
    PRESET_NAMES,
    PRESETS,
    WallUnitary,
    assemble_wall,
    conditional_unitary,
    pauli_string,
    preset_algebra,
    preset_wall,
    resolve_central_algebra,
    synth_wall,
)

I2, X, Y, Z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]
SHARED_BUILDER_PRESETS = (
    "abelian-pair", "reducible-composite", "soliton-x", "uncoupled-center", "swap-zz",
)
# every preset at its default edges, and at (3, 4) where its construction allows
PRESET_EDGES = [(n, None) for n in PRESET_NAMES] + [
    (n, (3, 4)) for n in PRESET_NAMES if not PRESETS[n].qubit_edges
]


def _is_unitary(U, tol=1e-10):
    return np.linalg.norm(dagger(U) @ U - np.eye(U.shape[0])) < tol


def recover_blocks(U, layout, bs, tol=1e-8):
    """Oracle: read T^i, R^i and the block permutation off a wall unitary in
    the frame of its central block structure (the inverse of assemble_wall)."""
    d_L, d_C, d_R = layout.d_left, layout.d_center, layout.d_right
    W = np.kron(np.kron(np.eye(d_L), bs.V), np.eye(d_R))
    Uf = (dagger(W) @ U @ W).reshape(d_L, d_C, d_R, d_L, d_C, d_R)
    offs = bs.block_offsets()
    T_blocks, R_blocks, perm = [], [], []
    for j, (dD, dE) in enumerate(bs.blocks):
        m = dD * dE
        target = None
        for i, (dD2, dE2) in enumerate(bs.blocks):
            if (dD2, dE2) != (dD, dE):
                continue
            B = Uf[:, offs[i] : offs[i] + m, :, :, offs[j] : offs[j] + m, :]
            if np.linalg.norm(B) > 1e-6:
                target = i
                break
        if target is None:
            raise ValueError("no target block found; input is not in wall form")
        B = Uf[:, offs[target] : offs[target] + m, :, :, offs[j] : offs[j] + m, :]
        # split B = T (x) R across (L, D) | (E, R) by a rank-1 operator-Schmidt cut
        M = B.reshape(d_L, dD, dE, d_R, d_L, dD, dE, d_R)
        M = M.transpose(0, 1, 4, 5, 2, 3, 6, 7).reshape(
            (d_L * dD) ** 2, (dE * d_R) ** 2
        )
        u, s, vh = np.linalg.svd(M)
        if s.size > 1 and s[1] > tol * s[0]:
            raise ValueError("block is not a tensor product; not a wall frame")
        T = (np.sqrt(s[0]) * u[:, 0]).reshape(d_L * dD, d_L * dD)
        R = (np.sqrt(s[0]) * vh[0]).reshape(dE * d_R, dE * d_R)
        # normalize the scalar split so both factors are unitary
        scale = np.sqrt(d_L * dD) / np.linalg.norm(T)
        T_blocks.append(T * scale)
        R_blocks.append(R / scale)
        perm.append(target)
    # perm[j] = slot fed by block j
    if sorted(perm) != list(range(bs.n_blocks)):
        raise ValueError("recovered block wiring is not a permutation")
    recon = assemble_wall(layout, bs, T_blocks, R_blocks, perm)
    if np.linalg.norm(recon - U) > tol * np.sqrt(layout.dim):
        raise ValueError("block recovery failed to reproduce the unitary")
    return T_blocks, R_blocks, perm


def _permutation(wall):
    return recover_blocks(wall.U, wall.layout, wall.block_structure)[2]


def _synth(center, alg, permutation=None, seed=0):
    """``synth_wall`` on qubit edges around central sites ``center``."""
    lay = SystemLayout.tripartite(2, center, 2)
    return synth_wall(lay, resolve_central_algebra(alg, lay), permutation, seed)


def _synth_pauli_wall():
    wall = _synth((2, 2), "pauli:XI,ZX", seed=9)
    return wall.U, wall.layout, wall.block_structure


def _given_blocks_wall():
    lay = SystemLayout.tripartite(2, (2,), 2)
    g = SeededRng(10).generator()
    bs = decompose(close_algebra([Z], SystemLayout((2,))), g)
    T = [haar_unitary(2, g) for _ in bs.blocks]
    R = [haar_unitary(2, g) for _ in bs.blocks]
    return assemble_wall(lay, bs, T, R), lay, bs


class TestConditionalUnitary:
    def test_identity_branches(self):
        U = conditional_unitary(np.eye(2), [np.eye(2), np.eye(2)])
        assert np.allclose(U, np.eye(4))

    def test_cnot(self):
        # control second factor (computational basis), X branch on |1>
        U = conditional_unitary(np.eye(2), [np.eye(2), X], control_first=True)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = expected[2, 3] = expected[3, 2] = 1.0
        assert np.allclose(U, expected)

    def test_commutes_with_control_projectors(self):
        g = SeededRng(3).generator()
        U = conditional_unitary(np.eye(2), [haar_unitary(3, g), haar_unitary(3, g)])
        for i in range(2):
            p = np.zeros((2, 2))
            p[i, i] = 1.0
            P = kron(np.eye(3), p)
            assert np.max(np.abs(U @ P - P @ U)) < 1e-12

    def test_rotated_control_basis(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        U = conditional_unitary(h, [np.eye(2), Z])
        assert _is_unitary(U)
        # conditional on the X eigenbasis commutes with 1 (x) X
        assert np.max(np.abs(U @ kron(I2, X) - kron(I2, X) @ U)) < 1e-12

    def test_rejects_nonunitary_branch(self):
        with pytest.raises(ValueError):
            conditional_unitary(np.eye(2), [np.eye(2), np.diag([1.0, 2.0])])

    def test_rejects_bad_basis(self):
        with pytest.raises(ValueError):
            conditional_unitary(np.ones((2, 2)), [np.eye(2), np.eye(2)])


class TestSynthesis:
    def test_diag_wall_structure(self):
        wall = _synth((2,), "diag", seed=4)
        assert _is_unitary(wall.U)
        # a diagonal-control wall commutes with Z_C
        zc = embed(Z, (1,), wall.layout)
        assert np.max(np.abs(wall.U @ zc - zc @ wall.U)) < 1e-9
        assert not wall.trivial

    def test_full_wall_is_trivial_product(self):
        wall = _synth((2,), "full", seed=5)
        assert wall.trivial
        # product across LC | R: operator-Schmidt rank 1
        M = wall.U.reshape(4, 2, 4, 2).transpose(0, 2, 1, 3).reshape(16, 4)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[1] < 1e-9 * s[0]

    def test_identity_algebra_is_trivial_product(self):
        wall = _synth((2,), [np.eye(2)], seed=6)
        assert wall.trivial
        # product across L | CR
        M = wall.U.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3).reshape(4, 16)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[1] < 1e-9 * s[0]

    def test_permutation_between_equal_blocks(self):
        wall = _synth((2,), "diag", permutation=[1, 0], seed=7)
        assert _permutation(wall) == [1, 0]

    def test_permutation_between_unequal_blocks_rejected(self):
        # center algebra C (+) M_... : blocks (1,1) and (1,3) cannot swap
        gens = [np.diag([1.0, 0, 0, 0])]
        with pytest.raises(ValueError, match="automorphism"):
            _synth((2, 2), gens, permutation=[1, 0], seed=8)

    @pytest.mark.parametrize(
        "build", [_synth_pauli_wall, _given_blocks_wall], ids=["synth-pauli", "given-blocks"]
    )
    def test_round_trip_recovery(self, build):
        U, lay, bs = build()
        T, R, perm = recover_blocks(U, lay, bs)
        recon = assemble_wall(lay, bs, T, R, perm)
        assert np.max(np.abs(recon - U)) < 1e-9

    def test_recover_rejects_generic_unitary(self):
        lay = SystemLayout.tripartite(2, (2,), 2)
        A_C = close_algebra([Z], SystemLayout((2,)))
        bs = decompose(A_C, SeededRng(11))
        with pytest.raises(ValueError):
            recover_blocks(haar_unitary(8, SeededRng(12)), lay, bs)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_constructs_and_verifies(self, name):
        wall = preset_wall(name, seed=0)
        assert _is_unitary(wall.U)
        assert wall.name == name

    def test_abelian_pair_signature(self):
        wall = preset_wall("abelian-pair")
        assert isomorphism_signature(wall.block_structure) == ((1, 1), (1, 1))
        assert _permutation(wall) == [0, 1]

    def test_soliton_permutes_blocks(self):
        perm = _permutation(preset_wall("soliton-x"))
        assert sorted(perm) == [0, 1] and perm != [0, 1]

    def test_fswap_signature(self):
        wall = preset_wall("fswap")
        assert isomorphism_signature(wall.block_structure) == ((2, 2),)
        assert contains(wall.A_C.space, pauli_string("XI"))
        assert contains(wall.A_C.space, pauli_string("ZX"))

    def test_swap_zz_blocks(self):
        wall = preset_wall("swap-zz")
        assert isomorphism_signature(wall.block_structure) == ((1, 1),) * 4
        assert sorted(_permutation(wall)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("name", SHARED_BUILDER_PRESETS)
    def test_edge_dims_override(self, name):
        # asymmetric edges catch a swapped d_L/d_R or W on the wrong sites
        wall = preset_wall(name, dims=(3, 4))
        center = PRESETS[name].center
        assert wall.layout.site_dims == (3, *center, 4)
        assert _is_unitary(wall.U)
        report = verify_wall(wall.U, wall.layout)
        assert report.is_wall and equals(report.A_C.space, wall.A_C.space)

    def test_fswap_needs_qubit_edges(self):
        with pytest.raises(ValueError, match="qubit edges"):
            preset_wall("fswap", dims=(3, 2))
        with pytest.raises(ValueError, match="qubit edges"):
            preset_algebra("fswap", dims=(3, 2))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_algebra_matches_wall(self, name):
        # the sff command reads A_C from the table instead of building the wall
        dims = (3, 4) if name in SHARED_BUILDER_PRESETS else None
        wall = preset_wall(name, dims=dims, seed=5)
        layout, A_C = preset_algebra(name, dims=dims)
        assert layout == wall.layout
        assert np.array_equal(A_C.basis, wall.A_C.basis)

    @pytest.mark.parametrize("name, dims", PRESET_EDGES)
    def test_declared_algebra_is_the_invariant_one(self, name, dims):
        wall = preset_wall(name, dims=dims, seed=2)
        assert equals(wall.A_C, wall.invariants.A_C)
        T, R, perm = recover_blocks(wall.U, wall.layout, wall.block_structure)
        recon = assemble_wall(wall.layout, wall.block_structure, T, R, perm)
        assert np.max(np.abs(recon - wall.U)) < 1e-9

    def test_declared_algebra_mismatch_raises(self, monkeypatch):
        # the pair's U keeps diag(Z_C); declaring only the scalars must fail
        row = replace(PRESETS["abelian-pair"], generators=(I2,))
        monkeypatch.setitem(PRESETS, "abelian-pair", row)
        with pytest.raises(RuntimeError, match="declared A_C"):
            preset_wall("abelian-pair")

    def test_trivial_follows_central_algebra(self):
        assert not any(preset_wall(name).trivial for name in PRESET_NAMES)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_wall("no-such-wall")


def _assert_same_invariants(wall):
    fresh = invariant_algebras(wall.U, wall.layout)
    assert np.array_equal(wall.invariants.A_C.basis, fresh.A_C.basis)
    assert np.array_equal(wall.invariants.B_C.basis, fresh.B_C.basis)
    assert wall.invariants.stabilization_time == fresh.stabilization_time


class TestCachedInvariants:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_invariants_match_a_fresh_computation(self, name):
        wall = preset_wall(name)
        assert "invariants" in vars(wall)  # kept from the check at construction
        _assert_same_invariants(wall)

    def test_construction_check_maps_only_the_non_wall(self):
        wall = _synth((2,), "diag", seed=4)
        parts = (wall.layout, wall.A_C, wall.block_structure)
        with pytest.raises(RuntimeError, match="failed the wall check"):
            WallUnitary(haar_unitary(wall.layout.dim, SeededRng(5)), *parts)
        with pytest.raises(ValueError, match="not unitary"):
            WallUnitary(2 * wall.U, *parts)
