"""Wall-synthesis tests: presets, conditional gates, block recovery,
brickwork factorization, and normaliser sampling."""

import numpy as np
import pytest

from wallkit.layout import SeededRng, SystemLayout
from wallkit.linalg import dagger, embed, haar_unitary, kron
from wallkit.algebra import close_algebra, commutant, contains, equals
from wallkit.blocks import decompose, isomorphism_signature
from wallkit import walls
from wallkit.dynamics import invariant_algebras, verify_wall
from wallkit.walls import (
    PAULI,
    PRESET_NAMES,
    PRESETS,
    WallSpec,
    assemble_wall,
    brickwork_split,
    conditional_unitary,
    normaliser_sample,
    pauli_string,
    preset_algebra,
    preset_wall,
    recover_blocks,
    synth_wall,
)

I2, X, Y, Z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]
SHARED_BUILDER_PRESETS = (
    "abelian-pair", "reducible-composite", "soliton-x", "uncoupled-center", "swap-zz",
)


def _is_unitary(U, tol=1e-10):
    return np.linalg.norm(dagger(U) @ U - np.eye(U.shape[0])) < tol


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
        spec = WallSpec(SystemLayout.tripartite(2, (2,), 2), "diag", seed=4)
        wall = synth_wall(spec)
        assert _is_unitary(wall.U)
        # a diagonal-control wall commutes with Z_C
        zc = embed(Z, (1,), wall.layout)
        assert np.max(np.abs(wall.U @ zc - zc @ wall.U)) < 1e-9
        assert not wall.trivial

    def test_full_wall_is_trivial_product(self):
        spec = WallSpec(SystemLayout.tripartite(2, (2,), 2), "full", seed=5)
        wall = synth_wall(spec)
        assert wall.trivial
        # product across LC | R: operator-Schmidt rank 1
        M = wall.U.reshape(4, 2, 4, 2).transpose(0, 2, 1, 3).reshape(16, 4)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[1] < 1e-9 * s[0]

    def test_identity_algebra_is_trivial_product(self):
        spec = WallSpec(SystemLayout.tripartite(2, (2,), 2), [np.eye(2)], seed=6)
        wall = synth_wall(spec)
        assert wall.trivial
        # product across L | CR
        M = wall.U.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3).reshape(4, 16)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[1] < 1e-9 * s[0]

    def test_permutation_between_equal_blocks(self):
        spec = WallSpec(
            SystemLayout.tripartite(2, (2,), 2), "diag", permutation=[1, 0], seed=7
        )
        wall = synth_wall(spec)
        assert wall.permutation == [1, 0]

    def test_permutation_between_unequal_blocks_rejected(self):
        # center algebra C (+) M_... : blocks (1,1) and (1,3) cannot swap
        gens = [np.diag([1.0, 0, 0, 0])]
        spec = WallSpec(
            SystemLayout.tripartite(2, (2, 2), 2), gens, permutation=[1, 0], seed=8
        )
        with pytest.raises(ValueError, match="automorphism"):
            synth_wall(spec)

    def test_round_trip_recovery(self):
        spec = WallSpec(SystemLayout.tripartite(2, (2, 2), 2), "pauli:XI,ZX", seed=9)
        wall = synth_wall(spec)
        T, R, perm = recover_blocks(wall.U, wall.layout, wall.block_structure)
        recon = assemble_wall(wall.layout, wall.block_structure, T, R, perm)
        assert np.max(np.abs(recon - wall.U)) < 1e-9

    def test_given_blocks(self):
        lay = SystemLayout.tripartite(2, (2,), 2)
        g = SeededRng(10).generator()
        A_C = close_algebra([Z], SystemLayout((2,)))
        bs = decompose(A_C, g)
        T = [haar_unitary(2, g) for _ in bs.blocks]
        R = [haar_unitary(2, g) for _ in bs.blocks]
        spec = WallSpec(lay, "diag", block_mode="given", T_blocks=T, R_blocks=R)
        wall = synth_wall(spec)
        T2, R2, perm = recover_blocks(wall.U, lay, wall.block_structure)
        recon = assemble_wall(lay, wall.block_structure, T2, R2, perm)
        assert np.max(np.abs(recon - wall.U)) < 1e-9

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
        assert wall.permutation == [0, 1]

    def test_soliton_permutes_blocks(self):
        wall = preset_wall("soliton-x")
        assert sorted(wall.permutation) == [0, 1] and wall.permutation != [0, 1]

    def test_fswap_signature(self):
        wall = preset_wall("fswap")
        assert isomorphism_signature(wall.block_structure) == ((2, 2),)
        assert contains(wall.A_C.space, pauli_string("XI"))
        assert contains(wall.A_C.space, pauli_string("ZX"))

    def test_swap_zz_blocks(self):
        wall = preset_wall("swap-zz")
        assert isomorphism_signature(wall.block_structure) == ((1, 1),) * 4
        assert sorted(wall.permutation) == [0, 1, 2, 3]

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

    def test_unverified_wall_computes_them_on_first_access(self):
        spec = WallSpec(SystemLayout.tripartite(2, (2, 2), 2), "pauli:XI,ZX", seed=9)
        wall = synth_wall(spec, verify=False)
        assert "invariants" not in vars(wall)
        _assert_same_invariants(wall)

    def test_construction_check_maps_only_the_non_wall(self):
        spec = WallSpec(SystemLayout.tripartite(2, (2,), 2), "diag", seed=4)
        wall = synth_wall(spec, verify=False)
        wall.U = haar_unitary(wall.layout.dim, SeededRng(5))
        with pytest.raises(RuntimeError, match="failed the wall check"):
            walls._assert_wall(wall)
        wall = synth_wall(spec, verify=False)
        wall.U = 2 * wall.U
        with pytest.raises(ValueError, match="not unitary"):
            walls._assert_wall(wall)


class TestBrickwork:
    def test_factorization_exact(self):
        spec = WallSpec(SystemLayout.tripartite(2, (2,), 2), "diag", seed=13)
        V, W, wall = brickwork_split(spec)
        assert np.max(np.abs(W @ V - wall.U)) < 1e-12

    def test_gates_commute_without_permutation(self):
        spec = WallSpec(SystemLayout.tripartite(2, (2,), 2), "diag", seed=14)
        V, W, wall = brickwork_split(spec)
        assert np.max(np.abs(V @ W - W @ V)) < 1e-10

    def test_gates_do_not_commute_with_permutation(self):
        spec = WallSpec(SystemLayout.tripartite(2, (2,), 2), "diag", seed=15)
        V, W, wall = brickwork_split(spec, permutation_V=[1, 0])
        assert np.max(np.abs(V @ W - W @ V)) > 1e-3
        assert _is_unitary(wall.U)

    def test_nonabelian_split(self):
        spec = WallSpec(SystemLayout.tripartite(2, (2, 2), 2), "pauli:XI,ZX", seed=16)
        V, W, wall = brickwork_split(spec)
        assert np.max(np.abs(W @ V - wall.U)) < 1e-12
        # V acts trivially on R, W trivially on L
        d = wall.layout.dim
        MV = V.reshape(8, 2, 8, 2)
        assert np.max(np.abs(MV - np.einsum("ac,bd->abcd", MV[:, 0, :, 0], np.eye(2)))) < 1e-10
        MW = W.reshape(2, 8, 2, 8)
        assert np.max(np.abs(MW - np.einsum("ac,bd->abcd", np.eye(2), MW[0, :, 0, :]))) < 1e-10


class TestNormaliser:
    def _preserves(self, G, alg):
        rotated = np.einsum("ab,kbc,dc->kad", G, alg.basis, G.conj())
        return all(contains(alg.space, m, 1e-8) for m in rotated)

    def test_preserves_algebra_and_commutant(self):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], SystemLayout((2, 2)))
        com = commutant(alg)
        for k in range(3):
            G = normaliser_sample(alg, SeededRng(17, k))
            assert _is_unitary(G)
            assert self._preserves(G, alg)
            assert self._preserves(G, com)

    def test_group_closure(self):
        alg = close_algebra([np.diag([0.0, 1, 2, 3])], SystemLayout((4,)))
        G1 = normaliser_sample(alg, SeededRng(18, 0))
        G2 = normaliser_sample(alg, SeededRng(18, 1))
        assert self._preserves(G1 @ G2, alg)
        assert self._preserves(dagger(G1), alg)

    def test_diag_normaliser_is_monomial(self):
        alg = close_algebra([np.diag([0.0, 1, 2, 3])], SystemLayout((4,)))
        G = normaliser_sample(alg, SeededRng(19))
        # exactly one nonzero entry per row/column
        mags = np.abs(G)
        assert np.all(np.sum(mags > 1e-10, axis=0) == 1)
        assert np.all(np.sum(mags > 1e-10, axis=1) == 1)
