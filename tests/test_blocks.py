"""Block-decomposition tests: signatures, dimension identities, the
block-diagonalizing frame, and reconstruction."""

import numpy as np
import pytest

import wallkit.blocks as blocks
from wallkit.layout import SeededRng, SystemLayout
from wallkit.linalg import dagger, haar_unitary
from wallkit.algebra import MatrixAlgebra, close_algebra, commutant, equals
from wallkit.blocks import decompose, isomorphism_signature, reconstruct
from wallkit.walls import pauli_string

RNG = SeededRng(12345)


def _decompose_gens(gens, site_dims):
    alg = close_algebra(gens, SystemLayout(site_dims))
    return alg, decompose(alg)


class TestSignatures:
    def test_diagonal(self):
        alg, bs = _decompose_gens([np.diag([0.0, 1, 2, 3])], (4,))
        assert isomorphism_signature(bs) == ((1, 1), (1, 1), (1, 1), (1, 1))

    def test_factor_2_2(self):
        alg, bs = _decompose_gens([pauli_string("XI"), pauli_string("ZX")], (2, 2))
        assert isomorphism_signature(bs) == ((2, 2),)

    def test_full_matrix_algebra(self):
        gens = [np.roll(np.eye(4), 1, axis=0), np.diag([0.0, 1, 2, 3])]
        alg, bs = _decompose_gens(gens, (4,))
        assert isomorphism_signature(bs) == ((4, 1),)

    def test_identity_only(self):
        alg, bs = _decompose_gens([], (2, 2))
        assert isomorphism_signature(bs) == ((1, 4),)

    def test_one_plus_two(self):
        xb = np.asarray([[0.0, 0, 0], [0, 0, 1], [0, 1, 0]])
        zb = np.diag([0.0, 1, -1])
        alg, bs = _decompose_gens([np.diag([0.0, 1, 1]), xb, zb], (3,))
        assert isomorphism_signature(bs) == ((1, 1), (2, 1))


class TestIdentities:
    @pytest.mark.parametrize(
        "gens,site_dims",
        [
            ([np.diag([0.0, 1, 2, 3])], (4,)),
            ([pauli_string("XI"), pauli_string("ZX")], (2, 2)),
            ([pauli_string("ZZ")], (2, 2)),
            ([pauli_string("XX"), pauli_string("ZZ")], (2, 2)),
        ],
    )
    def test_dimension_sums(self, gens, site_dims):
        alg = close_algebra(gens, SystemLayout(site_dims))
        bs = decompose(alg)
        d = alg.layout.dim
        assert sum(dD * dE for dD, dE in bs.blocks) == d
        assert sum(dD * dD for dD, dE in bs.blocks) == alg.dim

    def test_commutant_mirror(self):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], SystemLayout((2, 2)))
        com = commutant(alg)
        sig = isomorphism_signature(decompose(alg))
        sig_c = isomorphism_signature(decompose(com))
        assert sig_c == tuple(sorted((dE, dD) for dD, dE in sig))

    def test_frame_unitary(self):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], SystemLayout((2, 2)))
        bs = decompose(alg)
        V = bs.V
        assert np.linalg.norm(dagger(V) @ V - np.eye(4)) < 1e-10

    def test_central_projectors(self):
        alg = close_algebra([np.diag([0.0, 0, 1, 1])], SystemLayout((4,)))
        bs = decompose(alg)
        projs = bs.central_projectors
        assert np.allclose(sum(projs), np.eye(4))
        for p in projs:
            assert np.allclose(p @ p, p)
            for b in alg.basis:
                assert np.max(np.abs(p @ b - b @ p)) < 1e-9


class TestFrameAction:
    def test_conjugated_basis_is_block_product(self):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], SystemLayout((2, 2)))
        bs = decompose(alg)
        (dD, dE) = bs.blocks[0]
        for b in alg.basis:
            bb = dagger(bs.V) @ b @ bs.V
            blk = bb.reshape(dD, dE, dD, dE)
            core = np.trace(blk, axis1=1, axis2=3) / dE
            assert np.max(np.abs(bb - np.kron(core, np.eye(dE)))) < 1e-9

    def test_conjugation_invariance(self):
        base = close_algebra([pauli_string("XI"), pauli_string("ZX")], SystemLayout((2, 2)))
        W = haar_unitary(4, RNG.stream(12))
        rotated = MatrixAlgebra(np.einsum("ab,kbc,dc->kad", W, base.basis, W.conj()), base.layout)
        sig = isomorphism_signature(decompose(rotated))
        assert sig == ((2, 2),)


class TestReconstruct:
    @pytest.mark.parametrize(
        "gens,site_dims",
        [
            ([np.diag([0.0, 1, 2, 3])], (4,)),
            ([pauli_string("XI"), pauli_string("ZX")], (2, 2)),
            ([pauli_string("ZZ")], (2, 2)),
        ],
    )
    def test_round_trip(self, gens, site_dims):
        alg = close_algebra(gens, SystemLayout(site_dims))
        bs = decompose(alg)
        assert equals(alg, reconstruct(bs))

    def test_round_trip_haar_rotated(self):
        base = close_algebra([np.diag([0.0, 1, 1, 2])], SystemLayout((4,)))
        W = haar_unitary(4, RNG.stream(15))
        rotated = MatrixAlgebra(np.einsum("ab,kbc,dc->kad", W, base.basis, W.conj()), base.layout)
        bs = decompose(rotated)
        assert equals(rotated, reconstruct(bs))


XB = np.asarray([[0.0, 0, 0], [0, 0, 1], [0, 1, 0]])
# (generators, site dims) of algebras with one, two and four blocks
ROTATION_CASES = {
    "diag": ([np.diag([0.0, 1, 2, 3])], (4,)),
    "one-plus-two": ([np.diag([0.0, 1, 1]), XB, np.diag([0.0, 1, -1])], (3,)),
    "ZI,IZ": ([pauli_string("ZI"), pauli_string("IZ")], (2, 2)),
    "ZII,IXI": ([pauli_string("ZII"), pauli_string("IXI")], (2, 2, 2)),
    "XI,ZX": ([pauli_string("XI"), pauli_string("ZX")], (2, 2)),
}


class TestBasisFree:
    """The frame depends on the span and not on the basis that carries it."""

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("name", ROTATION_CASES)
    def test_rotated_basis_gives_the_same_blocks_and_projectors(self, name, k):
        gens, dims = ROTATION_CASES[name]
        alg = close_algebra(gens, SystemLayout(dims))
        W = haar_unitary(alg.dim, RNG.stream(100 + k))
        rotated = MatrixAlgebra(np.tensordot(W, alg.basis, axes=(1, 0)), alg.layout)
        bs, rbs = decompose(alg), decompose(rotated)
        assert rbs.blocks == bs.blocks
        assert len(rbs.central_projectors) == len(bs.central_projectors)
        for p, q in zip(bs.central_projectors, rbs.central_projectors):
            assert np.max(np.abs(p - q)) < 1e-9


class TestOneDraw:
    """``decompose`` draws once: a degenerate draw raises, naming the check
    and what it measured, with no resample."""

    def _degenerate_draw(self, monkeypatch):
        # the draw is the identity: its central part and its compression to
        # every block are multiples of the identity
        monkeypatch.setattr(blocks, "_frame_element", lambda alg: np.eye(alg.layout.dim, dtype=complex))

    def test_degenerate_central_draw_raises(self, monkeypatch):
        alg = close_algebra([np.diag([0.0, 0, 1, 1])], SystemLayout((4,)))
        self._degenerate_draw(monkeypatch)
        with pytest.raises(RuntimeError, match="1 central clusters for a 2-dimensional center"):
            decompose(alg)

    def test_degenerate_frame_draw_raises(self, monkeypatch):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], SystemLayout((2, 2)))
        self._degenerate_draw(monkeypatch)
        match = r"block frame: clusters of sizes \[4\] for a 4-dimensional factor"
        with pytest.raises(RuntimeError, match=match):
            decompose(alg)
