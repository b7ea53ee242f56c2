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


def _decompose_gens(gens, site_dims, stream):
    alg = close_algebra(gens, SystemLayout(site_dims))
    return alg, decompose(alg, RNG.stream(stream))


class TestSignatures:
    def test_diagonal(self):
        alg, bs = _decompose_gens([np.diag([0.0, 1, 2, 3])], (4,), 1)
        assert isomorphism_signature(bs) == ((1, 1), (1, 1), (1, 1), (1, 1))

    def test_factor_2_2(self):
        alg, bs = _decompose_gens([pauli_string("XI"), pauli_string("ZX")], (2, 2), 2)
        assert isomorphism_signature(bs) == ((2, 2),)

    def test_full_matrix_algebra(self):
        gens = [np.roll(np.eye(4), 1, axis=0), np.diag([0.0, 1, 2, 3])]
        alg, bs = _decompose_gens(gens, (4,), 3)
        assert isomorphism_signature(bs) == ((4, 1),)

    def test_identity_only(self):
        alg, bs = _decompose_gens([], (2, 2), 4)
        assert isomorphism_signature(bs) == ((1, 4),)

    def test_one_plus_two(self):
        xb = np.asarray([[0.0, 0, 0], [0, 0, 1], [0, 1, 0]])
        zb = np.diag([0.0, 1, -1])
        alg, bs = _decompose_gens([np.diag([0.0, 1, 1]), xb, zb], (3,), 5)
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
        bs = decompose(alg, RNG.stream(6))
        d = alg.layout.dim
        assert sum(dD * dE for dD, dE in bs.blocks) == d
        assert sum(dD * dD for dD, dE in bs.blocks) == alg.dim

    def test_commutant_mirror(self):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], SystemLayout((2, 2)))
        com = commutant(alg)
        sig = isomorphism_signature(decompose(alg, RNG.stream(7)))
        sig_c = isomorphism_signature(decompose(com, RNG.stream(8)))
        assert sig_c == tuple(sorted((dE, dD) for dD, dE in sig))

    def test_frame_unitary(self):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], SystemLayout((2, 2)))
        bs = decompose(alg, RNG.stream(9))
        V = bs.V
        assert np.linalg.norm(dagger(V) @ V - np.eye(4)) < 1e-10

    def test_central_projectors(self):
        alg = close_algebra([np.diag([0.0, 0, 1, 1])], SystemLayout((4,)))
        bs = decompose(alg, RNG.stream(10))
        projs = bs.central_projectors
        assert np.allclose(sum(projs), np.eye(4))
        for p in projs:
            assert np.allclose(p @ p, p)
            for b in alg.basis:
                assert np.max(np.abs(p @ b - b @ p)) < 1e-9


class TestFrameAction:
    def test_conjugated_basis_is_block_product(self):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], SystemLayout((2, 2)))
        bs = decompose(alg, RNG.stream(11))
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
        sig = isomorphism_signature(decompose(rotated, RNG.stream(13)))
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
        bs = decompose(alg, RNG.stream(14))
        assert equals(alg, reconstruct(bs))

    def test_round_trip_haar_rotated(self):
        base = close_algebra([np.diag([0.0, 1, 1, 2])], SystemLayout((4,)))
        W = haar_unitary(4, RNG.stream(15))
        rotated = MatrixAlgebra(np.einsum("ab,kbc,dc->kad", W, base.basis, W.conj()), base.layout)
        bs = decompose(rotated, RNG.stream(16))
        assert equals(rotated, reconstruct(bs))


class TestOneDraw:
    """``decompose`` draws once: a degenerate draw raises, naming the check
    and what it measured, with no resample."""

    def _degenerate_draw(self, monkeypatch, call):
        # the ``call``-th draw is a multiple of the identity, the others are
        # the real draws
        real, calls = blocks.random_hermitian_in_span, []

        def draw(basis, rng):
            calls.append(1)
            h = real(basis, rng)
            return np.eye(len(h), dtype=complex) if len(calls) == call else h

        monkeypatch.setattr(blocks, "random_hermitian_in_span", draw)

    def test_degenerate_central_draw_raises(self, monkeypatch):
        alg = close_algebra([np.diag([0.0, 0, 1, 1])], SystemLayout((4,)))
        self._degenerate_draw(monkeypatch, 1)
        with pytest.raises(RuntimeError, match="1 central clusters for a 2-dimensional center"):
            decompose(alg, RNG.stream(17))

    def test_degenerate_frame_draw_raises(self, monkeypatch):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], SystemLayout((2, 2)))
        self._degenerate_draw(monkeypatch, 2)
        match = r"block frame: clusters of sizes \[4\] for a 4-dimensional factor"
        with pytest.raises(RuntimeError, match=match):
            decompose(alg, RNG.stream(18))
