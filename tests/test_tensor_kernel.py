"""Tensor-kernel tests: kron/embed/partial_trace conventions, Haar sampling,
rank and nullspace decisions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wallkit.layout import SeededRng, SystemLayout, as_generator
from wallkit.linalg import (
    embed,
    haar_from_ginibre,
    haar_unitary,
    kron,
    nullspace,
    orthonormal_basis,
    partial_trace,
)
from wallkit.walls import PAULI, pauli_string

from conftest import projector_onto

I2, X, Y, Z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]


def _rand_mats(seed, k, d):
    g = np.random.default_rng(seed)
    return g.standard_normal((k, d, d)) + 1j * g.standard_normal((k, d, d))


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal_product(self):
        assert np.array_equal(kron(Z, Z), np.diag([1.0, -1, -1, 1]))

    def test_xx_squared(self):
        xx = kron(X, X)
        assert np.allclose(xx @ xx, np.eye(4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_associativity(self, seed):
        a, b, c = _rand_mats(seed, 3, 2)
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-14

    def test_site0_most_significant(self):
        # Z on site 0 of two qubits acts on the leading index block
        zi = kron(Z, I2)
        assert np.array_equal(np.diag(zi), np.array([1.0, 1, -1, -1]))


class TestEmbed:
    def setup_method(self):
        self.layout = SystemLayout((2, 2, 2))

    def test_site0(self):
        assert np.allclose(embed(Z, (0,), self.layout), kron(Z, np.eye(4)))

    def test_site2(self):
        assert np.allclose(embed(X, (2,), self.layout), kron(np.eye(4), X))

    def test_swap_commutes_with_disjoint(self):
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        a = embed(swap, (1, 2), self.layout)
        b = embed(Y, (0,), self.layout)
        assert np.max(np.abs(a @ b - b @ a)) < 1e-14

    def test_noncontiguous_sites(self):
        # X (x) X on the outer sites, identity in the middle
        op = embed(kron(X, X), (0, 2), self.layout)
        expected = kron(kron(X, I2), X)
        assert np.allclose(op, expected)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            embed(np.eye(3), (0,), self.layout)


class TestPartialTrace:
    def test_identity(self):
        layout = SystemLayout((2, 3, 2))
        out = partial_trace(np.eye(12), {1}, layout)
        assert np.allclose(out, 3 * np.eye(4))

    def test_traceless_factor(self):
        layout = SystemLayout((2, 2))
        assert np.allclose(partial_trace(kron(Z, X), {0}, layout), 0)

    def test_bell_state(self):
        layout = SystemLayout((2, 2))
        phi = np.zeros(4)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi)
        assert np.allclose(partial_trace(rho, {1}, layout), np.eye(2) / 2)

    def test_trace_preserving(self):
        layout = SystemLayout((2, 2, 2))
        (O,) = _rand_mats(7, 1, 8)
        assert np.isclose(np.trace(partial_trace(O, {0, 2}, layout)), np.trace(O))

    def test_trace_everything(self):
        layout = SystemLayout((2, 2))
        (O,) = _rand_mats(8, 1, 4)
        out = partial_trace(O, {0, 1}, layout)
        assert out.shape == (1, 1) and np.isclose(out[0, 0], np.trace(O))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_inverse_of_embed(self, seed):
        layout = SystemLayout((2, 2, 2))
        (op,) = _rand_mats(seed, 1, 2)
        lifted = embed(op, (1,), layout)
        out = partial_trace(lifted, {0, 2}, layout)
        assert np.max(np.abs(out - 4 * op)) < 1e-12


class TestHaarUnitary:
    def test_dim1(self):
        u = haar_unitary(1, SeededRng(0))
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_unitarity(self):
        u = haar_unitary(16, SeededRng(1))
        assert np.linalg.norm(u.conj().T @ u - np.eye(16)) < 1e-12

    def test_mean_square_trace(self):
        # E|tr U|^2 = 1 for the Haar ensemble at any dimension
        g = SeededRng(2).generator()
        vals = [abs(np.trace(haar_unitary(8, g))) ** 2 for _ in range(2000)]
        assert abs(np.mean(vals) - 1.0) < 0.1

    def test_first_moment(self):
        g = SeededRng(3).generator()
        acc = np.zeros((4, 4), dtype=complex)
        n = 2000
        for _ in range(n):
            acc += haar_unitary(4, g)
        assert np.max(np.abs(acc / n)) < 5 / np.sqrt(n)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_stack_matches_single_draws(self, n):
        # the same Ginibre draws, stacked (2, 3, n, n), give haar_unitary's bytes
        g = SeededRng(4).generator()
        z = np.empty((6, n, n), dtype=complex)
        for k in range(6):
            z[k] = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2)
        stacked = haar_from_ginibre(z.reshape(2, 3, n, n)).reshape(6, n, n)
        g = SeededRng(4).generator()
        for k in range(6):
            assert np.array_equal(stacked[k], haar_unitary(n, g))

    def test_stack_unitary_with_positive_r_diagonal(self):
        z = _rand_mats(5, 50, 4)
        u = haar_from_ginibre(z)
        uh = u.conj().swapaxes(-1, -2)
        assert np.max(np.abs(uh @ u - np.eye(4))) < 1e-12
        # z = u r with r upper triangular and diag(r) real positive
        r = uh @ z
        assert np.max(np.abs(np.tril(r, -1))) < 1e-12
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        assert np.max(np.abs(diag.imag)) < 1e-12
        assert np.all(diag.real > 0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            haar_from_ginibre(np.ones((3, 2, 4), dtype=complex))


class TestOrthonormalBasis:
    def test_linear_dependence(self):
        out = orthonormal_basis([Z, 2 * Z])
        assert out.shape == (1, 2, 2)
        assert np.allclose(np.abs(out[0]), np.abs(Z) / np.sqrt(2))

    def test_pauli_orthogonality(self):
        out = orthonormal_basis(np.asarray([I2, X, Y, Z]) / np.sqrt(2))
        assert len(out) == 4

    def test_gram_rank_two(self):
        out = orthonormal_basis([I2 + X, I2 - X])
        assert len(out) == 2
        P = projector_onto(out)
        for m in (I2, X):
            v = m.ravel()
            assert np.allclose(P @ v, v)

    def test_all_zero(self):
        assert orthonormal_basis([np.zeros((2, 2))]).shape == (0, 2, 2)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_idempotence(self, seed, k):
        mats = _rand_mats(seed, k, 3)
        b1 = orthonormal_basis(mats)
        b2 = orthonormal_basis(b1)
        assert np.linalg.norm(projector_onto(b1) - projector_onto(b2)) < 1e-10


class TestNullspace:
    def test_zero_matrix(self):
        assert nullspace(np.zeros((3, 3))).shape == (3, 3)

    def test_identity(self):
        assert nullspace(np.eye(3)).shape == (3, 0)

    def test_commutator_superoperator(self):
        # joint commutant of {X, Z} on one qubit is the identity direction
        rows = []
        for g in (X, Z):
            rows.append(np.kron(g, np.eye(2)) - np.kron(np.eye(2), g.T))
        ns = nullspace(np.concatenate(rows))
        assert ns.shape == (4, 1)
        mat = ns[:, 0].reshape(2, 2)
        assert np.linalg.norm(mat - mat[0, 0] * np.eye(2)) < 1e-10

    @staticmethod
    def _low_rank(m, n, rank, seed):
        g = np.random.default_rng(seed)
        a = g.standard_normal((m, rank)) + 1j * g.standard_normal((m, rank))
        b = g.standard_normal((rank, n)) + 1j * g.standard_normal((rank, n))
        return a @ b

    def test_wide_rank_deficient(self):
        # the kernel of a wide matrix lies largely outside its row count: it
        # needs the full right singular basis
        M = self._low_rank(3, 8, 2, 0)
        ns = nullspace(M)
        assert ns.shape == (8, 6)
        assert np.linalg.norm(M @ ns) < 1e-10
        assert np.allclose(ns.conj().T @ ns, np.eye(6), atol=1e-12)

    def test_tall_rank_deficient(self):
        M = self._low_rank(40, 6, 4, 1)
        ns = nullspace(M)
        assert ns.shape == (6, 2)
        assert np.linalg.norm(M @ ns) < 1e-10 * np.linalg.norm(M)
        assert np.allclose(ns.conj().T @ ns, np.eye(2), atol=1e-12)


class TestSeededRng:
    def test_reproducible(self):
        a = SeededRng(42, 7).generator().standard_normal(5)
        b = SeededRng(42, 7).generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = SeededRng(42, 0).generator().standard_normal(5)
        b = SeededRng(42, 1).generator().standard_normal(5)
        assert not np.allclose(a, b)

    def test_as_generator_accepts_int(self):
        assert isinstance(as_generator(3), np.random.Generator)

    def test_as_generator_rejects_junk(self):
        with pytest.raises(TypeError):
            as_generator("seed")


class TestSystemLayout:
    def test_dims(self):
        lay = SystemLayout.tripartite(2, (2, 3), 4)
        assert (lay.d_left, lay.d_center, lay.d_right) == (2, 6, 4)
        assert lay.dim == 48

    def test_noncontiguous_rejected(self):
        with pytest.raises(ValueError):
            SystemLayout((2, 2, 2), (0, 2), (1,), ())

    def test_pauli_parse_error(self):
        with pytest.raises(ValueError, match="Q"):
            pauli_string("XQ")
