"""Algebra-engine tests: closure, commutant, center, set algebra, and
central-factor extraction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wallkit
import wallkit.algebra as algebra
import wallkit.dynamics as dynamics
from wallkit.layout import SeededRng, SystemLayout
from wallkit.linalg import haar_unitary, kron, orthonormal_basis
from wallkit.algebra import (
    MatrixAlgebra,
    center,
    close_algebra,
    commutant,
    contains,
    equals,
    extract_central_factor,
    intersect,
)
from wallkit.walls import (
    PAULI,
    PRESET_NAMES,
    pauli_string,
    preset_algebra,
    preset_wall,
    resolve_central_algebra,
)
from conftest import basis_center, pairwise_closure, stacked_intersect, superoperator_commutant, tripartite_wall

I2, X, Y, Z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]
L1 = SystemLayout((2,))
L2 = SystemLayout((2, 2))


def _random_generator_set(k):
    """Generator set k of acceptance criterion 2."""
    g = SeededRng(910, k).generator()
    n_sites = 1 + k % 2
    d, n_gens = 2**n_sites, 1 + k % 3
    gens = g.standard_normal((n_gens, d, d)) + 1j * g.standard_normal((n_gens, d, d))
    return gens, (2,) * n_sites


# criterion 2's 30 random generator sets, then named ones
KERNEL_CASES = [_random_generator_set(k) for k in range(30)] + [
    ([pauli_string(s) for s in names.split(",")], (2,) * len(names.split(",")[0]))
    for names in ("XI,ZX", "ZZ,XX", "XIZ,ZXI", "ZII,IZI")
]


def _matrix_units(d):
    units = []
    for i in range(d):
        for j in range(d):
            u = np.zeros((d, d))
            u[i, j] = 1.0
            units.append(u)
    return units


def _pauli_span(dim_sites):
    """Exact span-membership oracle over the Pauli basis."""
    labels = "IXYZ"
    basis = []
    from itertools import product

    for combo in product(labels, repeat=dim_sites):
        basis.append(pauli_string("".join(combo)))
    return np.asarray(basis)


class TestClosure:
    def test_single_z(self):
        alg = close_algebra([Z], L1)
        assert alg.dim == 2
        assert contains(alg, I2) and contains(alg, Z)
        assert not contains(alg, X)

    def test_empty_generators(self):
        alg = close_algebra([], L1)
        assert alg.dim == 1
        assert contains(alg, I2)

    def test_xi_zx_generates_dim4(self):
        gens = [pauli_string("XI"), pauli_string("ZX")]
        alg = close_algebra(gens, L2)
        assert alg.dim == 4
        # brute-force oracle: the products close on {II, XI, YX, ZX}
        for lab in ("II", "XI", "YX", "ZX"):
            assert contains(alg, pauli_string(lab))
        for lab in ("IX", "IZ", "ZI", "XX"):
            assert not contains(alg, pauli_string(lab))

    def test_shift_and_clock_full(self):
        lay = SystemLayout((3,))
        shift = np.roll(np.eye(3), 1, axis=0)
        alg = close_algebra([np.diag([0.0, 1, 2]), shift], lay)
        assert alg.dim == 9

    def test_generators_retained(self):
        alg = close_algebra([Z], L1)
        assert alg.generators is not None and len(alg.generators) == 1

    def test_list_and_stack_give_the_same_bases(self):
        g = np.random.default_rng(5)
        for gens in (
            [pauli_string("XI"), pauli_string("ZX")],
            [np.diag([1.0, 0, 0, 1]), np.roll(np.eye(4), 1, axis=0)],
            list(g.standard_normal((2, 4, 4)) + 1j * g.standard_normal((2, 4, 4))),
        ):
            from_list = close_algebra(gens, L2)
            from_stack = close_algebra(np.asarray(gens), L2)
            assert from_list.basis.tobytes() == from_stack.basis.tobytes()
            assert from_list.generators.tobytes() == from_stack.generators.tobytes()

    def test_empty_list_and_stack_give_the_identity(self):
        for gens in ([], np.zeros((0, 4, 4), dtype=complex)):
            alg = close_algebra(gens, L2)
            assert alg.dim == 1 and alg.generators is None
            assert contains(alg, np.eye(4))

    @pytest.mark.parametrize(
        "gens",
        [
            [np.eye(4), np.eye(2)],  # ragged list
            [np.eye(2)],  # a list of the wrong size
            np.zeros((2, 2, 2)),  # a stack of the wrong size
            np.eye(4),  # one matrix, not a stack
            np.zeros((2, 16)),  # flattened matrices
            np.zeros((1, 2, 8)),  # same element count, wrong shape
        ],
    )
    def test_wrong_shape_raises(self, gens):
        with pytest.raises(ValueError, match="generator dimensions do not match layout"):
            close_algebra(gens, L2)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_idempotence(self, seed, k):
        g = np.random.default_rng(seed)
        gens = g.standard_normal((k, 4, 4)) + 1j * g.standard_normal((k, 4, 4))
        a1 = close_algebra(gens, L2)
        a2 = close_algebra(a1.basis, L2)
        assert equals(a1, a2)


# the generator strings of tools/artifact_sweep.py
SWEEP_GENERATORS = ("Z", "ZZ", "XI,ZX", "ZI,IZ", "XX,ZZ", "ZII,IXI")


class TestClosureByWords:
    @pytest.mark.parametrize("d_C", range(2, 49))
    def test_diag_is_commutative_of_dimension_d_C(self, d_C):
        alg = resolve_central_algebra("diag", SystemLayout((d_C,)))
        assert alg.dim == d_C
        b = alg.basis
        comm = b[:, None] @ b[None] - b[None] @ b[:, None]
        assert np.max(np.linalg.norm(comm, axis=(2, 3))) < 1e-8
        flat = b.reshape(alg.dim, -1)
        assert np.linalg.norm(flat @ flat.conj().T - np.eye(alg.dim)) < 1e-12

    def test_shift_and_clock_m16_without_pairwise_stack(self):
        # the pairwise round of the 256-dimensional basis alone is a
        # (65792, 256) complex stack, 269 MB
        tracemalloc.start()
        try:
            alg = resolve_central_algebra("full", SystemLayout((16,)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alg.dim == 256 and peak < 64 * 2**20
        flat = alg.basis.reshape(alg.dim, -1)
        assert np.linalg.norm(flat @ flat.conj().T - np.eye(alg.dim)) < 1e-12

    @pytest.mark.parametrize("k", range(30))
    def test_random_sets_match_pairwise_oracle(self, k):
        gens, dims = _random_generator_set(k)
        lay = SystemLayout(dims)
        assert equals(close_algebra(gens, lay), pairwise_closure(gens, lay))

    @pytest.mark.parametrize("names", SWEEP_GENERATORS)
    def test_sweep_generators_match_pairwise_oracle(self, names):
        gens = [pauli_string(s) for s in names.split(",")]
        lay = SystemLayout((2,) * len(names.split(",")[0]))
        assert equals(close_algebra(gens, lay), pairwise_closure(gens, lay))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_central_algebras_match_pairwise_oracle(self, name):
        _, alg, _ = preset_algebra(name)
        assert equals(alg, pairwise_closure(alg.generators, alg.layout))

    @pytest.mark.parametrize("eps, seed", [(3e-10, 0), (3e-10, 1), (1e-9, 0)])
    def test_rounding_off_a_block_algebra_does_not_grow_it(self, eps, seed):
        # the matrix units of M_8 + M_8, each moved eps off the blocks in HS
        # norm, mixed by one Haar unitary: words are off the span by rounding
        # of order eps, which a small word's own norm would amplify into
        # new directions (all of M_16 at eps = 1e-9)
        g = SeededRng(seed).generator()
        units = np.zeros((128, 16, 16), dtype=complex)
        for k, (i, j) in enumerate((i, j) for off in (0, 8) for i in range(off, off + 8)
                                   for j in range(off, off + 8)):
            units[k, i, j] = 1
        off_block = np.kron(1 - np.eye(2), np.ones((8, 8)))
        noise = (g.standard_normal(units.shape) + 1j * g.standard_normal(units.shape)) * off_block
        noise *= eps / np.linalg.norm(noise, axis=(1, 2))[:, None, None]
        V = haar_unitary(16, g)
        assert close_algebra(V @ (units + noise) @ V.conj().T, SystemLayout((16,))).dim == 128

    def test_wall_check_round_seeds_match_pairwise_oracle(self, monkeypatch):
        # every closure of the presets' wall checks: the cores of a round
        seeds = []
        monkeypatch.setattr(
            dynamics, "close_algebra", lambda g, lay: seeds.append((g, lay)) or close_algebra(g, lay)
        )
        for name in PRESET_NAMES:
            wall = preset_wall(name, seed=0)
            dynamics.verify_wall(wall.U, wall.layout)
        assert len(seeds) >= len(PRESET_NAMES)
        for stack, layout in seeds:
            assert equals(close_algebra(stack, layout), pairwise_closure(stack, layout))


class TestCommutant:
    def test_full_algebra(self):
        lay = SystemLayout((4,))
        alg = close_algebra([np.roll(np.eye(4), 1, axis=0), np.diag([0.0, 1, 2, 3])], lay)
        assert alg.dim == 16
        assert commutant(alg).dim == 1

    def test_xi_zx(self):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], L2)
        com = commutant(alg)
        assert com.dim == 4
        for lab in ("II", "IX", "XZ", "XY"):
            assert contains(com, pauli_string(lab))

    def test_diagonal_self_commutant(self):
        lay = SystemLayout((3,))
        alg = close_algebra([np.diag([0.0, 1, 2])], lay)
        assert equals(alg, commutant(alg))

    def test_double_commutant_named(self):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], L2)
        assert equals(alg, commutant(commutant(alg)))

    @pytest.mark.parametrize("from_basis", [False, True], ids=["generators", "basis"])
    @pytest.mark.parametrize("case", range(len(KERNEL_CASES)))
    def test_matches_superoperator_oracle(self, case, from_basis):
        # the oracle solves for the kernel of the generators and their
        # adjoints, or of the whole basis; the commutant is read off the
        # block frame
        gens, dims = KERNEL_CASES[case]
        alg = close_algebra(gens, SystemLayout(dims))
        g = np.asarray(gens, dtype=complex)
        stack = alg.basis if from_basis else np.concatenate([g, g.conj().transpose(0, 2, 1)])
        assert equals(commutant(alg), superoperator_commutant(stack, alg.layout))

    def test_scale_without_superoperator(self):
        # at d = 64 the stacked superoperator alone is 1 GB; the frame
        # commutant is 1024 elements of 64 KB
        gens = [pauli_string("XIIIII"), pauli_string("ZXIIII")]
        alg = close_algebra(gens, SystemLayout((2,) * 6))
        tracemalloc.start()
        try:
            com = commutant(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert com.dim == 1024 and peak < 512 * 2**20
        flat = com.basis.reshape(com.dim, -1)
        assert np.allclose(flat.conj() @ flat.T, np.eye(com.dim), atol=1e-12)
        assert algebra.max_commutator(com.basis[::37], alg.basis) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(1, 2))
    @settings(max_examples=10, deadline=None)
    def test_double_commutant_random(self, seed, k):
        g = np.random.default_rng(seed)
        gens = g.standard_normal((k, 4, 4)) + 1j * g.standard_normal((k, 4, 4))
        alg = close_algebra(gens, L2)
        assert equals(alg, commutant(commutant(alg)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_tensor_factorization(self, seed):
        # Comm(A (x) B) = Comm(A) (x) Comm(B) for algebras on disjoint sites
        g = np.random.default_rng(seed)
        a = close_algebra([g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))], L1)
        b = close_algebra([g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))], L1)
        joint = close_algebra(
            [kron(x, I2) for x in a.basis] + [kron(I2, y) for y in b.basis], L2
        )
        lhs = commutant(joint)
        prod_basis = [kron(x, y) for x in commutant(a).basis for y in commutant(b).basis]
        rhs = MatrixAlgebra(orthonormal_basis(prod_basis), L2)
        assert equals(lhs, rhs)


class TestCenter:
    def test_full_matrix_algebra(self):
        lay = SystemLayout((4,))
        alg = close_algebra(_matrix_units(4), lay)
        assert center(alg).dim == 1

    def test_factor_algebra(self):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], L2)
        assert center(alg).dim == 1

    def test_abelian_is_own_center(self):
        lay = SystemLayout((3,))
        alg = close_algebra([np.diag([0.0, 1, 2])], lay)
        assert equals(center(alg), alg)

    def test_reducible(self):
        # C (+) M_2 on a 1+2 split: dim 5, center spanned by the two
        # block projectors
        lay = SystemLayout((3,))
        xb = np.asarray([[0.0, 0, 0], [0, 0, 1], [0, 1, 0]])
        zb = np.diag([0.0, 1, -1])
        alg = close_algebra([np.diag([0.0, 1, 1]), xb, zb], lay)
        assert alg.dim == 5
        assert center(alg).dim == 2

    # the center commutes with the generators G u G^dag only; the oracle
    # commutes with the whole basis
    @pytest.mark.parametrize("case", range(len(KERNEL_CASES)))
    def test_criterion_2_sets_match_basis_oracle(self, case):
        gens, dims = KERNEL_CASES[case]
        alg = close_algebra(gens, SystemLayout(dims))
        assert equals(center(alg), basis_center(alg))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_central_algebras_match_basis_oracle(self, name):
        _, alg, _ = preset_algebra(name)
        assert alg.generators is not None
        assert equals(center(alg), basis_center(alg))

    @pytest.mark.parametrize("algebra_name", ["diag", "full"])
    @pytest.mark.parametrize("d_C", range(2, 13))
    def test_dims_algebras_match_basis_oracle(self, d_C, algebra_name):
        alg = resolve_central_algebra(algebra_name, SystemLayout((d_C,)))
        assert alg.generators is not None
        assert equals(center(alg), basis_center(alg))

    def test_zero_generator_gives_the_trivial_center(self):
        # the generators span nothing: every element of <1> commutes
        alg = close_algebra([np.zeros((2, 2))], L1)
        assert alg.dim == 1 and center(alg).dim == 1

    def test_algebra_without_generators_uses_its_basis(self):
        alg = close_algebra([np.diag([0.0, 1, 1]), np.diag([1.0, 0, 1])], SystemLayout((3,)))
        bare = MatrixAlgebra(alg.basis, alg.layout)
        assert bare.generators is None
        assert equals(center(bare), alg)


def _intersect_cases():
    """(a, b) pairs: each criterion 2 algebra with its commutant, then the
    central factors (A_C, B_C) of every preset, of ``diag`` walls up to
    d_C = 16 and of ``full`` walls up to d_C = 8."""
    for k, (gens, dims) in enumerate(KERNEL_CASES):
        alg = close_algebra(gens, SystemLayout(dims))
        yield f"criterion2-{k}", lambda alg=alg: (alg, commutant(alg))
    walls = [(name, lambda name=name: preset_wall(name)) for name in PRESET_NAMES]
    walls += [(f"diag-{d_C}", lambda d_C=d_C: tripartite_wall(d_C, "diag")) for d_C in (2, 4, 8, 16)]
    walls += [(f"full-{d_C}", lambda d_C=d_C: tripartite_wall(d_C, "full")) for d_C in (2, 4, 8)]
    for name, build in walls:
        yield name, lambda build=build: _central_factors(build().invariants)


def _central_factors(inv):
    return inv.A_C, inv.B_C


INTERSECT_CASES = dict(_intersect_cases())


class TestIntersect:
    @pytest.mark.parametrize("case", INTERSECT_CASES)
    def test_matches_stacked_oracle_in_either_order(self, case):
        a, b = INTERSECT_CASES[case]()
        oracle = stacked_intersect(a, b)
        for out in (intersect(a, b), intersect(b, a)):
            assert out.dim == oracle.dim and equals(out, oracle)
            assert out.layout.site_dims == a.layout.site_dims

    def test_empty_intersection_is_a_zero_stack(self):
        a = MatrixAlgebra(X[None] / np.sqrt(2), L1)
        b = MatrixAlgebra(Z[None] / np.sqrt(2), L1)
        assert intersect(a, b).basis.shape == (0, 2, 2)
        assert stacked_intersect(a, b).dim == 0

    @pytest.mark.parametrize("eps, kept", [(1e-6, False), (1e-12, True)])
    def test_an_element_moved_off_the_other_span(self, eps, kept):
        # a = span{1 + eps X, Y}, b = span{1, Z}: the residual of a's unit
        # element (1 + eps X) / norm off b is about eps, against KERNEL_TOL
        a = MatrixAlgebra(orthonormal_basis([I2 + eps * X, Y]), L1)
        b = MatrixAlgebra(orthonormal_basis([I2, Z]), L1)
        for out in (intersect(a, b), intersect(b, a), stacked_intersect(a, b)):
            assert out.dim == int(kept)
            if kept:
                assert contains(out, I2)

    def test_d_c_32_without_a_projector_stack(self):
        # the stacked (1 - P_a; 1 - P_b) at d_C = 32 takes 32 MiB alone
        lay = SystemLayout((32,))
        a = close_algebra([np.diag(np.arange(32.0))], lay)
        b = close_algebra([np.diag(np.repeat(np.arange(16.0), 2))], lay)
        tracemalloc.start()
        try:
            out = intersect(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.dim == 16 and equals(out, b)
        assert peak < 8 * 2**20


class TestSetAlgebra:
    def test_intersect_self(self):
        alg = close_algebra([Z], L1)
        assert equals(MatrixAlgebra(alg.basis, L1), intersect(alg, alg))

    def test_intersect_to_identity(self):
        a = MatrixAlgebra(orthonormal_basis([I2, X]), L1)
        b = MatrixAlgebra(orthonormal_basis([I2, Z]), L1)
        out = intersect(a, b)
        assert out.dim == 1 and contains(out, I2)

    def test_contains_zero(self):
        alg = close_algebra([Z], L1)
        assert contains(alg, np.zeros((2, 2)))

    def test_equals_dim_mismatch(self):
        assert not equals(close_algebra([Z], L1), close_algebra([X, Z], L1))

    def test_one_span_type(self):
        assert not hasattr(wallkit, "OperatorSpace")

    def test_json_round_trip(self):
        alg = close_algebra([pauli_string("XI"), pauli_string("ZX")], L2)
        data = alg.to_json()
        mats = [np.asarray(b)[..., 0] + 1j * np.asarray(b)[..., 1] for b in data["basis"]]
        back = MatrixAlgebra(np.asarray(mats), SystemLayout(tuple(data["layout"])))
        assert data["unital"] is True
        assert equals(alg, back)


class TestCentralFactorExtraction:
    def _span(self, mats, layout):
        return MatrixAlgebra(orthonormal_basis(mats), layout)

    def test_trivial_center_factor(self):
        lay = SystemLayout.tripartite(2, (2,), 1)
        mats = [kron(m, I2) for m in _pauli_span(1)]
        out = extract_central_factor(self._span(mats, lay), lay)
        assert out.dim == 1

    def test_diag_center_factor(self):
        lay = SystemLayout.tripartite(2, (2,), 1)
        mats = [kron(m, c) for m in _pauli_span(1) for c in (I2, Z)]
        out = extract_central_factor(self._span(mats, lay), lay)
        assert out.dim == 2
        assert contains(out, Z)

    def test_trailing_identity_stripped(self):
        lay = SystemLayout.tripartite(2, (2,), 2)
        mats = [kron(kron(m, c), I2) for m in _pauli_span(1) for c in (I2, Z)]
        out = extract_central_factor(self._span(mats, lay), lay)
        assert out.dim == 2

    def test_right_support_rejected(self):
        lay = SystemLayout.tripartite(2, (2,), 2)
        mats = [kron(m, np.eye(4)) for m in _pauli_span(1)] + [pauli_string("IIX")]
        with pytest.raises(ValueError):
            extract_central_factor(self._span(mats, lay), lay)

    def test_non_product_rejected(self):
        lay = SystemLayout.tripartite(2, (2,), 1)
        mats = [kron(m, I2) for m in _pauli_span(1)] + [pauli_string("XX")]
        with pytest.raises(ValueError):
            extract_central_factor(self._span(mats, lay), lay)

    def test_missing_left_units_rejected(self):
        lay = SystemLayout.tripartite(2, (2,), 1)
        mats = [pauli_string("II"), pauli_string("ZI")]
        with pytest.raises(ValueError):
            extract_central_factor(self._span(mats, lay), lay)
