"""Observable-level tests: Schmidt data, the entanglement area law,
measurement protocols, and the spectral form factor."""

import math

import numpy as np
import pytest

from wallkit.layout import SeededRng, SystemLayout
from wallkit._kernels import trace_powers
from wallkit.linalg import haar_unitary, kron
from wallkit.observables import (
    SFF_CHUNK_ELEMS,
    PureState,
    classify_observable,
    evolve_state,
    measure,
    measurement_protocol,
    random_product_state,
    schmidt,
    sff_analytic,
    sff_mc,
    verify_area_law,
)
from wallkit.blocks import decompose
from wallkit.walls import (
    PAULI,
    pauli_string,
    preset_wall,
    resolve_central_algebra,
    synth_wall,
)

I2, X, Y, Z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]


def _basis_state(layout, index):
    v = np.zeros(layout.dim)
    v[index] = 1.0
    return PureState(v, layout)


class TestStates:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.ones(4), SystemLayout((2, 2)))

    def test_product_state_rank_one(self):
        lay = SystemLayout((2, 2, 2))
        psi = random_product_state(lay, SeededRng(1))
        assert schmidt(psi, 1).rank == 1
        assert schmidt(psi, 2).rank == 1

    def test_evolution_preserves_norm(self):
        lay = SystemLayout((2, 2, 2))
        U = haar_unitary(8, SeededRng(2))
        psi = evolve_state(U, random_product_state(lay, SeededRng(3)), 200)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-10


class TestSchmidt:
    def test_bell_state(self):
        lay = SystemLayout((2, 2))
        v = np.zeros(4)
        v[0] = v[3] = 1 / np.sqrt(2)
        sd = schmidt(PureState(v, lay), 1)
        assert sd.rank == 2
        assert np.allclose(sd.singular_values[:2], 1 / np.sqrt(2))
        assert abs(sd.entropy_bits() - 1.0) < 1e-12

    def test_product_state_entropy_is_plus_zero(self):
        sd = schmidt(_basis_state(SystemLayout((2, 2)), 0), 1)
        assert sd.entropy_bits() == 0.0 and math.copysign(1.0, sd.entropy_bits()) == 1.0

    def test_haar_state_full_rank(self):
        lay = SystemLayout((2, 2))
        g = SeededRng(4).generator()
        v = g.standard_normal(4) + 1j * g.standard_normal(4)
        sd = schmidt(PureState(v / np.linalg.norm(v), lay), 1)
        assert sd.rank == 2

    def test_cut_bounds(self):
        lay = SystemLayout((2, 2))
        with pytest.raises(ValueError):
            schmidt(_basis_state(lay, 0), 0)


class TestAreaLaw:
    def test_abelian_pair_saturates_bound(self):
        wall = preset_wall("abelian-pair")
        rep = verify_area_law(wall, random_product_state(wall.layout, SeededRng(5)), 40)
        assert rep.passed
        assert rep.bound == 2 and rep.max_rank == 2
        for b in rep.block_results:
            assert b["max_rank"] <= b["bound"] == 1

    def test_nonabelian_bound_four(self):
        wall = preset_wall("nonabelian-cnot")
        rep = verify_area_law(wall, random_product_state(wall.layout, SeededRng(6)), 40)
        assert rep.passed and rep.bound == 4

    def test_trivial_wall_rank_one(self):
        lay = SystemLayout.tripartite(2, (2,), 2)
        wall = synth_wall(lay, resolve_central_algebra([np.eye(2)], lay), seed=7)
        rep = verify_area_law(wall, random_product_state(wall.layout, SeededRng(8)), 20)
        assert rep.passed and rep.bound == 1 and rep.max_rank == 1

    def test_entangled_input_rejected(self):
        wall = preset_wall("abelian-pair")
        v = np.zeros(16)
        v[0] = v[10] = 1 / np.sqrt(2)
        with pytest.raises(ValueError):
            verify_area_law(wall, PureState(v, wall.layout), 5)


class TestMeasure:
    def setup_method(self):
        self.lay = SystemLayout.tripartite(2, (2,), 2)

    def test_eigenstate_certain(self):
        res = measure(_basis_state(self.lay, 0), Z, SeededRng(9))
        assert res.probability == pytest.approx(1.0)
        assert res.outcome == pytest.approx(1.0)

    def test_plus_state_half(self):
        plus = np.kron(np.kron([1, 0], [1, 1] / np.sqrt(2)), [1, 0])
        res = measure(PureState(plus, self.lay), Z, SeededRng(10))
        assert res.probability == pytest.approx(0.5)
        assert abs(abs(res.outcome) - 1.0) < 1e-12

    def test_born_frequencies(self):
        plus = np.kron(np.kron([1, 0], [1, 1] / np.sqrt(2)), [1, 0])
        psi = PureState(plus, self.lay)
        g = SeededRng(11).generator()
        n = 2000
        ups = sum(measure(psi, Z, g).outcome > 0 for _ in range(n))
        assert abs(ups / n - 0.5) < 4 / (2 * np.sqrt(n))

    def test_degenerate_outcome_keeps_subspace(self):
        res = measure(
            random_product_state(self.lay, SeededRng(12)), np.eye(2), SeededRng(13)
        )
        assert res.probability == pytest.approx(1.0)
        # projecting onto the full space leaves the state untouched
        assert np.allclose(
            res.state.amplitudes,
            random_product_state(self.lay, SeededRng(12)).amplitudes,
        )

    def test_nonhermitian_rejected(self):
        with pytest.raises(ValueError):
            measure(_basis_state(self.lay, 0), np.array([[0, 1], [0, 0]]), SeededRng(14))


class TestProtocol:
    def test_classification(self):
        wall = preset_wall("abelian-pair")
        assert classify_observable(wall, Z) == "central"
        assert classify_observable(wall, X) == "neither"
        fs = preset_wall("fswap")
        assert classify_observable(fs, pauli_string("XI")) == "central"
        assert classify_observable(fs, pauli_string("IX")) == "commutant"
        assert classify_observable(fs, pauli_string("XX")) == "neither"

    def test_central_measurement_keeps_bound(self):
        wall = preset_wall("abelian-pair")
        psi = random_product_state(wall.layout, SeededRng(15))
        rec = measurement_protocol(wall, psi, Z, 10, SeededRng(16))
        assert rec.classification == "central"
        assert all(r["rank"] <= wall.A_C.dim for r in rec.rounds)

    def test_commutant_measurement_keeps_bound(self):
        wall = preset_wall("fswap")
        psi = random_product_state(wall.layout, SeededRng(17))
        rec = measurement_protocol(wall, psi, pauli_string("IX"), 10, SeededRng(18))
        assert rec.classification == "commutant"
        assert all(r["rank"] <= wall.A_C.dim for r in rec.rounds)

    def test_noncompatible_measurement_escapes(self):
        # on wide edges, measuring outside A_C and its commutant breaks the
        # rank bound quickly
        wall = preset_wall("abelian-pair", dims=(4, 4))
        escaped = 0
        for k in range(10):
            psi = random_product_state(wall.layout, SeededRng(19, k))
            rec = measurement_protocol(wall, psi, X, 10, SeededRng(20, k))
            assert rec.classification == "neither"
            if any(r["rank"] > wall.A_C.dim for r in rec.rounds):
                escaped += 1
        assert escaped >= 8

    def test_identity_wall_rank_stays_one(self):
        lay = SystemLayout.tripartite(2, (2,), 2)
        wall = synth_wall(lay, resolve_central_algebra([np.eye(2)], lay), seed=21)
        psi = random_product_state(wall.layout, SeededRng(22))
        rec = measurement_protocol(wall, psi, Z, 8, SeededRng(23))
        assert all(r["rank"] == 1 for r in rec.rounds)


class TestSFFAnalytic:
    def test_time_zero_trace_identity(self):
        assert sff_analytic([(1, 1), (1, 1)], 2, 2, 0) == 64.0

    def test_plateau(self):
        blocks = [(1, 1), (1, 1)]
        vals = [sff_analytic(blocks, 2, 2, t) for t in (1, 2, 4, 8)]
        assert vals == [2.0, 8.0, 8.0, 8.0]

    def test_haar_ramp(self):
        assert [sff_analytic([(1, 1)], 4, 1, t) for t in (1, 2, 3, 4, 9)] == [
            1.0, 2.0, 3.0, 4.0, 4.0,
        ]

    def test_single_nonabelian_block(self):
        vals = [sff_analytic([(2, 2)], 2, 2, t) for t in (1, 2, 4, 8)]
        assert vals == [1.0, 4.0, 16.0, 16.0]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            sff_analytic([(1, 1)], 2, 2, -1)


def _within(res, t, sigmas=4.0, floor=0.02):
    lo = res.K_mc[t] - sigmas * max(res.stderr[t], floor)
    hi = res.K_mc[t] + sigmas * max(res.stderr[t], floor)
    return lo <= res.K_analytic[t] <= hi


def _diag_blocks(seed):
    """Blocks of the diag central algebra on one qubit, decomposed with stream
    7 of ``seed``."""
    lay = SystemLayout.tripartite(2, (2,), 2)
    return decompose(resolve_central_algebra("diag", lay), SeededRng(seed, 7)).blocks


class TestSFFMonteCarlo:
    def test_diag_wall_matches_prediction(self):
        res = sff_mc(_diag_blocks(24), 2, 2, t_max=8, samples=3000, rng=SeededRng(24))
        assert res.K_mc[0] == 64.0 and res.stderr[0] == 0.0
        for t in range(1, 9):
            assert _within(res, t), (t, res.K_mc[t], res.K_analytic[t])

    def test_haar_ensemble_ramp(self):
        res = sff_mc([(1, 1)], 4, 1, t_max=8, samples=3000, rng=SeededRng(25))
        for t in range(1, 9):
            assert _within(res, t)

    def test_additivity_cross_terms_vanish(self):
        # independent blocks: E tr(U_a^t) conj(tr(U_b^t)) = 0, so the direct
        # sum's form factor is the sum of the block form factors
        g = SeededRng(26).generator()
        n, t = 2000, 3
        ta = np.empty(n, dtype=complex)
        tb = np.empty(n, dtype=complex)
        for k in range(n):
            ta[k] = np.trace(np.linalg.matrix_power(haar_unitary(2, g), t))
            tb[k] = np.trace(np.linalg.matrix_power(haar_unitary(3, g), t))
        cross = np.mean(ta * tb.conj())
        assert abs(cross) < 4 * np.std(ta * tb.conj()) / np.sqrt(n)
        total = np.mean(np.abs(ta + tb) ** 2)
        expected = min(t, 2) + min(t, 3)
        spread = np.std(np.abs(ta + tb) ** 2) / np.sqrt(n)
        assert abs(total - expected) < 4 * spread

    @pytest.mark.parametrize("ensemble", ["reducible-composite", "haar"])
    def test_batched_matches_per_sample_loop(self, ensemble):
        # reference: one haar_unitary per block, then eigvals, sample by sample
        if ensemble == "haar":
            blocks, d_L, d_R = [(1, 1)], 4, 1
        else:
            wall = preset_wall(ensemble)
            blocks = wall.block_structure.blocks
            d_L, d_R = wall.layout.d_left, wall.layout.d_right
        sizes = [n for dD, dE in blocks for n in (d_L * dD, dE * d_R)]
        assert len(set(sizes)) > 1
        chunk = SFF_CHUNK_ELEMS // sum(n * n for n in sizes)
        samples = 2 * chunk + chunk // 2 + 1  # two full chunks and a partial one
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        eigs = np.empty((samples, offsets[-1]), dtype=complex)
        base = SeededRng(29)
        for s in range(samples):
            g = base.stream(1000 + s).generator()
            for n, start in zip(sizes, offsets):
                eigs[s, start : start + n] = np.linalg.eigvals(haar_unitary(n, g))
        per_sample = trace_powers(eigs, offsets, 12)

        res = sff_mc(blocks, d_L, d_R, t_max=12, samples=samples, rng=SeededRng(29))
        assert np.array_equal(res.K_mc[1:], per_sample.mean(axis=0))
        assert np.array_equal(
            res.stderr[1:], per_sample.std(axis=0, ddof=1) / np.sqrt(samples)
        )

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            sff_mc(_diag_blocks(28), 2, 2, t_max=2, samples=1, rng=SeededRng(28))
