"""Observable-level tests: Schmidt data, the entanglement area law,
measurement protocols, and the spectral form factor."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from wallkit.layout import SeededRng, SystemLayout
from wallkit import observables
from wallkit.cli import run
from wallkit.linalg import haar_from_ginibre, haar_unitary, kron
from wallkit.observables import (
    SFF_CHUNK_ELEMS,
    AreaLawReport,
    PureState,
    _chunk_elems,
    _power_traces,
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
    PRESET_NAMES,
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


def _area_law_oracle(wall, psi0, t_max):
    """The per-state step loop: a full-space projector per block, then one
    ``evolve_state`` and one ``schmidt`` per state and step."""
    layout = wall.layout
    cut = len(layout.left)

    def trajectory(psi, bound):
        max_rank, violations = 0, []
        for t in range(t_max + 1):
            r = schmidt(psi, cut).rank
            max_rank = max(max_rank, r)
            if r > bound:
                violations.append((t, r))
            if t < t_max:
                psi = evolve_state(wall.U, psi, 1)
        return max_rank, violations

    bs = wall.block_structure
    block_results = []
    for i, ((dD, _), P) in enumerate(zip(bs.blocks, bs.central_projectors)):
        proj = kron(kron(np.eye(layout.d_left), P), np.eye(layout.d_right))
        amps = proj @ psi0.amplitudes
        weight = np.linalg.norm(amps)
        b_max, b_viol = 0, []
        if weight >= 1e-8:
            b_max, b_viol = trajectory(PureState(amps / weight, layout), dD * dD)
        block_results.append(
            {"block": i, "bound": dD * dD, "max_rank": b_max, "violations": b_viol,
             "weight": float(weight)}
        )
    return AreaLawReport(t_max, wall.A_C.dim, *trajectory(psi0, wall.A_C.dim), block_results)


def _assert_same_report(rep, ref):
    assert (rep.t_max, rep.bound, rep.max_rank, rep.violations) == (
        ref.t_max, ref.bound, ref.max_rank, ref.violations
    )
    assert len(rep.block_results) == len(ref.block_results)
    for b, r in zip(rep.block_results, ref.block_results):
        assert abs(b["weight"] - r["weight"]) < 1e-12
        assert {k: v for k, v in b.items() if k != "weight"} == {
            k: v for k, v in r.items() if k != "weight"
        }


def _area_law_walls():
    for name in PRESET_NAMES:
        yield preset_wall(name)
        if name != "fswap":
            yield preset_wall(name, dims=(3, 4))
    lay = SystemLayout.tripartite(2, (2, 2), 3)
    for alg in ("diag", "full", "pauli:XI,ZX"):
        yield synth_wall(lay, resolve_central_algebra(alg, lay), seed=3)


class TestAreaLawOracle:
    """The one-pass check equals the per-state step loop, report for report."""

    def test_walls(self):
        for k, wall in enumerate(_area_law_walls()):
            for j in range(3):
                psi0 = random_product_state(wall.layout, SeededRng(40, 10 * k + j))
                _assert_same_report(verify_area_law(wall, psi0, 20), _area_law_oracle(wall, psi0, 20))

    def test_empty_block(self):
        wall = preset_wall("abelian-pair")
        g = SeededRng(41).generator()
        edge = [g.standard_normal(2) + 1j * g.standard_normal(2) for _ in range(2)]
        v = kron(kron(edge[0], [1, 0]), edge[1])
        psi0 = PureState(v / np.linalg.norm(v), wall.layout)
        rep = verify_area_law(wall, psi0, 10)
        assert sorted(b["weight"] for b in rep.block_results) == [0.0, pytest.approx(1.0)]
        empty = min(rep.block_results, key=lambda b: b["weight"])
        assert empty["max_rank"] == 0 and empty["violations"] == []
        _assert_same_report(rep, _area_law_oracle(wall, psi0, 10))

    def test_haar_violations(self):
        wall = preset_wall("abelian-pair", dims=(3, 4))
        fake = SimpleNamespace(
            U=haar_unitary(wall.layout.dim, SeededRng(42)), layout=wall.layout,
            A_C=wall.A_C, block_structure=wall.block_structure,
        )
        psi0 = random_product_state(wall.layout, SeededRng(43))
        rep = verify_area_law(fake, psi0, 8)
        assert rep.violations and all(b["violations"] for b in rep.block_results)
        _assert_same_report(rep, _area_law_oracle(fake, psi0, 8))

    def test_state_evolves_by_U_not_its_transpose(self):
        # U = (H on L) CNOT(L -> C) keeps |0>|c>|r> a product for one step;
        # U^T = CNOT (H on L) entangles it at once
        wall = preset_wall("abelian-pair")
        H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        cnot = np.eye(4)[[0, 1, 3, 2]]
        U = kron(H, np.eye(4)) @ kron(cnot, np.eye(2))
        fake = SimpleNamespace(
            U=U, layout=wall.layout, A_C=SimpleNamespace(dim=1),
            block_structure=wall.block_structure,
        )
        g = SeededRng(44).generator()
        c, r = (g.standard_normal(2) + 1j * g.standard_normal(2) for _ in range(2))
        v = kron(kron([1, 0], c), r)
        psi0 = PureState(v / np.linalg.norm(v), wall.layout)
        rep = verify_area_law(fake, psi0, 4)
        assert rep.violations[0] == (2, 2)
        _assert_same_report(rep, _area_law_oracle(fake, psi0, 4))


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


T_MAXES = (1, 2, 3, 4, 8, 15, 16, 32, 40)


def _rotated(phases, seed):
    """Q diag(e^{i phases}) Q^dagger for a Haar Q: a unitary with that spectrum."""
    q = haar_unitary(len(phases), SeededRng(seed))
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


def _phase_power_sums(phases, t_max):
    return np.exp(1j * np.outer(np.arange(1, t_max + 1), phases)).sum(axis=1)


def _spectra(n):
    """Named phase lists of size n: degenerate, near-degenerate and spread."""
    g = np.random.default_rng(n)
    out = {
        "identity": [0.0] * n,
        "minus-identity": [np.pi] * n,
        "plus-minus": [0.0, np.pi] * (n // 2) + [0.0] * (n % 2),
        "spread": list(g.uniform(0, 2 * np.pi, n)),
    }
    if n == 2:
        out["near-degenerate"] = [0.7, 0.7 + 1e-9]
    if n >= 3:
        # one triple, one pair and single phases
        out["repeated"] = ([1.3] * 3 + [-2.1] * 2 + list(g.uniform(0, 2 * np.pi, n)))[:n]
    return out


class TestPowerTraces:
    @pytest.mark.parametrize("n", range(1, 18))
    def test_matches_eigenvalue_power_sums(self, n):
        g = SeededRng(40 + n).generator()
        v = np.stack([haar_unitary(n, g) for _ in range(4)])
        eigs = np.linalg.eigvals(v)
        for t_max in T_MAXES:
            want = (eigs[:, None, :] ** np.arange(1, t_max + 1)[:, None]).sum(axis=2)
            got = _power_traces(v, t_max)
            assert got.shape == (4, t_max)
            # |tr V^t| <= n: the tolerance is relative to that scale
            assert np.abs(got - want).max() <= 1e-10 * n, t_max

    @pytest.mark.parametrize("n", range(1, 18))
    def test_degenerate_spectra(self, n):
        for name, phases in _spectra(n).items():
            v = _rotated(phases, 50 + n)
            for t_max in T_MAXES:
                got = _power_traces(v, t_max)
                want = _phase_power_sums(phases, t_max)
                assert np.abs(got - want).max() <= 1e-10 * n, (name, t_max)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
    def test_stack_gives_the_bytes_of_single_calls(self, n):
        g = SeededRng(60 + n).generator()
        v = np.stack([haar_unitary(n, g) for _ in range(6)])
        for t_max in (1, 7, 32):
            stacked = _power_traces(v.reshape(2, 3, n, n), t_max)
            assert stacked.shape == (2, 3, t_max)
            for i in range(6):
                single = _power_traces(v[i], t_max)
                assert single.shape == (t_max,)
                assert single.tobytes() == stacked[i // 3, i % 3].tobytes()

    def test_no_times(self):
        assert _power_traces(np.eye(3), 0).shape == (0,)


def _ensembles():
    """(blocks, d_L, d_R) of the block layouts the SFF route tests run."""
    wall = preset_wall("reducible-composite")
    return {
        "reducible-composite": (
            wall.block_structure.blocks, wall.layout.d_left, wall.layout.d_right,
        ),
        "haar": ([(1, 1)], 4, 1),
        "mixed": ([(1, 2), (2, 1)], 4, 3),
        "haar16": ([(1, 1)], 16, 1),
    }


def _eigvals_route(blocks, d_L, d_R, t_max, samples, rng):
    """Oracle: K_mc[1:] and stderr[1:] of ``sff_mc`` from block spectra.  The
    draws are ``sff_mc``'s (one stack per block size, ascending); ``eigvals``
    of each block, then tr U^t = sum_i tr(T_i^t) tr(R_i^t) in block order."""
    sizes = [n for dD, dE in sorted(blocks) for n in (d_L * dD, dE * d_R)]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    g = rng.generator()
    eigs = np.empty((samples, offsets[-1]), dtype=complex)
    for n in sorted(set(sizes)):
        cols = np.concatenate([np.arange(o, o + n) for size, o in zip(sizes, offsets) if size == n])
        x = g.standard_normal((samples * sizes.count(n), n, n, 2))
        u = haar_from_ginibre((x[..., 0] + 1j * x[..., 1]) / np.sqrt(2))
        eigs[:, cols] = np.linalg.eigvals(u).reshape(samples, -1)
    per_sample = np.empty((samples, t_max))
    powers = np.ones_like(eigs)
    for t in range(1, t_max + 1):
        powers *= eigs
        tr = sum(
            powers[:, offsets[j] : offsets[j + 1]].sum(axis=1)
            * powers[:, offsets[j + 1] : offsets[j + 2]].sum(axis=1)
            for j in range(0, len(sizes), 2)
        )
        per_sample[:, t - 1] = tr.real**2 + tr.imag**2
    return per_sample.mean(axis=0), per_sample.std(axis=0, ddof=1) / np.sqrt(samples)


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

    @pytest.mark.parametrize("ensemble", ["reducible-composite", "haar", "mixed"])
    def test_batched_matches_per_sample_loop(self, ensemble):
        # reference: for each block size in ascending order, sample by sample
        # and block by block, one (n, n, 2) Ginibre draw, QR and the traces of
        # that one matrix; then per sample the pair products in the order the
        # pairs complete (by their larger block, then in pair order).
        # reducible-composite: n = 2 blocks wait as draws; haar: an n = 1
        # block waits; mixed: n = 3 waits as draws, n = 4 as traces
        blocks, d_L, d_R = _ensembles()[ensemble]
        t_max = 12
        sizes = [n for dD, dE in sorted(blocks) for n in (d_L * dD, dE * d_R)]
        assert len(set(sizes)) > 1
        # at least two full chunks and a partial one of the costliest stack
        chunk = SFF_CHUNK_ELEMS // max(sizes.count(n) * _chunk_elems(n, t_max) for n in sizes)
        samples = 2 * chunk + chunk // 2 + 1
        traces = {}
        g = SeededRng(29).generator()
        for n in sorted(set(sizes)):
            for s in range(samples):
                for j, size in enumerate(sizes):
                    if size == n:
                        x = g.standard_normal((n, n, 2))
                        u = haar_from_ginibre((x[..., 0] + 1j * x[..., 1]) / np.sqrt(2))
                        traces[s, j] = _power_traces(u, t_max)
        pairs = sorted(range(len(blocks)), key=lambda i: max(sizes[2 * i : 2 * i + 2]))
        total = np.zeros((samples, t_max), dtype=complex)
        for s in range(samples):
            for i in pairs:
                total[s] += traces[s, 2 * i] * traces[s, 2 * i + 1]
        per_sample = total.real**2 + total.imag**2

        res = sff_mc(blocks, d_L, d_R, t_max=t_max, samples=samples, rng=SeededRng(29))
        assert np.array_equal(res.K_mc[1:], per_sample.mean(axis=0))
        assert np.array_equal(
            res.stderr[1:], per_sample.std(axis=0, ddof=1) / np.sqrt(samples)
        )

    @pytest.mark.parametrize("ensemble", ["reducible-composite", "haar", "mixed", "haar16"])
    def test_matches_eigenvalue_route(self, ensemble):
        # same draws, traces from block spectra instead of matrix powers
        blocks, d_L, d_R = _ensembles()[ensemble]
        res = sff_mc(blocks, d_L, d_R, t_max=32, samples=400, rng=SeededRng(32))
        K, err = _eigvals_route(blocks, d_L, d_R, 32, 400, SeededRng(32))
        assert res.K_mc[1:] == pytest.approx(K, rel=1e-12)
        assert res.stderr[1:] == pytest.approx(err, rel=1e-12)

    @pytest.mark.parametrize(
        "blocks, d_L, d_R, samples",
        [([(1, 1)] * 4, 2, 1, 1000), ([(1, 1)], 16, 1, 1000), ([(1, 1), (1, 1)], 2, 2, 1600)],
    )
    def test_peak_memory_stays_near_the_output(self, blocks, d_L, d_R, samples):
        # the complex total alone is 2 * samples * t_max * 8 B; chunk buffers,
        # waiting blocks and the statistics fit in four more real tables
        sff_mc(blocks, d_L, d_R, t_max=32, samples=samples, rng=SeededRng(33))
        tracemalloc.start()
        try:
            sff_mc(blocks, d_L, d_R, t_max=32, samples=samples, rng=SeededRng(33))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * samples * 32 * 8

    def test_chunk_size_does_not_change_output(self, monkeypatch):
        def draw():
            res = sff_mc([(1, 2), (2, 1)], 2, 3, t_max=10, samples=300, rng=SeededRng(30))
            return res.K_mc, res.stderr

        before = draw()
        monkeypatch.setattr(observables, "SFF_CHUNK_ELEMS", 16)
        after = draw()
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_block_order_does_not_change_output(self):
        blocks = [(1, 2), (2, 1)]
        a = sff_mc(blocks, 2, 3, t_max=10, samples=200, rng=SeededRng(31))
        b = sff_mc(blocks[::-1], 2, 3, t_max=10, samples=200, rng=SeededRng(31))
        for name in ("K_mc", "stderr", "K_analytic"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_sff_call_builds_two_generators(self, monkeypatch, capsys):
        # one for decompose (stream 7), one for every draw (stream 51)
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        argv = ["sff", "--preset", "abelian-pair", "--samples", "1000", "--t-max", "8"]
        assert run(argv) == 0
        capsys.readouterr()
        assert len(built) <= 2

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            sff_mc(_diag_blocks(28), 2, 2, t_max=2, samples=1, rng=SeededRng(28))
