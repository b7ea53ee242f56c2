"""Dynamics tests: operator spreading, wall verification, conserved charges,
gauged sequences, fragment counting, and chain scanning."""

import tracemalloc

import numpy as np
import pytest

import wallkit.cli as cli
import wallkit.dynamics as dynamics
from wallkit.layout import SeededRng, SystemLayout
from wallkit.linalg import (
    ESCAPE_TOL,
    VERIFY_TOL,
    ZERO_TOL,
    dagger,
    embed,
    haar_unitary,
    kron,
    orthonormal_basis,
    partial_trace,
)
from wallkit.algebra import (
    MatrixAlgebra,
    close_algebra,
    contains,
    equals,
    extract_central_factor,
)
from wallkit.dynamics import (
    conserved_algebra,
    evolve_op,
    fragment_decomposition,
    gauged_sequence,
    invariant_algebras,
    lightcone,
    scan_chain,
    support,
    verify_wall,
)
from wallkit.walls import (
    PAULI,
    PRESET_NAMES,
    conditional_unitary,
    pauli_string,
    preset_wall,
    resolve_central_algebra,
    synth_wall,
)
from conftest import (
    brickwork_unitary,
    commutant_conserved,
    decomposed_gauged_sequence,
    dense_scan_records,
    lifted_compress,
    projector_onto,
    stacked_intersect,
    superoperator_commutant,
    swap_edges,
    tripartite_wall,
    window_layout,
)

I2, X, Y, Z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]
L3 = SystemLayout((2, 2, 2))


class TestSupport:
    def test_single_site(self):
        sup, res = support(pauli_string("ZII"), L3)
        assert sup == {0}
        assert res[1] < 1e-12 and res[2] < 1e-12

    def test_two_site_gate(self):
        cnot = conditional_unitary(np.eye(2), [I2, X], control_first=True)
        sup, _ = support(embed(cnot, (0, 1), L3), L3)
        assert sup == {0, 1}

    def test_identity_empty(self):
        sup, _ = support(np.eye(8), L3)
        assert sup == set()

    def test_zero_operator_empty(self):
        sup, _ = support(np.zeros((8, 8)), L3)
        assert sup == set()

    @staticmethod
    def _mixed_stack(layout):
        U = haar_unitary(layout.dim, SeededRng(30))
        ops = [np.zeros((layout.dim, layout.dim)), np.eye(layout.dim)]
        for site in range(layout.n_sites):
            if layout.site_dims[site] == 2:
                ops += [evolve_op(U, embed(P, (site,), layout), t) for P in (X, Z) for t in (0, 1)]
        return np.stack(ops).astype(complex)

    @pytest.mark.parametrize("layout", [L3, SystemLayout((3, 2, 2, 4)), SystemLayout((2,))])
    def test_stack_equals_per_matrix_calls(self, layout):
        stack = self._mixed_stack(layout)
        sets, res = support(stack, layout)
        assert res.shape == (len(stack), layout.n_sites)
        for O, sup, r in zip(stack, sets, res):
            one_sup, one_res = support(O, layout)
            assert sup == one_sup
            assert np.array_equal(r, one_res)
        assert sets[0] == sets[1] == set() and not res[:2].any()

    @pytest.mark.parametrize("layout", [L3, SystemLayout((3, 2, 2, 4))])
    def test_residuals_keep_the_bytes_of_partial_trace_and_embed(self, layout):
        # the per-site route: partial_trace, embed (kron plus transpose), norm
        for O in self._mixed_stack(layout)[2:]:
            norm = np.linalg.norm(O)
            ref = []
            for s in range(layout.n_sites):
                reduced = partial_trace(O, {s}, layout) / layout.site_dims[s]
                rest = [q for q in range(layout.n_sites) if q != s]
                ref.append(np.linalg.norm(O - embed(reduced, rest, layout)) / norm)
            assert np.array_equal(support(O, layout)[1], ref)


class TestLightcone:
    def test_wall_arrests_left_seed(self):
        wall = preset_wall("abelian-pair")
        seed = embed(X, (0,), wall.layout)
        prof = lightcone(wall.U, seed, wall.layout, t_max=200)
        for sup in prof.support_sets:
            assert sup <= {0, 1}

    def test_haar_spreads(self):
        U = haar_unitary(8, SeededRng(1))
        prof = lightcone(U, embed(X, (0,), L3), L3, t_max=3)
        assert prof.support_sets[-1] == {0, 1, 2}

    def test_identity_constant(self):
        prof = lightcone(np.eye(8), embed(Y, (1,), L3), L3, t_max=5)
        assert all(s == {1} for s in prof.support_sets)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve_op(np.eye(2), X, -1)

    def test_chunks_give_the_profile_of_one_pass(self, monkeypatch):
        wall = preset_wall("nonabelian-cnot")
        seed = embed(X, (1,), wall.layout)
        one = lightcone(wall.U, seed, wall.layout, t_max=30)
        monkeypatch.setattr(dynamics, "LIGHTCONE_CHUNK_ELEMS", 7 * wall.layout.dim**2)
        chunked = lightcone(wall.U, seed, wall.layout, t_max=30)
        assert chunked.support_sets == one.support_sets
        assert np.array_equal(chunked.residuals, one.residuals)

    def test_peak_memory_does_not_grow_with_t_max(self, monkeypatch):
        wall = preset_wall("uncoupled-center")  # d = 32
        d = wall.layout.dim
        monkeypatch.setattr(dynamics, "LIGHTCONE_CHUNK_ELEMS", 16 * d * d)
        calls = []

        def counted(O, *args):
            calls.append(len(O))
            return support(O, *args)

        monkeypatch.setattr(dynamics, "support", counted)
        seed = embed(X, (0,), wall.layout)
        peaks = {}
        for chunks in (2, 8):
            calls.clear()
            tracemalloc.start()
            lightcone(wall.U, seed, wall.layout, t_max=16 * chunks - 1)
            peaks[chunks] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert calls == [16] * chunks  # the budget binds
        assert peaks[8] < 1.5 * peaks[2], peaks


def _wall_results():
    """Every preset's wall check: summary, closure rounds and factor bytes."""
    out = []
    for name in PRESET_NAMES:
        wall = preset_wall(name)
        rep = verify_wall(wall.U, wall.layout)
        out.append((rep.summary(), rep.steps_left, rep.steps_right,
                    rep.A_C.basis.tobytes(), rep.B_C.basis.tobytes()))
    return out


class TestVerifyWall:
    def test_presets_pass(self):
        for name in ("abelian-pair", "soliton-x", "fswap"):
            wall = preset_wall(name)
            rep = verify_wall(wall.U, wall.layout)
            assert rep.is_wall, name

    def test_haar_fails_both_sides(self):
        lay = SystemLayout.tripartite(2, (2,), 2)
        for k in range(5):
            rep = verify_wall(haar_unitary(8, SeededRng(2, k)), lay)
            assert not rep.left and not rep.right
            assert rep.stabilization_time == 1

    def test_haar_d256_rejects_both_sides_in_round_one(self):
        # the call of `wallkit verify --algebra haar --dims 4,16,4`: the
        # per-element rule rejects round 1 from the first sandwich chunk
        lay = SystemLayout.tripartite(4, (16,), 4)
        rep = verify_wall(haar_unitary(lay.dim, SeededRng(0, 77)), lay)
        assert not rep.left and not rep.right
        assert (rep.steps_left, rep.steps_right) == (1, 1)

    def test_bipartite_product_is_improper_wall(self):
        lay = SystemLayout.tripartite(2, (2,), 2)
        g = SeededRng(3).generator()
        U = kron(haar_unitary(4, g), haar_unitary(2, g))
        rep = verify_wall(U, lay)
        assert rep.is_wall and rep.improper

    def test_left_right_agreement_on_mixed_batch(self):
        lay = SystemLayout.tripartite(2, (2,), 2)
        for k in range(10):
            g = SeededRng(4, k).generator()
            if k % 2:
                U = haar_unitary(8, g)
            else:
                U = synth_wall(lay, resolve_central_algebra("diag", lay), seed=100 + k).U
            rep = verify_wall(U, lay)
            assert rep.left == rep.right

    def test_nonunitary_rejected(self):
        lay = SystemLayout.tripartite(2, (2,), 2)
        with pytest.raises(ValueError):
            verify_wall(np.ones((8, 8)), lay)

    def test_needs_edges(self):
        with pytest.raises(ValueError):
            verify_wall(np.eye(4), SystemLayout((2, 2)))

    def test_central_algebras_attached(self):
        wall = preset_wall("fswap")
        rep = verify_wall(wall.U, wall.layout)
        assert rep.A_C.dim == 4 and rep.B_C.dim == 4
        assert equals(rep.A_C, wall.A_C)

    def test_independent_of_global_random_state(self):
        wall = preset_wall("reducible-composite")
        np.random.seed(1)
        first = verify_wall(wall.U, wall.layout)
        np.random.seed(2)
        np.random.standard_normal(7)
        second = verify_wall(wall.U, wall.layout)
        assert first.summary() == second.summary()
        assert (first.steps_left, first.steps_right) == (second.steps_left, second.steps_right)
        assert first.A_C.basis.tobytes() == second.A_C.basis.tobytes()
        assert first.B_C.basis.tobytes() == second.B_C.basis.tobytes()

    def test_results_do_not_depend_on_call_order(self):
        first = _wall_results()
        even, odd = _scanner_chains(8)[1]
        scan_chain((2,) * 8, even, odd)
        assert _wall_results() == first

    def test_builds_no_random_generator(self, monkeypatch):
        # walls and chains are drawn before the patch; the wall checks and
        # scans run under it, then again without it, with the same results
        walls = [preset_wall(name) for name in PRESET_NAMES]
        chains = _scanner_chains(8)

        def no_generator(*args, **kwargs):
            raise AssertionError("the wall check built a random generator")

        def results():
            reps = [verify_wall(wall.U, wall.layout) for wall in walls]
            return [(rep.summary(), rep.steps_left, rep.steps_right,
                     rep.A_C.basis.tobytes(), rep.B_C.basis.tobytes()) for rep in reps]

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        monkeypatch.setattr(np.random, "Generator", no_generator)
        first = results()
        records = [scan_chain((2,) * 8, even, odd).records for even, odd in chains]
        monkeypatch.undo()
        assert results() == first
        assert [scan_chain((2,) * 8, even, odd).records for even, odd in chains] == records


def _per_element_closure(U, layout, side, tol):
    """Oracle: the closure with the per-element escape rule at ``tol``, with
    its own right-edge branch and einsum sandwiches in chunks, with early
    exit.  Returns (passed, rounds, central basis or None, worst relative
    residual seen in the last round)."""
    d_C = layout.d_center
    d_edge = layout.d_left if side == "left" else layout.d_right
    d_bulk = layout.dim // d_edge
    d_out = d_bulk // d_C
    if side == "left":
        T = U.reshape(d_edge, d_bulk, d_edge, d_bulk).transpose(0, 2, 1, 3)
        lift, shape = "kab,ij->kaibj", (d_C, d_out, d_C, d_out)
    else:
        T = U.reshape(d_bulk, d_edge, d_bulk, d_edge).transpose(1, 3, 0, 2)
        lift, shape = "kab,ij->kiajb", (d_out, d_C, d_out, d_C)
    m = orthonormal_basis(T.reshape(d_edge * d_edge, d_bulk, d_bulk))
    trace_axes = (2, 4) if side == "left" else (1, 3)
    c_layout = SystemLayout(layout.center_dims)
    a = np.eye(d_C, dtype=complex)[None] / np.sqrt(d_C)
    for rounds in range(1, layout.dim**2 + 2):
        lifted = np.einsum(lift, a, np.eye(d_out)).reshape(len(a), d_bulk, d_bulk)
        collected, worst = [a], 0.0
        chunk = max(1, 2**22 // (d_bulk * d_bulk * len(a) * len(m)))
        for p0 in range(0, len(m), chunk):
            part = np.einsum("pij,ajk->paik", m[p0 : p0 + chunk], lifted, optimize=True)
            part = part.reshape(-1, d_bulk, d_bulk)
            prods = np.einsum("nik,qjk->nqij", part, m.conj(), optimize=True)
            prods = prods.reshape(-1, d_bulk, d_bulk)
            n = len(prods)
            core = np.trace(prods.reshape(n, *shape), axis1=trace_axes[0], axis2=trace_axes[1])
            core = core / d_out
            recon = np.einsum(lift, core, np.eye(d_out)).reshape(prods.shape)
            norms = np.linalg.norm(prods.reshape(n, -1), axis=1)
            resid = np.linalg.norm((prods - recon).reshape(n, -1), axis=1)
            rel = np.where(norms > ZERO_TOL, resid / np.maximum(norms, ZERO_TOL), 0.0)
            worst = max(worst, rel.max())
            if worst > tol:
                return False, rounds, None, worst
            collected.append(core[norms > ZERO_TOL])
        new = close_algebra(list(np.concatenate(collected)), c_layout).basis
        if len(new) == len(a):
            return True, rounds, new, worst
        a = new
    raise AssertionError("oracle closure did not stabilize")


def _assert_matches_oracle(U, layout):
    rep = verify_wall(U, layout)
    left = _per_element_closure(U, layout, "left", ESCAPE_TOL)
    right = _per_element_closure(U, layout, "right", ESCAPE_TOL)
    assert (rep.left, rep.steps_left) == left[:2]
    assert (rep.right, rep.steps_right) == right[:2]
    c_layout = SystemLayout(layout.center_dims)
    if rep.left:
        assert equals(rep.A_C, MatrixAlgebra(left[2], c_layout))
    if rep.right:
        assert equals(rep.B_C, MatrixAlgebra(right[2], c_layout))
    return rep


def _scanner_chains(n=8, s=3):
    """The 21 brickwork chains of acceptance criterion 10: one with a wall
    embedded at site s, then 20 Haar chains."""
    g = SeededRng(970).generator()
    even = [haar_unitary(4, g) for _ in range(n // 2)]
    odd = [haar_unitary(4, g) for _ in range((n - 1) // 2)]
    even[(s - 1) // 2] = conditional_unitary(np.eye(2), [haar_unitary(2, g) for _ in range(2)])
    odd[(s - 1) // 2] = conditional_unitary(
        np.eye(2), [haar_unitary(2, g) for _ in range(2)], control_first=True
    )
    chains = [(even, odd)]
    for k in range(20):
        gk = SeededRng(971, k).generator()
        chains.append(
            ([haar_unitary(4, gk) for _ in range(n // 2)],
             [haar_unitary(4, gk) for _ in range((n - 1) // 2)])
        )
    return chains


class TestClosureOracle:
    """``verify_wall`` equals the independent per-element oracle
    ``_per_element_closure``: same decisions, round counts and factors."""

    def test_haar_non_walls_match_oracle(self):
        lay = SystemLayout.tripartite(2, (2,), 2)
        for k in range(50):
            rep = _assert_matches_oracle(haar_unitary(8, SeededRng(900, k)), lay)
            assert not rep.left and not rep.right

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_match_oracle(self, name):
        wall = preset_wall(name)
        assert _assert_matches_oracle(wall.U, wall.layout).is_wall

    def test_scanner_chains_match_oracle(self):
        n = 8
        for chain, (even, odd) in enumerate(_scanner_chains(n)):
            U = brickwork_unitary((2,) * n, even, odd)
            expected = []
            for width in (1, 2):
                for start in range(1, n - width):
                    rep = _assert_matches_oracle(U, window_layout((2,) * n, start, width))
                    assert rep.is_wall == (chain == 0 and start <= 3 < start + width)
                    expected.append((start, width, rep.left, rep.right))
            records = scan_chain((2,) * n, even, odd).records
            assert [(r.start, r.width, r.left, r.right) for r in records] == expected

    @pytest.mark.parametrize("side", ("below", "above"))
    def test_near_threshold_matches_oracle(self, side, monkeypatch):
        # a wall perturbed by eps, with the escape threshold that dynamics
        # reads set just below or just above the worst relative escape of
        # round 1: below, the left check rejects in round 1; above, round 1
        # passes and the check ends as the oracle's does at that threshold.
        # (The edge blocks of this preset already span their full space, so
        # the perturbation adds no edge direction of norm eps, whose
        # sandwiches would escape by O(1) relative to their norm.)
        wall = preset_wall("nonabelian-cnot")
        h = haar_unitary(wall.layout.dim, SeededRng(41))
        w, v = np.linalg.eigh((h + dagger(h)) / 2)
        U = wall.U @ (v * np.exp(1e-6j * w)) @ dagger(v)
        _, _, _, worst = _per_element_closure(U, wall.layout, "left", ESCAPE_TOL)
        assert 1e-7 < worst < 1e-5
        tol = worst * (1 - 1e-6 if side == "below" else 1 + 1e-6)
        expected = _per_element_closure(U, wall.layout, "left", tol)[:2]
        assert expected == ((False, 1) if side == "below" else (False, 2))
        monkeypatch.setattr(dynamics, "ESCAPE_TOL", tol)
        rep = verify_wall(U, wall.layout)
        assert (rep.left, rep.steps_left) == expected


def _sandwiches(m, a, d_out):
    """Every sandwich m_p (a_k x 1) m_q^dag of a bulk frame m and a stack a
    on C, formed as the closure forms them."""
    d_bulk = m.shape[1]
    part = m[:, None] @ dynamics._lift(a, d_out)[None]
    return (part[:, :, None] @ m.conj().transpose(0, 2, 1)).reshape(-1, d_bulk, d_bulk)


class TestClosureKernel:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_compress_keeps_the_bytes_of_lift_and_subtract(self, name):
        wall = preset_wall(name)
        lay = wall.layout
        d_L, d_C = lay.d_left, lay.d_center
        rep = verify_wall(wall.U, lay)
        left, _ = dynamics._cut_frames(wall.U, d_L)
        _, prefix = dynamics._cut_frames(wall.U, d_L * d_C)
        right = dynamics._center_first(prefix, d_L, d_C)
        g = SeededRng(47).generator()
        for m, a in ((left, rep.A_C.basis), (right, rep.B_C.basis)):
            d_out = m.shape[1] // d_C
            # the central factor (sandwiches stay inside), random operators
            # on C (their sandwiches escape) and zero (zero-norm sandwiches)
            noise = g.standard_normal((2, d_C, d_C)) + 1j * g.standard_normal((2, d_C, d_C))
            X = _sandwiches(m, np.concatenate([a, noise, np.zeros((1, d_C, d_C))]), d_out)
            expected = lifted_compress(X, d_C, d_out)
            assert np.any(expected[2] == 0) and np.any(expected[1] > 1e-3 * expected[2])
            got = dynamics._compress_to_center(X.copy(), d_C, d_out)
            for want, have in zip(expected, got, strict=True):
                assert want.tobytes() == have.tobytes()


SHARED_BUILDER = ("abelian-pair", "reducible-composite", "soliton-x", "uncoupled-center", "swap-zz")
# walls whose lifted Lbar and Rbar are checked against the central factors:
# the presets, the shared-builder presets on (d_L, d_R) = (3, 4), and the
# two diag walls of TestConserved, as (preset or "diag", dims, seed)
ORACLE_WALLS = (
    [(n, None, 0) for n in PRESET_NAMES]
    + [(n, (3, 4), 0) for n in SHARED_BUILDER]
    + [("diag", None, 40), ("diag", None, 41)]
)


def _swapped_layout(layout):
    """The (R, C, L) layout that ``swap_edges`` maps (L, C, R) operators
    to."""
    n_c = len(layout.center_dims)
    return SystemLayout(
        (layout.d_right,) + layout.center_dims + (layout.d_left,),
        (0,),
        tuple(range(1, 1 + n_c)),
        (1 + n_c,),
    )


def _diag_wall(seed):
    lay = SystemLayout.tripartite(2, (2, 2), 2)
    return synth_wall(lay, resolve_central_algebra("diag", lay), seed=seed)


class TestInvariantAlgebras:
    def test_abelian_pair(self):
        wall = preset_wall("abelian-pair")
        inv = invariant_algebras(wall.U, wall.layout)
        assert inv.A_C.dim == 2 and inv.B_C.dim == 2
        assert equals(inv.A_C, inv.B_C)
        assert contains(inv.A_C, Z)

    def test_factors_commute_in_nonabelian_case(self):
        wall = preset_wall("fswap")
        inv = invariant_algebras(wall.U, wall.layout)
        assert inv.A_C.dim == 4 and inv.B_C.dim == 4
        for x in inv.A_C.basis:
            for y in inv.B_C.basis:
                assert np.max(np.abs(x @ y - y @ x)) < 1e-9

    def test_lbar_contains_left_edge(self):
        wall = preset_wall("abelian-pair")
        inv = invariant_algebras(wall.U, wall.layout)
        for p in (X, Y, Z):
            assert contains(inv.Lbar, embed(p, (0,), wall.layout))

    def test_invariance_under_wall(self):
        wall = preset_wall("nonabelian-cnot")
        inv = invariant_algebras(wall.U, wall.layout)
        for x in inv.Lbar.basis[:6]:
            moved = wall.U @ x @ dagger(wall.U)
            assert contains(inv.Lbar, moved, 1e-8)

    @pytest.mark.parametrize(
        "name, dims, seed", ORACLE_WALLS, ids=[f"{n}-{d}-{s}" for n, d, s in ORACLE_WALLS]
    )
    def test_lifts_re_extract_to_the_central_factors(self, name, dims, seed):
        if name == "diag":
            wall = _diag_wall(seed)
        else:
            wall = preset_wall(name, dims=dims)
        layout = wall.layout
        inv = invariant_algebras(wall.U, layout)
        lbar, rbar = inv.Lbar, inv.Rbar
        assert lbar.dim == inv.dim_Lbar and rbar.dim == inv.dim_Rbar
        for alg in (lbar, rbar):
            gram = np.einsum("iab,jab->ij", alg.basis.conj(), alg.basis)
            assert np.max(np.abs(gram - np.eye(alg.dim))) < 1e-12
        assert equals(extract_central_factor(lbar, layout), inv.A_C)
        swapped_layout = _swapped_layout(layout)
        swapped = MatrixAlgebra(swap_edges(rbar.basis, layout), swapped_layout)
        assert equals(extract_central_factor(swapped, swapped_layout), inv.B_C)
        # each lift holds its own edge algebra in the right tensor slot
        d_L, d_C, d_R = layout.d_left, layout.d_center, layout.d_right

        def edge_ops(d):  # X, Z and -iY on a qubit
            shift, clock = _clock_shift(d)
            return shift, clock, shift @ clock

        for p in edge_ops(d_L):
            assert contains(lbar, kron(p, np.eye(d_C * d_R)))
        for p in edge_ops(d_R):
            assert contains(rbar, kron(np.eye(d_L * d_C), p))


def _clock_shift(d):
    """Two generators of the full algebra M_d."""
    return [np.roll(np.eye(d), 1, axis=0), np.diag(np.exp(2j * np.pi * np.arange(d) / d))]


def _full_space_conserved(inv):
    """Oracle on the full space: the superoperator commutants of the lifted
    Lbar and Rbar generators, intersected on L x C x R and compressed to C."""
    layout = inv.layout
    d_L, d_C, d_R = layout.d_left, layout.d_center, layout.d_right

    lbar_gens = [kron(kron(g, np.eye(d_C)), np.eye(d_R)) for g in _clock_shift(d_L)] + [
        kron(kron(np.eye(d_L), a), np.eye(d_R)) for a in inv.A_C.basis
    ]
    rbar_gens = [kron(np.eye(d_L), kron(np.eye(d_C), g)) for g in _clock_shift(d_R)] + [
        kron(np.eye(d_L), kron(b, np.eye(d_R))) for b in inv.B_C.basis
    ]
    joint = stacked_intersect(
        superoperator_commutant(np.asarray(lbar_gens), layout),
        superoperator_commutant(np.asarray(rbar_gens), layout),
    )
    out_sites = tuple(layout.left) + tuple(layout.right)
    c_mats = []
    for x in joint.basis:
        _, residuals = support(x, layout)
        assert {s for s, r in enumerate(residuals) if r >= 1e-8} <= set(layout.center)
        c_mats.append(partial_trace(x, out_sites, layout) / (d_L * d_R))
    return MatrixAlgebra(orthonormal_basis(c_mats), SystemLayout(layout.center_dims))


SMALL_PRESETS = [n for n in PRESET_NAMES if preset_wall(n).layout.dim <= 16]


class TestConserved:
    @pytest.mark.parametrize("name", SMALL_PRESETS)
    def test_matches_full_space_oracle_on_presets(self, name):
        wall = preset_wall(name)
        inv = invariant_algebras(wall.U, wall.layout)
        alg = conserved_algebra(wall)
        assert alg.layout.site_dims == wall.layout.center_dims
        assert equals(alg, _full_space_conserved(inv))

    @pytest.mark.parametrize("seed", [40, 41])
    def test_matches_full_space_oracle_on_diag_walls(self, seed):
        wall = _diag_wall(seed)
        inv = invariant_algebras(wall.U, wall.layout)
        alg = conserved_algebra(wall)
        assert equals(alg, _full_space_conserved(inv))
        assert equals(alg, commutant_conserved(inv))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_commutant_oracle_on_presets(self, name):
        wall = preset_wall(name)
        assert equals(conserved_algebra(wall), commutant_conserved(wall.invariants))

    @pytest.mark.parametrize("d_C", [2, 4, 8, 16])
    def test_diag_walls_conserve_their_whole_diagonal(self, d_C):
        # on a diag wall A_C = B_C is maximal abelian, so A_C' ∩ B_C' = A_C
        wall = tripartite_wall(d_C, "diag")
        alg = conserved_algebra(wall)
        assert alg.dim == d_C
        assert equals(alg, commutant_conserved(wall.invariants))
        assert equals(alg, wall.invariants.A_C)

    def test_abelian_pair_dim(self):
        wall = preset_wall("abelian-pair")
        alg = conserved_algebra(wall)
        assert alg.dim == 2
        assert contains(alg, Z)

    def test_swap_zz_diag_dim(self):
        wall = preset_wall("swap-zz")
        alg = conserved_algebra(wall)
        assert alg.dim == 4

    def test_nonabelian_trivial(self):
        for name in ("nonabelian-cnot", "fswap"):
            wall = preset_wall(name)
            alg = conserved_algebra(wall)
            assert alg.dim == 1, name

    def test_uncoupled_center(self):
        wall = preset_wall("uncoupled-center")
        alg = conserved_algebra(wall)
        assert alg.dim == 16
        # the untouched middle central site is fully conserved
        c_layout = SystemLayout((2, 2, 2))
        for p in (X, Y, Z):
            assert contains(alg, embed(p, (1,), c_layout))

    def test_conservation_in_time(self):
        wall = preset_wall("abelian-pair")
        alg = conserved_algebra(wall)
        for c in alg.basis:
            lifted = embed(c, (1,), wall.layout)
            moved = evolve_op(wall.U, lifted, 50)
            assert np.max(np.abs(moved - lifted)) < 1e-8


def _criterion_9_sequences():
    """The presets with the 20-step Haar gauges of acceptance criterion 9."""
    for i, name in enumerate(PRESET_NAMES):
        wall = preset_wall(name, seed=0)
        d = wall.layout.dim
        g = SeededRng(960, i).generator()
        yield wall, [np.eye(d)] + [haar_unitary(d, g) for _ in range(20)]


class TestGaugedSequence:
    def test_identity_gauges_constant(self):
        wall = preset_wall("abelian-pair")
        d = wall.layout.dim
        rep = gauged_sequence(wall, [np.eye(d)] * 4)
        assert rep.all_equal
        for sp in rep.spaces[1:]:
            assert equals(rep.spaces[0], sp)

    def test_haar_gauges_preserve_signature(self):
        wall = preset_wall("nonabelian-cnot")
        d = wall.layout.dim
        g = SeededRng(23).generator()
        gauges = [np.eye(d)] + [haar_unitary(d, g) for _ in range(4)]
        rep = gauged_sequence(wall, gauges)
        assert rep.all_equal
        # Lbar = M_L (x) M_D (x) 1 is a single M_4 factor with multiplicity 4
        assert rep.signature == ((4, 4),)

    def test_recurrence_with_periodic_gauges(self):
        wall = preset_wall("abelian-pair")
        d = wall.layout.dim
        G1 = haar_unitary(d, SeededRng(25))
        gauges = [np.eye(d), G1, np.eye(d), G1, np.eye(d)]
        rep = gauged_sequence(wall, gauges)
        # the gauge cancels over a period: tau = 2 returns to tau = 0
        assert equals(rep.spaces[2], rep.spaces[0])
        assert equals(rep.spaces[4], rep.spaces[0])

    def test_carried_frame_matches_fresh_decompositions(self):
        for wall, gauges in _criterion_9_sequences():
            rep = gauged_sequence(wall, gauges)
            spaces, signatures = decomposed_gauged_sequence(wall, gauges)
            assert signatures == [rep.signature] * len(gauges), wall.name
            assert all(equals(a, b) for a, b in zip(spaces, rep.spaces)), wall.name
            # the carried block form holds far inside its bound
            assert max(rep.residuals) < 1e-12, wall.name

    def test_spaces_are_rebuilt_with_the_bytes_of_the_sequence(self):
        wall = preset_wall("nonabelian-cnot")
        d = wall.layout.dim
        g = SeededRng(31).generator()
        gauges = [np.eye(d)] + [haar_unitary(d, g) for _ in range(4)]
        rep = gauged_sequence(wall, gauges)
        basis = wall.invariants.Lbar.basis
        steps = [gauges[0]] + [dagger(G) @ wall.U @ G_prev for G_prev, G in zip(gauges, gauges[1:])]
        for Ut, space in zip(steps, rep.spaces, strict=True):
            basis = Ut @ basis @ dagger(Ut)
            assert space.basis.tobytes() == basis.tobytes()

    def test_report_does_not_grow_by_a_span_per_step(self):
        wall = preset_wall("uncoupled-center")  # d = 32
        d = wall.layout.dim
        span_bytes = wall.invariants.Lbar.basis.nbytes
        g = SeededRng(32).generator()
        gauges = [np.eye(d)] + [haar_unitary(d, g) for _ in range(20)]
        held = {}
        for steps in (3, 21):
            tracemalloc.start()
            rep = gauged_sequence(wall, gauges[:steps])
            held[steps] = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            assert rep.all_equal
            del rep
        # 18 more steps keep 18 more d x d unitaries (an eighth of a span
        # each here), not 18 more spans
        assert held[21] - held[3] < 18 * span_bytes / 2, (held, span_bytes)

    def test_non_unitary_step_breaks_the_block_form(self):
        wall = preset_wall("abelian-pair")
        d = wall.layout.dim
        g = SeededRng(29).generator()
        gauges = [np.eye(d)] + [haar_unitary(d, g) for _ in range(4)]
        gauges[2] = gauges[2] + 1e-6 * np.eye(d)  # 1e-6 away from unitary
        rep = gauged_sequence(wall, gauges)
        assert not rep.all_equal
        assert max(rep.residuals[:2]) < 1e-12
        assert rep.residuals[2] > VERIFY_TOL

    def test_initial_gauge_on_the_left_edge_accepted(self):
        # G_0 = W_L (x) 1 maps M_L (x) A_C (x) 1_R onto itself
        wall = preset_wall("nonabelian-cnot")
        d, d_L = wall.layout.dim, wall.layout.d_left
        G0 = kron(haar_unitary(d_L, SeededRng(28)), np.eye(d // d_L))
        rep = gauged_sequence(wall, [G0, G0])
        assert rep.all_equal

    def test_bad_initial_gauge_rejected(self):
        wall = preset_wall("abelian-pair")
        bad = embed(
            conditional_unitary(np.eye(2), [I2, X]), (1, 2), wall.layout
        ) @ embed(PAULI["X"], (1,), wall.layout)
        G0 = haar_unitary(wall.layout.dim, SeededRng(27))
        with pytest.raises(ValueError):
            gauged_sequence(wall, [G0, np.eye(wall.layout.dim)])


class TestFragments:
    def test_abelian_pair_counts(self):
        wall = preset_wall("abelian-pair")
        frag = fragment_decomposition(invariant_algebras(wall.U, wall.layout))
        assert frag.summary() == {
            "dim_L": 6, "dim_R": 6, "dim_LxR": 36, "dim_I": 2, "dim_Fperp": 14,
        }

    def test_nonabelian_exhausts_everything(self):
        for name in ("nonabelian-cnot", "fswap"):
            wall = preset_wall(name)
            frag = fragment_decomposition(invariant_algebras(wall.U, wall.layout))
            assert frag.summary() == {
                "dim_L": 15, "dim_R": 15, "dim_LxR": 225, "dim_I": 1, "dim_Fperp": 0,
            }, name

    def test_sectors_close_dimension_budget(self):
        wall = preset_wall("uncoupled-center")
        frag = fragment_decomposition(invariant_algebras(wall.U, wall.layout))
        s = frag.summary()
        total = s["dim_L"] + s["dim_R"] + s["dim_LxR"] + s["dim_I"] + s["dim_Fperp"]
        assert total == wall.layout.dim ** 2
        assert s["dim_Fperp"] >= 0


class TestRobustness:
    def test_edge_unitaries_cannot_break_the_wall(self):
        # interleave the wall with fresh Haar unitaries on L and R each step:
        # a left-seeded operator still never reaches R
        wall = preset_wall("nonabelian-cnot")
        lay = wall.layout
        g = SeededRng(29).generator()
        O = embed(X, (0,), lay)
        for _ in range(50):
            V = kron(haar_unitary(lay.d_left, g), np.eye(lay.dim // lay.d_left))
            Wr = kron(np.eye(lay.dim // lay.d_right), haar_unitary(lay.d_right, g))
            step = Wr @ V @ wall.U
            O = step @ O @ dagger(step)
        sup, _ = support(O, lay)
        assert sup <= set(lay.left) | set(lay.center)


def _scan_gates(n, rng):
    even = [haar_unitary(4, rng) for _ in range(n // 2)]
    odd = [haar_unitary(4, rng) for _ in range((n - 1) // 2)]
    return even, odd


def _embedded_chain(n, s, rng):
    """Haar brickwork gates on n qubits with the wall of ``wallkit scan
    --embed-at s`` (s odd) built in; s = None leaves the chain Haar."""
    even, odd = _scan_gates(n, rng)
    if s is not None:
        xi = [haar_unitary(2, rng) for _ in range(2)]
        zeta = [haar_unitary(2, rng) for _ in range(2)]
        even[(s - 1) // 2] = conditional_unitary(np.eye(2), xi)
        odd[(s - 1) // 2] = conditional_unitary(np.eye(2), zeta, control_first=True)
    return even, odd


def _scan_cases(n):
    """A Haar chain, one chain per embed site, and the identity chain (whose
    cuts all have operator-Schmidt rank 1), as (id, even, odd)."""
    g = SeededRng(36, n).generator()
    cases = [(f"embed-{s}", *_embedded_chain(n, s, g)) for s in [None, *range(1, n - 1, 2)]]
    return cases + [("identity", [np.eye(4)] * (n // 2), [np.eye(4)] * ((n - 1) // 2))]


@pytest.fixture
def side_checks(monkeypatch):
    """(layout, right) of every one-sided wall check, in call order."""
    calls = []
    check = dynamics._side_check
    monkeypatch.setattr(
        dynamics, "_side_check", lambda U, lay, right: calls.append((lay, right)) or check(U, lay, right)
    )
    return calls


def _staircase(records, n):
    """The first end b*(s) at which each side holds on row s (one past the
    row's last end if none does), as {(right, s): b*}.  Asserts that each
    row's verdicts fail below b*(s) and hold from it on, and that b*(s)
    never decreases as s grows."""
    width = max(r.width for r in records)
    verdicts = {(right, r.start, r.start + r.width): (r.right if right else r.left)
                for r in records for right in (False, True)}
    first = {}
    for right in (False, True):
        for s in range(1, n - 1):
            row = [verdicts[right, s, b] for b in range(s + 1, min(s + width, n - 1) + 1)]
            first[right, s] = s + 1 + (row.index(True) if True in row else len(row))
            assert all(row[first[right, s] - s - 1 :]), (right, s, row)
            assert s == 1 or first[right, s] >= first[right, s - 1], (right, s)
    return first


def _assert_cones(checks, records, dims):
    """Each side was checked on the w + 2 sites s - 1 (L), s ... s + w - 1
    (C) and s + w (R) of its window [s, s + w) alone, only on the windows
    the staircase leaves open (row by row, from b*(s - 1) up to b*(s)), and
    never twice."""
    n = len(dims)
    first = _staircase(records, n)
    width = max(r.width for r in records)
    for right in (False, True):
        open_cells = [
            (s, b)
            for s in range(1, n - 1)
            for b in range(max(first.get((right, s - 1), 0), s + 1),
                           min(first[right, s], s + width, n - 1) + 1)
        ]
        seen = [(lay.site_dims, len(lay.center)) for lay, r in checks if r == right]
        assert seen == [(dims[s - 1 : b + 1], b - s) for s, b in open_cells], right
    assert all(len(lay.left) == len(lay.right) == 1 for lay, _ in checks)


class TestScan:
    def test_embedded_wall_found(self):
        n, s = 8, 3
        even, odd = _scan_gates(n, SeededRng(30))
        g31 = SeededRng(31).generator()
        xi = [haar_unitary(2, g31) for _ in range(2)]
        even[(s - 1) // 2] = conditional_unitary(np.eye(2), xi)
        odd[(s - 1) // 2] = conditional_unitary(np.eye(2), xi, control_first=True)
        rep = scan_chain((2,) * n, even, odd)
        assert rep.minimal_windows == [(s, 1)]
        # every detection contains the minimal window
        for start, width in rep.detections:
            assert start <= s < start + width

    def test_all_haar_clean(self):
        even, odd = _scan_gates(8, SeededRng(32))
        rep = scan_chain((2,) * 8, even, odd)
        assert rep.detections == []

    def test_identity_chain_all_windows(self):
        n = 6
        even = [np.eye(4)] * (n // 2)
        odd = [np.eye(4)] * ((n - 1) // 2)
        rep = scan_chain((2,) * n, even, odd, max_width=2)
        expected = sum(n - width - 1 for width in (1, 2))
        assert len(rep.detections) == expected
        assert rep.minimal_windows == [(s, 1) for s in range(1, n - 1)]

    def test_nonunitary_gate_rejected(self):
        even, odd = _scan_gates(4, SeededRng(34))
        odd[0] = np.ones((4, 4))
        with pytest.raises(ValueError):
            scan_chain((2,) * 4, even, odd)

    @pytest.mark.parametrize("max_width", (1, 2, 3))
    @pytest.mark.parametrize("n", (5, 6, 7))
    def test_cut_scan_matches_per_window_checks(self, n, max_width, side_checks):
        dims = (2,) * n
        for case, even, odd in _scan_cases(n):
            expected = dense_scan_records(dims, even, odd, max_width)
            side_checks.clear()
            records = scan_chain(dims, even, odd, max_width=max_width).records
            assert [(r.start, r.width, r.left, r.right) for r in records] == expected, case
            _assert_cones(side_checks, records, dims)
            if case == "identity":
                assert all(left and right for _, _, left, right in expected)

    @pytest.mark.parametrize("case", ("embed-None", "embed-3"))
    def test_width_four_cones_match_dense_checks(self, case, side_checks):
        # a walled width-4 window takes about 1.2 s on the dense 7-site chain
        dims = (2,) * 7
        even, odd = next((e, o) for c, e, o in _scan_cases(7) if c == case)
        expected = dense_scan_records(dims, even, odd, 4)
        side_checks.clear()
        records = scan_chain(dims, even, odd, max_width=4).records
        assert [(r.start, r.width, r.left, r.right) for r in records] == expected
        _assert_cones(side_checks, records, dims)
        walls = [(s, w) for s, w, left, right in expected if w == 4 and left and right]
        assert walls == ([(1, 4), (2, 4)] if case == "embed-3" else [])

    @pytest.mark.parametrize(
        "dims, max_width", [((2, 3, 2, 3, 2), 2), ((3, 2, 2, 3, 2), 3), ((2, 3, 2, 3, 2, 3), 2)]
    )
    def test_mixed_site_dims_match_dense_checks(self, dims, max_width, side_checks):
        n = len(dims)
        g = SeededRng(38, n).generator()
        pairs = [(2 * k, 2 * k + 1) for k in range(n // 2)] + [
            (2 * k + 1, 2 * k + 2) for k in range((n - 1) // 2)
        ]
        haar = [haar_unitary(dims[a] * dims[b], g) for a, b in pairs]
        # a conditional gate pair around site 1 is a wall there, whatever
        # the rest of the chain does
        walled = list(haar)
        left, right = ([haar_unitary(dims[k], g) for _ in range(dims[1])] for k in (0, 2))
        walled[0] = conditional_unitary(np.eye(dims[1]), left)
        walled[n // 2] = conditional_unitary(np.eye(dims[1]), right, control_first=True)
        identity = [np.eye(dims[a] * dims[b]) for a, b in pairs]
        for name, gates in (("haar", haar), ("walled", walled), ("identity", identity)):
            even, odd = gates[: n // 2], gates[n // 2 :]
            expected = dense_scan_records(dims, even, odd, max_width)
            side_checks.clear()
            records = scan_chain(dims, even, odd, max_width=max_width).records
            assert [(r.start, r.width, r.left, r.right) for r in records] == expected, name
            _assert_cones(side_checks, records, dims)
            if name == "walled":
                assert (1, 1, True, True) in expected

    @pytest.mark.parametrize("n", (6, 7, 9))
    def test_nonunitary_last_odd_gate_rejected(self, n):
        # the last odd gate lies only in the light cones of the last
        # windows, which the staircase may never check
        even, odd = _scan_gates(n, SeededRng(39, n))
        odd[-1] = np.ones((4, 4))
        for max_width in (1, 2, 3):
            with pytest.raises(ValueError, match="not unitary"):
                scan_chain((2,) * n, even, odd, max_width=max_width)

    @pytest.mark.parametrize("n", (6, 7, 9))
    def test_nonunitary_first_even_gate_rejected(self, n):
        even, odd = _scan_gates(n, SeededRng(39, n))
        even[0] = np.diag([1, 1, 1, 1.5])
        for max_width in (1, 2, 3):
            with pytest.raises(ValueError, match="not unitary"):
                scan_chain((2,) * n, even, odd, max_width=max_width)

    def test_wall_free_chain_takes_n_minus_2_checks_per_side(self, side_checks):
        n = 9
        even, odd = _scan_gates(n, SeededRng(40))
        rep = scan_chain((2,) * n, even, odd, max_width=3)
        assert rep.detections == []
        for right in (False, True):
            assert sum(r == right for _, r in side_checks) <= n - 2
        _assert_cones(side_checks, rep.records, (2,) * n)

    @pytest.mark.parametrize("case", ("identity", "walls-3-7"))
    def test_staircase_cases_match_dense_checks(self, case, side_checks):
        # identity: every side holds on every window; walls-3-7: conditional
        # walls at sites 3 and 7 give each side the two-step staircase
        # b*(s) = 4 for s <= 3 and 8 for 4 <= s <= 7
        n, dims = 9, (2,) * 9
        if case == "identity":
            even, odd = [np.eye(4)] * (n // 2), [np.eye(4)] * ((n - 1) // 2)
        else:
            g = SeededRng(42).generator()
            even, odd = _scan_gates(n, g)
            for s in (3, 7):
                xi, zeta = ([haar_unitary(2, g) for _ in range(2)] for _ in range(2))
                even[(s - 1) // 2] = conditional_unitary(np.eye(2), xi)
                odd[(s - 1) // 2] = conditional_unitary(np.eye(2), zeta, control_first=True)
        expected = dense_scan_records(dims, even, odd, 3)
        side_checks.clear()
        rep = scan_chain(dims, even, odd, max_width=3)
        assert [(r.start, r.width, r.left, r.right) for r in rep.records] == expected
        _assert_cones(side_checks, rep.records, dims)
        first = _staircase(rep.records, n)
        if case == "identity":
            assert all(left and right for _, _, left, right in expected)
            assert len(side_checks) == 2 * (n - 2)
        else:
            steps = {s: 4 if s <= 3 else 8 for s in range(1, n - 1)}
            assert first == {(right, s): b for right in (False, True) for s, b in steps.items()}
            assert rep.minimal_windows == [(3, 1), (7, 1)]

    def test_brickwork_local_gates_match_embedded_products(self):
        dims = (2, 3, 2, 3, 2)
        lay = SystemLayout(dims)
        g = SeededRng(37).generator()
        even = [haar_unitary(6, g) for _ in range(2)]
        odd = [haar_unitary(6, g) for _ in range(2)]
        direct = np.eye(lay.dim)
        for s, gate in [(0, even[0]), (2, even[1]), (1, odd[0]), (3, odd[1])]:
            direct = embed(gate, (s, s + 1), lay) @ direct
        assert np.max(np.abs(brickwork_unitary(dims, even, odd) - direct)) < 1e-13

    def test_brickwork_rejects_misplaced_gates(self):
        with pytest.raises(ValueError, match="shape"):
            scan_chain((2, 2, 2), [np.eye(2)], [])
        with pytest.raises(ValueError, match="outside"):
            scan_chain((2, 2, 2), [np.eye(4)], [np.eye(4), np.eye(4)])

    def test_brickwork_order(self):
        # odd layer applied after even layer
        cnot = conditional_unitary(np.eye(2), [I2, X], control_first=True)
        U = brickwork_unitary((2, 2, 2), [cnot], [cnot])
        direct = embed(cnot, (1, 2), L3) @ embed(cnot, (0, 1), L3)
        assert np.allclose(U, direct)


class TestCutFrames:
    @pytest.mark.parametrize("source", [*PRESET_NAMES, "2,2,2", "2,3,2"])
    def test_prefix_frame_spans_the_right_edge_blocks(self, source):
        # the prefix frame of the L C | R cut, reordered to (C, L), spans the
        # same space as the left frame of the edge-swapped U
        if source in PRESET_NAMES:
            wall = preset_wall(source)
        else:
            wall = cli._wall_from_config(cli.parse_config(["verify", "--dims", source]))
        lay = wall.layout
        d_L, d_C = lay.d_left, lay.d_center
        _, prefix = dynamics._cut_frames(wall.U, d_L * d_C)
        moved = dynamics._center_first(prefix, d_L, d_C)
        swapped = swap_edges(wall.U[None], lay)[0]
        right, _ = dynamics._cut_frames(swapped, lay.d_right)
        assert len(moved) == len(right)
        assert np.allclose(projector_onto(moved), projector_onto(right), atol=1e-12)
