"""Acceptance gate: ten numbered end-to-end criteria, each printing a single
PASS/FAIL line to the terminal."""

import time

import numpy as np

from conftest import CRITERION_LINES

from wallkit.layout import SeededRng, SystemLayout
from wallkit.linalg import dagger, embed, haar_unitary, kron
from wallkit.algebra import close_algebra, commutant, equals
from wallkit.blocks import decompose, isomorphism_signature, reconstruct
from wallkit.dynamics import (
    conserved_algebra,
    evolve_op,
    gauged_sequence,
    invariant_algebras,
    scan_chain,
    verify_wall,
)
from wallkit.observables import (
    measurement_protocol,
    random_product_state,
    sff_mc,
    verify_area_law,
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

X, Z = PAULI["X"], PAULI["Z"]


def _report(n: int, ok: bool, desc: str):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {desc}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_wall_verification_suite():
    t0 = time.monotonic()
    problems = []
    for name in PRESET_NAMES:
        wall = preset_wall(name, seed=0)
        rep = verify_wall(wall.U, wall.layout)
        if not (rep.left and rep.right):
            problems.append(f"preset {name} not a wall")
    lay8 = SystemLayout.tripartite(2, (2,), 2)
    for k in range(50):
        rep = verify_wall(haar_unitary(8, SeededRng(900, k)), lay8)
        if rep.left or rep.right:
            problems.append(f"haar {k} flagged as wall")
    agree = 0
    for k in range(200):
        g = SeededRng(901, k).generator()
        kind = k % 4
        if kind == 0:
            U = haar_unitary(8, g)
        elif kind == 1:
            U = synth_wall(lay8, resolve_central_algebra("diag", lay8), seed=2000 + k).U
        elif kind == 2:
            U = kron(haar_unitary(4, g), haar_unitary(2, g))  # LC x R product
        else:
            alg = resolve_central_algebra("pauli:X" if k % 8 == 3 else "full", lay8)
            U = synth_wall(lay8, alg, seed=3000 + k).U
        rep = verify_wall(U, lay8)
        agree += int(rep.left == rep.right)
    if agree != 200:
        problems.append(f"left/right agreement {agree}/200")
    dt = time.monotonic() - t0
    if dt >= 120:
        problems.append(f"runtime {dt:.0f}s >= 120s")
    _report(
        1, not problems,
        f"7 presets wall, 50 Haar non-wall, left/right agree {agree}/200 "
        f"({dt:.1f}s)" + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_2_double_commutant():
    failures = 0
    for k in range(30):
        g = SeededRng(910, k).generator()
        n_sites = 1 + k % 2
        d = 2**n_sites
        n_gens = 1 + k % 3
        gens = g.standard_normal((n_gens, d, d)) + 1j * g.standard_normal((n_gens, d, d))
        alg = close_algebra(gens, SystemLayout((2,) * n_sites))
        if not equals(alg, commutant(commutant(alg))):
            failures += 1
    _report(2, failures == 0, f"Comm(Comm(A)) = A for {30 - failures}/30 random generator sets")


def test_criterion_3_wedderburn_identities():
    cases = [
        ([np.diag([0.0, 1, 2, 3])], (4,)),
        ([pauli_string("XI"), pauli_string("ZX")], (2, 2)),
        ([np.roll(np.eye(4), 1, axis=0), np.diag([0.0, 1, 2, 3])], (4,)),
        ([pauli_string("ZZ")], (2, 2)),
        ([], (2, 2)),
    ]
    for k in range(5):
        g = SeededRng(920, k).generator()
        gens = g.standard_normal((1, 4, 4)) + 1j * g.standard_normal((1, 4, 4))
        cases.append((list(gens), (2, 2)))
    problems = []
    for i, (gens, dims) in enumerate(cases):
        alg = close_algebra(gens, SystemLayout(dims))
        bs = decompose(alg, SeededRng(921, i))
        if sum(dD * dE for dD, dE in bs.blocks) != alg.layout.dim:
            problems.append(f"case {i}: sum dD*dE != d_C")
        if sum(dD * dD for dD, _ in bs.blocks) != alg.dim:
            problems.append(f"case {i}: sum dD^2 != dim A")
        if not equals(alg, reconstruct(bs)):
            problems.append(f"case {i}: reconstruction residual too large")
    sig = isomorphism_signature(
        decompose(
            close_algebra([pauli_string("XI"), pauli_string("ZX")], SystemLayout((2, 2))),
            SeededRng(922),
        )
    )
    if sig != ((2, 2),):
        problems.append(f"signature {sig} != ((2, 2),)")
    _report(
        3, not problems,
        f"dimension identities and reconstruction hold for {len(cases)} algebras; "
        "named example signature [(2,2)]"
        + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_4_conserved_charges():
    problems = []
    wall = preset_wall("abelian-pair")
    cons = conserved_algebra(invariant_algebras(wall.U, wall.layout))
    if cons.dim != wall.layout.d_center:
        problems.append(f"diag-control preset conserved dim {cons.dim} != d_C")
    for c in cons.basis:
        lifted = embed(c, tuple(wall.layout.center), wall.layout)
        if np.max(np.abs(evolve_op(wall.U, lifted, 50) - lifted)) > 1e-8:
            problems.append("diag-control conserved element drifts")
    for name in ("nonabelian-cnot", "fswap"):
        w = preset_wall(name)
        cn = conserved_algebra(invariant_algebras(w.U, w.layout))
        if cn.dim != 1:
            problems.append(f"{name} conserved dim {cn.dim} != 1")
        for c in cn.basis:
            lifted = embed(c, tuple(w.layout.center), w.layout)
            if np.max(np.abs(evolve_op(w.U, lifted, 50) - lifted)) > 1e-8:
                problems.append(f"{name} conserved element drifts")
    _report(
        4, not problems,
        "conserved dims: diag-control = d_C, non-Abelian presets = 1; "
        "all elements constant for t <= 50"
        + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_5_soliton_orbit():
    wall = preset_wall("soliton-x")
    zc = embed(Z, (1,), wall.layout)
    resid = float(np.max(np.abs(wall.U @ zc @ dagger(wall.U) + zc)))
    _report(5, resid < 1e-12, f"soliton-x: Ad_U(Z_C) = -Z_C, max entry error {resid:.2e}")


def test_criterion_6_area_law():
    problems = []
    for i, name in enumerate(PRESET_NAMES):
        wall = preset_wall(name, seed=0)
        for k in range(20):
            psi0 = random_product_state(wall.layout, SeededRng(930, 100 * i + k))
            rep = verify_area_law(wall, psi0, t_max=100)
            if not rep.passed:
                blocks = [(b["block"], b["bound"], b["violations"])
                          for b in rep.block_results if b["violations"]]
                problems.append(
                    f"{name} state {k}: violations {rep.violations}, "
                    f"block violations (block, bound, (t, rank)) {blocks}"
                )
                break
    _report(
        6, not problems,
        "Schmidt rank <= dim A_C (plus per-block dD^2 refinement) for 20 product "
        "states per preset, t <= 100"
        + ("; " + "; ".join(problems) if problems else ""),
    )


def _central_blocks(alg, layout, seed):
    return decompose(resolve_central_algebra(alg, layout), SeededRng(seed, 7)).blocks


def test_criterion_7_sff_quantitative():
    t0 = time.monotonic()
    problems = []
    lay = SystemLayout.tripartite(2, (2,), 2)
    res = sff_mc(
        _central_blocks("diag", lay, 940), 2, 2,
        t_max=8, samples=4000, rng=SeededRng(940),
    )
    for t, expect in [(1, 2.0), (2, 8.0)] + [(t, 8.0) for t in range(3, 9)]:
        if abs(res.K_mc[t] - expect) > 4 * res.stderr[t]:
            problems.append(f"diag K({t}) = {res.K_mc[t]:.3f} vs {expect}")
    res_h = sff_mc([(1, 1)], 4, 1, t_max=8, samples=4000, rng=SeededRng(941))
    for t in range(1, 9):
        if abs(res_h.K_mc[t] - min(t, 4)) > 4 * res_h.stderr[t]:
            problems.append(f"haar K({t}) = {res_h.K_mc[t]:.3f} vs {min(t, 4)}")
    lay2 = SystemLayout.tripartite(2, (2, 2), 2)
    res_b = sff_mc(
        _central_blocks("pauli:XI,ZX", lay2, 942), 2, 2,
        t_max=8, samples=4000, rng=SeededRng(942),
    )
    for t in (1, 2, 4, 8):
        expect = min(t, 4) * min(t, 4)
        if abs(res_b.K_mc[t] - expect) > 4 * res_b.stderr[t]:
            problems.append(f"(2,2)-block K({t}) = {res_b.K_mc[t]:.3f} vs {expect}")
    dt = time.monotonic() - t0
    if dt >= 300:
        problems.append(f"runtime {dt:.0f}s >= 300s")
    _report(
        7, not problems,
        f"K(t) matches the block formula for diag, Haar, and (2,2) ensembles at "
        f"4000 samples within 4 sigma ({dt:.1f}s)"
        + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_8_measurement_classes():
    # the >= 80% escape threshold over 200 runs was fixed before tuning
    wall = preset_wall("abelian-pair", dims=(4, 4))
    bound = wall.A_C.dim
    problems = []
    z_bad = 0
    for k in range(200):
        psi0 = random_product_state(wall.layout, SeededRng(950, k))
        rec = measurement_protocol(wall, psi0, Z, 10, SeededRng(951, k))
        if any(r["rank"] > bound for r in rec.rounds):
            z_bad += 1
    if z_bad:
        problems.append(f"Z_C raised rank above {bound} in {z_bad}/200 runs")
    escaped = 0
    for k in range(200):
        psi0 = random_product_state(wall.layout, SeededRng(952, k))
        rec = measurement_protocol(wall, psi0, X, 10, SeededRng(953, k))
        if any(r["rank"] > bound for r in rec.rounds):
            escaped += 1
    if escaped < 160:
        problems.append(f"X_C escaped in only {escaped}/200 runs (< 80%)")
    _report(
        8, not problems,
        f"Z_C never breaks the rank bound (0/200); X_C breaks it within 10 "
        f"rounds in {escaped}/200 runs (threshold 160)"
        + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_9_gauge_invariance():
    problems = []
    for i, name in enumerate(PRESET_NAMES):
        wall = preset_wall(name, seed=0)
        d = wall.layout.dim
        g = SeededRng(960, i).generator()
        gauges = [np.eye(d)] + [haar_unitary(d, g) for _ in range(20)]
        rep = gauged_sequence(wall, gauges)
        if not rep.all_equal:
            problems.append(f"{name}: block-form residual {max(rep.residuals):.2e}")
    _report(
        9, not problems,
        "isomorphism signatures constant along 20-step Haar-gauged sequences "
        "for all presets" + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_10_scanner():
    t0 = time.monotonic()
    problems = []
    n, s = 8, 3
    g = SeededRng(970).generator()
    even = [haar_unitary(4, g) for _ in range(n // 2)]
    odd = [haar_unitary(4, g) for _ in range((n - 1) // 2)]
    even[(s - 1) // 2] = conditional_unitary(np.eye(2), [haar_unitary(2, g) for _ in range(2)])
    odd[(s - 1) // 2] = conditional_unitary(
        np.eye(2), [haar_unitary(2, g) for _ in range(2)], control_first=True
    )
    rep = scan_chain((2,) * n, even, odd)
    if rep.minimal_windows != [(s, 1)]:
        problems.append(f"embedded wall windows {rep.minimal_windows} != [({s}, 1)]")
    for k in range(20):
        gk = SeededRng(971, k).generator()
        even = [haar_unitary(4, gk) for _ in range(n // 2)]
        odd = [haar_unitary(4, gk) for _ in range((n - 1) // 2)]
        if scan_chain((2,) * n, even, odd).detections:
            problems.append(f"haar seed {k} produced a detection")
    dt = time.monotonic() - t0
    if dt >= 180:
        problems.append(f"runtime {dt:.0f}s >= 180s")
    _report(
        10, not problems,
        f"embedded wall found as the unique minimal window; 0 detections over "
        f"20 Haar chains ({dt:.1f}s)"
        + ("; " + "; ".join(problems) if problems else ""),
    )
