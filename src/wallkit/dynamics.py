"""Heisenberg evolution, light cones, exact wall verification, invariant and
conserved algebras, gauged sequences, fragmentation, and chain scanning."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .layout import SystemLayout, as_generator
from .linalg import (
    RANK_TOL,
    ZERO_TOL,
    dagger,
    embed,
    hs_norm,
    orthonormal_basis,
    partial_trace,
)
from .algebra import (
    MatrixAlgebra,
    close_algebra,
    commutant,
    intersect,
)
from .blocks import decompose, isomorphism_signature

# residual threshold for "operator has escaped the allowed region"
ESCAPE_TOL = 1e-9


def evolve_op(U: np.ndarray, O: np.ndarray, t: int) -> np.ndarray:
    """Heisenberg evolution U^t O U^-t by repeated conjugation."""
    if t < 0:
        raise ValueError("t must be non-negative")
    O = np.asarray(O, dtype=complex)
    Ud = dagger(U)
    for _ in range(t):
        O = U @ O @ Ud
    return O


def support(O: np.ndarray, layout: SystemLayout, tol: float = ZERO_TOL):
    """Sites where O acts non-trivially, with per-site residuals.

    Site s is excluded iff replacing its factor by the normalized partial
    trace changes O by less than ``tol`` relative to ||O||.
    """
    O = np.asarray(O, dtype=complex)
    norm = hs_norm(O)
    residuals = np.zeros(layout.n_sites)
    if norm < ZERO_TOL:
        return set(), residuals
    for s in range(layout.n_sites):
        reduced = partial_trace(O, {s}, layout) / layout.site_dims[s]
        rest = [q for q in range(layout.n_sites) if q != s]
        lifted = embed(reduced, rest, layout) if rest else reduced * np.eye(layout.dim)
        residuals[s] = hs_norm(O - lifted) / norm
    return {s for s in range(layout.n_sites) if residuals[s] >= tol}, residuals


@dataclass
class LightConeProfile:
    times: list[int]
    support_sets: list[set[int]]
    residuals: np.ndarray  # (t_max + 1, n_sites)

    def to_csv_rows(self):
        rows = []
        for t, sup in zip(self.times, self.support_sets):
            for s in range(self.residuals.shape[1]):
                rows.append((t, s, self.residuals[t, s], int(s in sup)))
        return rows


def lightcone(U, seed_op, layout: SystemLayout, t_max: int, tol: float = ZERO_TOL) -> LightConeProfile:
    """Support of the evolved seed operator for t = 0..t_max."""
    O = np.asarray(seed_op, dtype=complex)
    Ud = dagger(U)
    sets, residuals = [], np.zeros((t_max + 1, layout.n_sites))
    for t in range(t_max + 1):
        sup, res = support(O, layout, tol)
        sets.append(sup)
        residuals[t] = res
        if t < t_max:
            O = U @ O @ Ud
    return LightConeProfile(list(range(t_max + 1)), sets, residuals)


# ---------------------------------------------------------------------------
# wall verification via closure stabilization
# ---------------------------------------------------------------------------


def _check_unitary(U: np.ndarray, d: int):
    U = np.asarray(U, dtype=complex)
    if U.shape != (d, d):
        raise ValueError(f"operator shape {U.shape} does not match dimension {d}")
    if hs_norm(U @ dagger(U) - np.eye(d)) > 1e-8:
        raise ValueError("operator is not unitary")
    return U


def _swapped_layout(layout: SystemLayout) -> SystemLayout:
    """The (R, C, L) layout that ``_swap_edges`` maps (L, C, R) operators to."""
    n_c = len(layout.center_dims)
    return SystemLayout(
        (layout.d_right,) + layout.center_dims + (layout.d_left,),
        (0,),
        tuple(range(1, 1 + n_c)),
        (1 + n_c,),
    )


def _swap_edges(basis: np.ndarray, layout: SystemLayout) -> np.ndarray:
    """Reorder operators from (L, C, R) to (R, C, L) tensor factors."""
    d_L, d_C, d_R = layout.d_left, layout.d_center, layout.d_right
    k = len(basis)
    T = basis.reshape(k, d_L, d_C, d_R, d_L, d_C, d_R)
    T = T.transpose(0, 3, 2, 1, 6, 5, 4)
    return T.reshape(k, layout.dim, layout.dim)


def _edge_block_frame(U: np.ndarray, layout: SystemLayout, tol: float):
    """Orthonormal basis of the left edge blocks of U.

    These are the operators B_iu = (<i|_L x 1) U (|u>_L x 1) acting on CR;
    the closure of M_L-seeded operators is generated by sandwiches
    B s B'^dag.  The right check runs this on the edge-swapped U.
    """
    d_edge = layout.d_left
    d_bulk = layout.dim // d_edge
    T = U.reshape(d_edge, d_bulk, d_edge, d_bulk)
    blocks = T.transpose(0, 2, 1, 3).reshape(d_edge * d_edge, d_bulk, d_bulk)
    return orthonormal_basis(blocks, tol)


def _lift(a: np.ndarray, d_out: int) -> np.ndarray:
    """a x 1_{d_out} for a stack of square matrices a (exact: entries are
    multiplied by 0 and 1 only)."""
    n, d_C, _ = a.shape
    lifted = a[:, :, None, :, None] * np.eye(d_out)[:, None, :]
    lifted += 0.0  # -0.0 -> +0.0, so the bytes match an einsum outer product
    return lifted.reshape(n, d_C * d_out, d_C * d_out)


def _compress_to_center(X: np.ndarray, d_C: int, d_out: int):
    """Project bulk operators on C x out onto (center x identity).

    Returns (center parts, escape residuals, norms), both norms HS."""
    n = len(X)
    core = np.trace(X.reshape(n, d_C, d_out, d_C, d_out), axis1=2, axis2=4) / d_out
    norms = np.linalg.norm(X.reshape(n, -1), axis=1)
    resid = np.linalg.norm((X - _lift(core, d_out)).reshape(n, -1), axis=1)
    return core, resid, norms


# seed of the closure probes: fixed, so that every check is deterministic
PROBE_SEED = 20100


def _complex_normal(g: np.random.Generator, n: int) -> np.ndarray:
    return g.standard_normal(n) + 1j * g.standard_normal(n)


def _probe_escapes(m, a, d_out: int, bound: float, g: np.random.Generator) -> bool:
    """True when one random element of the next round's sandwich span proves
    that some sandwich m_p lift(a_k) m_q^dag escapes by more than ``bound``.

    The probe is P = x s y^dag with x = sum c_p m_p, y = sum c'_q m_q and
    s = lift(sum e_k a_k).  The escape residual r is a seminorm, so
    r(P) <= (sum |c_p|)(sum |c'_q|)(sum |e_k|) max r(sandwich), and the probe
    fires only when r(P) exceeds ``bound`` times that coefficient weight.
    """
    c, c2, e = _complex_normal(g, len(m)), _complex_normal(g, len(m)), _complex_normal(g, len(a))
    x = np.tensordot(c, m, axes=1)
    y = np.tensordot(c2, m, axes=1)
    s = _lift(np.tensordot(e, a, axes=1)[None], d_out)[0]
    _, resid, _ = _compress_to_center((x @ s @ dagger(y))[None], a.shape[1], d_out)
    weight = np.abs(c).sum() * np.abs(c2).sum() * np.abs(e).sum()
    return bool(resid[0] > bound * weight)


def _directional_closure(U, layout: SystemLayout, tol: float):
    """Closure of the left-edge-seeded invariant algebra, tracked by its
    central factor.

    Every algebra between M_L x 1 and the full algebra is of the form
    M_L x S; each closure round sandwiches the current S between edge
    blocks of U, rejects as soon as a sandwich X escapes (center x identity)
    by more than ``tol`` relative to ||X|| (sandwiches with ||X|| <=
    ``ZERO_TOL`` are ignored), and otherwise product-closes the compressed
    span on C.

    Each round first tests one random probe (``_probe_escapes``) and
    rejects on it when its escape residual exceeds
    max(tol sqrt(d_out), ZERO_TOL) times its coefficient weight.  The edge
    blocks are HS-orthonormal, so ||m_p||_op <= 1, and every lifted basis
    element has HS norm sqrt(d_out); so every sandwich of a round that the
    per-element rule accepts has residual at most that bound, and a probe
    above it implies a sandwich that the per-element rule rejects in the
    same round.  Otherwise the round runs the per-element rule in full, so
    decisions and round counts are those of the per-element rule alone.
    Returns (passed, rounds, central algebra basis or None).
    """
    d_C = layout.d_center
    d_bulk = layout.dim // layout.d_left
    d_out = d_bulk // d_C  # dimension of the identity factor within the bulk
    m = _edge_block_frame(U, layout, tol)
    m_dag = np.ascontiguousarray(m.conj().transpose(0, 2, 1))
    kB = len(m)
    c_layout = SystemLayout(layout.center_dims)
    a = np.eye(d_C, dtype=complex)[None] / np.sqrt(d_C)
    probe_rng = np.random.default_rng(PROBE_SEED)
    probe_bound = max(tol * np.sqrt(d_out), ZERO_TOL)

    max_rounds = layout.dim**2 + 1
    for rounds in range(1, max_rounds + 1):
        if _probe_escapes(m, a, d_out, probe_bound, probe_rng):
            return False, rounds, None
        lifted = _lift(a, d_out)
        # sandwiches m_p s m_q^dag in (p, a, q) order, in memory-bounded
        # chunks, with early exit
        collected = [a]
        chunk = max(1, 2**22 // (d_bulk * d_bulk * max(len(a) * kB, 1)))
        for p0 in range(0, kB, chunk):
            part = m[p0 : p0 + chunk, None] @ lifted[None]
            prods = (part[:, :, None] @ m_dag).reshape(-1, d_bulk, d_bulk)
            core, resid, norms = _compress_to_center(prods, d_C, d_out)
            rel = np.where(norms > ZERO_TOL, resid / np.maximum(norms, ZERO_TOL), 0.0)
            if np.any(rel > tol):
                return False, rounds, None
            collected.append(core[norms > ZERO_TOL])
        new = close_algebra(
            list(np.concatenate(collected)), c_layout, RANK_TOL
        ).basis
        if len(new) == len(a):
            return True, rounds, new
        a = new
    raise RuntimeError("closure failed to stabilize (numerical drift)")


@dataclass
class WallReport:
    """One wall check: each side that passes carries its central factor on C.
    On a wall, Lbar = M_L x A_C x 1_R and Rbar = 1_L x B_C x M_R."""

    left: bool
    right: bool
    steps_left: int
    steps_right: int
    layout: SystemLayout
    A_C: MatrixAlgebra | None = None
    B_C: MatrixAlgebra | None = None

    @property
    def is_wall(self) -> bool:
        return self.left and self.right

    @property
    def stabilization_time(self) -> int:
        return max(self.steps_left, self.steps_right)

    @property
    def improper(self) -> bool | None:
        """A_C is 1 or all of M_C; None when the left check fails."""
        return None if self.A_C is None else self.A_C.dim in (1, self.layout.d_center ** 2)

    @property
    def dim_Lbar(self) -> int:
        return self.layout.d_left ** 2 * self.A_C.dim

    @property
    def dim_Rbar(self) -> int:
        return self.layout.d_right ** 2 * self.B_C.dim

    @property
    def Lbar(self) -> MatrixAlgebra:
        """M_L x A_C x 1_R on the full space, built on each access."""
        lay = self.layout
        return _lift_factors(
            _edge_basis(lay.d_left, True), self.A_C.basis, _edge_basis(lay.d_right, False), lay
        )

    @property
    def Rbar(self) -> MatrixAlgebra:
        """1_L x B_C x M_R on the full space, built on each access."""
        lay = self.layout
        return _lift_factors(
            _edge_basis(lay.d_left, False), self.B_C.basis, _edge_basis(lay.d_right, True), lay
        )

    def summary(self) -> dict:
        out = {
            "left": self.left,
            "right": self.right,
            "stabilization_time": self.stabilization_time,
        }
        if self.A_C is not None:
            out["dimA"] = self.A_C.dim
        if self.B_C is not None:
            out["dimB"] = self.B_C.dim
        if self.improper is not None:
            out["improper"] = self.improper
        return out


def verify_wall(U, layout: SystemLayout, tol: float = ESCAPE_TOL) -> WallReport:
    """Exact wall check by closure stabilization.

    The left check grows the algebra generated by the Heisenberg orbit of
    M_L x 1 and succeeds iff it stays inside M_LC; the right check is the
    left check on the edge-swapped U.  A round rejects when a sandwich
    escapes by more than ``tol`` relative to its norm; it rejects on one
    random probe first when the probe's escape exceeds
    max(tol sqrt(d_out), ZERO_TOL) times its coefficient weight, a bound
    that only a rejected round can exceed (see ``_directional_closure``).
    The probes come from a fixed seed.  The report carries the central
    factors A_C and B_C (on C) of each side that passes.
    """
    return _verify_wall(_check_unitary(U, layout.dim), layout, tol)


def _verify_wall(U: np.ndarray, layout: SystemLayout, tol: float) -> WallReport:
    """``verify_wall`` on a U already checked to be a d x d unitary."""
    if not layout.left or not layout.right:
        raise ValueError("wall verification needs non-empty L and R regions")
    swapped = _swapped_layout(layout)
    left, s_l, a_basis = _directional_closure(U, layout, tol)
    right, s_r, b_basis = _directional_closure(_swap_edges(U[None], layout)[0], swapped, tol)
    c_layout = SystemLayout(layout.center_dims)
    A_C = MatrixAlgebra(a_basis, c_layout) if left else None
    B_C = MatrixAlgebra(b_basis, c_layout) if right else None
    return WallReport(left, right, s_l, s_r, layout, A_C, B_C)


def _lift_factors(left, center, right, layout: SystemLayout) -> MatrixAlgebra:
    """Span of every l x c x r over stacks of operators on L, C and R.  The
    Kronecker products of HS-orthonormal stacks are HS-orthonormal, so they
    are the basis as they stand."""
    prods = np.einsum("iab,jce,kfg->ijkacfbeg", left, center, right)
    return MatrixAlgebra(prods.reshape(-1, layout.dim, layout.dim), layout)


def _edge_basis(d: int, full: bool) -> np.ndarray:
    """HS-orthonormal basis of M_d (the matrix units) or of C 1_d."""
    return np.eye(d * d).reshape(-1, d, d) if full else np.eye(d)[None] / np.sqrt(d)


class NotAWallError(ValueError):
    """The unitary fails the wall check."""


def invariant_algebras(U, layout: SystemLayout, tol: float = ESCAPE_TOL) -> WallReport:
    """The report of a wall, which holds its invariant algebras; raises
    ``NotAWallError`` (a ``ValueError``) on a non-wall."""
    report = verify_wall(U, layout, tol)
    if not report.is_wall:
        raise NotAWallError(f"not a wall: left={report.left}, right={report.right}")
    # the theorem demands the central factors commute pairwise
    for x in report.A_C.basis:
        for y in report.B_C.basis:
            if hs_norm(x @ y - y @ x) > 1e-9:
                raise RuntimeError("central factors fail to commute (numerical failure)")
    return report


def conserved_algebra(inv: WallReport, tol: float = RANK_TOL) -> MatrixAlgebra:
    """C-local conserved charges, computed on C.

    The invariant algebras factor as Lbar = M_L x A_C x 1_R and
    Rbar = 1_L x B_C x M_R (``invariant_algebras`` raises otherwise), so
    Lbar' ∩ Rbar' = 1_L x (A_C' ∩ B_C') x 1_R: the conserved algebra is the
    intersection of the two central commutants, with no d^2 x d^2
    superoperator on the full space.  Every returned element is checked to
    commute with both central factors.
    """
    joint = intersect(commutant(inv.A_C, tol), commutant(inv.B_C, tol), tol)
    # all bases are HS-orthonormal, so these commutator norms are relative
    factors = np.concatenate([inv.A_C.basis, inv.B_C.basis])
    comms = np.einsum("iab,jbc->ijac", joint.basis, factors) - np.einsum(
        "jab,ibc->ijac", factors, joint.basis
    )
    residual = float(np.max(np.linalg.norm(comms, axis=(2, 3)), initial=0.0))
    if residual > 1e-8:
        raise RuntimeError(
            f"conserved element fails to commute with the central factors "
            f"(residual {residual:.2e}; numerical failure)"
        )
    return joint


@dataclass
class GaugedSequenceReport:
    spaces: list[MatrixAlgebra]
    signatures: list[tuple]
    all_equal: bool


def gauged_sequence(wall, gauges, rng=None, tol: float = RANK_TOL) -> GaugedSequenceReport:
    """Evolve the left-invariant algebra through a gauged wall sequence
    U~_tau = G_tau^dag U G_{tau-1} and report isomorphism signatures.

    ``wall`` is a ``WallUnitary``, whose ``invariants`` give Lbar;
    ``gauges`` lists G_0 .. G_T; G_0 must preserve the Lbar span.
    """
    U, layout = np.asarray(wall.U, dtype=complex), wall.layout
    lbar = wall.invariants.Lbar
    G0 = np.asarray(gauges[0], dtype=complex)
    for x in lbar.basis:
        moved = G0 @ x @ dagger(G0)
        if hs_norm(moved - lbar.project(moved)) > 1e-9:
            raise ValueError("G_0 does not preserve the left-invariant algebra")
    current = MatrixAlgebra(
        orthonormal_basis(np.asarray([G0 @ x @ dagger(G0) for x in lbar.basis]), tol),
        layout,
    )
    rng = as_generator(rng if rng is not None else 0)
    spaces = [current]
    signatures = [isomorphism_signature(decompose(current, rng))]
    for tau in range(1, len(gauges)):
        Ut = dagger(np.asarray(gauges[tau], dtype=complex)) @ U @ np.asarray(
            gauges[tau - 1], dtype=complex
        )
        moved = np.asarray([Ut @ x @ dagger(Ut) for x in current.basis])
        current = MatrixAlgebra(orthonormal_basis(moved, tol), layout)
        spaces.append(current)
        signatures.append(isomorphism_signature(decompose(current, rng)))
    return GaugedSequenceReport(spaces, signatures, all(s == signatures[0] for s in signatures))


@dataclass
class FragmentDecomposition:
    dim_left: int
    dim_right: int
    dim_product: int
    dim_intersection: int
    dim_remainder: int
    intersection_basis: np.ndarray  # on C

    def summary(self) -> dict:
        return {
            "dim_L": self.dim_left,
            "dim_R": self.dim_right,
            "dim_LxR": self.dim_product,
            "dim_I": self.dim_intersection,
            "dim_Fperp": self.dim_remainder,
        }


def fragment_decomposition(inv: WallReport) -> FragmentDecomposition:
    """Sector dimensions of the central operator-space splitting."""
    I = intersect(inv.A_C, inv.B_C)
    d2 = inv.layout.dim ** 2
    dim_I = I.dim
    dim_L = inv.dim_Lbar - dim_I
    dim_R = inv.dim_Rbar - dim_I
    dim_LR = dim_L * dim_R
    dim_rest = d2 - dim_L - dim_R - dim_LR - dim_I
    return FragmentDecomposition(dim_L, dim_R, dim_LR, dim_I, dim_rest, I.basis)


@dataclass
class ScanRecord:
    start: int
    width: int
    left: bool
    right: bool

    @property
    def is_wall(self) -> bool:
        return self.left and self.right


@dataclass
class ScanReport:
    records: list[ScanRecord]

    @property
    def detections(self) -> list[tuple[int, int]]:
        return [(r.start, r.width) for r in self.records if r.is_wall]

    @property
    def minimal_windows(self) -> list[tuple[int, int]]:
        """Detections that do not strictly contain another detection."""
        hits = self.detections
        out = []
        for s, w in hits:
            covers_other = any(
                (s2, w2) != (s, w) and s <= s2 and s2 + w2 <= s + w
                for s2, w2 in hits
            )
            if not covers_other:
                out.append((s, w))
        return out


def brickwork_unitary(site_dims, even_gates, odd_gates) -> np.ndarray:
    """Floquet unitary of a two-layer brickwork: even gates on (0,1),(2,3),...
    applied first, odd gates on (1,2),(3,4),... second."""
    layout = SystemLayout(tuple(site_dims))
    n = layout.n_sites
    U = np.eye(layout.dim, dtype=complex)
    for k, g in enumerate(even_gates):
        U = embed(g, (2 * k, 2 * k + 1), layout) @ U
    U_odd = np.eye(layout.dim, dtype=complex)
    for k, g in enumerate(odd_gates):
        U_odd = embed(g, (2 * k + 1, 2 * k + 2), layout) @ U_odd
    return U_odd @ U


def scan_chain(site_dims, even_gates, odd_gates, max_width: int = 2, tol: float = ESCAPE_TOL) -> ScanReport:
    """Verify every candidate central window (width <= max_width) of the
    brickwork Floquet unitary and report the wall windows found."""
    site_dims = tuple(int(d) for d in site_dims)
    n = len(site_dims)
    U = _check_unitary(brickwork_unitary(site_dims, even_gates, odd_gates), prod(site_dims))
    records = []
    for width in range(1, min(max_width, n - 2) + 1):  # wider windows leave L or R empty
        for start in range(1, n - width):
            layout = SystemLayout.chain(site_dims, start, width)
            rep = _verify_wall(U, layout, tol)
            records.append(ScanRecord(start, width, rep.left, rep.right))
    return ScanReport(records)
