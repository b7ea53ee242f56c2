"""Heisenberg evolution, light cones, exact wall verification, invariant and
conserved algebras, gauged sequences, fragmentation, and chain scanning."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .layout import SystemLayout
from .linalg import (
    CONSERVED_TOL,
    EDGE_RANK_TOL,
    ESCAPE_TOL,
    FACTOR_COMMUTE_TOL,
    GAUGE_TOL,
    SUPPORT_TOL,
    UNITARY_TOL,
    VERIFY_TOL,
    ZERO_TOL,
    dagger,
    hs_norm,
)
from .algebra import (
    MatrixAlgebra,
    close_algebra,
    commutant,
    intersect,
    max_commutator,
    relative_commutant,
)
from .blocks import _verify_block_form

# complex elements of one chunk of evolved operators in ``lightcone``
LIGHTCONE_CHUNK_ELEMS = 2**22


def evolve_op(U: np.ndarray, O: np.ndarray, t: int) -> np.ndarray:
    """Heisenberg evolution U^t O U^-t by repeated conjugation."""
    if t < 0:
        raise ValueError("t must be non-negative")
    O = np.asarray(O, dtype=complex)
    Ud = dagger(U)
    for _ in range(t):
        O = U @ O @ Ud
    return O


def support(O: np.ndarray, layout: SystemLayout):
    """Sites where O acts non-trivially, with per-site residuals.

    Site s is excluded iff replacing its factor by the normalized partial
    trace changes O by less than ``SUPPORT_TOL`` relative to ||O||.  ``O``
    is one (d, d) matrix, giving a set and (n_sites,) residuals, or an
    (n, d, d) stack, giving a list of n sets and (n, n_sites) residuals.  A
    zero operator has empty support and zero residuals.
    """
    O = np.asarray(O, dtype=complex)
    dims = layout.site_dims
    stack = O.reshape(-1, layout.dim, layout.dim)
    norms = [hs_norm(x) for x in stack]
    live = [i for i, norm in enumerate(norms) if norm >= ZERO_TOL]
    residuals = np.zeros((len(stack), layout.n_sites))
    R = np.empty_like(stack)  # O - reduced (x) 1, one site at a time
    for s, d_s in enumerate(dims):
        a, b = prod(dims[:s]), prod(dims[s + 1 :])
        T = stack.reshape(-1, a, d_s, b, a, d_s, b)
        reduced = np.trace(T, axis1=2, axis2=5) / d_s
        R_s = R.reshape(T.shape)
        R_s[...] = T
        for j in range(d_s):  # the identity on site s: only its diagonal changes
            R_s[:, :, j, :, :, j] -= reduced
        for i in live:
            residuals[i, s] = hs_norm(R[i]) / norms[i]
    sets = [set() for _ in stack]
    for i in live:
        sets[i] = {s for s in range(layout.n_sites) if residuals[i, s] >= SUPPORT_TOL}
    return (sets[0], residuals[0]) if O.ndim == 2 else (sets, residuals)


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


def lightcone(U, seed_op, layout: SystemLayout, t_max: int) -> LightConeProfile:
    """Support of the evolved seed operator for t = 0..t_max.

    The evolved operators are scored by ``support`` in chunks of time steps
    of at most ``LIGHTCONE_CHUNK_ELEMS`` complex elements, so peak memory
    does not grow with t_max."""
    O = np.asarray(seed_op, dtype=complex)
    Ud = dagger(U)
    steps = max(1, LIGHTCONE_CHUNK_ELEMS // O.size)
    sets, residuals = [], np.zeros((t_max + 1, layout.n_sites))
    for t0 in range(0, t_max + 1, steps):
        chunk = np.empty((min(steps, t_max + 1 - t0),) + O.shape, dtype=complex)
        for i in range(len(chunk)):
            if t0 + i:
                O = U @ O @ Ud
            chunk[i] = O
        sup, res = support(chunk, layout)
        sets += sup
        residuals[t0 : t0 + len(chunk)] = res
    return LightConeProfile(list(range(t_max + 1)), sets, residuals)


# ---------------------------------------------------------------------------
# wall verification via closure stabilization
# ---------------------------------------------------------------------------


def _check_unitary(U: np.ndarray, d: int):
    U = np.asarray(U, dtype=complex)
    if U.shape != (d, d):
        raise ValueError(f"operator shape {U.shape} does not match dimension {d}")
    if hs_norm(U @ dagger(U) - np.eye(d)) > UNITARY_TOL:
        raise ValueError("operator is not unitary")
    return U


def _cut_frames(U: np.ndarray, d_A: int):
    """Operator-Schmidt frames of the unitary U across the cut after a
    d_A-dimensional prefix A (the suffix B has dimension d_B = d / d_A).

    The realigned matrix M[(i, u), (j, v)] = U[(i, j), (u, v)] has the edge
    blocks (<i|_A x 1) U (|u>_A x 1) as rows and (1 x <j|_B) U (1 x |v>_B)
    as columns, so one SVD gives HS-orthonormal bases of both spans, with
    the rank cut at singular values above ``EDGE_RANK_TOL`` times the
    largest one.  U is unitary, so ||M||_HS = sqrt(d) and the largest one is
    positive.  Returns (frame on B, frame on A): the first seeds the closure
    of the check whose edge is A, the second the one whose edge is B.
    """
    d_B = len(U) // d_A
    M = U.reshape(d_A, d_B, d_A, d_B).transpose(0, 2, 1, 3).reshape(d_A * d_A, d_B * d_B)
    u, s, vh = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(s > EDGE_RANK_TOL * s[0]))
    return vh[:r].reshape(r, d_B, d_B), u[:, :r].T.reshape(r, d_A, d_A)


def _center_first(frame: np.ndarray, d_L: int, d_C: int) -> np.ndarray:
    """A frame on L x C (the prefix frame of the cut after C) reordered to
    C x L: the bulk, center first, of the check whose edge is R."""
    r = len(frame)
    m = frame.reshape(r, d_L, d_C, d_L, d_C).transpose(0, 2, 1, 4, 3)
    return m.reshape(r, d_C * d_L, d_C * d_L)


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


def _directional_closure(m: np.ndarray, center_dims: tuple):
    """Closure of the left-edge-seeded invariant algebra, tracked by its
    central factor.

    ``m`` is an HS-orthonormal frame of the left edge blocks of U on the
    bulk C x out (``_cut_frames``), with C of dims ``center_dims`` first.
    Every algebra between M_L x 1 and the full algebra is of the form
    M_L x S; each closure round sandwiches the current S between edge
    blocks of U, rejects as soon as a sandwich X escapes (center x identity)
    by more than ``ESCAPE_TOL`` relative to ||X|| (sandwiches with ||X|| <=
    ``ZERO_TOL`` are ignored), and otherwise product-closes the compressed
    span on C.

    Each round first tests one random probe (``_probe_escapes``) and
    rejects on it when its escape residual exceeds
    max(ESCAPE_TOL sqrt(d_out), ZERO_TOL) times its coefficient weight.  The edge
    blocks are HS-orthonormal, so ||m_p||_op <= 1, and every lifted basis
    element has HS norm sqrt(d_out); so every sandwich of a round that the
    per-element rule accepts has residual at most that bound, and a probe
    above it implies a sandwich that the per-element rule rejects in the
    same round.  Otherwise the round runs the per-element rule in full, so
    decisions and round counts are those of the per-element rule alone.
    Returns (passed, rounds, central algebra basis or None).
    """
    d_C = prod(center_dims)
    d_bulk = m.shape[1]
    d_out = d_bulk // d_C  # dimension of the identity factor within the bulk
    m_dag = np.ascontiguousarray(m.conj().transpose(0, 2, 1))
    kB = len(m)
    c_layout = SystemLayout(center_dims)
    a = np.eye(d_C, dtype=complex)[None] / np.sqrt(d_C)
    probe_rng = np.random.default_rng(PROBE_SEED)
    probe_bound = max(ESCAPE_TOL * np.sqrt(d_out), ZERO_TOL)

    # each round that does not stabilize grows S, whose dimension is <= d_C^2
    max_rounds = d_C**2 + 1
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
            if np.any(rel > ESCAPE_TOL):
                return False, rounds, None
            collected.append(core[norms > ZERO_TOL])
        new = close_algebra(list(np.concatenate(collected)), c_layout).basis
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


def verify_wall(U, layout: SystemLayout) -> WallReport:
    """Exact wall check by closure stabilization.

    The left check grows the algebra generated by the Heisenberg orbit of
    M_L x 1 and succeeds iff it stays inside M_LC; the right check is its
    mirror, seeded by the right edge blocks on C x L.  A round rejects when
    a sandwich escapes by more than ``ESCAPE_TOL`` relative to its norm; it
    rejects on one random probe first when the probe's escape exceeds
    max(ESCAPE_TOL sqrt(d_out), ZERO_TOL) times its coefficient weight, a
    bound that only a rejected round can exceed (see
    ``_directional_closure``).  The probes come from a fixed seed.  The
    report carries the central factors A_C and B_C (on C) of each side that
    passes.
    """
    return _verify_wall(_check_unitary(U, layout.dim), layout)


def _verify_wall(U: np.ndarray, layout: SystemLayout) -> WallReport:
    """``verify_wall`` on a U already checked to be a d x d unitary.  The
    left frame is the suffix frame of the cut after L, the right frame the
    prefix frame of the cut after C, center first, as in ``scan_chain``."""
    if not layout.left or not layout.right:
        raise ValueError("wall verification needs non-empty L and R regions")
    d_L, d_C = layout.d_left, layout.d_center
    m_left, _ = _cut_frames(U, d_L)
    _, prefix = _cut_frames(U, d_L * d_C)
    left, s_l, a_basis = _directional_closure(m_left, layout.center_dims)
    right, s_r, b_basis = _directional_closure(_center_first(prefix, d_L, d_C), layout.center_dims)
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


def invariant_algebras(U, layout: SystemLayout) -> WallReport:
    """The report of a wall, which holds its invariant algebras; raises
    ``NotAWallError`` (a ``ValueError``) on a non-wall."""
    report = verify_wall(U, layout)
    if not report.is_wall:
        raise NotAWallError(f"not a wall: left={report.left}, right={report.right}")
    # the theorem demands the central factors commute pairwise
    if max_commutator(report.A_C.basis, report.B_C.basis) > FACTOR_COMMUTE_TOL:
        raise RuntimeError("central factors fail to commute (numerical failure)")
    return report


def conserved_algebra(inv: WallReport) -> MatrixAlgebra:
    """C-local conserved charges, computed on C.

    The invariant algebras factor as Lbar = M_L x A_C x 1_R and
    Rbar = 1_L x B_C x M_R (``invariant_algebras`` raises otherwise), so
    Lbar' ∩ Rbar' = 1_L x (A_C' ∩ B_C') x 1_R: the conserved algebra is the
    part of A_C' that commutes with B_C, with no d^2 x d^2 superoperator on
    the full space.  Every returned element is checked to commute with both
    central factors.
    """
    joint = MatrixAlgebra(
        relative_commutant(commutant(inv.A_C).basis, inv.B_C.basis), inv.A_C.layout
    )
    # all bases are HS-orthonormal, so these commutator norms are relative
    residual = max_commutator(joint.basis, np.concatenate([inv.A_C.basis, inv.B_C.basis]))
    if residual > CONSERVED_TOL:
        raise RuntimeError(
            f"conserved element fails to commute with the central factors "
            f"(residual {residual:.2e}; numerical failure)"
        )
    return joint


@dataclass
class GaugedSequenceReport:
    spaces: list[MatrixAlgebra]
    signature: tuple  # of Lbar, carried to every span
    residuals: list[float]  # of each span against the block form of its frame
    all_equal: bool  # every residual is within VERIFY_TOL


def gauged_sequence(wall, gauges) -> GaugedSequenceReport:
    """Evolve the left-invariant algebra through a gauged wall sequence
    U~_tau = G_tau^dag U G_{tau-1}, carrying its block frame along.

    ``wall`` is a ``WallUnitary``, whose ``invariants`` give Lbar;
    ``gauges`` lists G_0 .. G_T; G_0 must preserve the Lbar span.  The frame
    of Lbar = M_L x A_C x 1_R is 1_L x V_C x 1_R over the wall's frame V_C of
    A_C, its columns grouped per block as (l, a, e, r): blocks (d_L D_i,
    E_i d_R).  Step tau conjugates the span by U~_tau (U~_0 = G_0), which
    moves its HS-orthonormal basis and its frame alike, and records the
    span's residual against the frame's block form.
    """
    lbar = wall.invariants.Lbar
    G0 = np.asarray(gauges[0], dtype=complex)
    moved = G0 @ lbar.basis @ dagger(G0)
    coeff = np.tensordot(moved, lbar.basis.conj(), axes=([1, 2], [1, 2]))  # <b_j, moved_i>
    resid = moved - np.tensordot(coeff, lbar.basis, axes=(1, 0))
    if np.linalg.norm(resid.reshape(len(resid), -1), axis=1).max() > GAUGE_TOL:
        raise ValueError("G_0 does not preserve the left-invariant algebra")
    bs, d_L, d_R = wall.block_structure, wall.layout.d_left, wall.layout.d_right
    blocks = [(d_L * dD, dE * d_R) for dD, dE in bs.blocks]
    V = np.concatenate([
        np.kron(np.kron(np.eye(d_L), bs.V[:, off : off + dD * dE]), np.eye(d_R))
        for off, (dD, dE) in zip(bs.block_offsets(), bs.blocks)
    ], axis=1)
    basis, spaces, residuals = lbar.basis, [], []
    for Ut in [G0] + [dagger(G) @ wall.U @ G_prev for G_prev, G in zip(gauges, gauges[1:])]:
        basis, V = Ut @ basis @ dagger(Ut), Ut @ V
        spaces.append(MatrixAlgebra(basis, wall.layout))
        residuals.append(_verify_block_form(basis, V, blocks))
    return GaugedSequenceReport(spaces, tuple(sorted(blocks)), residuals, max(residuals) <= VERIFY_TOL)


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
    applied first, odd gates on (1,2),(3,4),... second.  Each gate acts on
    the two row axes of its sites, at O(d_gate^2 d^2) per gate."""
    site_dims = tuple(int(d) for d in site_dims)
    n, d = len(site_dims), prod(site_dims)
    U = np.eye(d, dtype=complex)
    gates = [(2 * k, g) for k, g in enumerate(even_gates)]
    gates += [(2 * k + 1, g) for k, g in enumerate(odd_gates)]
    for s, g in gates:
        if s + 1 >= n:
            raise ValueError(f"gate on sites ({s}, {s + 1}) outside a chain of {n} sites")
        d_gate = site_dims[s] * site_dims[s + 1]
        g = np.asarray(g, dtype=complex)
        if g.shape != (d_gate, d_gate):
            raise ValueError(f"gate shape {g.shape} does not match site dims product {d_gate}")
        d_pre = prod(site_dims[:s])
        U = (g @ U.reshape(d_pre, d_gate, -1)).reshape(d, d)
    return U


def scan_chain(site_dims, even_gates, odd_gates, max_width: int = 2) -> ScanReport:
    """Verify every candidate central window (width <= max_width) of the
    brickwork Floquet unitary and report the wall windows found.

    The checks run cut by cut: one ``_cut_frames`` SVD at each of the n - 1
    bonds gives the left frame of every window that starts there and the
    right frame of every window that ends there, so the records are those
    of ``verify_wall`` on each window, at one SVD per bond."""
    site_dims = tuple(int(d) for d in site_dims)
    n = len(site_dims)
    U = _check_unitary(brickwork_unitary(site_dims, even_gates, odd_gates), prod(site_dims))
    widths = range(1, min(max_width, n - 2) + 1)  # wider windows leave L or R empty
    left, right = {}, {}
    for cut in range(1, n):
        suffix, prefix = _cut_frames(U, prod(site_dims[:cut]))
        for w in widths:
            if cut + w < n:  # window [cut, cut + w) with L = [0, cut)
                left[cut, w] = _directional_closure(suffix, site_dims[cut : cut + w])[0]
            start = cut - w
            if start >= 1:  # window [start, cut) with R = [cut, n)
                m = _center_first(prefix, prod(site_dims[:start]), prod(site_dims[start:cut]))
                right[start, w] = _directional_closure(m, site_dims[start:cut])[0]
    return ScanReport(
        [ScanRecord(s, w, left[s, w], right[s, w]) for w in widths for s in range(1, n - w)]
    )
