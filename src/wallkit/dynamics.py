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
    intersect,
    max_commutator,
    relative_commutant,
)
from .blocks import _verify_block_form, frame_span

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

    X is a temporary (n, d_C d_out, d_C d_out) stack and is overwritten with
    its escape X - core x 1: the core is subtracted from its out-diagonal
    in place.  Returns (center parts, escape residuals, norms), both norms
    HS."""
    n = len(X)
    T = X.reshape(n, d_C, d_out, d_C, d_out)
    core = np.einsum("icoko->ick", T) / d_out
    norms = np.linalg.norm(T.reshape(n, -1), axis=1)
    np.einsum("icoko->icko", T)[...] -= core[..., None]
    resid = np.linalg.norm(T.reshape(n, -1), axis=1)
    return core, resid, norms


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
    span on C.  Returns (passed, rounds, central algebra basis or None).
    """
    d_C = prod(center_dims)
    d_bulk = m.shape[1]
    d_out = d_bulk // d_C  # dimension of the identity factor within the bulk
    m_dag = np.ascontiguousarray(m.conj().transpose(0, 2, 1))
    kB = len(m)
    c_layout = SystemLayout(center_dims)
    a = np.eye(d_C, dtype=complex)[None] / np.sqrt(d_C)

    # each round that does not stabilize grows S, whose dimension is <= d_C^2
    max_rounds = d_C**2 + 1
    for rounds in range(1, max_rounds + 1):
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
        new = close_algebra(np.concatenate(collected), c_layout).basis
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
    a sandwich escapes by more than ``ESCAPE_TOL`` relative to its norm; the
    check draws no random numbers.  The report carries the central factors
    A_C and B_C (on C) of each side that passes.
    """
    U = _check_unitary(U, layout.dim)
    if not layout.left or not layout.right:
        raise ValueError("wall verification needs non-empty L and R regions")
    left, s_l, a_basis = _side_check(U, layout, right=False)
    right, s_r, b_basis = _side_check(U, layout, right=True)
    c_layout = SystemLayout(layout.center_dims)
    A_C = MatrixAlgebra(a_basis, c_layout) if left else None
    B_C = MatrixAlgebra(b_basis, c_layout) if right else None
    return WallReport(left, right, s_l, s_r, layout, A_C, B_C)


def _side_check(U: np.ndarray, layout: SystemLayout, right: bool):
    """One side of the wall check of a unitary U, from the one cut frame it
    needs: the left check closes the suffix frame of the cut after L, the
    right check the prefix frame of the cut after C, center first.  Returns
    (passed, rounds, central algebra basis or None)."""
    d_L, d_C = layout.d_left, layout.d_center
    if right:
        _, prefix = _cut_frames(U, d_L * d_C)
        m = _center_first(prefix, d_L, d_C)
    else:
        m, _ = _cut_frames(U, d_L)
    return _directional_closure(m, layout.center_dims)


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


def conserved_algebra(wall) -> MatrixAlgebra:
    """C-local conserved charges, computed on C.

    ``wall`` is a ``WallUnitary``, whose ``invariants`` give A_C and B_C.
    The invariant algebras factor as Lbar = M_L x A_C x 1_R and
    Rbar = 1_L x B_C x M_R, so Lbar' ∩ Rbar' = 1_L x (A_C' ∩ B_C') x 1_R: the
    conserved algebra is the part of A_C' that commutes with B_C.  A_C' is
    read off the wall's block frame of A_C = V (⊕ M_D x 1_E) V^dag as
    V (⊕ 1_D x M_E) V^dag, with no second decomposition and no d^2 x d^2
    superoperator.  Every returned element is checked to commute with both
    central factors.
    """
    inv = wall.invariants
    joint = MatrixAlgebra(
        relative_commutant(frame_span(wall.block_structure, mirror=True), inv.B_C.basis),
        inv.A_C.layout,
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
    """The spans are not stored: ``spaces`` rebuilds them on each access
    from Lbar and the step unitaries, by the products ``gauged_sequence``
    made, so they have its bytes and the report does not grow by a span per
    step."""

    lbar: MatrixAlgebra
    steps: list[np.ndarray]  # U~_0 = G_0, U~_1, ..., U~_T
    signature: tuple  # of Lbar, carried to every span
    residuals: list[float]  # of each span against the block form of its frame
    all_equal: bool  # every residual is within VERIFY_TOL

    @property
    def spaces(self) -> list[MatrixAlgebra]:
        """The span U~_tau ... U~_0 Lbar U~_0^dag ... U~_tau^dag of every step."""
        basis, spaces = self.lbar.basis, []
        for Ut in self.steps:
            basis = Ut @ basis @ dagger(Ut)
            spaces.append(MatrixAlgebra(basis, self.lbar.layout))
        return spaces


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
    steps = [G0] + [dagger(G) @ wall.U @ G_prev for G_prev, G in zip(gauges, gauges[1:])]
    basis, residuals = lbar.basis, []
    for Ut in steps:
        basis, V = Ut @ basis @ dagger(Ut), Ut @ V
        residuals.append(_verify_block_form(basis, V, blocks))
    return GaugedSequenceReport(
        lbar, steps, tuple(sorted(blocks)), residuals, max(residuals) <= VERIFY_TOL
    )


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


def scan_chain(site_dims, even_gates, odd_gates, max_width: int = 2) -> ScanReport:
    """Verify every candidate central window (width <= max_width) of a
    two-layer brickwork Floquet unitary and report the wall windows found.
    Even gates act on sites (0,1),(2,3),... first, odd gates on
    (1,2),(3,4),... second; each must be unitary.

    A side of window [s, s + w) is checked by one ``_side_check`` on the
    tripartite layout of its w + 2 sites s - 1 (L), s ... s + w - 1 (C) and
    s + w (R), with the product of the gates wholly inside them; it decides
    as the check on the whole chain does.  Each layer's gates commute, so a
    gate wholly in L or wholly in R is a left factor of U (odd layer) or a
    right one (even layer).  On its own edge it mixes the edge blocks and
    keeps their span; on the other edge it conjugates every sandwich by an
    edge unitary (left factor) or cancels around a x 1 (right factor), so
    neither moves a core or an escape residual, and what is left acts as the
    identity outside the cone.

    Each side is monotone in the regions: if the orbit of the left edge
    M_[0,s) stays inside M_[0,b), so does the orbit of M_[0,s-1), and it
    stays inside M_[0,b+1); the right side mirrors this.  So a side holds
    on [s, b) exactly for b >= b*(s), and b*(s) never decreases as s grows.
    One sweep per side over s tests the ends from b*(s - 1) up, narrowest
    first, and stops at the first that holds; the ends below are read as
    failing, those above as holding.  A chain without walls takes n - 2
    checks per side.  Each window's cone unitary is built at most once, and
    only when one of its sides is checked."""
    site_dims = tuple(int(d) for d in site_dims)
    n = len(site_dims)
    layers = [(2 * k, g) for k, g in enumerate(even_gates)]
    layers += [(2 * k + 1, g) for k, g in enumerate(odd_gates)]
    gates = []  # (first site, gate) in application order
    for s, g in layers:
        if s + 1 >= n:
            raise ValueError(f"gate on sites ({s}, {s + 1}) outside a chain of {n} sites")
        d_gate = site_dims[s] * site_dims[s + 1]
        g = np.asarray(g, dtype=complex)
        if g.shape != (d_gate, d_gate):
            raise ValueError(f"gate shape {g.shape} does not match site dims product {d_gate}")
        gates.append((s, _check_unitary(g, d_gate)))

    def cone(s, b):
        """The product of the gates wholly inside sites s - 1 ... b, on the
        tripartite layout of window [s, b)."""
        d = prod(site_dims[s - 1 : b + 1])
        U = np.eye(d, dtype=complex)
        for k, g in gates:  # each gate on the two row axes of its sites
            if s - 1 <= k < b:
                U = (g @ U.reshape(prod(site_dims[s - 1 : k]), len(g), -1)).reshape(d, d)
        return U, SystemLayout.tripartite(site_dims[s - 1], site_dims[s:b], site_dims[b])

    width = min(max_width, n - 2)  # wider windows leave L or R empty
    first = {}  # (right, s): b*(s), or one past row s's last end if no end holds
    for s in range(1, n - 1):
        last, cones = min(s + width, n - 1), {}
        for right in (False, True):
            b = max(first.get((right, s - 1), 0), s + 1)
            while b <= last:
                if b not in cones:
                    cones[b] = cone(s, b)
                if _side_check(*cones[b], right)[0]:
                    break
                b += 1
            first[right, s] = b
    return ScanReport([
        ScanRecord(s, w, s + w >= first[False, s], s + w >= first[True, s])
        for w in range(1, width + 1)
        for s in range(1, n - w)
    ])
