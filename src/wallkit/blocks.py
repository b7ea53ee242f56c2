"""Wedderburn decomposition of a finite C*-algebra into irreducible blocks
M_D (x) 1_E, with an explicit block-diagonalizing unitary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import SystemLayout, as_generator
from .linalg import (
    CENTRAL_CLUSTER_TOL,
    FRAME_CLUSTER_TOL,
    ORBIT_RANK_TOL,
    POLAR_TOL,
    VERIFY_TOL,
    dagger,
    orthonormal_basis,
    random_hermitian_in_span,
)
from .algebra import (
    MatrixAlgebra,
    cluster_eigenvalues,
    relative_commutant,
)


@dataclass
class BlockStructure:
    """Blocks (dim_D, dim_E), the block-diagonalizing unitary V, and the
    minimal central projectors, all in the original basis."""

    blocks: list[tuple[int, int]]
    V: np.ndarray
    central_projectors: list[np.ndarray]
    layout: SystemLayout

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_offsets(self) -> list[int]:
        """Starting index of each block along the V-frame diagonal."""
        offs, pos = [], 0
        for dD, dE in self.blocks:
            offs.append(pos)
            pos += dD * dE
        return offs

    def to_json(self) -> dict:
        enc = lambda m: np.stack([m.real, m.imag], axis=-1).tolist()
        return {
            "blocks": [list(b) for b in self.blocks],
            "V": enc(self.V),
            "projectors": [enc(p) for p in self.central_projectors],
        }


def _minimal_central_projectors(alg: MatrixAlgebra, rng) -> list[np.ndarray]:
    center = relative_commutant(alg.basis, alg.basis)
    d = alg.layout.dim
    for _ in range(5):
        h = random_hermitian_in_span(center, rng)
        w, v = np.linalg.eigh(h)
        groups = cluster_eigenvalues(w, CENTRAL_CLUSTER_TOL)
        if len(groups) == len(center):
            # one projector per central dimension: guaranteed minimal
            return [v[:, idx] @ dagger(v[:, idx]) for idx in groups]
    raise RuntimeError("could not separate central eigenvalues after 5 resamples")


def _compress(basis: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Compress a stacked basis into the column space of isometry Q."""
    return np.einsum("ai,kab,bj->kij", Q.conj(), basis, Q)


def _block_product_frame(a_basis: np.ndarray, rng) -> tuple[int, int, np.ndarray]:
    """Product frame for one central block.

    `a_basis` spans a factor algebra (trivial center) of M_m; returns
    (dim_D, dim_E, V_local) with V_local columns ordered so that conjugated
    algebra elements take the form m_D (x) 1_E.
    """
    m = a_basis.shape[1]
    k = len(a_basis)
    for _ in range(5):
        h = random_hermitian_in_span(a_basis, rng)
        w, v = np.linalg.eigh(h)
        groups = cluster_eigenvalues(w, FRAME_CLUSTER_TOL)
        sizes = {len(g) for g in groups}
        if len(sizes) != 1:
            continue
        dE = sizes.pop()
        dD = len(groups)
        if dD * dE != m or dD * dD != k:
            continue
        # seed the E factor with the first eigenspace W: columns |d_0> (x) |e_l>
        W = v[:, groups[0]]  # (m, dE)
        w0 = W[:, 0]
        # the algebra orbit of w0 spans D (x) |e_0>
        orbit = np.einsum("kab,b->ka", a_basis, w0)
        rest = orbit - (orbit @ w0.conj())[:, None] * w0[None, :]
        _, s, vh = np.linalg.svd(rest, full_matrices=False)
        r = int(np.sum(s > ORBIT_RANK_TOL * max(s[0], 1.0))) if s.size else 0
        if r != dD - 1:
            continue
        cols = np.column_stack([w0, vh[:r].T])  # (m, dD), first column is w0
        # transfer elements t_r with t_r w0 = |d_r> (x) |e_0>
        B = np.einsum("kab,b->ak", a_basis, w0)  # columns b_k w0
        coeff, *_ = np.linalg.lstsq(B, cols, rcond=None)
        t = np.tensordot(coeff.T, a_basis, axes=(1, 0))  # (dD, m, m)
        # columns |d_r> (x) |e_l> = t_r W[:, l]; D index major, E minor
        V = np.einsum("rab,bl->arl", t, W).reshape(m, dD * dE)
        V[:, :dE] = W  # t_0 fixes w0, hence acts as identity on D-seed
        # polar cleanup, then verify orthonormality survived
        u, s, vh = np.linalg.svd(V, full_matrices=False)
        if s.min() < 0.5:
            continue
        Vp = u @ vh
        if np.max(np.abs(Vp - V)) > POLAR_TOL:
            continue
        return dD, dE, Vp
    raise RuntimeError("could not build a product frame after 5 resamples")


def decompose(alg: MatrixAlgebra, rng) -> BlockStructure:
    """Block decomposition A = V (⊕_i M_{D_i} (x) 1_{E_i}) V^dag.

    Central projectors come from eigenspaces of a random Hermitian central
    element; within each block a random Hermitian algebra element seeds the
    product frame.  The result is verified by conjugation residual.
    """
    g = as_generator(rng)
    d = alg.layout.dim
    projectors = _minimal_central_projectors(alg, g)
    blocks: list[tuple[int, int]] = []
    V = np.zeros((d, d), dtype=complex)
    pos = 0
    for P in projectors:
        w, v = np.linalg.eigh(P)
        Q = v[:, w > 0.5]  # isometry onto the block
        m = Q.shape[1]
        a_basis = orthonormal_basis(_compress(alg.basis, Q))
        dD, dE, Vloc = _block_product_frame(a_basis, g)
        blocks.append((dD, dE))
        V[:, pos : pos + m] = Q @ Vloc
        pos += m
    resid = _verify_block_form(alg.basis, V, blocks)
    if resid > VERIFY_TOL:
        raise RuntimeError(f"decomposition inconsistent: residual {resid:.2e}")
    return BlockStructure(blocks, V, projectors, alg.layout)


def _verify_block_form(basis: np.ndarray, V: np.ndarray, blocks) -> float:
    """Max residual of the basis in the frame V against ⊕ m (x) 1_E over ``blocks``."""
    bb = dagger(V) @ basis @ V
    approx = np.zeros_like(bb)
    for off, (dD, dE) in zip(np.cumsum([0] + [dD * dE for dD, dE in blocks]), blocks):
        m = dD * dE
        sub = bb[:, off : off + m, off : off + m].reshape(-1, dD, dE, dD, dE)
        core = np.trace(sub, axis1=2, axis2=4) / dE
        approx[:, off : off + m, off : off + m] = np.kron(core, np.eye(dE))
    return float(np.max(np.abs(bb - approx), initial=0.0))


def frame_span(bs: BlockStructure, mirror: bool = False) -> np.ndarray:
    """HS-orthonormal basis V_i (e_ab (x) 1_E) V_i^dag / sqrt(E) over every
    block i and matrix unit e_ab of M_D: the decomposed algebra.  ``mirror``
    swaps the two factors, giving V_i (1_D (x) e_ab) V_i^dag / sqrt(D) over
    the matrix units of M_E: its commutant."""
    d = bs.layout.dim
    mats = []
    for off, (dD, dE) in zip(bs.block_offsets(), bs.blocks):
        cols = bs.V[:, off : off + dD * dE].reshape(d, dD, dE)
        # w[a] = V_i (|a> (x) 1), so V_i (e_ab (x) 1) V_i^dag = w[a] w[b]^dag
        w = cols.transpose(2, 0, 1) if mirror else cols.transpose(1, 0, 2)
        n, r = len(w), w.shape[2]
        span = w[:, None] @ np.conj(w.transpose(0, 2, 1))[None]
        span /= np.sqrt(r)
        mats.append(span.reshape(n * n, d, d))
    return np.concatenate(mats)


def reconstruct(bs: BlockStructure) -> MatrixAlgebra:
    """Algebra spanned by V (unit_D (x) 1_E) V^dag over all block matrix units."""
    return MatrixAlgebra(frame_span(bs), bs.layout)


def isomorphism_signature(bs: BlockStructure) -> tuple[tuple[int, int], ...]:
    """Canonical sorted multiset of (dim_D, dim_E); a unitary-isomorphism invariant."""
    return tuple(sorted(bs.blocks))
