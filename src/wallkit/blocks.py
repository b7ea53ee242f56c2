"""Wedderburn decomposition of a finite C*-algebra into irreducible blocks
M_D (x) 1_E, with an explicit block-diagonalizing unitary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import SystemLayout, as_generator
from .linalg import (
    RANK_TOL,
    dagger,
    hs_norm,
    orthonormal_basis,
    random_hermitian_in_span,
)
from .algebra import (
    MatrixAlgebra,
    close_algebra,
    cluster_eigenvalues,
)

CLUSTER_TOL = 1e-7  # relative eigenvalue-gap threshold for grouping
VERIFY_TOL = 1e-8  # residual allowed on the conjugated block form


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


def _algebra_center_coeffs(basis: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Center of the span, computed inside algebra coordinates.

    Builds the small Gram matrix of the maps x -> [x, b_j] restricted to the
    span and takes its near-kernel; avoids d^2 x d^2 superoperators.
    """
    k = len(basis)
    # C[j] columns: vec([b_i, b_j]) -> coefficients against the basis itself
    # work directly with structure constants: [sum_i c_i b_i, b_j]
    comms = np.einsum("iab,jbc->ijac", basis, basis) - np.einsum(
        "jab,ibc->ijac", basis, basis
    )  # (i, j, d, d) = [b_i, b_j]
    flat = comms.reshape(k, k, -1)
    # residual of coefficients c is c^H G c with G[l,i] = sum_jx
    # conj(comms[l,j,x]) comms[i,j,x]
    gram = np.einsum("ljx,ijx->li", flat.conj(), flat)
    w, v = np.linalg.eigh(gram)
    scale = max(float(w[-1]), 1.0)
    # gram eigenvalues are squared residuals, but their noise floor is linear
    # in machine epsilon times the scale, so the cut is a linear tolerance
    keep = w <= tol * scale
    return v[:, keep].T  # rows of coefficient vectors


def algebra_center_basis(alg: MatrixAlgebra, tol: float = RANK_TOL) -> np.ndarray:
    coeffs = _algebra_center_coeffs(alg.basis, tol)
    if len(coeffs) == 0:
        return np.zeros((0,) + alg.basis.shape[1:], dtype=complex)
    mats = np.tensordot(coeffs, alg.basis, axes=(1, 0))
    return orthonormal_basis(mats, tol)


def _minimal_central_projectors(alg: MatrixAlgebra, rng) -> list[np.ndarray]:
    center = algebra_center_basis(alg)
    d = alg.layout.dim
    for _ in range(5):
        h = random_hermitian_in_span(center, rng)
        w, v = np.linalg.eigh(h)
        groups = cluster_eigenvalues(w, CLUSTER_TOL)
        if len(groups) == len(center):
            # one projector per central dimension: guaranteed minimal
            return [v[:, idx] @ dagger(v[:, idx]) for idx in groups]
    raise RuntimeError("could not separate central eigenvalues after 5 resamples")


def _compress(basis: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Compress a stacked basis into the column space of isometry Q."""
    return np.einsum("ai,kab,bj->kij", Q.conj(), basis, Q)


def _block_product_frame(a_basis: np.ndarray, rng, tol: float) -> tuple[int, int, np.ndarray]:
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
        groups = cluster_eigenvalues(w, CLUSTER_TOL)
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
        r = int(np.sum(s > tol * max(s[0], 1.0))) if s.size else 0
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
        if np.max(np.abs(Vp - V)) > 1e-6:
            continue
        return dD, dE, Vp
    raise RuntimeError("could not build a product frame after 5 resamples")


def decompose(alg: MatrixAlgebra, rng, tol: float = RANK_TOL) -> BlockStructure:
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
        a_basis = orthonormal_basis(_compress(alg.basis, Q), tol)
        dD, dE, Vloc = _block_product_frame(a_basis, g, tol)
        blocks.append((dD, dE))
        V[:, pos : pos + m] = Q @ Vloc
        pos += m
    bs = BlockStructure(blocks, V, projectors, alg.layout)
    resid = _verify_block_form(alg, bs)
    if resid > VERIFY_TOL:
        raise RuntimeError(f"decomposition inconsistent: residual {resid:.2e}")
    return bs


def _verify_block_form(alg: MatrixAlgebra, bs: BlockStructure) -> float:
    """Max residual of conjugated basis elements against ⊕ m (x) 1_E form."""
    V = bs.V
    worst = 0.0
    for b in alg.basis:
        bb = dagger(V) @ b @ V
        approx = np.zeros_like(bb)
        for off, (dD, dE) in zip(bs.block_offsets(), bs.blocks):
            m = dD * dE
            sub = bb[off : off + m, off : off + m].reshape(dD, dE, dD, dE)
            core = np.trace(sub, axis1=1, axis2=3) / dE
            approx[off : off + m, off : off + m] = np.kron(core, np.eye(dE))
        worst = max(worst, float(np.max(np.abs(bb - approx))))
    return worst


def reconstruct(bs: BlockStructure, tol: float = RANK_TOL) -> MatrixAlgebra:
    """Algebra spanned by V (unit_D (x) 1_E) V^dag over all block matrix units."""
    d = bs.layout.dim
    mats = []
    for off, (dD, dE) in zip(bs.block_offsets(), bs.blocks):
        for i in range(dD):
            for j in range(dD):
                u = np.zeros((dD, dD))
                u[i, j] = 1.0
                full = np.zeros((d, d), dtype=complex)
                full[off : off + dD * dE, off : off + dD * dE] = np.kron(u, np.eye(dE))
                mats.append(bs.V @ full @ dagger(bs.V))
    basis = orthonormal_basis(np.asarray(mats), tol)
    return MatrixAlgebra(basis, bs.layout)


def isomorphism_signature(bs: BlockStructure) -> tuple[tuple[int, int], ...]:
    """Canonical sorted multiset of (dim_D, dim_E); a unitary-isomorphism invariant."""
    return tuple(sorted(bs.blocks))
