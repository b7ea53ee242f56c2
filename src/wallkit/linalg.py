"""Dense tensor-product linear algebra: embedding, partial trace, Haar
sampling, and rank/nullspace decisions with explicit tolerances.

Conventions fixed project-wide: row-major indexing with site 0 as the most
significant tensor index, Hilbert-Schmidt (HS) inner product
<A, B> = tr(A^dag B), and one table of tolerances below for every numerical
decision of the package.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .layout import SystemLayout, as_generator

# Tolerances: every rank, kernel, residual and clustering decision of the
# package reads its threshold here, one name per decision even where two
# values agree.  No function takes one as a parameter, except the two that
# serve several decisions: ``algebra.contains`` and
# ``algebra.cluster_eigenvalues``.  s are singular values, w eigenvalues.
RANK_TOL = 1e-9  # orthonormal_basis: span rank, s > RANK_TOL * s_max
KERNEL_TOL = 1e-9  # nullspace: kernel, s <= KERNEL_TOL * max(s_max, 1)
ZERO_TOL = 1e-10  # an operator or sandwich of smaller HS norm is zero
GRAM_TOL = 1e-9  # relative_commutant: Gram w <= GRAM_TOL * max(w_max, 1) commute
SPAN_EQUAL_TOL = 1e-8  # equals: relative residual of each basis element off the other span
FACTOR_MEMBER_TOL = 1e-8  # extract_central_factor: relative residual of a unit of M_L off the span
FACTOR_RIGHT_TOL = 1e-8  # extract_central_factor: relative residual of a block off c (x) 1_R
CENTRAL_CLUSTER_TOL = 1e-7  # decompose: relative gap between central w of two blocks
FRAME_CLUSTER_TOL = 1e-7  # decompose: relative gap between w of two D indices of a block
ORBIT_RANK_TOL = 1e-9  # decompose: orbit rank of a block, s > ORBIT_RANK_TOL * max(s_max, 1)
POLAR_TOL = 1e-6  # decompose: largest entry moved by a block frame's polar cleanup
VERIFY_TOL = 1e-8  # decompose, gauged_sequence: largest entry residual off the block form
UNITARY_TOL = 1e-8  # verify_wall, scan_chain: HS norm of U U^dag - 1
EDGE_RANK_TOL = 1e-9  # verify_wall, scan_chain: edge-frame rank, s > EDGE_RANK_TOL * s_max
ESCAPE_TOL = 1e-9  # verify_wall, scan_chain: relative escape residual of a closure sandwich
FACTOR_COMMUTE_TOL = 1e-9  # invariant_algebras: largest HS commutator of A_C and B_C
CONSERVED_TOL = 1e-8  # conserved_algebra: largest HS commutator with A_C or B_C
GAUGE_TOL = 1e-9  # gauged_sequence: largest HS residual of G_0 Lbar G_0^dag off Lbar
SUPPORT_TOL = 1e-10  # support, lightcone: relative residual of a site in the support
NORM_TOL = 1e-10  # PureState: largest distance of the state's norm from 1
SCHMIDT_RANK_TOL = 1e-8  # schmidt, verify_area_law: Schmidt rank, s > SCHMIDT_RANK_TOL
ENTROPY_P_TOL = 1e-15  # SchmidtData.entropy_bits: Schmidt probabilities kept, p > ENTROPY_P_TOL
BLOCK_WEIGHT_TOL = 1e-8  # verify_area_law: a block projection of smaller norm is a zero row
HERMITIAN_TOL = 1e-10  # measure: HS norm of M - M^dag
OUTCOME_CLUSTER_TOL = 1e-9  # measure: relative gap between w of two outcomes
BORN_TOL = 1e-12  # measure: outcomes of smaller probability are never drawn
OBSERVABLE_MEMBER_TOL = 1e-9  # classify_observable: relative residual of M_C off A_C
OBSERVABLE_COMMUTE_TOL = 1e-9  # classify_observable: HS commutator with A_C relative to M_C's norm
GATE_TOL = 1e-10  # conditional_unitary: HS norm of V V^dag - 1, control basis and branches


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor carries the most significant index."""
    return np.kron(np.asarray(a), np.asarray(b))


def embed(op: np.ndarray, sites, layout: SystemLayout) -> np.ndarray:
    """Place `op` on the given sites (ascending order), identity elsewhere.

    `op` acts on the tensor product of the named sites in increasing
    site order; the result acts on the full layout.
    """
    op = np.asarray(op, dtype=complex)
    sites = sorted(int(s) for s in sites)
    dims = layout.site_dims
    if any(s < 0 or s >= layout.n_sites for s in sites):
        raise ValueError(f"sites {sites} outside layout with {layout.n_sites} sites")
    d_sites = prod(dims[s] for s in sites)
    if op.shape != (d_sites, d_sites):
        raise ValueError(
            f"operator shape {op.shape} does not match site dims product {d_sites}"
        )
    rest = [s for s in range(layout.n_sites) if s not in sites]
    d_rest = prod(dims[s] for s in rest) if rest else 1
    full = np.kron(op, np.eye(d_rest))
    # full is ordered (sites..., rest...); permute tensor legs back to layout order
    order = sites + rest
    perm = np.argsort(order)
    shaped = full.reshape([dims[s] for s in order] * 2)
    n = layout.n_sites
    shaped = shaped.transpose(list(perm) + [p + n for p in perm])
    return np.ascontiguousarray(shaped.reshape(layout.dim, layout.dim))


def partial_trace(O: np.ndarray, sites_out, layout: SystemLayout) -> np.ndarray:
    """Trace out the given sites; returns a matrix on the remaining sites
    (original site order).  Tracing out everything gives a 1x1 matrix [tr O].
    """
    O = np.asarray(O, dtype=complex)
    sites_out = sorted(set(int(s) for s in sites_out))
    dims = layout.site_dims
    n = layout.n_sites
    keep = [s for s in range(n) if s not in sites_out]
    T = O.reshape(dims * 2)
    for k, s in enumerate(sites_out):
        ax = s - sum(1 for q in sites_out[:k] if q < s)
        T = np.trace(T, axis1=ax, axis2=ax + T.ndim // 2)
    d_keep = prod(dims[s] for s in keep) if keep else 1
    return T.reshape(d_keep, d_keep)


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from complex Ginibre matrices ``z`` of shape
    (..., n, n): QR, then the phases of diag(R) moved into Q so that R has a
    real positive diagonal (Mezzadri, arXiv:math-ph/0609050).  Each matrix of
    a stack gives the same bytes as it would alone.
    """
    z = np.asarray(z)
    if z.ndim < 2 or z.shape[-1] != z.shape[-2]:
        raise ValueError(f"need square matrices of shape (..., n, n), got {z.shape}")
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[..., None, :]


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via complex Ginibre + QR with phase fix."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    g = as_generator(rng)
    z = (g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))) / np.sqrt(2)
    return haar_from_ginibre(z)


def orthonormal_basis(mats) -> np.ndarray:
    """HS-orthonormal basis of the span of the input matrices.

    Accepts a list of matrices or a stacked (k, m, n) array; returns a
    stacked (r, m, n) array.  Rank is decided by singular values above
    ``RANK_TOL`` times the largest one.  All-zero input gives an empty stack.
    """
    stack = np.asarray(mats, dtype=complex)
    if stack.ndim == 2:
        stack = stack[None]
    k, m, n = stack.shape
    flat = stack.reshape(k, m * n)
    if k == 0 or not np.any(flat):
        return np.zeros((0, m, n), dtype=complex)
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    r = int(np.sum(s > RANK_TOL * s[0]))
    return vh[:r].reshape(r, m, n)


def nullspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis (columns) with ||M v|| <= KERNEL_TOL * scale.

    The scale floors at 1 so that a matrix consisting purely of numerical
    noise (for instance a commutator map of an identity-plus-noise operator)
    is treated as zero instead of having its noise promoted to rank.
    """
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return np.eye(M.shape[1], dtype=complex)
    # a wide input needs the full vh, whose extra rows are kernel vectors; a
    # tall one takes the reduced SVD and never builds the m x m U
    _, s, vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    norm = s[0] if s.size else 0.0
    if norm == 0.0:
        return np.eye(M.shape[1], dtype=complex)
    rank = int(np.sum(s > KERNEL_TOL * max(norm, 1.0)))
    return vh[rank:].conj().T


def random_hermitian_in_span(basis: np.ndarray, rng) -> np.ndarray:
    """Random Hermitian element of an adjoint-closed span (stacked basis)."""
    g = as_generator(rng)
    c = g.standard_normal(len(basis)) + 1j * g.standard_normal(len(basis))
    x = np.tensordot(c, basis, axes=(0, 0))
    return (x + dagger(x)) / 2


def projector_onto(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector (on vectorized operators) onto a stacked span."""
    k, m, n = basis.shape
    flat = basis.reshape(k, m * n)
    return flat.conj().T @ flat


def project_span(basis: np.ndarray, O: np.ndarray) -> np.ndarray:
    """Orthogonal projection of O onto the span of a stacked orthonormal basis."""
    coeff = np.tensordot(basis.conj(), O, axes=([1, 2], [0, 1]))
    return np.tensordot(coeff, basis, axes=(0, 0))
