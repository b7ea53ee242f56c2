"""Finite-dimensional C*-algebra operations: closure, commutant, center,
subspace set-algebra, and product-form factor extraction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layout import SystemLayout
from .linalg import (
    FACTOR_MEMBER_TOL,
    FACTOR_RIGHT_TOL,
    GRAM_TOL,
    RANK_TOL,
    SPAN_EQUAL_TOL,
    ZERO_TOL,
    dagger,
    hs_norm,
    nullspace,
    orthonormal_basis,
    project_span,
    projector_onto,
)

@dataclass
class MatrixAlgebra:
    """Unital span of operators closed under products and adjoints, stored as
    a stacked HS-orthonormal basis; intersections, commutants and centers of
    such spans are again of this type."""

    basis: np.ndarray  # (k, d, d), pairwise HS-orthonormal
    layout: SystemLayout
    generators: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=complex)
        if self.basis.ndim == 2:
            self.basis = self.basis[None]
        d = self.layout.dim
        if self.basis.shape[1:] != (d, d):
            raise ValueError(
                f"basis shape {self.basis.shape} incompatible with layout dim {d}"
            )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def project(self, O: np.ndarray) -> np.ndarray:
        return project_span(self.basis, O)

    def to_json(self) -> dict:
        return {
            "layout": self.layout.to_json(),
            "basis": [
                np.stack([b.real, b.imag], axis=-1).tolist() for b in self.basis
            ],
            "unital": True,
        }


def _pairwise_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All products a_i b_j, stacked."""
    prods = np.einsum("iab,jbc->ijac", a, b)
    return prods.reshape(-1, a.shape[1], a.shape[2])


def close_algebra(generators, layout: SystemLayout) -> MatrixAlgebra:
    """Smallest unital, adjoint- and product-closed span containing the
    generators.  Empty generator list gives <1>.
    """
    d = layout.dim
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if any(g.shape != (d, d) for g in gens):
        raise ValueError("generator dimensions do not match layout")
    seed = [np.eye(d, dtype=complex)] + gens + [dagger(g) for g in gens]
    basis = orthonormal_basis(np.asarray(seed))
    for _ in range(d * d + 1):
        prods = _pairwise_products(basis, basis)
        new = orthonormal_basis(np.concatenate([basis, prods]))
        if len(new) == len(basis):
            gen_stack = np.asarray(gens) if gens else None
            return MatrixAlgebra(new, layout, generators=gen_stack)
        basis = new
    raise RuntimeError("algebra closure failed to stabilize (numerical drift)")


# seed of the block frame a commutant is read from: fixed, so that every
# commutant is deterministic
FRAME_SEED = 20200


def commutant(alg: MatrixAlgebra) -> MatrixAlgebra:
    """Algebra of all operators commuting with every element of `alg`.

    By the Wedderburn theorem, A = V (⊕_i M_{D_i} (x) 1_{E_i}) V^dag has
    A' = V (⊕_i 1_{D_i} (x) M_{E_i}) V^dag, so A' is read off the block frame
    of ``decompose`` (drawn from ``FRAME_SEED``) with its exact
    HS-orthonormal basis V_i (1_D (x) e_ab) V_i^dag / sqrt(D).
    """
    from .blocks import decompose, frame_span  # blocks imports this module

    return MatrixAlgebra(frame_span(decompose(alg, FRAME_SEED), mirror=True), alg.layout)


def _commutators(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All commutators [a_i, b_j], stacked as (i, j, d, d)."""
    return np.einsum("iab,jbc->ijac", a, b) - np.einsum("jab,ibc->ijac", b, a)


def max_commutator(a: np.ndarray, b: np.ndarray) -> float:
    """Largest HS norm of [x, y] over x in stack `a` and y in stack `b`."""
    return float(np.max(np.linalg.norm(_commutators(a, b), axis=(2, 3)), initial=0.0))


def relative_commutant(basis: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """HS-orthonormal basis of the part of span(basis) that commutes with
    every operator in the stack `ops`.

    Works in the coefficients of `basis`: the residual of sum_i c_i b_i is
    c^H G c with G[l, i] = sum_j <[b_l, o_j], [b_i, o_j]>, so the answer is
    the near-kernel of the small Gram matrix G, with no d^2 x d^2
    superoperator.
    """
    k = len(basis)
    flat = _commutators(basis, ops).reshape(k, len(ops), -1)
    gram = np.einsum("ljx,ijx->li", flat.conj(), flat)
    w, v = np.linalg.eigh(gram)
    scale = max(float(w[-1]), 1.0)
    # gram eigenvalues are squared residuals, but their noise floor is linear
    # in machine epsilon times the scale, so the cut is a linear tolerance
    coeffs = v[:, w <= GRAM_TOL * scale].T
    if len(coeffs) == 0:
        return np.zeros((0,) + basis.shape[1:], dtype=complex)
    return orthonormal_basis(np.tensordot(coeffs, basis, axes=(1, 0)))


def center(alg: MatrixAlgebra) -> MatrixAlgebra:
    """Z(A): the elements of A that commute with all of A."""
    return MatrixAlgebra(relative_commutant(alg.basis, alg.basis), alg.layout)


def intersect(a: MatrixAlgebra, b: MatrixAlgebra) -> MatrixAlgebra:
    """Intersection of spans via the stacked (1-P_a; 1-P_b) nullspace."""
    if a.layout.site_dims != b.layout.site_dims:
        raise ValueError("operator spaces live on different layouts")
    d = a.layout.dim
    eye = np.eye(d * d, dtype=complex)
    stacked = np.concatenate([eye - projector_onto(a.basis), eye - projector_onto(b.basis)])
    vecs = nullspace(stacked)
    basis = orthonormal_basis(vecs.T.reshape(-1, d, d))
    return MatrixAlgebra(basis, a.layout)


def contains(alg: MatrixAlgebra, O: np.ndarray, tol: float = RANK_TOL) -> bool:
    """Membership by relative projection residual; the zero operator is a member."""
    O = np.asarray(O, dtype=complex)
    norm = hs_norm(O)
    if norm < ZERO_TOL:
        return True
    return hs_norm(O - alg.project(O)) / norm < tol


def equals(a: MatrixAlgebra, b: MatrixAlgebra) -> bool:
    """Span equality by mutual containment of bases."""
    if a.dim != b.dim:
        return False
    return all(contains(b, x, SPAN_EQUAL_TOL) for x in a.basis) and all(
        contains(a, x, SPAN_EQUAL_TOL) for x in b.basis
    )


def cluster_eigenvalues(w: np.ndarray, rel_tol: float) -> list[np.ndarray]:
    """Group sorted real eigenvalues into clusters separated by relative gaps."""
    w = np.asarray(w, dtype=float)
    order = np.argsort(w)
    ws = w[order]
    scale = max(ws[-1] - ws[0], np.max(np.abs(ws)), 1.0)
    groups, current = [], [order[0]]
    for i in range(1, len(ws)):
        if ws[i] - ws[i - 1] > rel_tol * scale:
            groups.append(np.asarray(current))
            current = []
        current.append(order[i])
    groups.append(np.asarray(current))
    return groups


def left_blocks(X: np.ndarray, d_left: int) -> np.ndarray:
    """All compressions (<i|_L (x) 1) X (|j>_L (x) 1), stacked over (i, j)."""
    d = X.shape[0]
    d_rest = d // d_left
    T = X.reshape(d_left, d_rest, d_left, d_rest)
    return T.transpose(0, 2, 1, 3).reshape(d_left * d_left, d_rest, d_rest)


def extract_central_factor(span: MatrixAlgebra, layout: SystemLayout) -> MatrixAlgebra:
    """Given M_L (x) 1 <= span <= M_L (x) M_C (x) 1_R, return the central
    factor A_C with span = M_L (x) A_C (x) 1_R.

    Works on an LC span (no R sites) or a full LCR span with trivial R
    support.  Raises if the span is not of this product form.
    """
    d_L = layout.d_left
    d_R = layout.d_right
    d_C = layout.dim // (d_L * d_R)
    # precondition: the span contains every L matrix unit (x) identity
    eye_rest = np.eye(d_C * d_R)
    for i in range(d_L):
        for j in range(d_L):
            u = np.zeros((d_L, d_L))
            u[i, j] = 1.0
            if not contains(span, np.kron(u, eye_rest), FACTOR_MEMBER_TOL):
                raise ValueError("span does not contain the full left matrix algebra")
    blocks = np.concatenate([left_blocks(x, d_L) for x in span.basis])
    if d_R > 1:
        # strip the trailing identity factor: each block must be c (x) 1_R
        shaped = blocks.reshape(-1, d_C, d_R, d_C, d_R)
        compressed = np.trace(shaped, axis1=2, axis2=4) / d_R
        recon = np.einsum("kab,ij->kaibj", compressed, np.eye(d_R)).reshape(blocks.shape)
        norms = np.linalg.norm(blocks.reshape(len(blocks), -1), axis=1)
        resid = np.linalg.norm((blocks - recon).reshape(len(blocks), -1), axis=1)
        live = norms > ZERO_TOL
        if np.any(resid[live] > FACTOR_RIGHT_TOL * norms[live]):
            raise ValueError("span has non-trivial support on the right region")
        blocks = compressed
    c_basis = orthonormal_basis(blocks)
    from math import prod

    cdims = layout.center_dims if prod(layout.center_dims) == d_C else (d_C,)
    alg = close_algebra(c_basis, SystemLayout(cdims))
    if d_L * d_L * alg.dim != span.dim:
        raise ValueError(
            f"not of product form: dim {span.dim} != {d_L}^2 * {alg.dim}"
        )
    return alg
