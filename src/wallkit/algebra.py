"""Finite-dimensional C*-algebra operations: closure, commutant, center,
subspace set-algebra, and product-form factor extraction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layout import SystemLayout
from .linalg import (
    RANK_TOL,
    ZERO_TOL,
    dagger,
    hs_norm,
    nullspace,
    orthonormal_basis,
    project_span,
    projector_onto,
)

# largest stacked commutator superoperator (k d^4 elements, 1 GB complex)
# solved directly; bigger stacks take the Gram route
DIRECT_KERNEL_ELEMS = 2**26


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


def close_algebra(generators, layout: SystemLayout, tol: float = RANK_TOL) -> MatrixAlgebra:
    """Smallest unital, adjoint- and product-closed span containing the
    generators.  Empty generator list gives <1>.
    """
    d = layout.dim
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if any(g.shape != (d, d) for g in gens):
        raise ValueError("generator dimensions do not match layout")
    seed = [np.eye(d, dtype=complex)] + gens + [dagger(g) for g in gens]
    basis = orthonormal_basis(np.asarray(seed), tol)
    for _ in range(d * d + 1):
        prods = _pairwise_products(basis, basis)
        new = orthonormal_basis(np.concatenate([basis, prods]), tol)
        if len(new) == len(basis):
            gen_stack = np.asarray(gens) if gens else None
            return MatrixAlgebra(new, layout, generators=gen_stack)
        basis = new
    raise RuntimeError("algebra closure failed to stabilize (numerical drift)")


def _commutator_kernel(gens: np.ndarray, tol: float) -> np.ndarray:
    """Joint kernel of the vectorized maps x -> [g, x], as a stacked basis.

    Row-major vec gives vec(g x - x g) = (g (x) 1 - 1 (x) g^T) vec(x); the
    stacked superoperator is solved directly when small, otherwise through
    the (Gram-matrix) normal equations.
    """
    k, d, _ = gens.shape
    eye = np.eye(d)
    if k * d**4 <= DIRECT_KERNEL_ELEMS:
        rows = np.concatenate(
            [np.kron(g, eye) - np.kron(eye, g.T) for g in gens], axis=0
        )
        vecs = nullspace(rows, tol)
        return vecs.T.reshape(-1, d, d)
    # Gram route for large stacks: kernel of sum_g S_g^dag S_g
    gram = np.zeros((d * d, d * d), dtype=complex)
    for g in gens:
        s = np.kron(g, eye) - np.kron(eye, g.T)
        gram += dagger(s) @ s
    w, v = np.linalg.eigh(gram)
    scale = max(w[-1], 1.0)
    # squared-residual spectrum with a linear noise floor: cut linearly
    keep = w <= tol * scale
    return v[:, keep].T.reshape(-1, d, d)


def commutant(alg: MatrixAlgebra, tol: float = RANK_TOL) -> MatrixAlgebra:
    """Algebra of all operators commuting with every element (equivalently,
    with the retained generators) of `alg`."""
    if alg.generators is not None and len(alg.generators):
        g = np.asarray(alg.generators, dtype=complex)
        # the commutant of the *algebra* needs the adjoints as well: an
        # operator commuting with g need not commute with g^dag
        gens = np.concatenate([g, np.conj(np.transpose(g, (0, 2, 1)))])
    else:
        gens = alg.basis
    kernel = _commutator_kernel(np.asarray(gens, dtype=complex), tol)
    basis = orthonormal_basis(kernel, tol)
    return MatrixAlgebra(basis, alg.layout)


def center(alg: MatrixAlgebra, tol: float = RANK_TOL) -> MatrixAlgebra:
    """Z(A) = A intersected with its commutant."""
    return intersect(alg, commutant(alg, tol), tol)


def intersect(a: MatrixAlgebra, b: MatrixAlgebra, tol: float = RANK_TOL) -> MatrixAlgebra:
    """Intersection of spans via the stacked (1-P_a; 1-P_b) nullspace."""
    if a.layout.site_dims != b.layout.site_dims:
        raise ValueError("operator spaces live on different layouts")
    d = a.layout.dim
    eye = np.eye(d * d, dtype=complex)
    stacked = np.concatenate([eye - projector_onto(a.basis), eye - projector_onto(b.basis)])
    vecs = nullspace(stacked, tol)
    basis = orthonormal_basis(vecs.T.reshape(-1, d, d), tol)
    return MatrixAlgebra(basis, a.layout)


def contains(alg: MatrixAlgebra, O: np.ndarray, tol: float = RANK_TOL) -> bool:
    """Membership by relative projection residual; the zero operator is a member."""
    O = np.asarray(O, dtype=complex)
    norm = hs_norm(O)
    if norm < ZERO_TOL:
        return True
    return hs_norm(O - alg.project(O)) / norm < tol


def equals(a: MatrixAlgebra, b: MatrixAlgebra, tol: float = 1e-8) -> bool:
    """Span equality by mutual containment of bases."""
    if a.dim != b.dim:
        return False
    return all(contains(b, x, tol) for x in a.basis) and all(
        contains(a, x, tol) for x in b.basis
    )


def cluster_eigenvalues(w: np.ndarray, rel_tol: float = 1e-7) -> list[np.ndarray]:
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


def extract_central_factor(
    span: MatrixAlgebra, layout: SystemLayout, tol: float = RANK_TOL
) -> MatrixAlgebra:
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
            if not contains(span, np.kron(u, eye_rest), 1e-8):
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
        if np.any(resid[live] > 1e-8 * norms[live]):
            raise ValueError("span has non-trivial support on the right region")
        blocks = compressed
    c_basis = orthonormal_basis(blocks, tol)
    from math import prod

    cdims = layout.center_dims if prod(layout.center_dims) == d_C else (d_C,)
    alg = close_algebra(c_basis, SystemLayout(cdims), tol)
    if d_L * d_L * alg.dim != span.dim:
        raise ValueError(
            f"not of product form: dim {span.dim} != {d_L}^2 * {alg.dim}"
        )
    return alg
