"""Shared pytest hooks: surface the acceptance-criterion PASS/FAIL lines in
the terminal summary (plain prints are swallowed by output capture).  Also
the superoperator commutant, an oracle independent of the block frame, the
gauged sequence decomposed afresh at every step, an oracle independent of
the carried frame, and the (L, C, R) -> (R, C, L) edge swap, an oracle for
the right-edge frames that the wall checks read off the cut after C."""

import numpy as np

from wallkit.algebra import MatrixAlgebra
from wallkit.blocks import decompose, isomorphism_signature
from wallkit.layout import as_generator
from wallkit.linalg import dagger, nullspace, orthonormal_basis

CRITERION_LINES: list[str] = []


def superoperator_commutant(stack, layout):
    """Oracle: the joint kernel of the maps x -> [g, x] over a stack, solved
    directly on the stacked k d^2 x d^2 superoperator.  Row-major vec gives
    vec(g x - x g) = (g (x) 1 - 1 (x) g^T) vec(x)."""
    d = layout.dim
    eye = np.eye(d)
    rows = np.concatenate([np.kron(g, eye) - np.kron(eye, g.T) for g in stack])
    kernel = nullspace(rows).T.reshape(-1, d, d)
    return MatrixAlgebra(orthonormal_basis(kernel), layout)


def decomposed_gauged_sequence(wall, gauges, rng):
    """Oracle: the spans A_tau = U~_tau A_{tau-1} U~_tau^dag of a gauged
    sequence (U~_0 = G_0 on Lbar), each re-orthonormalised by SVD and given
    its block signature by a fresh seeded ``decompose`` on the full space.
    Returns (spans, signatures)."""
    U, layout, g = wall.U, wall.layout, as_generator(rng)
    current = wall.invariants.Lbar
    spaces, signatures = [], []
    steps = [gauges[0]] + [dagger(G) @ U @ G_prev for G_prev, G in zip(gauges, gauges[1:])]
    for Ut in steps:
        moved = np.asarray([Ut @ x @ dagger(Ut) for x in current.basis])
        current = MatrixAlgebra(orthonormal_basis(moved), layout)
        spaces.append(current)
        signatures.append(isomorphism_signature(decompose(current, g)))
    return spaces, signatures


def swap_edges(basis, layout):
    """Oracle: operators reordered from (L, C, R) to (R, C, L) tensor factors."""
    d_L, d_C, d_R = layout.d_left, layout.d_center, layout.d_right
    k = len(basis)
    T = basis.reshape(k, d_L, d_C, d_R, d_L, d_C, d_R)
    T = T.transpose(0, 3, 2, 1, 6, 5, 4)
    return T.reshape(k, layout.dim, layout.dim)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
