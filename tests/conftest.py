"""Shared pytest hooks: surface the acceptance-criterion PASS/FAIL lines in
the terminal summary (plain prints are swallowed by output capture).  Also
the superoperator commutant, an oracle independent of the block frame."""

import numpy as np

from wallkit.algebra import MatrixAlgebra
from wallkit.linalg import RANK_TOL, nullspace, orthonormal_basis

CRITERION_LINES: list[str] = []


def superoperator_commutant(stack, layout, tol=RANK_TOL):
    """Oracle: the joint kernel of the maps x -> [g, x] over a stack, solved
    directly on the stacked k d^2 x d^2 superoperator.  Row-major vec gives
    vec(g x - x g) = (g (x) 1 - 1 (x) g^T) vec(x)."""
    d = layout.dim
    eye = np.eye(d)
    rows = np.concatenate([np.kron(g, eye) - np.kron(eye, g.T) for g in stack])
    kernel = nullspace(rows, tol).T.reshape(-1, d, d)
    return MatrixAlgebra(orthonormal_basis(kernel, tol), layout)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
