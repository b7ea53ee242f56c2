"""Shared pytest hooks: surface the acceptance-criterion PASS/FAIL lines in
the terminal summary (plain prints are swallowed by output capture).  Also
the superoperator commutant, an oracle independent of the block frame, the
gauged sequence decomposed afresh at every step, an oracle independent of
the carried frame, and the (L, C, R) -> (R, C, L) edge swap, an oracle for
the right-edge frames that the wall checks read off the cut after C, the
lift-and-subtract compression, an oracle for the bytes of the in-place one
the closure uses, and the dense brickwork unitary of a whole chain with its
per-window wall checks, an oracle for the chain scanner's light cones, the
pairwise-squaring closure, an oracle for the closure by words, the stacked
projector intersection, an oracle for the intersection by residuals, the
conserved algebra through a second decomposition of A_C, an oracle for the
one read off the wall's block frame, the center from all k^2 basis
commutators, an oracle for the center by generators, and the spectral form
factor from Haar matrices (QR of Ginibre draws, traces of matrix powers) and
the explicit CMV matrix, oracles for the Verblunsky route of ``sff_mc``."""

from math import isqrt, prod

import numpy as np

from wallkit.algebra import MatrixAlgebra, commutant, relative_commutant
from wallkit.blocks import decompose, isomorphism_signature
from wallkit.dynamics import _lift, verify_wall
from wallkit.layout import SystemLayout
from wallkit.linalg import dagger, haar_from_ginibre, nullspace, orthonormal_basis
from wallkit.walls import resolve_central_algebra, synth_wall

CRITERION_LINES: list[str] = []


def pairwise_closure(generators, layout):
    """Oracle: the span of {1} u G u G^dag, grown by multiplying every pair of
    basis elements and re-orthonormalising the whole stack by SVD each round
    until the rank stops growing."""
    d = layout.dim
    gens = np.asarray(generators, dtype=complex).reshape(-1, d, d)
    seed = np.concatenate([np.eye(d, dtype=complex)[None], gens, gens.conj().transpose(0, 2, 1)])
    basis = orthonormal_basis(seed)
    for _ in range(d * d + 1):
        prods = np.einsum("iab,jbc->ijac", basis, basis).reshape(-1, d, d)
        new = orthonormal_basis(np.concatenate([basis, prods]))
        if len(new) == len(basis):
            return MatrixAlgebra(new, layout)
        basis = new
    raise RuntimeError("algebra closure failed to stabilize (numerical drift)")


def superoperator_commutant(stack, layout):
    """Oracle: the joint kernel of the maps x -> [g, x] over a stack, solved
    directly on the stacked k d^2 x d^2 superoperator.  Row-major vec gives
    vec(g x - x g) = (g (x) 1 - 1 (x) g^T) vec(x)."""
    d = layout.dim
    eye = np.eye(d)
    rows = np.concatenate([np.kron(g, eye) - np.kron(eye, g.T) for g in stack])
    kernel = nullspace(rows).T.reshape(-1, d, d)
    return MatrixAlgebra(orthonormal_basis(kernel), layout)


def projector_onto(basis):
    """Orthogonal projector (on vectorized operators) onto a stacked span."""
    k, m, n = basis.shape
    flat = basis.reshape(k, m * n)
    return flat.conj().T @ flat


def stacked_intersect(a, b):
    """Oracle: the intersection of two spans as the nullspace of the stacked
    (1 - P_a; 1 - P_b), of shape (2 d^2, d^2), by one full SVD."""
    d = a.layout.dim
    eye = np.eye(d * d, dtype=complex)
    stacked = np.concatenate([eye - projector_onto(a.basis), eye - projector_onto(b.basis)])
    vecs = nullspace(stacked)
    return MatrixAlgebra(orthonormal_basis(vecs.T.reshape(-1, d, d)), a.layout)


def commutant_conserved(inv):
    """Oracle: the conserved algebra as the part of A_C' that commutes with
    B_C, A_C' taken from ``commutant``, which decomposes A_C afresh."""
    return MatrixAlgebra(relative_commutant(commutant(inv.A_C).basis, inv.B_C.basis), inv.A_C.layout)


def basis_center(alg):
    """Oracle: Z(A) as the part of A that commutes with every element of its
    basis, k^2 commutators whatever generators the algebra carries."""
    return MatrixAlgebra(relative_commutant(alg.basis, alg.basis), alg.layout)


def decomposed_gauged_sequence(wall, gauges):
    """Oracle: the spans A_tau = U~_tau A_{tau-1} U~_tau^dag of a gauged
    sequence (U~_0 = G_0 on Lbar), each re-orthonormalised by SVD and given
    its block signature by a fresh ``decompose`` on the full space.
    Returns (spans, signatures)."""
    U, layout = wall.U, wall.layout
    current = wall.invariants.Lbar
    spaces, signatures = [], []
    steps = [gauges[0]] + [dagger(G) @ U @ G_prev for G_prev, G in zip(gauges, gauges[1:])]
    for Ut in steps:
        moved = np.asarray([Ut @ x @ dagger(Ut) for x in current.basis])
        current = MatrixAlgebra(orthonormal_basis(moved), layout)
        spaces.append(current)
        signatures.append(isomorphism_signature(decompose(current)))
    return spaces, signatures


def swap_edges(basis, layout):
    """Oracle: operators reordered from (L, C, R) to (R, C, L) tensor factors."""
    d_L, d_C, d_R = layout.d_left, layout.d_center, layout.d_right
    k = len(basis)
    T = basis.reshape(k, d_L, d_C, d_R, d_L, d_C, d_R)
    T = T.transpose(0, 3, 2, 1, 6, 5, 4)
    return T.reshape(k, layout.dim, layout.dim)


def lifted_compress(X, d_C, d_out):
    """Oracle: (center parts, escape residuals, norms) of a bulk stack X on
    C x out, the escape taken as X minus the built lift core x 1_{d_out}.
    X is not written."""
    n = len(X)
    core = np.trace(X.reshape(n, d_C, d_out, d_C, d_out), axis1=2, axis2=4) / d_out
    norms = np.linalg.norm(X.reshape(n, -1), axis=1)
    resid = np.linalg.norm((X - _lift(core, d_out)).reshape(n, -1), axis=1)
    return core, resid, norms


def brickwork_unitary(site_dims, even_gates, odd_gates):
    """Oracle: the dense Floquet unitary of a two-layer brickwork, even gates
    on (0,1),(2,3),... applied first, odd gates on (1,2),(3,4),... second.
    Each gate acts on the two row axes of its sites."""
    d = prod(site_dims)
    U = np.eye(d, dtype=complex)
    gates = [(2 * k, g) for k, g in enumerate(even_gates)]
    gates += [(2 * k + 1, g) for k, g in enumerate(odd_gates)]
    for s, g in gates:
        g = np.asarray(g, dtype=complex)
        U = (g @ U.reshape(prod(site_dims[:s]), len(g), -1)).reshape(d, d)
    return U


def tripartite_wall(d_C, algebra, seed=0):
    """The ``synth_wall`` of the named central algebra on one central site of
    dimension d_C, between qubit edges, as ``--dims 2,<d_C>,2`` builds it."""
    layout = SystemLayout.tripartite(2, (d_C,), 2)
    return synth_wall(layout, resolve_central_algebra(algebra, layout), seed=seed)


def window_layout(site_dims, start, width):
    """The whole chain as L = [0, start), C = [start, start + width) and R the
    rest, with the edge sites merged into one site each."""
    center = site_dims[start : start + width]
    return SystemLayout.tripartite(prod(site_dims[:start]), center, prod(site_dims[start + width :]))


def dense_scan_records(site_dims, even_gates, odd_gates, max_width):
    """Oracle: (start, width, left, right) of every window that ``scan_chain``
    checks, each from ``verify_wall`` on the dense unitary of the whole chain."""
    n = len(site_dims)
    U = brickwork_unitary(site_dims, even_gates, odd_gates)
    records = []
    for width in range(1, min(max_width, n - 2) + 1):
        for start in range(1, n - width):
            rep = verify_wall(U, window_layout(site_dims, start, width))
            records.append((start, width, rep.left, rep.right))
    return records


def power_traces(v, t_max):
    """Oracle: tr(V^t) for t = 1..t_max of each matrix of the stack ``v``
    (..., n, n), as (..., t_max).  n = 1: powers of the entry.  n = 2: the
    Cayley-Hamilton recurrence p_t = tau p_(t-1) - delta p_(t-2) with
    tau = tr V, delta = det V.  n >= 3: baby steps (V^T)^a, a < k =
    ceil(sqrt(t_max + 1)), and giant steps V^(bk) (Paterson-Stockmeyer), so
    that tr(V^(bk+a)) is one row dot product.  Each matrix gives the same
    bytes as it would alone."""
    lead, n = v.shape[:-2], v.shape[-1]
    v = v.reshape(-1, n, n)
    m = len(v)
    if t_max == 0:
        return np.zeros((*lead, 0), dtype=np.complex128)
    if n == 1:
        out = np.cumprod(np.broadcast_to(v[:, 0], (m, t_max)), axis=1)
    elif n == 2:
        tau = v[:, 0, 0] + v[:, 1, 1]
        delta = v[:, 0, 0] * v[:, 1, 1] - v[:, 0, 1] * v[:, 1, 0]
        p = np.empty((t_max + 1, m), dtype=np.complex128)
        p[0], p[1] = 2, tau
        for t in range(2, t_max + 1):
            np.multiply(tau, p[t - 1], out=p[t])
            p[t] -= delta * p[t - 2]
        out = p[1:].T
    else:
        k = isqrt(t_max) + 1
        giants = t_max // k + 1
        baby = np.empty((m, k, n, n), dtype=np.complex128)  # (V^T)^a = (V^a)^T
        baby[:, 0] = np.eye(n)
        baby[:, 1] = v.transpose(0, 2, 1)
        for a in range(2, k):
            np.matmul(baby[:, a - 1], baby[:, 1], out=baby[:, a])
        giant = np.empty((m, giants, n, n), dtype=np.complex128)  # V^(bk)
        giant[:, 0] = np.eye(n)
        if giants > 1:
            giant[:, 1] = (baby[:, k - 1] @ baby[:, 1]).transpose(0, 2, 1)
        for b in range(2, giants):
            np.matmul(giant[:, b - 1], giant[:, 1], out=giant[:, b])
        # sum_ij (V^(bk))_ij (V^a)_ji = tr V^(bk+a)
        tr = giant.reshape(m, giants, n * n) @ baby.reshape(m, k, n * n).transpose(0, 2, 1)
        out = tr.reshape(m, giants * k)[:, 1 : t_max + 1]
    return out.reshape(*lead, t_max)


def qr_sff_mc(blocks, d_L, d_R, t_max, samples, rng):
    """Oracle: (K_mc[1:], stderr[1:]) of the block-Haar form factor from
    explicit Haar matrices.  For each block size n in ascending order, one
    (samples * count, n, n, 2) draw of normals, sample by sample and block by
    block, read as Ginibre matrices (re + 1j im) / sqrt(2), QR with the phase
    fix and ``power_traces``; then each pair's product T_i R_i joins the
    per-sample total as its larger block is drawn, in pair order."""
    blocks = sorted(blocks)
    sizes = [n for dD, dE in blocks for n in (d_L * dD, dE * d_R)]
    g = rng.generator()
    traces = {}
    for n in sorted(set(sizes)):
        stack = [j for j, size in enumerate(sizes) if size == n]
        x = g.standard_normal((samples * len(stack), n, n, 2))
        u = haar_from_ginibre((x[..., 0] + 1j * x[..., 1]) / np.sqrt(2))
        tr = power_traces(u, t_max).reshape(samples, len(stack), t_max)
        traces.update((j, tr[:, c]) for c, j in enumerate(stack))
    total = np.zeros((samples, t_max), dtype=complex)
    for i in sorted(range(len(blocks)), key=lambda i: max(sizes[2 * i : 2 * i + 2])):
        total += traces[2 * i] * traces[2 * i + 1]
    per_sample = total.real**2 + total.imag**2
    return per_sample.mean(axis=0), per_sample.std(axis=0, ddof=1) / np.sqrt(samples)


def cmv_matrix(alpha):
    """Oracle: the CMV matrix C = L M of Verblunsky coefficients alpha_0 ..
    alpha_(n-1) (Killip & Nenciu, IMRN 2004): L = Theta_0 + Theta_2 + ...,
    M = 1 + Theta_1 + Theta_3 + ... as direct sums, with Theta_k =
    [[conj(alpha_k), rho_k], [rho_k, -alpha_k]], rho_k = sqrt(1 - |alpha_k|^2)
    on rows k, k + 1, and Theta_(n-1) the 1 x 1 block conj(alpha_(n-1))."""
    n = len(alpha)
    L, M = np.eye(n, dtype=complex), np.eye(n, dtype=complex)
    for k, a in enumerate(alpha):
        factor = L if k % 2 == 0 else M
        if k == n - 1:
            factor[k, k] = np.conj(a)
        else:
            rho = np.sqrt(max(0.0, 1 - abs(a) ** 2))
            factor[k : k + 2, k : k + 2] = [[np.conj(a), rho], [rho, -a]]
    return L @ M


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
