"""State-level probes: Schmidt data and the entanglement area law, projective
measurement protocols, and spectral-form-factor Monte Carlo with analytic
predictions."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import _kernels  # noqa: F401  unused; perfbench's tracer finds it in sys.modules
from .layout import SeededRng, SystemLayout, as_generator
from .linalg import (
    BLOCK_WEIGHT_TOL,
    BORN_TOL,
    ENTROPY_P_TOL,
    HERMITIAN_TOL,
    NORM_TOL,
    OBSERVABLE_COMMUTE_TOL,
    OBSERVABLE_MEMBER_TOL,
    OUTCOME_CLUSTER_TOL,
    SCHMIDT_RANK_TOL,
    dagger,
    hs_norm,
)
from .algebra import cluster_eigenvalues, contains, max_commutator

# complex elements per chunk of SFF samples (512 KB): a block of size n holds
# about 4n for its uniforms, Verblunsky coefficients and polynomial, and
# t_max for its power sums, and a sample's tr U^t and one pair product 2 t_max;
# a chunk of the whole run would grow peak memory with the sample count
SFF_CHUNK_ELEMS = 32768


@dataclass
class PureState:
    amplitudes: np.ndarray
    layout: SystemLayout

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()
        if self.amplitudes.size != self.layout.dim:
            raise ValueError("amplitude vector does not match layout dimension")
        n = np.linalg.norm(self.amplitudes)
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |psi| = {n}")


def random_product_state(layout: SystemLayout, rng) -> PureState:
    """Haar-random product state over the layout's sites."""
    g = as_generator(rng)
    vec = np.ones(1, dtype=complex)
    for d in layout.site_dims:
        v = g.standard_normal(d) + 1j * g.standard_normal(d)
        vec = np.outer(vec, v / np.linalg.norm(v)).ravel()  # np.kron's products, less overhead
    return PureState(vec, layout)


def evolve_state(U, psi: PureState, t: int) -> PureState:
    if t < 0:
        raise ValueError("t must be non-negative")
    amps = psi.amplitudes
    for _ in range(t):
        amps = U @ amps
    return PureState(amps / np.linalg.norm(amps), psi.layout)


@dataclass
class SchmidtData:
    cut: int  # number of leading sites on the left side of the cut
    singular_values: np.ndarray
    rank: int

    def entropy_bits(self) -> float:
        p = self.singular_values**2
        p = p[p > ENTROPY_P_TOL]
        return max(0.0, float(-np.sum(p * np.log2(p))))  # no -0.0 or rounding below 0


def schmidt(psi: PureState, cut: int) -> SchmidtData:
    """Schmidt data across the bipartition after the first `cut` sites."""
    if not 0 < cut < psi.layout.n_sites:
        raise ValueError("cut must leave sites on both sides")
    d_left = prod(psi.layout.site_dims[:cut])
    mat = psi.amplitudes.reshape(d_left, -1)
    s = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(s > SCHMIDT_RANK_TOL))
    return SchmidtData(cut, s, rank)


@dataclass
class AreaLawReport:
    t_max: int
    bound: int
    max_rank: int
    violations: list[tuple[int, int]]  # (t, rank) exceeding the bound
    block_results: list[dict]

    @property
    def passed(self) -> bool:
        return not self.violations and all(
            not b["violations"] for b in self.block_results
        )


def verify_area_law(wall, psi0, t_max: int):
    """Check rank(U^t psi0) <= dim A_C across L|CR for a product psi0, plus the
    per-block refinement rank <= dim_D^2 for block-projected inputs.

    ``psi0`` is one ``PureState`` (one report back) or a sequence of them (a
    list of reports, in order).  Every psi0 and its normalised block
    projections P_D psi0 (each P_D applied on C alone) are the rows of one
    array that evolves a step at a time: one stacked SVD gives every row's
    rank, one matmul advances every row.  Each psi0 must be a product across
    L|CR, read off its rows of the t = 0 SVD.  A block whose projection has
    norm below ``BLOCK_WEIGHT_TOL`` is a zero row: rank 0."""
    states = [psi0] if isinstance(psi0, PureState) else list(psi0)
    layout = wall.layout
    d_L, d_C, d_R = layout.d_left, layout.d_center, layout.d_right
    bs = wall.block_structure
    rows, weights = [], []
    for psi in states:
        amps = psi.amplitudes.reshape(d_L, d_C, d_R)
        projected = [(P @ amps).ravel() for P in bs.central_projectors]
        w = [float(np.linalg.norm(v)) for v in projected]
        rows += [psi.amplitudes]
        rows += [v / n if n >= BLOCK_WEIGHT_TOL else 0 * v for v, n in zip(projected, w)]
        weights.append(w)
    X = np.stack(rows)
    bound = [int(wall.A_C.dim)] + [int(dD * dD) for dD, _ in bs.blocks]  # psi0, then each block
    bounds = np.tile(bound, len(states))
    max_rank = np.zeros(len(X), dtype=int)
    violations = [[] for _ in X]
    for t in range(t_max + 1):
        s = np.linalg.svd(X.reshape(len(X), d_L, -1), compute_uv=False)
        ranks = np.sum(s > SCHMIDT_RANK_TOL, axis=1)
        if t == 0 and np.any(ranks[:: len(bound)] != 1):
            raise ValueError("initial state must be a product across L|CR")
        max_rank = np.maximum(max_rank, ranks)
        for j in np.flatnonzero(ranks > bounds):
            violations[j].append((t, int(ranks[j])))
        if t < t_max:
            X = X @ wall.U.T
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            X /= np.where(norms > 0, norms, 1.0)
    reports = []
    for k, w in enumerate(weights):
        rank = max_rank[k * len(bound) : (k + 1) * len(bound)]
        viol = violations[k * len(bound) : (k + 1) * len(bound)]
        block_results = [
            {"block": i, "bound": bound[i + 1], "max_rank": int(rank[i + 1]),
             "violations": viol[i + 1], "weight": w[i]}
            for i in range(len(w))
        ]
        reports.append(AreaLawReport(t_max, bound[0], int(rank[0]), viol[0], block_results))
    return reports[0] if isinstance(psi0, PureState) else reports


@dataclass
class MeasureResult:
    outcome: float
    state: PureState
    probability: float
    outcome_index: int


def measure(psi: PureState, M_C, rng) -> MeasureResult:
    """Projective measurement of a Hermitian central observable, Born-sampled.

    Degenerate eigenvalues (relative gap up to ``OUTCOME_CLUSTER_TOL``)
    project onto the full eigenspace; branches with probability up to
    ``BORN_TOL`` are excluded.
    """
    M_C = np.asarray(M_C, dtype=complex)
    if hs_norm(M_C - dagger(M_C)) > HERMITIAN_TOL:
        raise ValueError("observable is not Hermitian")
    layout = psi.layout
    d_L, d_C, d_R = layout.d_left, layout.d_center, layout.d_right
    if M_C.shape != (d_C, d_C):
        raise ValueError("observable must act on the central region")
    w, v = np.linalg.eigh(M_C)
    groups = cluster_eigenvalues(w, OUTCOME_CLUSTER_TOL)
    projected, probs, values = [], [], []
    for idx in groups:
        cols = v[:, idx]
        P = np.kron(np.kron(np.eye(d_L), cols @ dagger(cols)), np.eye(d_R))
        amps = P @ psi.amplitudes
        p = float(np.linalg.norm(amps) ** 2)
        projected.append(amps)
        probs.append(p)
        values.append(float(np.mean(w[idx])))
    probs = np.asarray(probs)
    live = probs > BORN_TOL
    g = as_generator(rng)
    pick = g.choice(np.flatnonzero(live), p=probs[live] / probs[live].sum())
    post = PureState(projected[pick] / np.sqrt(probs[pick]), layout)
    # rounding can put |P psi|^2 just above 1; report the probability clipped
    return MeasureResult(values[pick], post, min(probs[pick], 1.0), int(pick))


@dataclass
class MeasurementRecord:
    classification: str  # "central" | "commutant" | "neither"
    rounds: list[dict]

    def to_csv_rows(self):
        return [
            (r["round"], r["outcome"], r["probability"], r["rank"], r["entropy_bits"])
            for r in self.rounds
        ]


def classify_observable(wall, M_C) -> str:
    """Whether the observable lies in A_C, in its commutant, or in neither."""
    if contains(wall.A_C, M_C, OBSERVABLE_MEMBER_TOL):
        return "central"
    commutator = max_commutator(np.asarray(M_C)[None], wall.A_C.basis)
    if commutator <= OBSERVABLE_COMMUTE_TOL * hs_norm(M_C):
        return "commutant"
    return "neither"


def measurement_protocol(wall, psi0: PureState, M_C, rounds: int, rng) -> MeasurementRecord:
    """Alternate one step of evolution with a central measurement, recording
    outcome, probability, and L|CR Schmidt data each round."""
    g = as_generator(rng)
    cut = len(wall.layout.left)
    cls = classify_observable(wall, np.asarray(M_C, dtype=complex))
    psi = psi0
    rows = []
    for k in range(1, rounds + 1):
        psi = evolve_state(wall.U, psi, 1)
        res = measure(psi, M_C, g)
        psi = res.state
        sd = schmidt(psi, cut)
        rows.append(
            {
                "round": k,
                "outcome": res.outcome,
                "probability": res.probability,
                "rank": sd.rank,
                "entropy_bits": sd.entropy_bits(),
            }
        )
    return MeasurementRecord(cls, rows)


# ---------------------------------------------------------------------------
# spectral form factor
# ---------------------------------------------------------------------------


@dataclass
class SFFResult:
    times: np.ndarray
    K_mc: np.ndarray
    stderr: np.ndarray
    K_analytic: np.ndarray
    samples: int

    def to_csv_rows(self):
        # Python ints for t: json cannot write numpy integers
        return list(zip(self.times.tolist(), self.K_mc, self.stderr, self.K_analytic))


def sff_analytic(blocks, d_L: int, d_R: int, t: int) -> float:
    """K(t) = sum_i min(t, d_L dim_D_i) min(t, dim_E_i d_R) for t >= 1;
    K(0) is the exact trace identity (d_L d_C d_R)^2."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        d_C = sum(dD * dE for dD, dE in blocks)
        return float((d_L * d_C * d_R) ** 2)
    return float(sum(min(t, d_L * dD) * min(t, dE * d_R) for dD, dE in blocks))


def sff_mc(blocks, d_L: int, d_R: int, t_max: int, samples: int, rng: SeededRng) -> SFFResult:
    """Monte-Carlo spectral form factor K(t) = E|tr U^t|^2 over the
    block-Haar ensemble U = ⊕_i T^i (x) R^i, with T^i Haar on L (x) D_i and
    R^i Haar on E_i (x) R for ``blocks`` = [(dim_D_i, dim_E_i), ...].  The
    Haar ensemble on dimension n is ``sff_mc([(1, 1)], n, 1, ...)``.

    tr U^t = sum_i tr(T_i^t) tr(R_i^t), and a Haar block's spectrum is
    CUE(n), the spectrum of a CMV matrix with independent Verblunsky
    coefficients (Killip & Nenciu, IMRN 2004).  So no matrix is built: each
    block of size n takes 2n - 1 uniforms (``_verblunsky``), and its traces
    come from the coefficients of its characteristic polynomial
    (``_verblunsky_traces``).  All draws come from ``rng.generator()``, one
    sample-major ``random((m, width))`` per chunk of m samples: each row holds
    the uniforms of every block, grouped by block size in ascending n and in
    block order within a size.  The blocks of one size are one stack, and
    the pair products sum to each sample's tr U^t in pair order.  So the
    result does not depend on the chunk size; ``blocks`` is sorted first, so
    it depends on the block signature and not on the order of the blocks.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    blocks = sorted(blocks)
    d = d_L * sum(dD * dE for dD, dE in blocks) * d_R
    sizes = [n for dD, dE in blocks for n in (d_L * dD, dE * d_R)]  # T_0, R_0, T_1, ...
    stacks = {n: [j for j, size in enumerate(sizes) if size == n] for n in sorted(set(sizes))}
    width = sum(2 * n - 1 for n in sizes)
    elems = 2 * t_max + sum(4 * n + t_max for n in sizes)  # complex elements per sample
    chunks = -(-samples * elems // SFF_CHUNK_ELEMS)
    chunk = -(-samples // chunks)  # equal chunks: each one costs a Python loop over t
    g = rng.generator()
    per_sample = np.empty((samples, t_max))  # |tr U^t|^2, t = 1..t_max
    for s0 in range(0, samples, chunk):
        m = min(chunk, samples - s0)
        u = g.random((m, width))
        traces, col = {}, 0
        for n, stack in stacks.items():
            w = len(stack) * (2 * n - 1)
            alpha = _verblunsky(u[:, col : col + w].reshape(m * len(stack), 2 * n - 1), n)
            tr = _verblunsky_traces(alpha, t_max).reshape(m, len(stack), t_max)
            traces.update((j, tr[:, c]) for c, j in enumerate(stack))
            col += w
        total = np.zeros((m, t_max), dtype=np.complex128)  # tr U^t
        for i in range(len(blocks)):
            total += traces[2 * i] * traces[2 * i + 1]
        np.square(total.real, out=per_sample[s0 : s0 + m])
        per_sample[s0 : s0 + m] += np.square(total.imag)
    del u, alpha, tr, traces, total  # the last chunk's buffers, before the statistics

    times = np.arange(t_max + 1)
    K = np.empty(t_max + 1)
    err = np.empty(t_max + 1)
    K[0], err[0] = float(d * d), 0.0  # tr(1) = d exactly, for every sample
    K[1:] = per_sample.mean(axis=0)
    err[1:] = per_sample.std(axis=0, ddof=1) / np.sqrt(samples)
    K_an = np.array([sff_analytic(blocks, d_L, d_R, int(t)) for t in times])
    return SFFResult(times, K, err, K_an, samples)


def _verblunsky(u: np.ndarray, n: int) -> np.ndarray:
    """Verblunsky coefficients alpha_0..alpha_(n-1) of a CUE(n) CMV matrix,
    (m, n), from (m, 2n - 1) uniforms on [0, 1): the first n - 1 give
    |alpha_k|^2 = 1 - u^(1/(n-k-1)), a Beta(1, n - k - 1) draw, the last n
    the phases 2 pi u; |alpha_(n-1)| = 1."""
    modulus = np.ones((len(u), n))
    modulus[:, :-1] = np.sqrt(1 - u[:, : n - 1] ** (1 / np.arange(n - 1, 0, -1)))
    return modulus * np.exp(2j * np.pi * u[:, n - 1 :])


def _verblunsky_traces(alpha: np.ndarray, t_max: int) -> np.ndarray:
    """tr(C^t) for t = 1..t_max, (m, t_max), of the CMV matrix C = L M with
    Verblunsky coefficients ``alpha`` (m, n), without building C.

    The Szegő recurrence Phi_(k+1)(z) = z Phi_k(z) - conj(alpha_k) Phi_k*(z),
    Phi_k*(z) = z^k conj(Phi_k(1/conj(z))), gives Phi_n = det(z - C).  Row j
    of ``c`` holds the coefficient of z^(j - n + k) after step k, so the
    factor z costs nothing.  Newton's identities then give the power sums
    p_t = -(sum_(i <= min(t-1, n)) a_i p_(t-i)) - [t <= n] t a_t of
    Phi_n(z) = z^n + a_1 z^(n-1) + ... + a_n, in O(n t_max).  The samples
    run along the last axis, and every sum is taken in a fixed order
    (``_fixed_order_sum``), so each sample gives the same bytes as it would
    alone.

    Only for CUE draws: the power sums come from the coefficients a_i,
    which stay small for CUE (E|a_i|^2 = 1; the traces match the eigenvalues
    of C to 4e-11 at n = 256, t = 300) but grow like binomials on a
    clustered spectrum (every alpha_k = 1 gives errors of 1e21 at n = 64),
    so no caller may pass other coefficients."""
    m, n = alpha.shape
    beta = np.conj(alpha.T, order="C")
    c = np.zeros((n + 1, m), dtype=np.complex128)
    c[n] = 1
    for k in range(n):
        c[n - k - 1 : n] -= beta[k] * c[n : n - k - 1 : -1].conj()
    p = np.empty((t_max + 1, m), dtype=np.complex128)  # p[t] = p_t; a_i = c[n - i]
    for t in range(1, t_max + 1):
        k = min(t - 1, n)
        s = _fixed_order_sum(c[n - k : n] * p[t - k : t]) if k else 0
        if t <= n:
            s = s + t * c[n - t]
        np.negative(s, out=p[t])
    return p[1:].T


def _fixed_order_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of ``x`` (overwritten), pairwise in an order fixed by
    len(x) alone: numpy's own reductions pick their order from the whole
    shape, so a single column could round differently from a stack."""
    while len(x) > 1:
        h = (len(x) + 1) // 2
        x[: len(x) - h] += x[h:]
        x = x[:h]
    return x[0]
