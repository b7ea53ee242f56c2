"""State-level probes: Schmidt data and the entanglement area law, projective
measurement protocols, and spectral-form-factor Monte Carlo with analytic
predictions."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod

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
    haar_from_ginibre,
    hs_norm,
)
from .algebra import cluster_eigenvalues, contains, max_commutator

# complex elements per chunk of one SFF size stack, draws, power buffers and
# traces together (512 KB): a chunk of the whole run would grow peak memory
# with the sample count
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

    tr U^t = sum_i tr(T_i^t) tr(R_i^t), so only traces of block powers are
    needed (``_power_traces``), not spectra.  All draws come from
    ``rng.generator()``: the blocks of one size n form one stack, drawn in
    ascending n, sample by sample and block by block, as (n, n, 2) normals
    (real, imaginary); a chunk of samples then runs QR, the phase fix and the
    traces together.  A pair's product joins the per-sample total as soon as
    both its blocks are drawn, in pair order; until then its smaller block
    waits as its n^2 entries or its t_max traces, whichever is fewer.  The
    result does not depend on the chunk size.  ``blocks`` is sorted first,
    so it depends on the block signature and not on the order of the blocks.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    blocks = sorted(blocks)
    d = d_L * sum(dD * dE for dD, dE in blocks) * d_R
    sizes = [n for dD, dE in blocks for n in (d_L * dD, dE * d_R)]  # T_0, R_0, T_1, ...
    g = rng.generator()
    total = np.zeros((samples, t_max), dtype=np.complex128)  # tr U^t, t = 1..t_max
    waiting = {}  # block j -> its draws or traces, until partner j ^ 1 is drawn
    for n in sorted(set(sizes)):
        stack = [j for j, size in enumerate(sizes) if size == n]
        for j in stack:
            if sizes[j ^ 1] > n:
                shape = (n, n) if n * n < t_max else (t_max,)
                waiting[j] = np.empty((samples, *shape), dtype=np.complex128)
        pairs = [i for i in range(len(blocks)) if max(sizes[2 * i], sizes[2 * i + 1]) == n]
        # a chunk's draws and power buffers, with those of waiting draws traced here
        traced = [n] * len(stack) + [
            sizes[j] for i in pairs for j in (2 * i, 2 * i + 1)
            if sizes[j] < n and waiting[j].ndim == 3
        ]
        chunk = max(1, SFF_CHUNK_ELEMS // sum(_chunk_elems(k, t_max) for k in traced))
        col = {j: c for c, j in enumerate(stack)}
        for s0 in range(0, samples, chunk):
            m = min(chunk, samples - s0)
            u = _haar_stack(g, m * len(stack), n).reshape(m, len(stack), n, n)
            tr = _power_traces(u, t_max)
            for j, w in waiting.items():
                if j in col:
                    w[s0 : s0 + m] = u[:, col[j]] if w.ndim == 3 else tr[:, col[j]]
            for i in pairs:
                t_T, t_R = (
                    tr[:, col[j]] if j in col else _waiting_traces(waiting[j][s0 : s0 + m], t_max)
                    for j in (2 * i, 2 * i + 1)
                )
                total[s0 : s0 + m] += t_T * t_R
        for i in pairs:
            waiting.pop(2 * i, None)
            waiting.pop(2 * i + 1, None)
    re, im = total.real, total.imag
    np.square(re, out=re)
    np.square(im, out=im)
    per_sample = re + im
    del total, re, im  # free the complex total before mean and std allocate theirs

    times = np.arange(t_max + 1)
    K = np.empty(t_max + 1)
    err = np.empty(t_max + 1)
    K[0], err[0] = float(d * d), 0.0  # tr(1) = d exactly, for every sample
    K[1:] = per_sample.mean(axis=0)
    err[1:] = per_sample.std(axis=0, ddof=1) / np.sqrt(samples)
    K_an = np.array([sff_analytic(blocks, d_L, d_R, int(t)) for t in times])
    return SFFResult(times, K, err, K_an, samples)


def _haar_stack(g, count: int, n: int) -> np.ndarray:
    """``count`` Haar unitaries of size n from one (count, n, n, 2) draw of
    normals (real, imaginary)."""
    x = g.standard_normal((count, n, n, 2))
    z = (x[..., 0] + 1j * x[..., 1]) / np.sqrt(2)
    del x
    return haar_from_ginibre(z)


def _waiting_traces(w: np.ndarray, t_max: int) -> np.ndarray:
    """Traces of a waiting block: stored as they are, or from its draws."""
    return w if w.ndim == 2 else _power_traces(w, t_max)


def _baby_giant(t_max: int) -> tuple[int, int]:
    """(k, giants): k = ceil(sqrt(t_max + 1)) baby steps V^0..V^(k-1) and
    the giant steps V^(bk), b < giants, reach every t <= t_max as bk + a."""
    k = isqrt(t_max) + 1
    return k, t_max // k + 1


def _chunk_elems(n: int, t_max: int) -> int:
    """Complex elements one n x n block holds in a chunk: its Ginibre, QR and
    phase-fix buffers, the power buffers of ``_power_traces`` and its traces."""
    powers = t_max
    if n >= 3:
        k, giants = _baby_giant(t_max)
        powers = (k + giants + 1) * n * n + giants * k
    return 4 * n * n + powers + 2 * t_max


def _power_traces(v: np.ndarray, t_max: int) -> np.ndarray:
    """tr(V^t) for t = 1..t_max of each unitary V of the stack ``v``
    (..., n, n), as (..., t_max).  n = 1: powers of the entry.  n = 2: the
    Cayley-Hamilton recurrence p_t = tau p_(t-1) - delta p_(t-2) with
    tau = tr V, delta = det V.  n >= 3: baby steps (V^T)^a, a < k, and giant
    steps V^(bk) (Paterson-Stockmeyer), so that tr(V^(bk+a)) is one row dot
    product and a matrix takes about 2 sqrt(t_max) products.  Each matrix
    gives the same bytes as it would alone."""
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
        k, giants = _baby_giant(t_max)
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
