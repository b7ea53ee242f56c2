"""State-level probes: Schmidt data and the entanglement area law, projective
measurement protocols, and spectral-form-factor Monte Carlo with analytic
predictions."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from ._kernels import trace_powers
from .layout import SeededRng, SystemLayout, as_generator
from .linalg import dagger, haar_from_ginibre, hs_norm
from .algebra import cluster_eigenvalues, commutant, contains

SCHMIDT_RANK_TOL = 1e-8
CLUSTER_TOL = 1e-9  # relative eigenvalue clustering for measurement outcomes
# complex Ginibre elements per chunk of one SFF size stack (64 KB): a chunk
# of the whole run would grow peak memory with the sample count
SFF_CHUNK_ELEMS = 4096


@dataclass
class PureState:
    amplitudes: np.ndarray
    layout: SystemLayout

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()
        if self.amplitudes.size != self.layout.dim:
            raise ValueError("amplitude vector does not match layout dimension")
        n = np.linalg.norm(self.amplitudes)
        if abs(n - 1.0) > 1e-10:
            raise ValueError(f"state is not normalized: |psi| = {n}")


def random_product_state(layout: SystemLayout, rng) -> PureState:
    """Haar-random product state over the layout's sites."""
    g = as_generator(rng)
    vec = np.ones(1, dtype=complex)
    for d in layout.site_dims:
        v = g.standard_normal(d) + 1j * g.standard_normal(d)
        vec = np.kron(vec, v / np.linalg.norm(v))
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
        p = p[p > 1e-15]
        return max(0.0, float(-np.sum(p * np.log2(p))))  # no -0.0 or rounding below 0


def schmidt(psi: PureState, cut: int, rank_tol: float = SCHMIDT_RANK_TOL) -> SchmidtData:
    """Schmidt data across the bipartition after the first `cut` sites."""
    if not 0 < cut < psi.layout.n_sites:
        raise ValueError("cut must leave sites on both sides")
    d_left = prod(psi.layout.site_dims[:cut])
    mat = psi.amplitudes.reshape(d_left, -1)
    s = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(s > rank_tol))
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


def verify_area_law(wall, psi0: PureState, t_max: int, rank_tol: float = SCHMIDT_RANK_TOL) -> AreaLawReport:
    """Check rank(U^t psi0) <= dim A_C across L|CR for a product psi0, plus the
    per-block refinement rank <= dim_D^2 for block-projected inputs.

    psi0 and its normalised block projections P_D psi0 (each P_D applied on C
    alone) are the rows of one array that evolves a step at a time: one
    stacked SVD gives every row's rank, one matmul advances every row.  A
    block whose projection has norm below 1e-8 is a zero row: rank 0."""
    layout = wall.layout
    d_L, d_C, d_R = layout.d_left, layout.d_center, layout.d_right
    if schmidt(psi0, len(layout.left), rank_tol).rank != 1:
        raise ValueError("initial state must be a product across L|CR")
    bs = wall.block_structure
    amps = psi0.amplitudes.reshape(d_L, d_C, d_R)
    projected = [(P @ amps).ravel() for P in bs.central_projectors]
    weights = [float(np.linalg.norm(v)) for v in projected]
    X = np.stack(
        [psi0.amplitudes] + [v / w if w >= 1e-8 else 0 * v for v, w in zip(projected, weights)]
    )
    bounds = np.array([wall.A_C.dim] + [dD * dD for dD, _ in bs.blocks])
    max_rank = np.zeros(len(X), dtype=int)
    violations = [[] for _ in X]
    for t in range(t_max + 1):
        s = np.linalg.svd(X.reshape(len(X), d_L, -1), compute_uv=False)
        ranks = np.sum(s > rank_tol, axis=1)
        max_rank = np.maximum(max_rank, ranks)
        for j in np.flatnonzero(ranks > bounds):
            violations[j].append((t, int(ranks[j])))
        if t < t_max:
            X = X @ wall.U.T
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            X /= np.where(norms > 0, norms, 1.0)
    block_results = [
        {"block": i, "bound": int(bounds[i + 1]), "max_rank": int(max_rank[i + 1]),
         "violations": violations[i + 1], "weight": weights[i]}
        for i in range(len(weights))
    ]
    return AreaLawReport(t_max, int(bounds[0]), int(max_rank[0]), violations[0], block_results)


@dataclass
class MeasureResult:
    outcome: float
    state: PureState
    probability: float
    outcome_index: int


def measure(psi: PureState, M_C, rng, cluster_tol: float = CLUSTER_TOL) -> MeasureResult:
    """Projective measurement of a Hermitian central observable, Born-sampled.

    Degenerate eigenvalues (relative cluster tolerance) project onto the full
    eigenspace; branches with probability below 1e-12 are excluded.
    """
    M_C = np.asarray(M_C, dtype=complex)
    if hs_norm(M_C - dagger(M_C)) > 1e-10:
        raise ValueError("observable is not Hermitian")
    layout = psi.layout
    d_L, d_C, d_R = layout.d_left, layout.d_center, layout.d_right
    if M_C.shape != (d_C, d_C):
        raise ValueError("observable must act on the central region")
    w, v = np.linalg.eigh(M_C)
    groups = cluster_eigenvalues(w, cluster_tol)
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
    live = probs > 1e-12
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


def classify_observable(wall, M_C, tol: float = 1e-9) -> str:
    """Whether the observable lies in A_C, in its commutant, or in neither."""
    if contains(wall.A_C, M_C, tol):
        return "central"
    if contains(commutant(wall.A_C), M_C, tol):
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
    Haar ensemble on dimension n is ``sff_mc([(1, 1)], n, 1, ...)``.  Traces
    are accumulated from block eigenvalues.

    All draws come from ``rng.generator()``, one Ginibre stack per block
    size (see ``_block_eigvals``).  ``blocks`` is sorted first, so the result
    depends on the block signature and not on the order of the blocks.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    blocks = sorted(blocks)
    d = d_L * sum(dD * dE for dD, dE in blocks) * d_R
    sizes = []
    for dD, dE in blocks:
        sizes.extend([d_L * dD, dE * d_R])
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    per_sample = trace_powers(_block_eigvals(sizes, offsets, samples, rng), offsets, t_max)

    times = np.arange(t_max + 1)
    K = np.empty(t_max + 1)
    err = np.empty(t_max + 1)
    K[0], err[0] = float(d * d), 0.0  # tr(1) = d exactly, for every sample
    K[1:] = per_sample.mean(axis=0)
    err[1:] = per_sample.std(axis=0, ddof=1) / np.sqrt(samples)
    K_an = np.array([sff_analytic(blocks, d_L, d_R, int(t)) for t in times])
    return SFFResult(times, K, err, K_an, samples)


def _block_eigvals(sizes, offsets, samples: int, rng: SeededRng) -> np.ndarray:
    """(samples, offsets[-1]) eigenvalues of Haar block unitaries of the given
    sizes.  The blocks of one size n form one stack, drawn from the one
    generator in ascending n, sample by sample and block by block, as
    (n, n, 2) normals (real, imaginary); a chunk of samples then runs QR,
    phase fix and ``eigvals`` together.  The draws do not depend on the
    chunk size."""
    g = rng.generator()
    eigs = np.empty((samples, offsets[-1]), dtype=np.complex128)
    for n in sorted(set(sizes)):
        # eigenvalue columns of the stack, in block order
        cols = np.concatenate([np.arange(o, o + n) for size, o in zip(sizes, offsets) if size == n])
        count = sizes.count(n)
        chunk = max(1, SFF_CHUNK_ELEMS // (count * n * n))
        for s0 in range(0, samples, chunk):
            m = min(chunk, samples - s0)
            x = g.standard_normal((m * count, n, n, 2))
            u = haar_from_ginibre((x[..., 0] + 1j * x[..., 1]) / np.sqrt(2))
            eigs[s0 : s0 + m, cols] = np.linalg.eigvals(u).reshape(m, -1)
    return eigs
