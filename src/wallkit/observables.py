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
# complex Ginibre elements per chunk of SFF samples (64 KB): a chunk of the
# whole run would grow peak memory with the sample count
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


def _rank_trajectory(U, psi: PureState, cut: int, t_max: int, bound: int, rank_tol: float):
    """Largest L|CR Schmidt rank of U^t psi over t = 0..t_max, and the
    (t, rank) pairs above ``bound``."""
    max_rank, violations = 0, []
    for t in range(t_max + 1):
        r = schmidt(psi, cut, rank_tol).rank
        max_rank = max(max_rank, r)
        if r > bound:
            violations.append((t, r))
        if t < t_max:
            psi = evolve_state(U, psi, 1)
    return max_rank, violations


def verify_area_law(wall, psi0: PureState, t_max: int, rank_tol: float = SCHMIDT_RANK_TOL) -> AreaLawReport:
    """Check rank(U^t psi0) <= dim A_C across L|CR for a product psi0, plus the
    per-block refinement rank <= dim_D^2 for block-projected inputs."""
    layout = wall.layout
    cut = len(layout.left)
    if schmidt(psi0, cut, rank_tol).rank != 1:
        raise ValueError("initial state must be a product across L|CR")
    bound = wall.A_C.dim
    max_rank, violations = _rank_trajectory(wall.U, psi0, cut, t_max, bound, rank_tol)
    block_results = []
    d_L, d_R = layout.d_left, layout.d_right
    for i, ((dD, _), P) in enumerate(
        zip(wall.block_structure.blocks, wall.block_structure.central_projectors)
    ):
        proj = np.kron(np.kron(np.eye(d_L), P), np.eye(d_R))
        amps = proj @ psi0.amplitudes
        weight = np.linalg.norm(amps)
        b_max, b_viol = 0, []
        if weight >= 1e-8:
            psi_b = PureState(amps / weight, layout)
            b_max, b_viol = _rank_trajectory(wall.U, psi_b, cut, t_max, dD * dD, rank_tol)
        block_results.append(
            {"block": i, "bound": dD * dD, "max_rank": b_max, "violations": b_viol,
             "weight": float(weight)}
        )
    return AreaLawReport(t_max, bound, max_rank, violations, block_results)


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
    return MeasureResult(values[pick], post, probs[pick], int(pick))


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
    if contains(wall.A_C.space, M_C, tol):
        return "central"
    if contains(commutant(wall.A_C).space, M_C, tol):
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

    Sample ``s`` draws the Ginibre normals of all its blocks, block by block,
    from its own stream ``1000 + s`` of ``rng``; QR, phase fix and eigenvalues
    then run on one stack per block size and chunk of samples.  The result
    equals sampling each block with ``haar_unitary`` in turn, bit for bit.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
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


def _block_eigvals(sizes, offsets, samples: int, base: SeededRng) -> np.ndarray:
    """(samples, offsets[-1]) eigenvalues of Haar block unitaries of the given
    sizes, sample s drawn from stream 1000 + s."""
    # blocks of one size share a stack; slots[k] = (size, index in its stack)
    starts, slots = {}, []
    for size, start in zip(sizes, offsets[:-1]):
        slots.append((size, len(starts.setdefault(size, []))))
        starts[size].append(start)
    # eigenvalue columns of each stack, in stack order
    cols = {n: np.concatenate([np.arange(o, o + n) for o in st]) for n, st in starts.items()}
    chunk = max(1, SFF_CHUNK_ELEMS // sum(n * n for n in sizes))
    re = {n: np.empty((chunk, len(st), n, n)) for n, st in starts.items()}
    im = {n: np.empty((chunk, len(st), n, n)) for n, st in starts.items()}
    eigs = np.empty((samples, offsets[-1]), dtype=np.complex128)
    for s0 in range(0, samples, chunk):
        m = min(chunk, samples - s0)
        for j in range(m):
            g = base.stream(1000 + s0 + j).generator()
            for size, k in slots:
                g.standard_normal(out=re[size][j, k])
                g.standard_normal(out=im[size][j, k])
        for n, c in cols.items():
            z = (re[n][:m] + 1j * im[n][:m]) / np.sqrt(2)
            u = haar_from_ginibre(z.reshape(-1, n, n))
            eigs[s0 : s0 + m, c] = np.linalg.eigvals(u).reshape(m, -1)
    return eigs
