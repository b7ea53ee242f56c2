"""Wall-unitary synthesis: random walls over a block structure, conditional
unitaries, and the catalogue presets."""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .layout import SeededRng, SystemLayout
from .linalg import GATE_TOL, dagger, embed, haar_unitary, hs_norm
from .algebra import MatrixAlgebra, close_algebra, equals
from .blocks import BlockStructure, decompose
from . import dynamics

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string(s: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. "ZX" -> Z (x) X."""
    out = np.eye(1, dtype=complex)
    for ch in s.strip():
        if ch not in PAULI:
            raise ValueError(f"invalid Pauli letter {ch!r} in {s!r} (use I, X, Y, Z)")
        out = np.kron(out, PAULI[ch])
    return out


def resolve_central_algebra(alg, layout: SystemLayout) -> MatrixAlgebra:
    """The central algebra on C of ``layout`` that ``alg`` names ("diag",
    "full" or "pauli:XI,ZX") or lists as generator matrices."""
    c_layout = SystemLayout(layout.center_dims)
    d_C = c_layout.dim
    if isinstance(alg, str):
        if alg == "diag":
            gens = [np.diag(np.arange(d_C, dtype=complex))]
        elif alg == "full":
            shift = np.roll(np.eye(d_C), 1, axis=0).astype(complex)
            clock = np.diag(np.exp(2j * np.pi * np.arange(d_C) / d_C))
            gens = [shift, clock]
        elif alg.startswith("pauli:"):
            if any(d != 2 for d in c_layout.site_dims):
                raise ValueError("Pauli generators need a qubit central region")
            gens = [pauli_string(s) for s in alg[len("pauli:") :].split(",")]
            if any(g.shape != (d_C, d_C) for g in gens):
                raise ValueError("Pauli string length does not match central sites")
        else:
            raise ValueError(f"unknown central algebra name {alg!r}")
    else:
        gens = [np.asarray(g, dtype=complex) for g in alg]
        if any(g.shape != (d_C, d_C) for g in gens):
            raise ValueError("central generators must act on C only")
    return close_algebra(gens, c_layout)


@dataclass
class WallUnitary:
    """A wall unitary together with its structural data.  Construction runs
    the wall check once and keeps its report as ``invariants``; it raises
    ``ValueError`` on a non-unitary or a non-scalar ``A_C`` over a
    one-dimensional L, and ``RuntimeError`` on a non-wall or when the
    declared ``A_C`` is not the wall's invariant A_C."""

    U: np.ndarray
    layout: SystemLayout
    A_C: MatrixAlgebra
    block_structure: BlockStructure
    name: str | None = None
    invariants: dynamics.WallReport = field(init=False, repr=False)

    def __post_init__(self):
        if self.layout.d_left == 1 and self.A_C.dim > 1:
            # the orbit of M_L = C 1 is the scalars, so the invariant A_C is too
            raise ValueError(
                f"a one-dimensional left edge admits only the scalar A_C, "
                f"not one of dim {self.A_C.dim}"
            )
        try:
            self.invariants = dynamics.invariant_algebras(self.U, self.layout)
        except dynamics.NotAWallError as exc:
            raise RuntimeError(f"synthesized unitary failed the wall check: {exc}") from exc
        if not equals(self.A_C, self.invariants.A_C):
            raise RuntimeError(
                f"{self.name or 'synthesized'} wall failed the wall check: its declared A_C "
                f"(dim {self.A_C.dim}) is not the wall's invariant A_C (dim "
                f"{self.invariants.A_C.dim})"
            )


def assemble_wall(layout: SystemLayout, bs: BlockStructure, T_blocks, R_blocks, permutation=None) -> np.ndarray:
    """Assemble U = (1 x V x 1) [⊕_i T^i x R^i, block-permuted] (1 x V x 1)^dag.

    T^i acts on L x D_i, R^i on E_i x R; block i feeds the slot permutation[i]
    (which must have the same dimensions)."""
    d_L, d_C, d_R = layout.d_left, layout.d_center, layout.d_right
    nb = bs.n_blocks
    perm = list(range(nb)) if permutation is None else list(permutation)
    if sorted(perm) != list(range(nb)):
        raise ValueError("permutation must be a permutation of block indices")
    for i, j in enumerate(perm):
        if bs.blocks[i] != bs.blocks[j]:
            raise ValueError(
                f"not an automorphism: blocks {i} and {j} have different dimensions"
            )
    offs = bs.block_offsets()
    frame = np.zeros((d_L, d_C, d_R, d_L, d_C, d_R), dtype=complex)
    for i, (dD, dE) in enumerate(bs.blocks):
        m = dD * dE
        T = np.asarray(T_blocks[i], dtype=complex)
        R = np.asarray(R_blocks[i], dtype=complex)
        if T.shape != (d_L * dD, d_L * dD) or R.shape != (dE * d_R, dE * d_R):
            raise ValueError(f"block {i} unitaries have wrong dimensions")
        X = np.kron(T, R).reshape(d_L, m, d_R, d_L, m, d_R)
        frame[:, offs[perm[i]] : offs[perm[i]] + m, :, :, offs[i] : offs[i] + m, :] = X
    U_frame = frame.reshape(layout.dim, layout.dim)
    W = np.kron(np.kron(np.eye(d_L), bs.V), np.eye(d_R))
    return W @ U_frame @ dagger(W)


def synth_wall(layout: SystemLayout, A_C: MatrixAlgebra, permutation=None, seed: int = 0) -> WallUnitary:
    """Synthesize a wall over the central algebra ``A_C`` on C.

    Stream ``SeededRng(seed)`` holds only the draws T^i ~ Haar(d_L dim_D_i)
    and R^i ~ Haar(dim_E_i d_R); block i of ``decompose(A_C)``, the same at
    every seed, feeds slot ``permutation[i]``.  The returned ``WallUnitary``
    has passed the wall check.
    """
    return _block_haar_wall(layout, A_C, decompose(A_C), permutation, seed)


def _block_haar_wall(
    layout: SystemLayout, A_C: MatrixAlgebra, bs: BlockStructure, permutation, seed: int
) -> WallUnitary:
    """``synth_wall`` over ``bs``, the block frame ``decompose(A_C)`` gives."""
    g = SeededRng(seed).generator()
    T_blocks = [haar_unitary(layout.d_left * dD, g) for dD, _ in bs.blocks]
    R_blocks = [haar_unitary(dE * layout.d_right, g) for _, dE in bs.blocks]
    U = assemble_wall(layout, bs, T_blocks, R_blocks, permutation)
    return WallUnitary(U, layout, A_C, bs)


def conditional_unitary(eigenbasis, branches, control_first: bool = False) -> np.ndarray:
    """Bipartite conditional gate sum_i xi_i (x) |i><i| (or the mirrored
    |i><i| (x) xi_i when control_first), with |i> the given control basis."""
    vecs = np.asarray(eigenbasis, dtype=complex)
    if vecs.ndim != 2 or vecs.shape[0] != vecs.shape[1]:
        raise ValueError("eigenbasis must be a square array of basis vectors (rows)")
    dc = vecs.shape[0]
    if len(branches) != dc:
        raise ValueError("need one branch unitary per control basis vector")
    if hs_norm(vecs @ dagger(vecs) - np.eye(dc)) > GATE_TOL:
        raise ValueError("control eigenbasis is not orthonormal")
    out = None
    for v, b in zip(vecs, branches):
        b = np.asarray(b, dtype=complex)
        if hs_norm(b @ dagger(b) - np.eye(b.shape[0])) > GATE_TOL:
            raise ValueError("branch is not unitary")
        proj = np.outer(v, v.conj())
        term = np.kron(proj, b) if control_first else np.kron(b, proj)
        out = term if out is None else out + term
    return out


# ---------------------------------------------------------------------------
# catalogue presets
# ---------------------------------------------------------------------------

def _conditional_pair(preset: Preset, layout: SystemLayout, g) -> np.ndarray:
    """U = W_CR (middle gate) V_LC: two conditional gates with their controls
    on the outer central sites, V = sum_i xi_i x |i><i| on (L, first central
    site) and W = sum_i |i><i| x zeta_i on (last central site, R)."""
    n_c = len(preset.center)
    xi = [haar_unitary(layout.d_left, g) for _ in range(2)]
    zeta = [haar_unitary(layout.d_right, g) for _ in range(2)]
    V = embed(conditional_unitary(np.eye(2), xi), (0, 1), layout)
    W = embed(
        conditional_unitary(np.eye(2), zeta, control_first=True), (n_c, n_c + 1), layout
    )
    if preset.middle is None:
        return W @ V
    sites, gate = preset.middle
    return W @ embed(gate, sites, layout) @ V


def _fswap(preset: Preset, layout: SystemLayout, g) -> np.ndarray:
    """Fermionic swap between controlled-X couplings to either edge."""
    # V: control on L, X on the near central qubit (an element of A_C)
    V = conditional_unitary(np.eye(2), [np.eye(2), PAULI["X"]], control_first=True)
    V = embed(V, (0, 1), layout)
    # W: control on R, X on the far central qubit (commutant of A_C)
    W = conditional_unitary(np.eye(2), [np.eye(2), PAULI["X"]])
    W = embed(W, (2, 3), layout)
    fswap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex
    )
    return W @ embed(fswap, (1, 2), layout) @ V


@dataclass(frozen=True, eq=False)
class Preset:
    """A catalogue wall: central site dims, the generators of A_C, and the
    builder of U from the layout and a generator (None: block-Haar synthesis
    over A_C).  ``middle`` = (sites, gate) sits between the conditional
    gates; ``qubit_edges`` fixes d_L = d_R = 2."""

    center: tuple[int, ...]
    generators: tuple[np.ndarray, ...]
    build: Callable | None = _conditional_pair
    middle: tuple[tuple[int, ...], np.ndarray] | None = None
    qubit_edges: bool = False

    @functools.cache
    def frame(self) -> tuple[MatrixAlgebra, BlockStructure]:
        """A_C and its block frame, built on first use and kept for the
        process: neither depends on the seed or the edge dims.  The cache is
        keyed by the row object, and every array it holds is read-only."""
        A_C = close_algebra(list(self.generators), SystemLayout(self.center))
        bs = decompose(A_C)
        for a in (A_C.basis, A_C.generators, bs.V, *bs.central_projectors):
            if a is not None:  # no generators: None
                a.flags.writeable = False
        return A_C, bs


_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
_ZZ = np.diag([1, -1, -1, 1]).astype(complex)

PRESETS = {
    # two conditional gates sharing a diagonal control on the central qubit
    "abelian-pair": Preset((2,), (PAULI["Z"],)),
    # the wall splits over a two-qubit center: each edge couples only to its
    # nearest central qubit
    "reducible-composite": Preset((2, 2), (np.kron(PAULI["Z"], np.eye(2)),)),
    # central bit-flip between the conditionals: Z_C -> -Z_C -> Z_C orbit
    "soliton-x": Preset((2,), (PAULI["Z"],), middle=((1,), PAULI["X"])),
    # middle central qubit touched by nothing: its full algebra is conserved
    "uncoupled-center": Preset((2, 2, 2), (np.kron(PAULI["Z"], np.eye(4)),)),
    # central SWAP-and-phase gate shuttles the two diagonal controls
    "swap-zz": Preset(
        (2, 2), (np.diag(np.arange(4, dtype=complex)),), middle=((1, 2), _SWAP @ _ZZ)
    ),
    "fswap": Preset(
        (2, 2), (pauli_string("XI"), pauli_string("ZX")), build=_fswap, qubit_edges=True
    ),
    # generic synthesis over the non-Abelian two-qubit Pauli algebra
    "nonabelian-cnot": Preset((2, 2), (pauli_string("XI"), pauli_string("ZX")), build=None),
}

PRESET_NAMES = tuple(PRESETS)


def _preset_layout(name: str, dims=None) -> tuple[Preset, SystemLayout]:
    """The preset's table row and its layout with edge dims ``dims`` =
    (d_L, d_R), default (2, 2)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    preset = PRESETS[name]
    d_L, d_R = (2, 2) if dims is None else (int(dims[0]), int(dims[1]))
    if preset.qubit_edges and (d_L, d_R) != (2, 2):
        raise ValueError(f"{name} preset is defined on qubit edges")
    return preset, SystemLayout.tripartite(d_L, preset.center, d_R)


def preset_algebra(name: str, dims=None) -> tuple[SystemLayout, MatrixAlgebra, BlockStructure]:
    """Layout, central algebra A_C and block frame of a preset, without
    building its wall."""
    preset, layout = _preset_layout(name, dims)
    return (layout, *preset.frame())


def preset_wall(name: str, dims=None, seed: int = 0) -> WallUnitary:
    """Catalogue walls on qubit-scale systems.

    Each preset fixes a concrete wiring of the pictured gates; all presets
    are wall-verified at construction time, and the A_C the table declares
    must be the wall's invariant A_C.  ``dims`` = (d_L, d_R) overrides the
    edge dimensions where the construction generalizes (all but ``fswap``);
    the central region is fixed per preset.
    """
    preset, layout = _preset_layout(name, dims)
    A_C, bs = preset.frame()
    if preset.build is None:
        wall = _block_haar_wall(layout, A_C, bs, None, seed)
        wall.name = name
        return wall
    U = preset.build(preset, layout, SeededRng(seed, 101).generator())
    return WallUnitary(U, layout, A_C, bs, name)
