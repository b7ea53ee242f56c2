"""wallkit: operator-algebra numerics for causally decoupling Floquet
unitaries.

The package builds and decomposes finite-dimensional matrix algebras,
synthesizes and verifies wall unitaries (tri-partite Floquet circuits that
permanently arrest operator spreading), extracts conserved-charge algebras,
and checks the associated entanglement bounds and spectral-form-factor
predictions at desk scale.
"""

from .layout import SeededRng, SystemLayout, as_generator
from .linalg import (
    embed,
    haar_from_ginibre,
    haar_unitary,
    kron,
    nullspace,
    orthonormal_basis,
    partial_trace,
)
from .algebra import (
    MatrixAlgebra,
    center,
    close_algebra,
    commutant,
    contains,
    equals,
    extract_central_factor,
    intersect,
)
from .blocks import BlockStructure, decompose, isomorphism_signature, reconstruct
from .walls import (
    WallUnitary,
    conditional_unitary,
    pauli_string,
    preset_wall,
    synth_wall,
)
from .dynamics import (
    LightConeProfile,
    WallReport,
    conserved_algebra,
    evolve_op,
    fragment_decomposition,
    gauged_sequence,
    invariant_algebras,
    lightcone,
    scan_chain,
    support,
    verify_wall,
)
from .observables import (
    PureState,
    SFFResult,
    SchmidtData,
    evolve_state,
    measure,
    measurement_protocol,
    random_product_state,
    schmidt,
    sff_analytic,
    sff_mc,
    verify_area_law,
)

__version__ = "0.1.0"
