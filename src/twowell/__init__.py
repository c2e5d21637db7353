"""Multi-state two-well boson models: exact diagonalization, integrable
structure verification, and Bethe-ansatz solutions."""

from .bethe import (
    BetheSolution,
    MatchReport,
    SolveResult,
    bae_residual,
    bethe_energy,
    bethe_vector,
    collective_energies,
    match_spectrum,
    solve_bae,
    transfer_eigenvalue,
)
from .fock import (
    FockSector,
    Mode,
    TruncatedLadder,
    dimension,
    enumerate_sector,
    number_operator,
    total_number_operator,
    truncated_ladder,
    tunneling_operator,
)
from .model import (
    DENSE_BYTES_CAP,
    ConservationReport,
    ModelParams,
    SpectrumResult,
    build_hamiltonian,
    check_dense_fits,
    conservation_report,
    decoupled_energies,
    lowest,
    spectrum,
)
from .yangbaxter import (
    IdentificationReport,
    IntegrableParams,
    conserved_charges,
    default_integrable_params,
    hamiltonian_from_transfer,
    identify_parameters,
    lax_operator,
    r_matrix,
    rll_residual,
    transfer_commutator_residual,
    transfer_matrix,
    validate_model,
    ybe_residual,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
