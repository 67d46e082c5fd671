"""Three-pass single-photon QKD: protocol simulation and key-rate analysis."""

__version__ = "0.1.0"

from .qmath import (
    DensityMatrix4,
    binary_entropy,
    eve_state,
    maximizing_mu4,
    reconditioned_entropy,
    von_neumann_entropy,
)
from .protocol import (
    Eavesdropper,
    ProtocolId,
    SimulationConfig,
    SimulationReport,
    run_simulation,
)
from .secrate import (
    EfficiencyInputs,
    cabello_efficiency,
    find_threshold,
    holevo_chi,
    key_rate_sb1,
    key_rate_sifted,
    lower_bound_rate,
    lower_bound_threshold,
    upper_bound_crossing,
    upper_bound_rate,
    upper_bound_threshold,
)
from .pns import (
    FiberLink,
    WcpSource,
    critical_distance,
    eve_info_irud,
    eve_info_pns,
    poisson_pmf,
    transmittance,
    unambiguous_info,
)

__all__ = [name for name in dir() if not name.startswith("_")]
