"""pathmkv: interacting-particle simulation and numerical verification toolkit
for controlled path-dependent McKean-Vlasov SDEs on truncated Hilbert spaces."""

__version__ = "0.1.0"

from .hilbert import (
    SpectralOperator,
    semigroup_apply,
    vector,
    yosida,
)
from .paths import PathGrid, TimeGrid, bump, stop, sup_norm, sup_seminorm
from .measure import (
    EmpiricalControlMeasure,
    EmpiricalPathMeasure,
    stopped_measure,
    wasserstein2,
)
from .sde import (
    InitialLaw,
    ModelSpec,
    ParticleEnsemble,
    flow_restart_check,
    integrate,
    integrate_picard,
    integrate_yosida,
    s2_distance,
)
from .control import (
    BoxActionSet,
    FeedbackPolicy,
    FiniteActionSet,
    ValueEstimate,
    dpp_check,
    estimate_value,
    law_invariance_check,
    reward,
)
from .calculus import (
    CylindricalFunctional,
    consistency_check,
    horizontal_derivative,
    ito_verify,
    measure_derivative_discrete,
    measure_derivative_field,
    second_derivative,
)
from .hjb import (
    HamiltonianIntegrand,
    hamiltonian_sup_finite,
    hamiltonian_sup_randomized,
    hjb_residual,
    investment_hamiltonian_closed_form,
)
