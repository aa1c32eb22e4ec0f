"""Numerical toolkit for bounded-reachability Lyapunov constructions."""

from .compfun import (
    ScalarFun,
    build_alpha,
    chi_from_eta,
    eta_from_chis,
    gk_eval,
    inverse,
    lip1_minorant,
    theta,
)
from .sysdyn import (
    InputSignal,
    IntegratorConfig,
    StepSizeError,
    SystemDef,
    Trajectory,
    integrate,
    semigroup_growth,
)
from .tdinput import (
    DisturbanceSignal,
    DivisionGuardError,
    FeedbackSignal,
    GrowthMargin,
    closed_loop,
    disturbance_family,
    lift_disturbance,
    project_input,
)
from .brscheck import (
    LipschitzProbeReport,
    NotBrsError,
    NotRfcTdiError,
    ReachBoundFit,
    fit_additive_bound,
    find_rfc_offset,
    gronwall_bound,
    probe_lipschitz_openloop,
    probe_lipschitz_tdi,
    sample_reach,
    verify_rfc_tdi,
)
from .lyapunov import (
    LipschitzTable,
    LyapunovConfig,
    LyapunovValue,
    TailBudgetError,
    UqEstimate,
    build_l_table,
    eval_V,
    lyap_M,
    radial_table,
    sandwich_funs,
    verify_growth,
)
from .examples import ExampleBundle, list_examples, make

__version__ = "0.1.0"
