"""Electromagnetic response of a homogeneous sphere: partial-wave
coefficients, cross-section efficiencies, near fields, and energy-flow
streamlines."""

from .fields import (
    DOMAIN_RADIUS_FACTOR,
    EvaluationTooFarOut,
    FieldGrid,
    Streamline,
    Termination,
    ZeroPoyntingVector,
    near_field_grid,
    poynting,
    poynting_streamlines,
)
from .scatter import (
    MAX_SIZE_PARAMETER,
    EfficiencySet,
    EfficiencySpectrum,
    MieCoefficients,
    RecurrenceUnstable,
    SizeParameterOutOfRange,
    SphereScene,
    efficiencies,
    mie_coefficients,
    multipole_cutoff,
    qabs_spectrum,
    qabs_transient,
)

__all__ = [
    "DOMAIN_RADIUS_FACTOR",
    "MAX_SIZE_PARAMETER",
    "EfficiencySet",
    "EfficiencySpectrum",
    "EvaluationTooFarOut",
    "FieldGrid",
    "MieCoefficients",
    "RecurrenceUnstable",
    "SizeParameterOutOfRange",
    "SphereScene",
    "Streamline",
    "Termination",
    "ZeroPoyntingVector",
    "efficiencies",
    "mie_coefficients",
    "multipole_cutoff",
    "near_field_grid",
    "poynting",
    "poynting_streamlines",
    "qabs_spectrum",
    "qabs_transient",
]
