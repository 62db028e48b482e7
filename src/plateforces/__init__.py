"""Force budget and Yukawa reach of a parallel-plate Casimir experiment.

Library layout:

- core: constants, geometry, materials
- casimir: zero-T/thermal Casimir forces and the border correction
- gravity: point and slab Newton/Yukawa forces
- budget: electrostatic background of the plates
- balance: torsion-wire sensitivity and plate-tilt effects
- exclusion: alpha(lambda) exclusion curves from a force resolution
- config/tables/cli: experiment files, CSV tables, command line
"""

from .balance import (
    SHEAR_MODULUS,
    BalanceConfig,
    TiltConfig,
    TorsionWire,
    gap_variation_from_tilt,
    min_detectable_force,
    tilted_casimir,
    torsion_constant,
)
from .budget import electrostatic_force, voltage_control_requirement
from .casimir import (
    THERMAL_TRUST_MIN_GAP,
    FieldKind,
    ThermalModel,
    border_correction,
    casimir_zero_t,
    thermal_casimir,
)
from .config import ExperimentConfig, ingest_prior_bounds, load_config, parse_length
from .core import (
    CODATA2018,
    GapConfig,
    MaterialLayer,
    PlateGeometry,
    PlateStack,
    YukawaParams,
)
from .errors import ConfigError, DomainError, InvalidParameterError, PlateForcesError
from .exclusion import Curve, alpha_bound, exclusion_scan
from .gravity import (
    LayerMode,
    PlatePairConfig,
    PointMassPair,
    plate_newton,
    plate_yukawa,
    point_force,
    point_potential,
    stack_newton,
    stack_yukawa,
)
from .tables import ResultTable

__version__ = "1.0.0"

__all__ = [
    "BalanceConfig",
    "CODATA2018",
    "ConfigError",
    "Curve",
    "DomainError",
    "ExperimentConfig",
    "FieldKind",
    "GapConfig",
    "InvalidParameterError",
    "LayerMode",
    "MaterialLayer",
    "PlateForcesError",
    "PlateGeometry",
    "PlatePairConfig",
    "PlateStack",
    "PointMassPair",
    "ResultTable",
    "SHEAR_MODULUS",
    "THERMAL_TRUST_MIN_GAP",
    "ThermalModel",
    "TiltConfig",
    "TorsionWire",
    "YukawaParams",
    "alpha_bound",
    "border_correction",
    "casimir_zero_t",
    "electrostatic_force",
    "exclusion_scan",
    "gap_variation_from_tilt",
    "ingest_prior_bounds",
    "load_config",
    "min_detectable_force",
    "parse_length",
    "plate_newton",
    "plate_yukawa",
    "point_force",
    "point_potential",
    "stack_newton",
    "stack_yukawa",
    "thermal_casimir",
    "tilted_casimir",
    "torsion_constant",
    "voltage_control_requirement",
]
