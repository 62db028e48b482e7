"""Force budget and Yukawa reach of a parallel-plate Casimir experiment.

The package root exports what a script needs to drive the four
commands: the config and prior readers, the experiment record, the
result table and the error types.  Everything else is imported from
its module:

- core: constants, geometry, materials
- casimir: zero-T/thermal Casimir forces
- gravity: slab Newton/Yukawa forces
- budget: electrostatic background of the plates
- balance: torsion-wire sensitivity and plate-tilt effects
- exclusion: alpha(lambda) exclusion curves from a force resolution
- config/tables/cli: experiment files, CSV tables, command line
"""

from .config import ExperimentConfig, ingest_prior_bounds, load_config, parse_length
from .errors import ConfigError, DomainError, InvalidParameterError, PlateForcesError
from .tables import ResultTable

__version__ = "1.0.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "ExperimentConfig",
    "InvalidParameterError",
    "PlateForcesError",
    "ResultTable",
    "ingest_prior_bounds",
    "load_config",
    "parse_length",
]
