"""Two-layer acoustic transmission scattering and shape reconstruction in 2D.

A Nystrom boundary-integral forward solver for a penetrable interface
with a buried obstacle, and a regularized Newton (Levenberg-Marquardt)
inversion that reconstructs both boundaries and the transmission
constant -- hence the buried obstacle's boundary-condition type -- from
multi-frequency far-field data.
"""

from .errors import (ConfigurationError, DataFormatError, DomainError,
                     GeometryError, LayerscatError, SingularityError,
                     SolverError, StageAbortError)
from .forward import (BoundaryData, BoundaryTraces, DensityVector,
                      MediumParams, TransmissionSystem, assemble_system,
                      observation_directions, oracle_concentric_circles,
                      plane_wave_data, solve_plane_wave)
from .geometry import (DiscretizedBoundary, NodeMap, ParametricCurve,
                       StarlikeShape, discretize, discretize_pair,
                       spectral_derivative, validate_pair)
from .inverse import (IterationRecord, ReconstructionTrace, ShapeState,
                      SolverConfig, classify_boundary, choose_beta,
                      finite_difference_check, hs_norm_sq, lm_step,
                      multi_frequency_drive, newton_iteration, relative_error)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
