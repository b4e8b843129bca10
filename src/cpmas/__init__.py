"""Cross-polarization dynamics for a heteronuclear spin pair under MAS.

Closed-form transfer curves from the accumulated dipolar phase, validated
against an independent density-matrix propagator; powder averaging over
orientation ensembles; and least-squares fitting of measured build-up
curves for couplings, distances and relaxation rates.
"""

from .analytic import (RelaxationParams, efficiency_curve, magnetization,
                       transfer_efficiency)
from .core import (CouplingParams, EffectiveField, Orientation, RfScheme,
                   SpinningParams, TimeGrid, dipolar_coupling_at,
                   dipolar_phase, effective_field, tilt_scale)
from .fitting import (BuildUpData, FitResult, FitSpec, coupling_from_distance,
                      distance_from_coupling, fit_buildup, load_buildup,
                      model_curve, save_buildup)
from .oracle import (ZqDqComponents, dq_constancy_report, hamiltonian_at,
                     matrix_exponential_step, propagate_blockwise,
                     zq_dq_decompose)
from .powder import (OrientationSet, averaged_efficiency, grid_orientation_set,
                     powder_average, zcw_orientation_set)

__version__ = "0.1.0"
