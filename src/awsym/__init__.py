"""awsym: numerical anti-Wick / Weyl symbol calculus on discretized phase space."""

from .core import (Grid, GridMismatchError, SampledField, fourier, inner,
                   inverse_fourier, make_grid, sample)
from .gaussians import (AnalyticGaussianSum, GaussFactor, OverflowGuardError,
                        gaussian_1d, radial_gaussian, tensor)
from .gsnorm import (ESpaceReport, GevreyFit, GSEstimate, HoloBoundResult,
                     WeightParams, e_space_divergent, e_space_norm,
                     gevrey_order_estimate, gs_constant, hermite_bound_margin,
                     hermite_l2_log_margin, hermite_sup, holo_bound_check,
                     phi_weight, psi_weight)
from .heat import (DesmoothReport, ESpaceDivergenceError, desmooth_complex,
                   desmooth_fourier, smooth)
from .pairing import (PairingResult, antiwick_pair, antiwick_pair_reference,
                      weyl_symbol)
from .quantize import (AntiWickFromSymbol, CoherentCombo, DenseKernel,
                       OperatorRep, apply_operator, assemble_antiwick,
                       coherent_state, identity_kernel, kernel_from_coherent,
                       kernel_from_weyl, position_grid_of, weyl_from_kernel)

__version__ = "0.1.0"
