"""Anderson-localized quasi-periodic solutions of nonlinear lattice wave
equations: arithmetic non-resonance certification, Green's-function
diagnostics and a staged constructive solver."""

from .errors import (EmptyRegion, FrequencyCollapse, InsufficientData,
                     InsufficientResolution, InvalidAnchors, NonConvergence,
                     NotApplicable, OracleDiverged, OracleTooLarge,
                     OutOfRegion, PreconditionFailed, QPWaveError,
                     RegionTooLarge, ResonantBox, Singular)
from .lattice import RegionSpec, ResonantSet, Site, cube, index_map
from .spectrum import (AdmissibleMScan, Certificate, FrequencyCombination,
                       ModelParams, SublevelResult, admissible_m_scan,
                       check_alpha_dc, check_theta_dc, cluster_count,
                       cluster_scan, d_mu_dm, mu, omega0,
                       separation_certificate, sublevel_measure,
                       transversality_margin, wronskian_det,
                       wronskian_matrix)
from .nonlin import (CoefficientField, convolve, convolve_power,
                     evaluate_solution, linearize, pde_residual, residual,
                     weighted_tail_norm)
from .linop import (GreenReport, LdeScanReport, OperatorSpec, Thresholds,
                    assemble, assemble_sparse, green, green_matrix, lde_scan)
from .solver import (OracleResult, Solution, SolverConfig, StageRecord,
                     brute_force_oracle, compare_with_oracle, decay_fit,
                     initial_field, p_step, q_step, solve)

__version__ = "0.1.0"
