"""Exact and high-precision correlation functions for the six-vertex model
with domain wall boundary conditions.

Four independent engines compute the generalized emptiness formation
probability and cross-validate each other at desk scale: direct weighted
enumeration (``oracle``), the inhomogeneous N x N determinant/recurrence
pair (``inhom``, in ``ik``), the homogeneous s x s K-polynomial operator
determinant (``jets``), and iterated-residue extraction from the multiple
integral representation (``residue``).  The homogeneous limit of the
N x N determinant is computed only in its reduced s x s form, ``jets``.
"""

from .algebra import Jet, TruncatedSeries, UniPoly, det
from .backends import EXACT, FLOAT, default_precision_bits
from .errors import (BadIndex, BranchPole, DivisionByZero, DuplicateRapidity,
                     GefpLabError, NonphysicalWeights, NotInvertible,
                     SingularHankel, TooLarge, Unsupported)
from .gefp import (IntegrandSeries, JetsWorkspace, OmegaRho, gefp_determinant_jets,
                   gefp_residue, jets_workspace, residue_workspace)
from .hfun import (PoleDeformationReport, boundary_H_table_via_K, build_h_tables,
                   h_multivariate, h_polynomial, h_via_inhomogeneous_Z,
                   kfint_check, pole_deformation_check, reflect_substitute)
from .ik import (gefp_inhom_determinant, gefp_inhom_recurrence, hankel_factor,
                 homogeneous_partition_jets, ik_partition, k_polynomial,
                 partially_inhomogeneous_partition, phi_derivatives)
from .oracle import (CorrelationResult, NaiveEnumeration, WeightGrid,
                     YoungProfile, all_profiles, boundary_distribution_oracle,
                     enumerate_naive, gefp_oracle, modified_domain_partition,
                     partition_function_oracle, reduced_partition_oracle,
                     reduced_modified_domain_partition)
from .params import (SpectralData, VertexWeights, delta_t_from_trig, exact_sqrt,
                     lambda_eta_from_delta_t, weights_from_trig)

__version__ = "0.1.0"
