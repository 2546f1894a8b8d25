"""Exact calculator for degreewise (Segre) products of standard graded
algebras: Hilbert series arithmetic, toric presentations, depth and
Cohen-Macaulay classification of twisted products, and brute-force
truncated-module cross checks."""

__version__ = "0.1.0"

from .cohomo import (DepthReport, TwistInterval, TwistedFactor, Witness,
                     anticanonical_cm_m2, canonical_power_cm, cm_chain,
                     cm_twist_interval, cm_uniform_twist,
                     cm_uniform_twist_raw, cohomology_support, dual_shift)
from .errors import (BadTwist, DimensionTooSmall, DomainError, EmptyWindow,
                     NotApplicable, NotPositive, NotSorted,
                     NotStandardGraded, ReconstructionFailed, ResourceCap,
                     SegreError, WindowTooSmall)
from .oracle import (FriendlinessReport, HomWindowReport, TruncatedModule,
                     algebra_from_monomial_quotient, algebra_from_toric,
                     friendliness_witness, hom_window, segre_module,
                     shift_module)
from .series import CoefficientWindow, HilbertSeries, format_series, parse_series
from .toric import (LatticeBasis, SemigroupCensus, ToricPresentation, census,
                    kernel_lattice, segre, tensor, validate)

__all__ = [name for name in dir() if not name.startswith("_")]
