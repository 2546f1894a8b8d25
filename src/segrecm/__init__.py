"""Exact calculator for degreewise (Segre) products of standard graded
algebras: Hilbert series arithmetic, toric presentations, depth and
Cohen-Macaulay classification of twisted products, and exact graded Hom
counts that test whether duals commute with the product."""

__version__ = "0.1.0"

from .cohomo import (DepthReport, TwistInterval, Witness, anticanonical_cm_m2,
                     canonical_power_cm, cm_chain, cm_twist_interval,
                     cm_uniform_twist, cm_uniform_twist_raw,
                     cohomology_support, dual_shift)
from .errors import (BadTwist, DimensionTooSmall, DomainError, NotApplicable,
                     NotPositive, NotSorted, NotStandardGraded,
                     ReconstructionFailed, ResourceCap, SegreError,
                     WindowTooSmall)
from .oracle import (Factor, FriendlinessReport, friendliness, monomial_factor,
                     toric_factor)
from .series import HilbertSeries, format_series, parse_series
from .toric import (SemigroupCensus, ToricPresentation, census, kernel_lattice,
                    segre, tensor, validate)

__all__ = [name for name in dir() if not name.startswith("_")]
