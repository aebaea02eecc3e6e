"""Exact cohomology calculator for the standard local model of a Mukai flop.

The model is the projectivized bundle X = P(O + Theta) over P^n with its
flop X+.  Submodules:

  bwb      cohomology of homogeneous bundles on P^n from Levi weights
  pbundle  line-bundle cohomology on X through pushforward and duality
  flop     the Picard involution and the pushpull functors phi / phi' / psi
  homalg   dimension chasing, the Koszul resolution, Ext against the ideal
  verify   named pass/fail suites for the model's dimension claims
  cli      the ``flopcalc`` command-line tool
"""

from .bwb import (
    CohomologyTable,
    HomogeneousBundle,
    LeviWeight,
    bott_cohomology,
    cohomology_sum,
    exterior_power_theta,
    form_bundle,
    line_bundle,
    parse_weight,
    structure_sheaf,
    tangent_bundle,
    twist,
    weyl_dim,
)
from .flop import (
    FMImage,
    FunctorRangeError,
    ImageKind,
    PicMap,
    SpanningClass,
    apply_phi,
    apply_phi_prime,
    apply_psi,
    enumerate_spanning_class,
    phi_pullback,
)
from .homalg import (
    ChaseInconsistencyError,
    ChaseSystem,
    ChaseTerm,
    ChaseUnderdeterminedError,
    chase_solve,
    ext2_ideal_self,
    ext_locally_free_vs_ideal,
    ext_table_OY,
    koszul_resolution,
)
from .pbundle import (
    ModelVariety,
    Side,
    XLineBundle,
    canonical_class,
    cohomology_X,
    hom_dims,
)
from .verify import CheckResult, Status, run_all, run_check

__version__ = "0.1.0"
