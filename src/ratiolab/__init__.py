"""ratiolab: ratio vectors of cubic polynomials with complex roots.

Given a cubic with three distinct roots ordered by real part, the ratio
vector locates each critical point between consecutive roots:

    sigma1 = (z1 - w1) / (w2 - w1),   sigma2 = (z2 - w2) / (w3 - w2).

The package computes the ratios three independent ways (direct definition,
closed forms in w = w2/w3, ray formulas), verifies the bound and
equivalence catalog numerically, maps the w-plane into datasets, and cross
checks the critical points against a geometrically fitted midpoint
inellipse (its foci are the critical points).
"""

from .cubic import (
    AdmissibilityReport,
    Configuration,
    NormalizedCubic,
    OrderedCubic,
    assess_admissibility,
    classify_configuration,
    critical_points_bruteforce,
    critical_points_direct,
    normalize,
    order_roots,
)
from .errors import (
    BadParameterError,
    BadRangeError,
    ConstraintViolatedError,
    CriticalRealPartsEqualError,
    DegenerateTriangleError,
    NotAdmissibleError,
    NotHyperbolicError,
    OutsideDomainError,
    RatioLabError,
    RootRealPartsEqualError,
    RootsNotDistinctError,
    ScaleGuardError,
    UndefinedRatioError,
)
from .kernel import EQ_TOL, IDENTITY_TOL, SQRT3, principal_sqrt
from .mapping import (
    InEllipse,
    emit_dataset,
    is_reachable,
    ratio_angles,
    steiner_inellipse,
    sweep_w_grid,
    trace_boundary,
)
from .ratios import (
    RatioPath,
    RatioVector,
    boundary_modulus_sq,
    boundary_sigma1,
    boundary_sigma_diff,
    boundary_uv,
    closed_forms_array,
    f_extension,
    g_extension,
    identity_residual,
    ratios_direct,
    ratios_via_w,
)
from .records import SampleRecord
from .sampling import (
    sample_collinear,
    sample_equilateral,
    sample_hyperbolic,
    sample_near_equilateral,
    sample_ordered_cubics,
)
from .theorems import (
    CLAIM_GROUPS,
    DEFAULT_SEED,
    TheoremReport,
    bounds_mask,
    check_bounds,
    check_equivalence_t4,
    check_equivalence_t5,
    check_hyperbolic,
    extremal_family_im,
    run_claims,
    scan_lemma1,
    scan_lemma2,
    sharpness_probe_re,
    sigma2_extremal_family,
)

__version__ = "0.1.0"
