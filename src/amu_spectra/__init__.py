"""Synthetic spectra and approximately macroscopically unique states.

Numerics for n-tuples of Hermitian matrices: ordered bump products and
their acceptance scans, AMU state search via the ground states of
localization operators, superpositions aimed at convex targets, and
essential-spectrum estimates through interior-window compressions.
"""
from .constants import GRID_POINT_CAP, TOL, Tolerances
from .errors import (
    DimensionMismatch,
    GridCapExceeded,
    HullDistanceError,
    NearDependence,
    NumericalError,
    SpectraError,
    TupleFormatError,
)
from .linalg import (
    HermitianMatrix,
    band_ground_eigenpairs,
    eig_hermitian,
    gram_schmidt,
    ground_eigenpair,
    operator_norm,
)
from .observables import (
    AmuCertificate,
    MeasurementReport,
    OperatorTuple,
    VectorState,
    amu_check,
    commutator_profile,
    measure,
)
from .calculus import (
    BumpFactorCache,
    ThetaProduct,
    bump_values,
    theta_product,
)
from .spectrum import (
    GridSpec,
    SyntheticSpectrumResult,
    build_grid,
    grid_step_count,
    hausdorff,
    scan,
)
from .search import (
    SuperpositionPlan,
    amu_at,
    amu_batch,
    localization_operator,
    solve_simplex_lsq,
    superpose,
    uses_band_path,
)
from .essential import (
    EssentialLevel,
    EssentialSpectrumEstimate,
    essential_spectrum_estimate,
)
from .models import (
    FAMILIES,
    ModelSpec,
    generate,
    load_tuple,
    save_tuple,
)

__version__ = "0.1.0"
