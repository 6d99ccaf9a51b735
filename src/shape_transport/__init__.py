"""Shape geodesics and parallel transport for closed planar contours.

Two geometries are provided: the Zahn-Roskies space of turning-function
Fourier coefficients (with its closed-curve submanifold and initial-point
quotient) and Kendall's landmark shape spaces.  Deformations are moved
between shapes by parallel transport along connecting geodesics.
"""

from .errors import (
    AlignmentAmbiguityError,
    DegenerateContourError,
    DimensionMismatchError,
    NumericalError,
    OpenCurveError,
    ParseError,
    ShapeTransportError,
    SingularShapeError,
)
from .zr_space import (
    ZRShape,
    ZRTangent,
    align_initial_point,
    closure_map,
    horizontal_project,
    project_tangent,
    project_to_sigma,
    shape_from_dict,
    shape_to_dict,
    shift_initial_point,
)
from .contour_io import (
    Contour,
    contour_to_zr,
    diameter,
    emit_contour_sequence,
    load_contour,
    zr_to_contour,
)
from .paths import GeodesicPath, TransportResult, path_from_dict
from .zr_geodesic import (
    exp_map,
    fit_geodesic_to_series,
    geodesic_between,
    geodesic_between_invariant,
)
from .zr_transport import transport_invariant, transport_sigma
from .kendall import (
    PreShape,
    exp_kendall,
    geodesic_kendall,
    helmert_submatrix,
    helmertize,
    horizontal_project_k,
    preshape_from_dict,
    preshape_to_dict,
    procrustes_align,
    transport_kendall,
    unhelmertize,
)
from .parallelity import (
    TransplantOutcome,
    compare_growth,
    mu,
    rho,
    transplant_growth,
)
from .polygons import (
    hexagon_sixgon,
    rectangle_sixgon,
    rectangle_sixgon_shifted,
    self_intersects,
)

__version__ = "0.1.0"
