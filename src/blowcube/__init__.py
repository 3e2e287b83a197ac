"""Exact plane Cremona map analysis on cube complexes of blow-up markings."""

from .config import DEFAULTS, RunConfig, from_environment
from .cubes import (CubeComplex, GeodesicResult, GromovReport, Hyperplane,
                    IsometryReport, VertexIsometry, build_complex,
                    check_gromov, classify_isometry, complex_from_dict,
                    complex_to_dict, complex_to_dot, complex_to_json,
                    distance, geodesics, hyperplanes)
from .dynamics import (BallResult, DegreeBoundReport, DegreeGrowth,
                       InvariantsReport, MarkedVertex, MuResult, NuResult,
                       action_on_ball, ball, check_degree_bound, classify,
                       degree_growth_class, exc_count_sequence, marked_vertex,
                       mu, nu1, transition, vertex_distance, vertex_equiv)
from .errors import (BlowcubeError, ComplexError, DegreeCapExceeded,
                     HeightCapExceeded, InverseUnavailable,
                     IrrationalBaseLocus, MapError, OutputError, ParseError,
                     ResolutionError, TransportUnsupported)
from .maps import (ProjMap, builtin, builtin_names, compose, conjugate,
                   degree_sequence, homogenize, identity, inverse, iterate,
                   monomial_degree_sequence, monomial_map, parse_map,
                   verify_inverse)
from .poly import (Poly, factor_q, jacobian_det, parse_poly, poly_exact_div,
                   poly_gcd, poly_mod, poly_str)
from .resolve import (BasePointTree, BubblePoint, ExcComponent,
                      StabilityReport, base_points, bubble_transport,
                      curve_image, exc_components, exc_curves,
                      indeterminacy_points, is_algebraically_stable,
                      parent_closed)

__version__ = "0.1.0"

import types as _types

__all__ = sorted(name for name, value in list(globals().items())
                 if not name.startswith("_")
                 and not isinstance(value, _types.ModuleType))
