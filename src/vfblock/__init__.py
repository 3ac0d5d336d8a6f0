"""Certified indices, tracking relations, flowbox line fields and Lie
algebras of planar and toroidal vector fields."""

from .certify import (Block, ZeroEnclosure, certify_block, components,
                      min_norm_on_boundary, zero_enclosure)
from .errors import VfblockError
from .fields import (JetOrder, PlanarField, jet_order, lie_bracket, plane_field,
                     torus_field)
from .flows import Flowbox, flow_integrate, flowbox_build
from .index import (IndexResult, block_index, homotopy_invariance_check,
                    lift_double_cover, perturbation_bound, wedge_check)
from .liealg import (FlagResult, LieAlgebraPresentation, algebra_tracks,
                     common_zero_set, solvability, structure_constants,
                     supersolvable_flag)
from .linefield import factor_y_power, flowbox_line_field
from .poly import Poly2, X, Y
from .regions import Region, annulus, disk, rectangle, torus_full
from .scenario import run_scenario
from .tracking import (TrackingCertificate, component_order_check,
                       tracks_symbolic)
from .trig import TrigPoly2
from .verifier import (TheoremReport, verify_liealg, verify_main,
                       verify_mainbis)

__version__ = "0.1.0"
