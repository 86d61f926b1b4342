"""Numerical verification engine for the graph geometry of maps between surfaces."""

from .errors import ChartDomainError, ConfigError, NumericalError
from .surface import ConformalMetric, FactorKind, GridChart, TheoremHypotheses
from .expressions import MapExpr
from .pointwise import (
    MapField, PointwiseGrid, area_cosines, pointwise_grid, singular_decomposition,
)
from .graph_geometry import GraphGrid, ambient_curvature, graph_grid
from .verifier import (
    Certificate, ConvergenceStudy, HypothesisCheck, MinimumProbe, ProbeStatus,
    ResidualReport, area_decreasing_certificate, check_hypotheses,
    interior_minimum_probe, refinement_study, verify_form_laplacian,
    verify_gradient_identities, verify_jacobian_laplacians,
    verify_pullback_derivative,
)
from .flow import (
    FlowConfig, FlowResult, FlowState, MonitorRow, make_state, run_to_minimal,
    step, tension_pass, write_monitors_csv, write_snapshot,
)
from .presets import SCENARIOS, map_preset, parse_map_spec, parse_metric_spec

__version__ = "0.1.0"
