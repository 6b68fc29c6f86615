"""Simulation of inhomogeneous Poisson point processes on the real line."""

__version__ = "0.1.0"

from .errors import (
    BoundViolation,
    DomainViolation,
    EvalError,
    InvalidIndex,
    InvalidMean,
    InvalidParameter,
    InvalidRate,
    InvalidShape,
    IpppError,
    LexError,
    NegativeRate,
    NonTermination,
    OutOfRange,
    ParseError,
    ToleranceNotMet,
    UnknownFunction,
    UnknownVariable,
    ZeroMass,
    ZeroRate,
)
from .quadrature import CumulativeIntensity, cumulative_intensity, integrate
from .rate_expr import evaluate, parse, parse_text, tokenize
from .rate_model import Domain, Interval, RateModel
from .rng import RngState
from .sampling_bounded import (
    EventSet,
    expected_count,
    location_cdf,
    location_density,
    order_statistic_density,
    sample_count,
    sample_location,
    simulate_conditional,
    simulate_window,
)
from .sampling_line import (
    Direction,
    NthPointQuery,
    nth_point_density,
    nth_point_mass,
    sample_nth_point,
    sample_nth_points,
    sample_path_time_change,
)
