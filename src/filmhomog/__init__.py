"""Homogenized electrostatics of lattice charge distributions on thin films.

Microscopic lattice charges on a curved film, their exact potentials, the
per-cell polarization/charge descriptors, and the homogenized limit
potential of each regime (thin-over-wide, proportional, wide-over-thin),
together with convergence and unit-cell-invariance studies.
"""

from .charge import Modulation, Motif, MotifPoint, Regime, ScaledChargeDistribution, realize
from .errors import (
    ConfigError,
    DegenerateFrame,
    EmptyTessellation,
    FilmHomogError,
    NumericalError,
    ParseError,
    QuadratureNotConverged,
    RegimeMismatch,
    SingularEvaluation,
    StandoffViolation,
    UnsupportedModulation,
    ValidationError,
)
from .geometry import (
    Edge,
    ParametricMap,
    Rectangle,
    SurfaceFrame,
    surface_frame,
)
from .lattice import Tessellation, UnitCellChoice, cell_index, tessellate
from .moments import (
    MomentFields,
    MomentTable,
    moment_fields,
    moment_table,
)
from .potential import (
    FieldSample,
    ObservationGrid,
    direct_potential,
    homogenized_potential,
)
from .study import (
    ConvergenceReport,
    GaugeReport,
    fit_order,
    make_schedule,
    rebin_motif,
    run_convergence,
    run_gauge,
)

__version__ = "0.1.0"
