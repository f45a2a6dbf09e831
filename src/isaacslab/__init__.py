"""Zero-sum stochastic games with priority rules, discretized and verified.

The package computes lattice values and Markov saddle strategies for
two-player zero-sum diffusion games in which the order of moves within
each short round is set by deterministic 0/1 marks or by a biased coin,
simulates play by Monte Carlo, and checks convergence of the discrete
values against a monotone finite-difference solution of the
priority-weighted Isaacs equation.
"""

from .engine import (
    CoinSource,
    DeterministicMode,
    GameValueTables,
    MarkovStrategyU,
    MarkovStrategyV,
    NoiseSource,
    RandomMode,
    TransitionModel,
    build_lattice,
    dp_value_deterministic,
    dp_value_random,
    exploitability,
    simulate,
)
from .pde import SpatialGrid, ValueField, cfl_max_dt, isaacs_gap, solve
from .problem import (
    ActionSet,
    CoefficientSpec,
    PayoffSpec,
    PrioritySpec,
    ProblemSpec,
    validate_assumptions,
)
from .schedule import (
    DensityReport,
    MarkSequence,
    Partition,
    SubGrid,
    check_density,
    make_marks,
    make_uniform_partition,
)
from .static_game import (
    LocalGameMatrix,
    StaticSaddle,
    play_one_period,
    representation_residual,
    saddle,
)

__version__ = "0.1.0"
