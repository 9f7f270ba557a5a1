"""Numerical laboratory for squeezed-light BPSK discrimination.

Signal states are phase-opposite displaced squeezed vacua; the receiver
nulls the displacement, undoes the squeezing, and counts photons.  The
package provides the closed-form benchmarks, the receiver analysis under
ideal / noisy-detector / mismatched-squeezer conditions, and a Monte Carlo
oracle that validates every closed form.
"""

from .benchmarks import (
    crossover_sql_dss_vs_hb_cs,
    hb_dss_opt,
    helstrom_cs,
    helstrom_dss,
    ratio_db,
    sql_cs,
    sql_dss,
    sql_dss_opt,
)
from .errors import BracketError, NumericalConsistencyError
from .fock_statistics import (
    CountDistribution,
    clamp_to_resolution,
    dss_pmf,
    poisson_pmf,
    sv_pmf,
)
from .gaussian_states import (
    SignalDesign,
    design_at_optimal_beta,
    homodyne_pdf,
    make_design,
    optimal_beta,
    wigner_dss,
    wigner_grid,
)
from .monte_carlo import (
    IdealScenario,
    ImperfectScenario,
    MismatchScenario,
    TrialConfig,
    TrialReport,
    simulate,
    simulate_physical_imperfect,
)
from .receiver_ideal import (
    BenchmarkCrossings,
    DecisionProblem,
    DecisionRule,
    crossings_vs_benchmarks,
    ideal_count_pmf,
    ideal_decision,
    map_threshold_ideal,
    p_err_ideal,
    p_err_kennedy,
    ratio_to_helstrom,
    transform_means,
)
from .receiver_imperfect import (
    DetectorModel,
    detected_count_pmf,
    exact_saturation_floor,
    optimal_threshold,
    p_err_imperfect,
    saturation_floor,
)
from .receiver_mismatch import (
    MismatchModel,
    ResidualSqueezing,
    bogoliubov,
    exact_parity_floor,
    first_order_residual,
    map_set_decision,
    mismatch_count_pmf,
    mismatch_problem,
    p_err_mismatch,
    parity_saturation_floor,
    residual,
    spd_mismatch_error,
)

__version__ = "0.1.0"
