"""Exact spectra and level statistics of su(m) spin chains of
Haldane-Shastry type.

The package computes exact level densities of the trigonometric (HS),
rational (PF) and hyperbolic (FI) chains through three independent
backends, evaluates spectral moments in closed form, follows the
characteristic function of the level density through transfer-matrix
products, and provides the unfolding and spacing diagnostics used in
quantum-chaos studies.  A dense-Hamiltonian oracle validates the motif
rules at small size.
"""

__version__ = "0.1.0"

from .chains import (
    ANTIFERRO,
    FAMILIES,
    FERRO,
    ChainSpec,
    DispersionTable,
    dispersion,
    normalized_dispersion,
)
from .crosscheck import CrosscheckReport, run_crosscheck
from .density import (
    LevelMasses,
    LevelSupport,
    composition_density,
    density_dp,
    level_masses,
    level_support,
)
from .errors import CapacityError, ConvergenceError, ValidationError
from .hamiltonian import (
    DenseOperator,
    OracleReport,
    build_hamiltonian,
    chain_sites,
    jacobi_eigenvalues,
    oracle_compare,
)
from .levelstats import (
    SpacingHistogram,
    UnfoldedSpectrum,
    ks_distance,
    normalized_spacings,
    spacing_distribution,
    unfold,
)
from .moments import SpectrumStats, closed_form_moments, empirical_moments
from .motifs import brute_force_density
from .table import DensityTable, format_rational
from .transfer import (
    CharFnSeries,
    ConvergenceReport,
    charfn_asymptotic,
    charfn_exact,
    charfn_from_density,
    charfn_series,
    convergence_report,
)

__all__ = [
    "ANTIFERRO",
    "FAMILIES",
    "FERRO",
    "CapacityError",
    "ChainSpec",
    "CharFnSeries",
    "ConvergenceError",
    "ConvergenceReport",
    "CrosscheckReport",
    "DenseOperator",
    "DensityTable",
    "DispersionTable",
    "LevelMasses",
    "LevelSupport",
    "OracleReport",
    "SpacingHistogram",
    "SpectrumStats",
    "UnfoldedSpectrum",
    "ValidationError",
    "brute_force_density",
    "build_hamiltonian",
    "chain_sites",
    "charfn_asymptotic",
    "charfn_exact",
    "charfn_from_density",
    "charfn_series",
    "closed_form_moments",
    "composition_density",
    "convergence_report",
    "density_dp",
    "dispersion",
    "empirical_moments",
    "format_rational",
    "jacobi_eigenvalues",
    "ks_distance",
    "level_masses",
    "level_support",
    "normalized_dispersion",
    "normalized_spacings",
    "oracle_compare",
    "run_crosscheck",
    "spacing_distribution",
    "unfold",
]
