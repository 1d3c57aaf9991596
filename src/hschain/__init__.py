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
    partition_function_at,
    spin_degeneracy,
)
from .errors import CapacityError, ConvergenceError, ValidationError
from .hamiltonian import (
    DenseOperator,
    OracleReport,
    SiteLayout,
    build_hamiltonian,
    chain_sites,
    jacobi_eigenvalues,
    oracle_compare,
)
from .levelstats import (
    SpacingHistogram,
    UnfoldedSpectrum,
    gaussian_cdf,
    ks_distance,
    normalized_spacings,
    spacing_distribution,
    unfold,
)
from .moments import (
    SpectrumStats,
    closed_form_moments,
    empirical_moments,
    variance_identity_residual,
)
from .motifs import DeltaRule, brute_force_density, delta, motif_energy, motif_of, rule_for
from .table import DensityTable, format_rational
from .transfer import (
    CharFnSeries,
    ConvergenceReport,
    asymptotic_sweep,
    bond_overlap_residual,
    charfn_asymptotic,
    charfn_exact,
    charfn_from_density,
    charfn_series,
    column_sum_residual,
    convergence_report,
    eigenvalues,
    eigenvector_matrix,
    top_eigenvalue_from_phase,
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
    "DeltaRule",
    "DenseOperator",
    "DensityTable",
    "DispersionTable",
    "LevelMasses",
    "LevelSupport",
    "OracleReport",
    "SiteLayout",
    "SpacingHistogram",
    "SpectrumStats",
    "UnfoldedSpectrum",
    "ValidationError",
    "asymptotic_sweep",
    "bond_overlap_residual",
    "brute_force_density",
    "build_hamiltonian",
    "chain_sites",
    "charfn_asymptotic",
    "charfn_exact",
    "charfn_from_density",
    "charfn_series",
    "closed_form_moments",
    "column_sum_residual",
    "composition_density",
    "convergence_report",
    "delta",
    "density_dp",
    "dispersion",
    "eigenvalues",
    "eigenvector_matrix",
    "empirical_moments",
    "format_rational",
    "gaussian_cdf",
    "jacobi_eigenvalues",
    "ks_distance",
    "level_masses",
    "level_support",
    "motif_energy",
    "motif_of",
    "normalized_dispersion",
    "normalized_spacings",
    "oracle_compare",
    "partition_function_at",
    "rule_for",
    "run_crosscheck",
    "spacing_distribution",
    "spin_degeneracy",
    "top_eigenvalue_from_phase",
    "unfold",
    "variance_identity_residual",
]
