"""Non-extensive thermodynamic formalism on the one-sided full shift.

Deformed exponential/logarithm calculus, static and dynamical q-entropies
and pressures, the classical and deformed transfer-operator equations, an
asymptotic pressure from exact level-set counts, and variational scans used
as independent cross-checks.
"""

import os as _os
import sys as _sys

# Mirror QTHERMO_THREADS into the BLAS thread knobs before numpy loads.
if "QTHERMO_THREADS" in _os.environ and "numpy" not in _sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["QTHERMO_THREADS"])

from .errors import (
    NonConvergenceError,
    QExpDomainError,
    QLogDomainError,
    QThermoError,
    SizeGuardError,
)
from .qfun import (
    IdentityReport,
    QParam,
    dexp_q,
    dlog_q,
    even_power_order,
    exp_q,
    exp_q_extended,
    identity_suite,
    log_q,
)
from .shift import Potential, all_words, index_word, preimage_words, word_index
from .staticq import (
    StaticEquilibrium,
    beta_sweep,
    meson_vericat_bernoulli,
    q_entropy_vec,
    renyi_entropy,
    renyi_from_q_entropy,
    static_q_pressure,
    static_q_pressure_scan,
)
from .ruelle import (
    Jacobian,
    MarkovMeasure,
    classical_pressure,
    equilibrium_markov,
    ks_entropy,
    leading_eig,
    normalize,
    q_entropy_markov,
    q_entropy_variational,
    random_jacobian,
    relative_q_entropy,
    transfer_matrix,
)
from .qsolve import (
    SolveResult,
    a_q_transform,
    bridge_half,
    derivative_identity_report,
    explimeq_family,
    jana_closed_form,
    pressure_derivative,
    q_equilibrium,
    qruelle_residual,
    qruelle_solve,
    supex_closed_form,
)
from .subadd import (
    SumBuckets,
    asymptotic_pressure,
    frak_L_n,
    log_frak_L_sequence,
    phi_n,
    variational_scan_subadd,
)
from .variational import (
    EntropySurface,
    ScanResult,
    entropy_affinity_report,
    entropy_surface,
    midpoint_concavity_report,
    q_pressure_scan,
)

__version__ = "0.1.0"

__all__ = [
    "EntropySurface",
    "IdentityReport",
    "Jacobian",
    "MarkovMeasure",
    "NonConvergenceError",
    "Potential",
    "QExpDomainError",
    "QLogDomainError",
    "QParam",
    "QThermoError",
    "ScanResult",
    "SizeGuardError",
    "SolveResult",
    "StaticEquilibrium",
    "SumBuckets",
    "a_q_transform",
    "all_words",
    "asymptotic_pressure",
    "beta_sweep",
    "bridge_half",
    "classical_pressure",
    "derivative_identity_report",
    "dexp_q",
    "dlog_q",
    "entropy_affinity_report",
    "entropy_surface",
    "equilibrium_markov",
    "even_power_order",
    "exp_q",
    "exp_q_extended",
    "explimeq_family",
    "frak_L_n",
    "identity_suite",
    "index_word",
    "jana_closed_form",
    "ks_entropy",
    "leading_eig",
    "log_frak_L_sequence",
    "log_q",
    "meson_vericat_bernoulli",
    "midpoint_concavity_report",
    "normalize",
    "phi_n",
    "pressure_derivative",
    "preimage_words",
    "q_entropy_markov",
    "q_entropy_variational",
    "q_entropy_vec",
    "q_equilibrium",
    "q_pressure_scan",
    "qruelle_residual",
    "qruelle_solve",
    "random_jacobian",
    "relative_q_entropy",
    "renyi_entropy",
    "renyi_from_q_entropy",
    "static_q_pressure",
    "static_q_pressure_scan",
    "supex_closed_form",
    "transfer_matrix",
    "variational_scan_subadd",
    "word_index",
]
