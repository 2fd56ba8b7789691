"""Non-extensive thermodynamic formalism on the one-sided full shift.

Deformed exponential/logarithm calculus, static and dynamical q-entropies
and pressures, the classical and deformed transfer-operator equations, an
asymptotic pressure from exact level-set counts, and variational scans used
as independent cross-checks.
"""

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
