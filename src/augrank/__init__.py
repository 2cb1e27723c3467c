"""Braid satellites and maximal-rank augmentation certificates.

Library layout:

- :mod:`augrank.braids` - braid words, permutations, cables, satellites
- :mod:`augrank.freealg` - exact arithmetic in the free generator algebra, on a
  sparse-polynomial core shared with the tensor products of the splitting map
- :mod:`augrank.action` - the braid action and its left/right matrices
- :mod:`augrank.splitting` - the cable-to-tensor splitting homomorphism
- :mod:`augrank.checks` - the exact identity suites and their report type,
  :class:`CheckReport`
- :mod:`augrank.augment` - residuals, rank, the certificate search, and the
  deterministic satellite construction
- :mod:`augrank.jsonio` - deterministic JSON output and strict number fields
- :mod:`augrank.cli` - command-line front end
"""

from .braids import (
    BraidWord,
    Perm,
    cable,
    component_count,
    include_bar,
    iterated_torus_braid,
    perm,
    satellite_braid,
    tau_word,
    torus_braid,
    writhe,
)
from .freealg import Assignment, NCPoly, TermBudgetError
from .action import (
    PhiMatrix,
    cabled_generator_closed_form,
    chain_compose,
    kappa_closed_form,
    phi,
    phi_left,
    phi_left_direct,
    phi_letter,
    phi_matrices,
    phi_right,
    phi_right_direct,
    tau_closed_form,
)
from .splitting import (
    TensorPoly,
    psi,
    psi_star,
    split_index,
    verify_cable_matrix_split,
    verify_commutes,
    verify_sum_collapse,
)
from .checks import check_block_structure
from .augment import (
    ACCEPT_TOL,
    Certificate,
    ConstructionError,
    MuOneError,
    NotFound,
    SolveOptions,
    aug_rank,
    construct_satellite_aug,
    eval_phi_matrices,
    full_rank_residual,
    ideal_residual,
    matrix_a,
    matrix_delta,
    nonexistence_search,
    numerical_rank,
    sign_vector,
    solve_full_rank,
)

__version__ = "0.1.0"
