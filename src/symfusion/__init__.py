"""Exact constructions of symmetrizers on tensor space via the fusion
procedure, their analogues for orthogonal and symplectic forms, and
machine verification of the operator identities they satisfy."""

from .exactnum import DivisionByZero, PoleAtLimit
from .shapes import (ContainmentError, ParityError, Partition, SkewShape,
                     StandardTableau, column_tableau, conjugate,
                     count_semistandard, dim_sym_irrep, row_tableau, skew,
                     standard_tableaux, validate_label)
from .symalg import (GroupAlgebraElement, Permutation, chain_from_row,
                     compose, e_col, e_row, e_skew_extract, e_tableau,
                     fusion_e_skew, iota, theta, young_p, young_q)
from .tensorop import (BilinearForm, SparseOperator, SubspaceBasis, act,
                       dual_basis, image_basis, kernel_basis, perm_op, q_op,
                       rank, traceless_basis)
from .fusion import (FusionCertificate, FusionConfig, NotApplicable,
                     SizeLimitExceeded, e_operator, f_operator_general,
                     verify_corollary32, verify_divisibility, verify_prop33,
                     verify_scaled_idempotent, verify_theta_factorization)

__version__ = "0.1.0"
