"""Exact decisions about finite sequences of 2x2 matrices.

Simultaneous triangularization and simultaneous similarity over exact
integral domains (Z, Q, GF(p), one quadratic extension of Q, Q[t]),
canonical forms under simultaneous conjugation, separating trace
invariants with reconstruction, and finite-field brute-force oracles.
"""

from .errors import (
    BadIndex,
    Char2Unsupported,
    CommutativeInput,
    DegenerateDiscriminant,
    ExactDivisionError,
    InternalInconsistency,
    LengthMismatch,
    LengthTooShort,
    MatseqError,
    NotApplicable,
    NotCanonical1a,
    NotCommutative,
    NotTriangularizable,
    RingMismatch,
    TooLarge,
    TowerTooDeep,
    UnsupportedRing,
    ZeroC2,
    ZeroVector,
)
from .rings import (
    GF,
    QSqrt,
    Q,
    QT,
    RingDescriptor,
    Scalar,
    Z,
    bezout,
    characteristic,
    embed,
    is_coprime_pair,
    primitive_vector,
    ring_from_json,
    ring_to_json,
    scalar_from_json,
    sqrt_in_ring,
    sqrt_with_extension,
    squarefree_part,
    try_sqrt,
)
from .matcore import (
    GroupElement,
    Mat2,
    MatSeq,
    commutator,
    concat,
    conjugate,
    conjugate_mat,
    lift_mat,
    lift_seq,
    mat2,
    matseq_from_json,
    seq,
    subsequence,
)
from .invariants import (
    all_trace_words,
    big_delta,
    big_delta_explicit,
    big_delta_from_gram,
    check_drensky_relations,
    drensky_relation_linear,
    drensky_relation_product,
    drensky_s,
    drensky_u,
    sigma,
    sigma_explicit,
    sigma_from_tau,
    tau,
    tau_explicit,
    trace_word,
)
from .triangular import (
    Profile,
    ReductionInfo,
    TriangularizationWitness,
    commutes,
    complete_unimodular,
    eigenvalues_in_ring,
    eigenvector_for,
    first_obstruction,
    is_commutative,
    is_eigenvector,
    is_triangularizable,
    is_triangularizable_fast,
    maximal_reduction,
    pair_triangularizable,
    singlet_triangularizable,
    triangularize,
)
from .similarity import (
    PhiVector,
    PsiValue,
    SimilarityWitness,
    are_similar,
    in_phi_domain,
    in_psi_domain,
    is_semisimple,
    is_stable,
    phi_prime,
    psi_prime,
    triple_reduction_check,
)
from .canonical import (
    CanonicalResult,
    CanonicalTag,
    DesingularizeTransform,
    canonicalize,
    classify,
    commutative_similar,
    desingularize_for_reconstruction,
    dual_sequence,
    reconstruct_semisimple,
    reconstruct_triangular,
)
from .oracle import (
    GroupTable,
    brute_similar,
    brute_triangularizable,
    enumerate_gl2,
    max_oracle_p,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
