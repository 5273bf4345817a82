"""Exact square-map fibers and real conjugacy class counts for finite
classical groups over odd-order fields, audited against brute force."""

__version__ = "0.1.0"

from .ffpoly import (
    Field,
    Poly,
    conj_reciprocal,
    factorize,
    field_from_order,
    field_make,
    is_irreducible,
    monic_irreducibles,
    mult_order,
    reciprocal,
    root_order,
    substitute_power,
)
from .gl_classes import (
    ClassData,
    centralizer_order,
    class_count,
    class_size,
    element_order_of_class,
    enumerate_classes,
    gl_order,
    inverse_class,
    make_class_data,
    representative_matrix,
)
from .partitions import (
    Partition,
    gamma_exponent,
    halve_multiplicities,
    partitions_of,
)
from .power_poly import (
    ButlerProfile,
    ReciprocalFamily,
    SkewTwoPower,
    TwoPower,
    butler_profile,
    classify2,
    classify2_star,
    classify2_tilde,
    is_self_conjugate,
    is_self_reciprocal,
)
from .real_classes import (
    count_order_dividing,
    count_order_exactly,
    count_unity_roots_gf,
    real_class_count_direct,
    real_class_count_ms,
    real_class_count_theorem,
    s2_cardinality,
)
from .square_fibers import (
    ClosedFormUndefined,
    audit_square_counts,
    count_square_roots,
    has_square_root_gl,
    has_square_root_symplectic,
    has_square_root_unitary,
    closed_form_count,
    square_class,
    square_root_classes,
)
from .brute_oracle import GroupSpec, enumerate_group

__all__ = [name for name in dir() if not name.startswith("_")]
