"""Exact computations with reflection groups, the one-parameter quadratic
forms on their reflection classes, and the associated representations."""

from __future__ import annotations

from fractions import Fraction as Rational

from .arrangement import codim2_flats, parabolic_reflections
from .cyclotomic import CycNum, CyclotomicField, cyclotomic_field, totient
from .groups import (
    ReflectionGroupData,
    Refused,
    alpha,
    build_coxeter,
    build_exceptional,
    build_series,
    class_stats,
    k_c,
)
from .krammer import build_krammer, check_braid_relations, cubic_specialization_check
from .matrices import ExactMatrix, char_poly, rank_and_kernel
from .polynomials import M, ParamPoly, integer_roots
from .quadratic import (
    Discriminant,
    check_n_c,
    conjecture_scan,
    discriminant,
    gram_matrix,
    kernel_at,
)
from .rep import (
    RepBundle,
    build_rep,
    check_T_scalar,
    check_equivariance,
    check_integrability,
    dihedral_m0_check,
    parabolic_restriction_check,
    spectrum_check,
)
from .tensor import (
    algebra_dimension,
    ds_table_check,
    psu_membership_check,
    tensor_square_check,
)

__all__ = [
    "Rational",
    "CycNum",
    "CyclotomicField",
    "cyclotomic_field",
    "totient",
    "ExactMatrix",
    "char_poly",
    "rank_and_kernel",
    "M",
    "ParamPoly",
    "integer_roots",
    "ReflectionGroupData",
    "Refused",
    "alpha",
    "build_coxeter",
    "build_exceptional",
    "build_series",
    "class_stats",
    "k_c",
    "codim2_flats",
    "parabolic_reflections",
    "Discriminant",
    "check_n_c",
    "conjecture_scan",
    "discriminant",
    "gram_matrix",
    "kernel_at",
    "RepBundle",
    "build_rep",
    "check_T_scalar",
    "check_equivariance",
    "check_integrability",
    "dihedral_m0_check",
    "parabolic_restriction_check",
    "spectrum_check",
    "algebra_dimension",
    "ds_table_check",
    "psu_membership_check",
    "tensor_square_check",
    "build_krammer",
    "check_braid_relations",
    "cubic_specialization_check",
]
