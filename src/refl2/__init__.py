"""refl2: exact invariant theory for characteristic-2 reflection groups.

Builds the rank-3 transvection groups whose restriction to an invariant
plane is SL2(GF(2^n)), constructs their Dickson-style invariants, and
machine-checks polynomiality of the invariant ring via the degree
product / Jacobian criterion plus an independent graded fixed-space
oracle.
"""

from refl2 import linalg  # noqa: F401  (tracers look every refl2 module up)
from refl2.ffield import (
    DEFAULT_MODULI,
    Fel,
    FieldCtx,
    field_new,
    mult_generator,
    subfield_elements,
    subfield_generator,
)
from refl2.grouplift import (
    ClosureCapError,
    GroupSet,
    LambdaSpace,
    Mat3,
    SplitReport,
    closure,
    cocycle_f,
    cocycle_g,
    default_lambda_basis,
    h_gamma,
    kernel_group,
    lambda_enumerate,
    lift_generators,
    sl2_generators,
    verify_splitting,
)
from refl2.invariants import (
    ActionDescriptor,
    ActionShapeError,
    composed_invariants,
    dickson_pair,
    dickson_support_check,
    dickson_u,
    kernel_action,
    kernel_invariants,
    lifted_dickson_c0,
    lifted_invariants,
)
from refl2.mvpoly import MultiPoly, Substitution, div_exact_z, jacobian_det
from refl2.verify import (
    GeneratorExpr,
    KemperVerdict,
    NotExpressibleError,
    NotInvariantError,
    express_in_generators,
    fixed_dimensions,
    generated_dimension,
    graded_fixed_dimension,
    is_invariant,
    kemper_check,
)

__all__ = [
    "DEFAULT_MODULI",
    "Fel",
    "FieldCtx",
    "field_new",
    "mult_generator",
    "subfield_elements",
    "subfield_generator",
    "ClosureCapError",
    "GroupSet",
    "LambdaSpace",
    "Mat3",
    "SplitReport",
    "closure",
    "cocycle_f",
    "cocycle_g",
    "default_lambda_basis",
    "h_gamma",
    "kernel_group",
    "lambda_enumerate",
    "lift_generators",
    "sl2_generators",
    "verify_splitting",
    "ActionDescriptor",
    "ActionShapeError",
    "composed_invariants",
    "dickson_pair",
    "dickson_support_check",
    "dickson_u",
    "kernel_action",
    "kernel_invariants",
    "lifted_dickson_c0",
    "lifted_invariants",
    "MultiPoly",
    "Substitution",
    "div_exact_z",
    "jacobian_det",
    "GeneratorExpr",
    "KemperVerdict",
    "NotExpressibleError",
    "NotInvariantError",
    "express_in_generators",
    "fixed_dimensions",
    "generated_dimension",
    "graded_fixed_dimension",
    "is_invariant",
    "kemper_check",
]
