"""Exact finite models of torsion-point Galois images in GSp over Z/l^n."""

from .modring import (
    MatrixMod,
    NotInvertible,
    ResidueRing,
    is_prime,
    mat_invert,
    smith_normal_form,
)
from .symplectic import (
    NotAlternating,
    NotSimilitude,
    OrderTooLarge,
    SymplecticSpace,
    m1,
    m1_exhaustive,
    multiplier,
    standard_form,
    tensor_form,
    weil_pairing,
)
from .torsion import (
    TorsionSubgroup,
    full_subgroup,
    subgroup_from_generators,
    trivial_subgroup,
)
from .galois_model import (
    CapExceeded,
    ChainNotIncreasing,
    DegreeReport,
    FullGL2Group,
    MatrixGroup,
    build_degree_report,
    close,
    filtered_subgroup,
    gl2_group,
    orbit_degree_report,
    scenario_cm,
    scenario_selfproduct,
    stabilizer,
)
from .mumford import (
    ExpectationFailed,
    MumfordReport,
    image_order,
    lagrangian_H,
    pointwise_stabilizer_in_image,
    rho,
    verify_mu_s_failure,
)

__version__ = "0.1.0"
