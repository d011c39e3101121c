"""normcert: exact certificates for norm-compatibility of equivariant
chromatic localizations.

The pipeline: build a small finite group and its full subgroup lattice
(:mod:`normcert.groups`), pick the norms an operad provides as a transfer
system (:mod:`normcert.transfers`), describe what a localization kills as a
vanishing locus of Balmer primes (:mod:`normcert.chromatic`), and ask the
engine whether the localization is certified to preserve algebras over the
operad (:mod:`normcert.certify`).
"""

from .certify import (
    CrossValidationReport,
    Decision,
    IndexOutOfRange,
    InvalidHeightVector,
    InvalidLocus,
    NormFailure,
    NotAPrime,
    NotNested,
    Verdict,
    commutative_condition_holds,
    cross_validate_cyclic,
    enumerate_commutative_heights,
    localization_preserves,
    localization_witnesses,
    norm_condition_holds,
    norm_preserves_locus,
    norm_support,
)
from .chromatic import (
    ANY_PRIME,
    INFINITY,
    BalmerPrime,
    HeightVector,
    LatticeMismatch,
    NotCyclicPGroupLattice,
    NotPLocal,
    PrimeTooLarge,
    SupportData,
    VanishingLocus,
    balmer_prime,
    cyclic_power_lattice,
    heights_to_locus,
    is_underlying_determined,
    locus_to_heights,
    support_data,
    support_of_pushforward,
    supports_equal,
    uniform_locus,
    validate_height_vector,
    validate_vanishing_locus,
    vanishing_locus,
)
from .groups import (
    FiniteGroup,
    GroupTooLarge,
    InvalidTable,
    NotSubgroupOfAmbient,
    Subgroup,
    SubgroupLattice,
    UnsupportedSpec,
    build_group,
    cyclic,
    dihedral,
    direct_product,
    from_table,
    quaternion,
    subgroup_lattice,
    symmetric,
)
from .transfers import (
    BoundTooLarge,
    LatticeTooLarge,
    TransferEnumeration,
    TransferSystem,
    Violation,
    close_transfer_system,
    complete_system,
    enumerate_transfer_systems,
    trivial_system,
    validate_transfer_system,
)

__version__ = "0.1.0"
