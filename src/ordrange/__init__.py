"""Monotone self-maps of a finite chain with restricted range.

The library enumerates, for the chain {1 < ... < n} and a nonempty
subset Y, the semigroup of all weakly increasing self-maps whose values
stay inside Y, and computes its regular part, Green's relations, the
completability of partial maps, minimum generating sets with the exact
rank, and the isomorphism classification between two such semigroups.
Every characterized fact ships next to a definition-based brute-force
oracle so the two can be checked against each other.
"""

from .chain import (
    ChainMap,
    ConvexPartition,
    DimensionMismatch,
    DomainError,
    GuardExceeded,
    PartialMap,
    RangeSet,
    ceiling_extension,
    compose,
    constant,
    floor_extension,
    identity,
    image,
    kernel,
    maps_into,
    reflect,
    reflect_set,
    values,
)
from .completability import (
    build_extension,
    canonical_order_isomorphism,
    complete_extensions,
    count_extensions,
    is_completable,
)
from .enumeration import (
    SemigroupTable,
    count_maps,
    enumerate_elements,
    enumerate_semigroup,
)
from .generators import (
    GeneratingSet,
    TaggedGenerator,
    captive_set,
    ceiling_retraction,
    corank_one_generator,
    factor_raising_rank,
    floor_retraction,
    full_image_map,
    full_image_maps,
    generates,
    minimal_generating_sets,
    minimum_generating_set,
    missing_index,
    prefix_shift_generator,
    rank_by_formula,
    rank_by_search,
    slide_to_missing_index,
    suffix_shift_generator,
)
from .green import (
    egg_box,
    green_classes,
    green_classes_by_ideals,
    green_key,
    green_partitions,
    green_partitions_by_ideals,
)
from .isomorphism import (
    are_isomorphic,
    find_isomorphism,
    induced_range_bijection,
    is_isomorphism,
    isomorphism_condition,
)
from .regularity import (
    is_regular,
    is_regular_by_search,
    is_semigroup_regular,
    regular_elements,
)
from .words import express_in_generators, product_of

__version__ = "0.1.0"
