"""Arc-transitive graphs whose quotient by an invariant vertex partition is
a complete graph: the cross-ratio and design-based constructions, their
parameters, and the classification machinery tying them together."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    CatalogError,
    ClassificationError,
    ConstructionError,
    DesignError,
    FieldError,
    GraphError,
    GroupError,
    NotSelfPairedError,
    SymquotError,
)
from .ffield import FiniteField, FieldElement, ProjPoint, INFINITY, field  # noqa: F401
from .permgroup import Permutation, PermutationGroup  # noqa: F401
from .groups_catalog import (  # noqa: F401
    agl,
    m_group,
    mathieu,
    pgammal_subgroup,
    pgl2,
    psl2,
    sym_alt,
    three_transitive_pgammal_list,
    z24_a7,
)
from .graphs import (  # noqa: F401
    Graph,
    Partition,
    StructureTag,
    connected_components,
    cross_counts,
    graph_from_dimacs,
    graph_from_graph6,
    graph_from_json,
    graph_to_dimacs,
    graph_to_graph6,
    graph_to_json,
    has_intra_block_edges,
    is_g_symmetric,
    orbital_graph,
    quotient_graph,
    recognize_structure,
)
from .designs import (  # noqa: F401
    IncidenceStructure,
    ag_design,
    design_3_12_6_2,
    design_from_partition,
    steiner_3_22_6,
)
from .constructions import (  # noqa: F401
    AFFINE_NON_PLANE,
    AFFINE_PLANE,
    ALL_DISTINCT,
    COMMON_TWO_POINTS,
    DISJOINT_BLOCKS,
    M22_DISJOINT,
    M22_MEET_TWO,
    OPPOSITE_NON_COMPLEMENT,
    SAME_BLOCK,
    SAME_SECOND,
    FlagRule,
    PairRule,
    Provenance,
    Triple,
    cross_ratio_graph,
    flag_graph,
    matching_graph,
    pair_graph,
    star_transform,
    twisted_cross_ratio_graph,
)
from .classify import (  # noqa: F401
    HYPOTHESIS_NAMES,
    CensusRow,
    ClassificationVerdict,
    TripleParams,
    census,
    classify_triple,
    compute_params,
    corollary_case,
    orbit_length_check,
    verify_hypotheses,
)
