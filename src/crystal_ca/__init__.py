"""Crystals of non-exceptional affine types, the combinatorial R matrix in
oracle and factorized form, and soliton cellular automata built on them."""

from .algebra import FAMILIES, AlgebraSpec, TranslationData, bar, is_barred
from .automaton import (
    AutomatonState,
    column_diagram_check,
    dual_vertex_step,
    evolve_T,
    evolve_T_factorized,
    evolve_carrier,
    evolve_fine,
    parse_state,
    vertex_step,
)
from .backends import (
    BackendMissing,
    BuiltinA1,
    GraphError,
    GraphProvider,
    Providers,
    admission_errors,
    export_graph_text,
    load_graph,
    make_backend,
)
from .crystal import (
    CapExceeded,
    CrystalElement,
    FormatError,
    Tensor,
    apply_e,
    apply_f,
    clear_tables,
    delta,
    e_max,
    enumerate_crystal,
    eps,
    f_max,
    from_counts,
    parse_element,
    parse_tensor,
    phi,
    sigma_letterwise,
    sigma_letterwise_pow,
    sigma_via_weyl,
    t_closed,
    t_def,
    weyl_s,
)
from .rmatrix import (
    InapplicableError,
    RMatrixError,
    UnreachedElement,
    apply_r_at,
    domain_gap,
    get_table,
    in_domain,
    r_composite,
    r_elementary,
    r_factorized,
    sample_domain_element,
    verify_theorem,
    yang_baxter_check,
)

__version__ = "0.1.0"
