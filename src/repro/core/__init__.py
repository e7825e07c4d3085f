"""The paper's algorithms (Holzer & Wattenhofer, PODC 2012).

Module map (see DESIGN.md §3.3 for the paper anchors):

* :mod:`~repro.core.apsp` — Algorithm 1 (APSP in O(n)).
* :mod:`~repro.core.ssp` — Algorithm 2 (S-SP in O(|S| + D)).
* :mod:`~repro.core.properties` — Lemmas 2–7 exact properties.
* :mod:`~repro.core.dominating` — Lemma 10 k-dominating sets.
* :mod:`~repro.core.approx` — Theorem 4 / Corollary 4 / Remarks 1–2.
* :mod:`~repro.core.girth` — Lemma 7 exact + Theorem 5 approx girth.
* :mod:`~repro.core.two_vs_four` — Algorithm 3 / Theorem 7.
* :mod:`~repro.core.prt` — Section 3.6 companions (Corollaries 1–2).
* :mod:`~repro.core.baselines` — Section 3.1 strawmen.
* :mod:`~repro.core.bfs` / :mod:`~repro.core.traversal` — primitives.
"""

from .approx import (
    ApproxPropertyResult,
    ApproxPropertySummary,
    Remark1Result,
    remark2_center_peripheral,
    run_approx_properties,
    run_remark1,
    smoothing_parameter,
)
from .apsp import (
    ROOT,
    ApspGirthNode,
    ApspNode,
    apsp_phase,
    run_apsp,
    validate_apsp_input,
)
from .baselines import (
    DistanceVectorApsp,
    LinkStateApsp,
    SequentialBfsApsp,
    run_baseline_apsp,
)
from .bfs import (
    run_all_two_bfs,
    run_bfs,
    run_k_bfs,
    run_tree_check,
)
from .dominating import DomInfo, compute_dominating_set, run_dominating_set
from .engine import execute
from .girth import (
    GirthEstimate,
    GirthSummary,
    run_approx_girth,
    run_exact_girth,
)
from .leader import (
    LeaderInfo,
    elect_leader,
    relabel_for_apsp,
    run_leader_election,
)
from .properties import PropertyNode, run_graph_properties
from .prt import (
    combined_diameter_estimate,
    combined_girth_estimate,
    run_prt_diameter,
)
from .results import (
    ApspResult,
    ApspSummary,
    PropertyResult,
    PropertySummary,
    SspResult,
    SspSummary,
)
from .ssp import (
    PRIORITY_DIST_ID,
    PRIORITY_ID,
    SspNode,
    run_ssp,
    ssp_main_loop,
)
from .subroutines import (
    TreeInfo,
    aggregate_and_share,
    aligned_broadcast,
    aligned_convergecast,
    build_bfs_tree,
    combine_max,
    combine_min,
    combine_sum,
)
from .traversal import run_pebble_traversal
from .two_vs_four import TwoVsFourSummary, run_two_vs_four

__all__ = [
    "ApproxPropertyResult",
    "ApproxPropertySummary",
    "ApspGirthNode",
    "ApspNode",
    "ApspResult",
    "ApspSummary",
    "DistanceVectorApsp",
    "DomInfo",
    "GirthEstimate",
    "GirthSummary",
    "LeaderInfo",
    "LinkStateApsp",
    "PRIORITY_DIST_ID",
    "PRIORITY_ID",
    "PropertyNode",
    "PropertyResult",
    "PropertySummary",
    "ROOT",
    "Remark1Result",
    "SequentialBfsApsp",
    "SspNode",
    "SspResult",
    "SspSummary",
    "TreeInfo",
    "TwoVsFourSummary",
    "aggregate_and_share",
    "aligned_broadcast",
    "aligned_convergecast",
    "apsp_phase",
    "build_bfs_tree",
    "combine_max",
    "combine_min",
    "combine_sum",
    "combined_diameter_estimate",
    "combined_girth_estimate",
    "compute_dominating_set",
    "elect_leader",
    "execute",
    "relabel_for_apsp",
    "remark2_center_peripheral",
    "run_all_two_bfs",
    "run_approx_girth",
    "run_approx_properties",
    "run_apsp",
    "run_baseline_apsp",
    "run_bfs",
    "run_dominating_set",
    "run_exact_girth",
    "run_graph_properties",
    "run_k_bfs",
    "run_leader_election",
    "run_pebble_traversal",
    "run_prt_diameter",
    "run_remark1",
    "run_ssp",
    "run_tree_check",
    "run_two_vs_four",
    "smoothing_parameter",
    "ssp_main_loop",
    "validate_apsp_input",
]
