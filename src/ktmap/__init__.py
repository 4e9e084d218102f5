"""ktmap: map knowledge translation in citation networks.

Builds the top-cited citation core, scores documents on the basic-clinical
axis, detects hierarchically nested research fronts by modularity
clustering, and locates translational hubs and the SPC main path; synthetic
generators provide planted ground truth for validation.
"""

__version__ = "0.1.0"
KERNEL_BACKEND = "pure"  # one backend left; kept because perfbench run records read it

from .axis import (Stratum, classify, front_mean, homophily_assortativity,
                   score_documents, translational_score)
from .corpus import (CitationNetwork, Document, Lexicon, UGraph,
                     co_citation_projection, count_terms, load_corpus,
                     parse_corpus, write_corpus)
from .fronts import (FrontNode, FrontTree, Partition, fast_greedy,
                     hierarchical_fronts, modularity)
from .hubs import (HubCandidate, HubConfig, MainPath, acyclic_reduction,
                   detect_translational_hubs, hub_regions, main_path)
from .metrics import NodeMetrics, ScalingFit, ck_scaling, node_metrics_table
from .selection import (PowerLawFit, fit_power_law, sample_discrete_power_law,
                        select_top_cited)
from .synth import (GroundTruth, PlantedConfig, gen_deterministic_hierarchical,
                    gen_planted_kt_network, gen_random_graph, nmi)

__all__ = [
    "KERNEL_BACKEND", "__version__",
    "CitationNetwork", "Document", "Lexicon", "UGraph",
    "co_citation_projection", "count_terms", "load_corpus", "parse_corpus",
    "write_corpus",
    "Stratum", "classify", "front_mean", "homophily_assortativity",
    "score_documents", "translational_score",
    "FrontNode", "FrontTree", "Partition", "fast_greedy",
    "hierarchical_fronts", "modularity",
    "HubCandidate", "HubConfig", "MainPath", "acyclic_reduction",
    "detect_translational_hubs", "hub_regions", "main_path",
    "NodeMetrics", "ScalingFit", "ck_scaling", "node_metrics_table",
    "PowerLawFit", "fit_power_law", "sample_discrete_power_law",
    "select_top_cited",
    "GroundTruth", "PlantedConfig", "gen_deterministic_hierarchical",
    "gen_planted_kt_network", "gen_random_graph", "nmi",
]
