"""Sparse symbolic node embeddings from random-walk neighborhood hashes.

Pipeline: hash each node's walk neighborhood into a pruned sparse frequency
vector, rank nodes by PageRank, and describe every node by its similarity
to the top-ranked pivot nodes.  Columns map back to concrete nodes, so each
feature value reads as "how similar is this node's neighborhood to pivot
X", which keeps downstream models explainable.
"""

from .graph import (DatasetStats, Graph, GraphFormatError, LabelError,
                    LabelTable, connected_components, dataset_stats,
                    from_arcs, load_edge_list, load_labels, write_edge_list)
from .walks import WalkConfig, dump_hashes, hash_all, walk_lengths
from .ranking import ConvergenceWarning, PageRankConfig, pagerank, rank_nodes
from .embedding import (METRICS, Embedding, EmbeddingConfig,
                        EmbeddingFormatError, compute_variances, embed_fixed,
                        embed_sdf, load_embedding, save_embedding)
from .evaluation import (EvalReport, ProtocolConfig, ProtocolError,
                         label_propagation, logreg_loss_grad, micro_macro_f1,
                         random_embedding, run_protocol, run_protocol_lp,
                         topk_sets, train_logreg)
from .synth import planted_partition, random_graph

__version__ = "0.1.0"

__all__ = [
    "DatasetStats", "Graph", "GraphFormatError", "LabelError", "LabelTable",
    "connected_components", "dataset_stats", "from_arcs", "load_edge_list",
    "load_labels", "write_edge_list",
    "WalkConfig", "dump_hashes", "hash_all", "walk_lengths",
    "ConvergenceWarning", "PageRankConfig", "pagerank", "rank_nodes",
    "METRICS", "Embedding", "EmbeddingConfig", "EmbeddingFormatError",
    "compute_variances", "embed_fixed", "embed_sdf", "load_embedding",
    "save_embedding",
    "EvalReport", "ProtocolConfig", "ProtocolError",
    "label_propagation", "logreg_loss_grad", "micro_macro_f1",
    "random_embedding", "run_protocol", "run_protocol_lp", "topk_sets",
    "train_logreg",
    "planted_partition", "random_graph",
]
