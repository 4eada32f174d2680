"""Synthetic graph generators for demos, benchmarks and tests."""

from __future__ import annotations

import numpy as np

from .graph import Graph, LabelTable, from_arcs


def random_graph(n: int, arcs_per_node: int = 5, seed: int = 0,
                 directed: bool = False) -> Graph:
    """Uniform random multigraph of n * arcs_per_node edges (twice as many
    arcs when undirected)."""
    rng = np.random.default_rng(seed)
    m = n * arcs_per_node
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    return from_arcs(n, src, dst, directed=directed)


def planted_partition(n: int, num_blocks: int, p_in: float, p_out: float,
                      seed: int = 0) -> tuple[Graph, LabelTable]:
    """Undirected block-community graph labeled by the one-hot block indicator.

    Every node also gets one guaranteed in-block edge so no block member is
    isolated from its community.
    """
    rng = np.random.default_rng(seed)
    blocks = np.arange(n) % num_blocks
    src_list, dst_list = [], []
    iu, ju = np.triu_indices(n, k=1)
    same = blocks[iu] == blocks[ju]
    prob = np.where(same, p_in, p_out)
    chosen = rng.random(len(iu)) < prob
    src_list.append(iu[chosen])
    dst_list.append(ju[chosen])
    # one guaranteed in-block partner each
    partner = (np.arange(n) + num_blocks) % n
    src_list.append(np.arange(n))
    dst_list.append(partner)
    g = from_arcs(n, np.concatenate(src_list), np.concatenate(dst_list),
                  directed=False)
    return g, LabelTable(blocks[:, None] == np.arange(num_blocks))
