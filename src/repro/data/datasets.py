"""Dataset assembly: turn a graph generator + utility model into SVGIC instances.

This is the main entry point used by the examples, the experiment harness and
the benchmarks.  ``make_instance`` mirrors the paper's experimental setup
(Section 6.1): pick a dataset style (Timik / Epinions / Yelp), a utility
learning model (PIERT / AGREE / GREE), the number of shoppers ``n``, items
``m``, display slots ``k`` and the trade-off weight ``lambda``.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx
import numpy as np

from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.data import social_graphs
from repro.data.utility_models import DATASET_PROFILES, generate_utilities
from repro.utils.rng import SeedLike, ensure_rng

#: Paper defaults (Section 6.1): k=50, m=10000, n=125.  The library keeps the
#: same knobs but benchmark defaults are scaled down to laptop size.
PAPER_DEFAULTS = {"num_users": 125, "num_items": 10_000, "num_slots": 50}


def _community_labels(graph: nx.Graph) -> np.ndarray:
    """Greedy-modularity community label per node (used by the Yelp profile)."""
    labels = np.zeros(graph.number_of_nodes(), dtype=np.int64)
    if graph.number_of_edges() == 0:
        return labels
    communities = nx.algorithms.community.greedy_modularity_communities(graph)
    for label, community in enumerate(communities):
        for node in community:
            labels[int(node)] = label
    return labels


def make_instance(
    dataset: str = "timik",
    *,
    num_users: int = 25,
    num_items: int = 100,
    num_slots: int = 5,
    social_weight: float = 0.5,
    utility_model: str = "piert",
    seed: SeedLike = None,
    graph: Optional[nx.Graph] = None,
    preference_top_k: Optional[int] = None,
    social_top_k: Optional[int] = None,
    edge_density: Optional[float] = None,
) -> SVGICInstance:
    """Create a synthetic SVGIC instance in the style of one of the paper's datasets.

    Parameters
    ----------
    dataset:
        ``"timik"``, ``"epinions"`` or ``"yelp"`` — controls both the social
        graph generator and the utility-model profile.
    utility_model:
        ``"piert"`` (default), ``"agree"`` or ``"gree"`` (Figure 7).
    graph:
        Optionally supply a pre-built undirected friendship graph (e.g. an
        ego network); its node count must equal ``num_users``.
    preference_top_k:
        Keep only each user's ``top_k`` highest preference entries (ties by
        ascending item id), zeroing the rest — the sparse-first regime where
        real users rate few items.
    social_top_k:
        Same truncation applied per directed edge to the ``(E, m)`` social
        table: only the ``top_k`` items with the strongest discussion value
        on each edge keep nonzero weight.  LP_SIMP lays out no ``y`` column
        on a zero-weight pair cell, so this shrinks the LP; without it the
        generated social table is fully dense.
    edge_density:
        Thin the friendship graph to this fraction of its edges (``(0, 1]``)
        via :func:`repro.data.social_graphs.subsample_edges` before utilities
        are generated.  Node count is unchanged; only social density drops.
    """
    generator = ensure_rng(seed)
    if graph is None:
        graph = social_graphs.generate_graph(dataset, num_users, rng=generator)
    if graph.number_of_nodes() != num_users:
        raise ValueError(
            f"graph has {graph.number_of_nodes()} nodes but num_users={num_users}"
        )
    if edge_density is not None:
        graph = social_graphs.subsample_edges(graph, edge_density, rng=generator)
    edges = social_graphs.directed_edges(graph)
    # Greedy-modularity communities are only consumed by profiles with
    # community-correlated topics (Yelp); skip the (expensive at n >= 10k)
    # computation everywhere else.  _community_labels draws no randomness,
    # so gating it leaves every generated instance bit-identical.
    profile = DATASET_PROFILES.get(dataset.lower())
    communities = (
        _community_labels(graph) if profile is not None and profile.community_topics else None
    )
    tables = generate_utilities(
        edges,
        num_users,
        num_items,
        model=utility_model,
        dataset=dataset,
        rng=generator,
        communities=communities,
    )
    preference = tables.preference
    social = tables.social
    if preference_top_k is not None or social_top_k is not None:
        from repro.core.sparse import top_k_truncate

        if preference_top_k is not None:
            preference = top_k_truncate(preference, preference_top_k)
        if social_top_k is not None and social.size:
            social = top_k_truncate(social, social_top_k)
    return SVGICInstance(
        num_users=num_users,
        num_items=num_items,
        num_slots=num_slots,
        social_weight=social_weight,
        preference=preference,
        edges=edges,
        social=social,
        name=f"{dataset}-{utility_model}",
    )


def make_st_instance(
    dataset: str = "timik",
    *,
    num_users: int = 25,
    num_items: int = 100,
    num_slots: int = 5,
    social_weight: float = 0.5,
    utility_model: str = "piert",
    teleport_discount: float = 0.5,
    max_subgroup_size: int = 8,
    seed: SeedLike = None,
    graph: Optional[nx.Graph] = None,
    preference_top_k: Optional[int] = None,
    social_top_k: Optional[int] = None,
    edge_density: Optional[float] = None,
) -> SVGICSTInstance:
    """Create an SVGIC-ST instance (teleportation discount + subgroup size cap)."""
    base = make_instance(
        dataset,
        num_users=num_users,
        num_items=num_items,
        num_slots=num_slots,
        social_weight=social_weight,
        utility_model=utility_model,
        seed=seed,
        graph=graph,
        preference_top_k=preference_top_k,
        social_top_k=social_top_k,
        edge_density=edge_density,
    )
    return SVGICSTInstance.from_instance(
        base, teleport_discount=teleport_discount, max_subgroup_size=max_subgroup_size
    )


def small_sampled_instance(
    dataset: str = "timik",
    *,
    population_users: int = 200,
    num_users: int = 10,
    num_items: int = 30,
    num_slots: int = 3,
    social_weight: float = 0.5,
    utility_model: str = "piert",
    seed: SeedLike = None,
) -> SVGICInstance:
    """Small instance sampled from a larger synthetic network by random walk.

    Mirrors the paper's "small datasets" setup (Section 6.2): the social
    network is sampled from the full Timik-style graph by random walk and the
    item set by uniform sampling, producing instances small enough for the
    exact IP.
    """
    generator = ensure_rng(seed)
    population = social_graphs.generate_graph(dataset, population_users, rng=generator)
    sampled_nodes = social_graphs.random_walk_sample(population, num_users, rng=generator)
    subgraph = nx.convert_node_labels_to_integers(population.subgraph(sampled_nodes).copy())
    return make_instance(
        dataset,
        num_users=len(sampled_nodes),
        num_items=num_items,
        num_slots=num_slots,
        social_weight=social_weight,
        utility_model=utility_model,
        seed=generator,
        graph=subgraph,
    )


def ego_network_instance(
    dataset: str = "yelp",
    *,
    population_users: int = 150,
    radius: int = 2,
    max_users: int = 12,
    num_items: int = 40,
    num_slots: int = 4,
    social_weight: float = 0.5,
    utility_model: str = "piert",
    seed: SeedLike = None,
) -> SVGICInstance:
    """A 2-hop ego-network instance for the case study of Section 6.6."""
    generator = ensure_rng(seed)
    population = social_graphs.generate_graph(dataset, population_users, rng=generator)
    center = int(max(population.degree, key=lambda item: item[1])[0])
    nodes = social_graphs.ego_network(population, center, radius=radius)
    if len(nodes) > max_users:
        # Keep the centre plus its closest (highest-degree) neighbours.
        ranked = sorted(nodes, key=lambda v: (-population.degree[v], v))
        keep = {center}
        for node in ranked:
            keep.add(int(node))
            if len(keep) >= max_users:
                break
        nodes = sorted(keep)
    subgraph = nx.convert_node_labels_to_integers(population.subgraph(nodes).copy())
    return make_instance(
        dataset,
        num_users=subgraph.number_of_nodes(),
        num_items=num_items,
        num_slots=num_slots,
        social_weight=social_weight,
        utility_model=utility_model,
        seed=generator,
        graph=subgraph,
    )


__all__ = [
    "PAPER_DEFAULTS",
    "make_instance",
    "make_st_instance",
    "small_sampled_instance",
    "ego_network_instance",
]
