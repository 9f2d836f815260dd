"""Bidirected-tree experiments (Figures 14 and 15).

Compare Greedy-Boost against DP-Boost on synthetic complete binary
bidirected trees with trivalency probabilities, sweeping the DP's ε and the
tree size.  The boost of the returned sets is computed *exactly* (trees
admit the O(n) computation), as in Section VIII.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..graphs.generators import complete_binary_bidirected_tree
from ..graphs.probabilities import trivalency
from ..im.imm import imm
from ..trees.bidirected import BidirectedTree
from ..trees.dp import dp_boost
from ..trees.greedy import greedy_boost

__all__ = ["TreeRun", "make_tree_workload", "tree_comparison"]


@dataclass
class TreeRun:
    """One algorithm run on a tree workload."""

    algorithm: str
    epsilon: float
    n: int
    k: int
    boost: float
    seconds: float


def make_tree_workload(
    n: int, num_seeds: int, rng: np.random.Generator
) -> BidirectedTree:
    """Complete binary bidirected tree + trivalency probs + IMM seeds.

    This is the Section VIII setup with ``p' = 1 − (1 − p)²``.
    """
    graph = trivalency(complete_binary_bidirected_tree(n), rng)
    seeds = imm(graph, num_seeds, rng, max_samples=20_000).chosen
    return BidirectedTree(graph, seeds)


def tree_comparison(
    tree: BidirectedTree,
    k_values: Sequence[int],
    epsilons: Sequence[float],
    run_dp: bool = True,
) -> List[TreeRun]:
    """Greedy-Boost vs DP-Boost over ``k`` and ε grids."""
    runs: List[TreeRun] = []
    n = tree.n
    for k in k_values:
        start = time.perf_counter()
        greedy = greedy_boost(tree, k)
        runs.append(
            TreeRun(
                algorithm="Greedy-Boost",
                epsilon=float("nan"),
                n=n,
                k=k,
                boost=greedy.boost,
                seconds=time.perf_counter() - start,
            )
        )
        if not run_dp:
            continue
        for eps in epsilons:
            start = time.perf_counter()
            dp = dp_boost(tree, k, epsilon=eps)
            runs.append(
                TreeRun(
                    algorithm="DP-Boost",
                    epsilon=eps,
                    n=n,
                    k=k,
                    boost=dp.boost,
                    seconds=time.perf_counter() - start,
                )
            )
    return runs
