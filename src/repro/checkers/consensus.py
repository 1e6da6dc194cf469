"""Consensus checker (paper section 4.2).

Client-observed linearizability can hold even when the replicated state
machines diverge, so Paxi additionally validates *consensus*: for every
data record, the per-node version histories must share a common prefix.
We read each replica's multi-version chain per key and verify that any
two chains agree on their overlapping prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping, Sequence

from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID


@dataclass(frozen=True)
class PrefixViolation:
    """Two nodes disagree on the committed history of one key."""

    key: Hashable
    node_a: NodeID
    node_b: NodeID
    position: int
    value_a: Any
    value_b: Any


@dataclass
class ConsensusResult:
    ok: bool
    violations: list[PrefixViolation] = field(default_factory=list)
    checked_keys: int = 0

    def __bool__(self) -> bool:
        return self.ok


def common_prefix_violations(
    histories: Mapping[NodeID, Sequence[Any]], key: Hashable = None
) -> list[PrefixViolation]:
    """Every pair of per-node value histories that disagrees on their
    overlapping prefix, with its first differing position.

    When every chain is a prefix of the longest, every chain is a prefix of
    every longer one and no pair can disagree, so one slice comparison per
    chain settles the common case.  Only otherwise does the pairwise scan
    run, to name each disagreeing pair.
    """
    if histories:
        longest = max(histories.values(), key=len)
        if all(not chain or chain == longest[: len(chain)] for chain in histories.values()):
            return []
    violations: list[PrefixViolation] = []
    nodes = sorted(histories)
    for index, node_a in enumerate(nodes):
        for node_b in nodes[index + 1 :]:
            chain_a = histories[node_a]
            chain_b = histories[node_b]
            for position in range(min(len(chain_a), len(chain_b))):
                if chain_a[position] != chain_b[position]:
                    violations.append(
                        PrefixViolation(
                            key=key,
                            node_a=node_a,
                            node_b=node_b,
                            position=position,
                            value_a=chain_a[position],
                            value_b=chain_b[position],
                        )
                    )
                    break
    return violations


def check_deployment(deployment: Deployment) -> ConsensusResult:
    """Check every key across every replica of a deployment, reading each
    replica's chains in place."""
    stores = {node_id: replica.store for node_id, replica in deployment.replicas.items()}
    keys: set[Hashable] = set()
    for store in stores.values():
        keys.update(store.keys())
    violations: list[PrefixViolation] = []
    for key in keys:
        histories = {node_id: store.chain(key) for node_id, store in stores.items()}
        violations.extend(common_prefix_violations(histories, key))
    return ConsensusResult(ok=not violations, violations=violations, checked_keys=len(keys))
