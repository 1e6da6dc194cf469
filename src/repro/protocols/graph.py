"""Iterative strongly-connected-components (Tarjan) for EPaxos execution.

EPaxos executes committed commands in dependency order: strongly connected
components of the dependency graph are executed atomically, ordered by their
position in the condensation (dependencies first) and, within a component,
by sequence number.  Dependency chains can be thousands of commands long
under a hot-key workload, so the traversal must be iterative.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

Node = Hashable


def tarjan_sccs(
    roots: Iterable[Node],
    successors: Callable[[Node], Iterable[Node]],
) -> list[list[Node]]:
    """Strongly connected components reachable from ``roots``.

    Components are returned in reverse topological order of the
    condensation: every component appears **after** the components it has
    edges into.  With edges pointing at *dependencies*, that means
    dependencies come first — exactly EPaxos execution order.
    """
    index_counter = 0
    indexes: dict[Node, int] = {}
    lowlinks: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[list[Node]] = []

    for root in roots:
        if root in indexes:
            continue
        # Iterative Tarjan: work items are (node, iterator over successors).
        work: list[tuple[Node, Iterator[Node]]] = []
        indexes[root] = lowlinks[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        work.append((root, iter(successors(root))))
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in indexes:
                    indexes[succ] = lowlinks[succ] = index_counter
                    index_counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack and indexes[succ] < lowlinks[node]:
                    lowlinks[node] = indexes[succ]
            if advanced:
                continue
            work.pop()
            low = lowlinks[node]
            if work:
                parent = work[-1][0]
                if low < lowlinks[parent]:
                    lowlinks[parent] = low
            if low == indexes[node]:
                component: list[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components
