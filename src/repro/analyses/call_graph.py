"""Dynamic call graph extraction (paper Table 4, row 5).

Builds a call graph including indirect calls and calls between functions
that are neither imported nor exported — the basis for dead-code detection
or malware reverse engineering. Only needs the ``call_pre`` hook.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import TYPE_CHECKING

from ..core.analysis import Analysis
from ..core.metadata import ModuleInfo

if TYPE_CHECKING:  # pragma: no cover - networkx is optional, see graph()
    import networkx as nx


class CallGraphAnalysis(Analysis):
    """Records caller→callee edges with call counts and direct/indirect kind."""

    def __init__(self):
        self.edges: Counter[tuple[int, int, bool]] = Counter()

    def call_pre(self, location, func, args, table_index):
        self.edges[(location.func, func, table_index is not None)] += 1

    # reporting -----------------------------------------------------------------

    def graph(self, module_info: ModuleInfo | None = None) -> "nx.MultiDiGraph":
        """The dynamic call graph as a networkx multigraph, for export.

        Nodes are function indices (annotated with names when
        ``module_info`` is given); parallel direct/indirect edges are kept
        apart, each carrying its call count. The only method that needs
        networkx, so it is imported here rather than with the package.
        """
        import networkx as nx

        graph = nx.MultiDiGraph()
        for (caller, callee, indirect), count in self.edges.items():
            graph.add_edge(caller, callee, indirect=indirect, count=count)
        if module_info is not None:
            for node in graph.nodes:
                if 0 <= node < len(module_info.functions):
                    graph.nodes[node]["name"] = module_info.func_name(node)
        return graph

    def reachable_from(self, root: int) -> set[int]:
        """Functions transitively called from ``root`` (dynamically observed)."""
        callees: dict[int, set[int]] = {}
        for caller, callee, _indirect in self.edges:
            callees.setdefault(caller, set()).add(callee)
        reached = {root}
        queue = deque([root])
        while queue:
            for callee in callees.get(queue.popleft(), ()):
                if callee not in reached:
                    reached.add(callee)
                    queue.append(callee)
        return reached

    def dynamically_dead(self, module_info: ModuleInfo,
                         roots: list[int]) -> set[int]:
        """Defined functions never reached from any root in this execution."""
        live: set[int] = set()
        for root in roots:
            live |= self.reachable_from(root)
        return {f.idx for f in module_info.functions
                if not f.imported and f.idx not in live}

    def indirect_call_sites(self) -> set[tuple[int, int]]:
        return {(caller, callee) for (caller, callee, indirect) in self.edges
                if indirect}
