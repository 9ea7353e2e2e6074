"""Attack-graph generation and analysis (Sheyner et al. [60]).

The paper proposes estimating "how difficult it is to attack a program by
building an attack-graph" (§4.1). An attack graph's nodes are attacker
states (sets of acquired privileges); edges are exploit applications whose
preconditions the state satisfies. We generate the graph by forward
exploration from an initial state and derive difficulty metrics: shortest
attack path to the goal, number of minimal attack paths, and mean exploit
complexity along them.

Exploits can be declared directly or derived from a codebase's statically
observed properties (network channels, dangerous calls, privilege sites),
which is how the testbed turns a :class:`~repro.lang.sourcefile.Codebase`
into attack-difficulty features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.lang.sourcefile import Codebase
from repro.surface.rasq import AttackSurface, measure_codebase as _surface


@dataclass(frozen=True)
class Exploit:
    """One exploit template.

    Attributes:
        name: unique identifier.
        preconditions: privileges the attacker must already hold.
        postconditions: privileges gained by running the exploit.
        complexity: attack complexity in [0, 1]; higher is harder (mirrors
            CVSS AC).
    """

    name: str
    preconditions: FrozenSet[str]
    postconditions: FrozenSet[str]
    complexity: float = 0.5

    def applicable(self, state: FrozenSet[str]) -> bool:
        """True if ``state`` satisfies the preconditions and adds something."""
        return self.preconditions <= state and not self.postconditions <= state


class AttackGraph:
    """Forward-generated attack graph over privilege states."""

    def __init__(
        self,
        exploits: Iterable[Exploit],
        initial: Iterable[str] = ("remote",),
        goal: str = "root",
        max_states: int = 4096,
    ):
        self.exploits = list(exploits)
        self.initial: FrozenSet[str] = frozenset(initial)
        self.goal = goal
        # A multigraph: two different exploits between the same pair of
        # states are two different attack steps and must stay distinct.
        self.graph = nx.MultiDiGraph()
        self._generate(max_states)

    def _generate(self, max_states: int) -> None:
        frontier: List[FrozenSet[str]] = [self.initial]
        self.graph.add_node(self.initial)
        seen: Set[FrozenSet[str]] = {self.initial}
        while frontier:
            state = frontier.pop()
            for exploit in self.exploits:
                if not exploit.applicable(state):
                    continue
                nxt = frozenset(state | exploit.postconditions)
                if nxt not in seen and len(seen) >= max_states:
                    continue
                self.graph.add_edge(
                    state, nxt, key=exploit.name,
                    exploit=exploit.name, complexity=exploit.complexity,
                )
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)

    # -- queries ------------------------------------------------------------

    def goal_states(self) -> List[FrozenSet[str]]:
        """States in which the attacker holds the goal privilege."""
        return [s for s in self.graph.nodes if self.goal in s]

    @property
    def goal_reachable(self) -> bool:
        """Whether any goal state is reachable from the initial state."""
        return bool(self.goal_states())

    def shortest_attack_path(self) -> Optional[List[str]]:
        """Exploit names along a minimum-length path to the goal, or None."""
        best: Optional[List[str]] = None
        for goal in self.goal_states():
            try:
                nodes = nx.shortest_path(self.graph, self.initial, goal)
            except nx.NetworkXNoPath:
                continue
            exploits = []
            for u, v in zip(nodes, nodes[1:]):
                # Prefer the cheapest of any parallel exploit steps.
                parallel = self.graph[u][v]
                key = min(parallel, key=lambda k: parallel[k]["complexity"])
                exploits.append(parallel[key]["exploit"])
            if best is None or len(exploits) < len(best):
                best = exploits
        return best

    def attack_path_count(self, cap: int = 10**6) -> int:
        """Number of simple attack paths from initial to any goal state.

        Parallel exploits between the same states count as distinct paths
        (edge paths, not node paths).
        """
        count = 0
        for goal in self.goal_states():
            for _ in nx.all_simple_edge_paths(self.graph, self.initial, goal):
                count += 1
                if count >= cap:
                    return cap
        return count

    def cheapest_attack_cost(self) -> Optional[float]:
        """Minimum summed complexity over paths to the goal, or None."""
        best: Optional[float] = None
        for goal in self.goal_states():
            try:
                cost = nx.shortest_path_length(
                    self.graph, self.initial, goal, weight="complexity"
                )
            except nx.NetworkXNoPath:
                continue
            if best is None or cost < best:
                best = cost
        return best

    # -- defender analysis (Sheyner's use case) -----------------------------

    def _reaches_goal_without(self, removed: FrozenSet[str]) -> bool:
        """Whether the goal stays reachable after patching ``removed``."""
        pruned = nx.MultiDiGraph()
        pruned.add_nodes_from(self.graph.nodes)
        for u, v, key in self.graph.edges(keys=True):
            if key not in removed:
                pruned.add_edge(u, v, key=key)
        return any(
            nx.has_path(pruned, self.initial, goal)
            for goal in self.goal_states()
        )

    def critical_exploits(self) -> Optional[FrozenSet[str]]:
        """A minimum set of exploits whose removal protects the goal.

        Sheyner et al.'s defender question: which vulnerabilities must be
        patched to make the goal unreachable? Exact search over exploit
        subsets by increasing size — exploit sets derived from code
        surfaces are small (< 10), so this stays cheap. Returns None when
        the goal is already unreachable.
        """
        if not self.goal_reachable:
            return None
        from itertools import combinations

        names = sorted({e.name for e in self.exploits})
        for size in range(1, len(names) + 1):
            for subset in combinations(names, size):
                if not self._reaches_goal_without(frozenset(subset)):
                    return frozenset(subset)
        return frozenset(names)

    def single_points_of_failure(self) -> List[str]:
        """Exploits whose individual removal already protects the goal."""
        if not self.goal_reachable:
            return []
        return sorted(
            name
            for name in {e.name for e in self.exploits}
            if not self._reaches_goal_without(frozenset({name}))
        )


@dataclass(frozen=True)
class AttackGraphMetrics:
    """Attack-difficulty features derived from the attack graph."""

    n_states: int
    n_transitions: int
    goal_reachable: bool
    shortest_path_length: int  # 0 when unreachable
    attack_paths: int
    cheapest_cost: float  # inf when unreachable


def exploits_from_surface(surface: AttackSurface) -> List[Exploit]:
    """Derive an exploit set from statically observed code properties.

    The mapping encodes standard escalation chains: a network channel
    admits remote entry; spawn/exec sites admit code execution; privilege
    sites admit escalation to root; file writes admit persistence. Channel
    counts lower the modelled complexity (more instances, easier attack),
    matching RASQ's "more surface, more attackable" premise.
    """

    def ease(count: int, base: float) -> float:
        # Each extra instance shaves complexity, floor 0.1.
        return max(0.1, base - 0.05 * max(count - 1, 0))

    exploits: List[Exploit] = []
    channels = surface.channel_counts
    if channels.get("network", 0) > 0:
        exploits.append(
            Exploit(
                "remote-entry",
                frozenset({"remote"}),
                frozenset({"user"}),
                ease(channels["network"], 0.7),
            )
        )
    if channels.get("file_read", 0) > 0 or channels.get("environment", 0) > 0:
        exploits.append(
            Exploit(
                "local-input-entry",
                frozenset({"local"}),
                frozenset({"user"}),
                ease(channels.get("file_read", 0) + channels.get("environment", 0), 0.5),
            )
        )
    if channels.get("process_spawn", 0) > 0:
        exploits.append(
            Exploit(
                "command-injection",
                frozenset({"user"}),
                frozenset({"exec"}),
                ease(channels["process_spawn"], 0.6),
            )
        )
    if surface.n_privilege_sites > 0:
        exploits.append(
            Exploit(
                "privilege-escalation",
                frozenset({"exec"}),
                frozenset({"root"}),
                ease(surface.n_privilege_sites, 0.8),
            )
        )
    if channels.get("file_write", 0) > 0:
        exploits.append(
            Exploit(
                "config-overwrite",
                frozenset({"user"}),
                frozenset({"persist"}),
                ease(channels["file_write"], 0.5),
            )
        )
        exploits.append(
            Exploit(
                "persisted-escalation",
                frozenset({"persist", "exec"}),
                frozenset({"root"}),
                0.9,
            )
        )
    return exploits


def metrics_from_surface(
    surface: AttackSurface,
    initial: Iterable[str] = ("remote", "local"),
    goal: str = "root",
) -> AttackGraphMetrics:
    """Build the attack graph of ``surface`` and summarise its difficulty.

    The feature merge passes the surface it already summed from the
    per-file records, so no second scan of the tree is needed.
    """
    graph = AttackGraph(exploits_from_surface(surface), initial, goal)
    shortest = graph.shortest_attack_path()
    cheapest = graph.cheapest_attack_cost()
    return AttackGraphMetrics(
        n_states=graph.graph.number_of_nodes(),
        n_transitions=graph.graph.number_of_edges(),
        goal_reachable=graph.goal_reachable,
        shortest_path_length=len(shortest) if shortest else 0,
        attack_paths=graph.attack_path_count(),
        cheapest_cost=cheapest if cheapest is not None else float("inf"),
    )


def measure_codebase(
    codebase: Codebase,
    initial: Iterable[str] = ("remote", "local"),
    goal: str = "root",
) -> AttackGraphMetrics:
    """Build the codebase's attack graph and summarise its difficulty."""
    return metrics_from_surface(_surface(codebase), initial, goal)
