"""Dinic max-flow on small dense networks.

Arcs live in flat parallel lists (to, cap), an arc and its reverse at
indices e and e ^ 1, with a list of outgoing arc indices per node;
iterative BFS and blocking-flow DFS. Capacities are python ints, so
products like a*n never overflow.

Dinic.maxflow is the bare phase loop of _bfs, which levels the residual
network, and _dfs, which adds a blocking flow and resets its own state.
bindex runs it only over binding._ThresholdNetwork, which keeps no arc
list and overrides _bfs and _dfs by adjacency masks. The arc-list
network here (add_edge, _bfs, _dfs, source_side) is the reference the
tests check that one against.
"""

from __future__ import annotations


class Dinic:
    __slots__ = ("n", "out", "to", "cap", "level", "it")

    def __init__(self, n: int) -> None:
        self.n = n
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.level = [-1] * n
        self.it = [0] * n

    def add_edge(self, u: int, v: int, c: int) -> None:
        e = len(self.to)
        self.to += (v, u)
        self.cap += (c, 0)
        self.out[u].append(e)
        self.out[v].append(e + 1)

    def _bfs(self, s: int, t: int) -> bool:
        """Level the residual graph from s; stop once t is reached.

        When t is unreachable the levelling is complete, so afterwards
        level[v] >= 0 exactly for the residual-reachable v.
        """
        level = self.level
        level[:] = [-1] * self.n
        level[s] = 0
        queue = [s]
        out, to, cap = self.out, self.to, self.cap
        for u in queue:
            lv = level[u] + 1
            for e in out[u]:
                w = to[e]
                if cap[e] and level[w] < 0:
                    level[w] = lv
                    if w == t:
                        return True
                    queue.append(w)
        return False

    def _dfs(self, s: int, t: int) -> int:
        # iterative blocking flow over the level graph
        total = 0
        self.it[:] = [0] * self.n
        level, it, out, to, cap = self.level, self.it, self.out, self.to, self.cap
        path: list[int] = []
        v = s
        while True:
            if v == t:
                bottleneck = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                total += bottleneck
                # retreat to the tail of the first saturated arc
                cut = 0
                for i, e in enumerate(path):
                    if cap[e] == 0:
                        cut = i
                        break
                del path[cut:]
                v = s if not path else to[path[-1]]
                continue
            arcs = out[v]
            lv = level[v] + 1
            for i in range(it[v], len(arcs)):
                e = arcs[i]
                if cap[e] and level[to[e]] == lv:
                    it[v] = i
                    path.append(e)
                    v = to[e]
                    break
            else:
                # dead end: drop v from the level graph and step back
                level[v] = -1
                if not path:
                    break
                path.pop()
                v = s if not path else to[path[-1]]
                it[v] += 1
        return total

    def maxflow(self, s: int, t: int) -> int:
        """Augment to a maximum flow; returns the flow added by this call."""
        flow = 0
        while self._bfs(s, t):
            flow += self._dfs(s, t)
        return flow

    def source_side(self, s: int) -> list[int]:
        """Residual-reachable vertices from s after maxflow(s, t): the min cut side.

        This is the smallest source side over all minimum cuts, whichever
        maximum flow was found. The final, failing BFS of maxflow already
        levelled exactly these vertices.
        """
        return [v for v, lv in enumerate(self.level) if lv >= 0]
