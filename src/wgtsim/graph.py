"""Directed communication graphs.

Agents are labelled 1..n. An edge (i, j) means agent i can send messages to
agent j; there are no self-loops because every agent always has access to its
own state. Strong connectivity is required by every downstream construction,
so the graph checks it once, when it is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DirectedGraph",
    "directed_ring",
    "sensor_network_6",
]


def _grouped(groups: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Ragged integer groups as read-only (flat, ptr): group i is flat[ptr[i]:ptr[i + 1]]."""
    flat = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.intp)
    ptr = np.array([0, *itertools.accumulate(map(len, groups))], dtype=np.intp)
    flat.setflags(write=False)
    ptr.setflags(write=False)
    return flat, ptr


def _derived():
    """A field set once in __post_init__ and kept out of ==, hash and repr."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class DirectedGraph:
    """Simple directed graph on agents 1..n without self-loops.

    Construction puts the edges in canonical order and derives, in one pass,
    every adjacency question downstream code asks: the edge (channel)
    indices entering and leaving each agent, and the 0-based supports of
    the weight matrices, each stored as a (flat, ptr) pair in which agent
    i+1's group is flat[ptr[i]:ptr[i + 1]]. in_supports groups each agent's
    in-neighbors plus itself, sorted: the support of row i of a
    row-stochastic A. out_supports groups its out-neighbors plus itself:
    the support of column i of a column-stochastic B.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    in_supports: tuple[np.ndarray, np.ndarray] = _derived()
    out_supports: tuple[np.ndarray, np.ndarray] = _derived()
    _in_edges: tuple[np.ndarray, np.ndarray] = _derived()
    _out_edges: tuple[np.ndarray, np.ndarray] = _derived()
    _src: np.ndarray = _derived()
    _dst: np.ndarray = _derived()
    _strongly_connected: bool = _derived()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one agent, got n={self.n}")
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
            i, j = e
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge {e} references an agent outside 1..{self.n}")
            if i == j:
                raise ValueError(f"self-loop {e} is not allowed")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add((i, j))
        # canonical order: transcripts and weight builders index edges by it
        edges = tuple(sorted(seen))
        ins = [[i] for i in range(self.n)]
        outs = [[i] for i in range(self.n)]
        in_edges = [[] for _ in range(self.n)]
        out_edges = [[] for _ in range(self.n)]
        for e, (a, b) in enumerate(edges):
            outs[a - 1].append(b - 1)
            out_edges[a - 1].append(e)
            ins[b - 1].append(a - 1)
            in_edges[b - 1].append(e)
        src_dst = np.array([[a - 1 for a, _ in edges], [b - 1 for _, b in edges]], dtype=np.intp)
        src_dst.setflags(write=False)
        derived = {
            "edges": edges,
            "in_supports": _grouped([sorted(s) for s in ins]),
            "out_supports": _grouped([sorted(s) for s in outs]),
            "_in_edges": _grouped(in_edges),
            "_out_edges": _grouped(out_edges),
            "_src": src_dst[0],
            "_dst": src_dst[1],
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_strongly_connected", self._reaches_all())

    def _check_agent(self, i: int) -> None:
        if not (1 <= i <= self.n):
            raise ValueError(f"agent id {i} outside 1..{self.n}")

    def in_neighbors(self, i: int) -> frozenset[int]:
        """Agents that send to i (excluding i itself)."""
        return frozenset((self._src[self.in_edge_indices(i)] + 1).tolist())

    def out_neighbors(self, i: int) -> frozenset[int]:
        """Agents that i sends to (excluding i itself)."""
        return frozenset((self._dst[self.out_edge_indices(i)] + 1).tolist())

    def in_edge_indices(self, i: int) -> np.ndarray:
        """Indices into edges of the channels that end at agent i, ascending."""
        self._check_agent(i)
        flat, ptr = self._in_edges
        return flat[ptr[i - 1] : ptr[i]]

    def out_edge_indices(self, i: int) -> np.ndarray:
        """Indices into edges of the channels that start at agent i, ascending."""
        self._check_agent(i)
        flat, ptr = self._out_edges
        return flat[ptr[i - 1] : ptr[i]]

    def is_strongly_connected(self) -> bool:
        """Every agent reaches every other along directed edges (checked once, at construction)."""
        return self._strongly_connected

    def _reaches_all(self) -> bool:
        """One forward and one backward reachability sweep from agent 1;
        both reaching all n agents is equivalent to strong connectivity."""
        for flat, ptr in (self.out_supports, self.in_supports):
            reached, frontier = {0}, {0}
            while frontier:
                frontier = {v for u in frontier for v in flat[ptr[u] : ptr[u + 1]].tolist()}
                frontier -= reached
                reached |= frontier
            if len(reached) != self.n:
                return False
        return True

    def edge_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) as read-only 0-based integer arrays in canonical edge order."""
        return self._src, self._dst


def directed_ring(n: int) -> DirectedGraph:
    """Cycle 1 -> 2 -> ... -> n -> 1."""
    if n < 2:
        raise ValueError("a directed ring needs n >= 2")
    return DirectedGraph(n, tuple((i, i % n + 1) for i in range(1, n + 1)))


def sensor_network_6() -> DirectedGraph:
    """Canonical 6-agent network: a directed ring plus two chords.

    Ring 1->2->3->4->5->6->1 with shortcuts 1->4 and 5->2. Strongly
    connected, in-degrees 1 or 2, and asymmetric enough that the row and
    column weight matrices have genuinely different stationary vectors.
    """
    ring = [(i, i % 6 + 1) for i in range(1, 7)]
    return DirectedGraph(6, tuple(ring + [(1, 4), (5, 2)]))
