"""Minimal union-find with path halving, used for component counting."""
from __future__ import annotations


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.n_sets = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.n_sets -= 1


def pair_components(rows: list[int]) -> int:
    """Components of the graph on the rows (int bitmasks over columns) with
    an edge {a, b} for each column set in exactly rows a and b.  Raises
    ValueError on a column set in any other nonzero number of rows."""
    hits: dict[int, list[int]] = {}
    for i, v in enumerate(rows):
        while v:
            low = v & -v
            hits.setdefault(low.bit_length() - 1, []).append(i)
            v ^= low
    uf = UnionFind(len(rows))
    for col, where in hits.items():
        if len(where) != 2:
            raise ValueError(f"column {col} is set in {len(where)} rows, not 2")
        uf.union(*where)
    return uf.n_sets
