"""Small shared helpers: a union-find with a component count, and the one
cycle counter, behind ``ribbon.side_cycles`` and the bracket's ``split``."""

from __future__ import annotations


class UnionFind:
    """Union-find over arbitrary hashable items, with component count."""

    def __init__(self, items=()):
        self.parent = {}
        self.count = 0
        for item in items:
            self.add(item)

    def add(self, item):
        if item not in self.parent:
            self.parent[item] = item
            self.count += 1

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.count -= 1
            return True
        return False


def count_cycles(links_a: dict, links_b: dict) -> int:
    """Number of cycles in the union of two perfect matchings on one node set.

    ``links_a`` and ``links_b`` map every node to its partner in the
    respective matching; alternating the two matchings closes up into
    disjoint cycles.
    """
    seen = set()
    cycles = 0
    for start in links_a:
        if start in seen:
            continue
        cycles += 1
        node = start
        use_a = True
        while True:
            seen.add(node)
            node = links_a[node] if use_a else links_b[node]
            use_a = not use_a
            if node == start and use_a:
                break
    return cycles
