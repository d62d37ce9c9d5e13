"""Exact transportation problem solver over rationals, run on integers.

The masses are scaled to ints by W, the lcm of their denominators, and the
finite costs by K, the lcm of theirs.  A cost is a "big-M" pair (m, q) of
ints meaning m*M + q for an infinitely large M; a forbidden cell (infinite
ground distance) costs (1, 0), and the optimum is infinite exactly when its
m-component is positive.  Pairs add componentwise and compare
lexicographically.

The solver is the primal transportation simplex on a spanning tree basis
(a dict from basic cells to flows), started from the northwest corner or
from a basis the caller kept: an optimum of the same masses under other
costs is still feasible, so a caller that re-solves fixed masses under new
costs (a Kantorovich slot of `semantics.PairGraph`) scales them once
(`scale_masses`) and starts each solve from the last optimum
(`solve_scaled`).

Each pivot walks the basis tree once from row 0, which gives every node its
potential (u_i + v_j = c_ij on basic cells), parent and depth; the entering
cell is read off the potentials and the cycle off the parents.  Bland's
rule on both the entering and the leaving cell prevents cycling.  Positive
scalings keep the sign of every reduced cost and the order of the flows,
so every pivot is the one the simplex takes on the rationals themselves.

Only the returned `Transport` holds rationals: the value total/(W*K), and,
converted when first read, the flows f/W and the potentials (m, q/K).  The
potentials are a dual certificate (u_i + v_j <= c_ij on every cell, with
equality on basic cells, so the dual objective equals the primal one), and
the flows are the coupling behind a Kantorovich value.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError
from .extvalue import INF, ExtValue

Cost = Tuple[Fraction, Fraction]
Cell = Tuple[int, int]


class Transport:
    """An optimal transport: its value (INF if every feasible flow uses a
    forbidden cell), the basic cells' flows (zero on degenerate ones), and
    the row and column potentials u, v as big-M cost pairs.  The flows and
    potentials are kept as the solver's scaled ints and become rationals
    when first read: `basis` maps each basic cell to W times its flow."""

    def __init__(self, value: ExtValue, basis: Dict[Cell, int], pot: List[Tuple[int, int]],
                 W: int, K: int, m: int):
        self.value, self.basis, self.W = value, basis, W
        self._pot, self._K, self._m = pot, K, m

    @functools.cached_property
    def flows(self) -> Dict[Cell, Fraction]:
        return {c: Fraction(f, self.W) for c, f in self.basis.items()}

    @functools.cached_property
    def _potentials(self) -> List[Cost]:
        return [(Fraction(pm), Fraction(pq, self._K)) for pm, pq in self._pot]

    @property
    def u(self) -> List[Cost]:
        return self._potentials[:self._m]

    @property
    def v(self) -> List[Cost]:
        return self._potentials[self._m:]


def _edge_cell(a: int, b: int, m: int) -> Cell:
    """The basic cell of the tree edge between nodes a and b."""
    return (a, b - m) if a < m else (b, a - m)


def scale_masses(supplies: Sequence[Fraction], demands: Sequence[Fraction]
                 ) -> Tuple[List[int], List[int], int]:
    """Supplies and demands as ints over W, the lcm of their denominators:
    (supplies, demands, W).  They must be nonempty and positive, with equal
    totals."""
    m, n = len(supplies), len(demands)
    if m == 0 or n == 0:
        raise DomainError("transportation problem needs nonempty supports")
    W = math.lcm(*(x.denominator for x in supplies), *(x.denominator for x in demands))
    mass = [x.numerator * (W // x.denominator) for x in (*supplies, *demands)]
    if min(mass) <= 0:
        raise DomainError("supplies and demands must be positive")
    if sum(mass[:m]) != sum(mass[m:]):
        raise DomainError(f"mass mismatch: supply {sum(supplies)} vs demand {sum(demands)}")
    return mass[:m], mass[m:], W


def min_cost_transport(
    supplies: Sequence[Fraction],
    demands: Sequence[Fraction],
    cost: Sequence[Sequence[ExtValue]],
) -> Transport:
    """Exact optimum of the transportation LP, with its basis and potentials,
    solved from the northwest corner.

    supplies and demands must be positive and have equal totals.
    """
    return solve_scaled(*scale_masses(supplies, demands), cost)


def solve_scaled(a: List[int], b: List[int], W: int, cost: Sequence[Sequence[ExtValue]],
                 start: Optional[Dict[Cell, int]] = None) -> Transport:
    """`min_cost_transport` on masses already scaled by `scale_masses`,
    started from `start` (W times the flows of a basis of these masses, such
    as an earlier optimum's `basis` under other costs: it is primal
    feasible), or from the northwest corner.  `start` is not changed."""
    m, n = len(a), len(b)
    ratios = [[c.ratio for c in row] for row in cost]
    K = math.lcm(*(d for row in ratios for _, d in row if d))
    costs = [[(0, n * (K // d)) if d else (1, 0) for n, d in row] for row in ratios]
    basis = _northwest_corner(list(a), list(b)) if start is None else dict(start)
    if m == 1 or n == 1:
        # Every cell is basic, so the northwest corner is the only feasible
        # flow, and the costs are potentials (with 0 on the other side).
        pot = [(0, 0)] + costs[0] if m == 1 else [row[0] for row in costs] + [(0, 0)]
    else:
        walk = _walk(costs, basis, m, n)
        while _pivot(costs, basis, m, n, walk):
            walk = _walk(costs, basis, m, n)
        pot = walk[0]

    big = sum(f * costs[i][j][0] for (i, j), f in basis.items())
    total = sum(f * costs[i][j][1] for (i, j), f in basis.items())
    value = INF if big > 0 else ExtValue(total, W * K)
    return Transport(value, basis, pot, W, K, m)


def _northwest_corner(a: List[int], b: List[int]) -> Dict[Cell, int]:
    m, n = len(a), len(b)
    basis: Dict[Cell, int] = {}
    i = j = 0
    while True:
        t = min(a[i], b[j])
        basis[(i, j)] = t
        a[i] -= t
        b[j] -= t
        if i == m - 1 and j == n - 1:
            return basis
        if a[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1


def _walk(costs, basis: Dict[Cell, int], m: int, n: int):
    """One walk of the basis tree from row 0: every node's potential
    (u_i + v_j = c_ij on basic cells), parent and depth.  Tree nodes are rows
    0..m-1 and columns m..m+n-1."""
    adj = [[] for _ in range(m + n)]
    for (i, j) in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot = [(0, 0)] + [None] * (m + n - 1)
    parent, depth = [0] * (m + n), [0] * (m + n)
    stack = [0]
    while stack:
        a = stack.pop()
        pm, pq = pot[a]
        for b in adj[a]:
            if pot[b] is None:
                i, j = _edge_cell(a, b, m)
                cm, cq = costs[i][j]
                pot[b] = (cm - pm, cq - pq)
                parent[b], depth[b] = a, depth[a] + 1
                stack.append(b)
    return pot, parent, depth


def _entering(costs, pot, m: int):
    """Bland's entering cell, the first in row-major order with a negative
    reduced cost c_ij - u_i - v_j, or None at an optimal basis."""
    vm, vq = zip(*pot[m:])
    for i, row in enumerate(costs):
        um, uq = pot[i]
        for j, (cm, cq) in enumerate(row):
            dm = cm - um - vm[j]
            if dm < 0 or (dm == 0 and cq - uq < vq[j]):
                return (i, j)
    return None


def _pivot(costs, basis: Dict[Cell, int], m: int, n: int, walk) -> bool:
    """One simplex pivot on basis, given its walk; False when the basis is
    already optimal."""
    pot, parent, depth = walk
    entering = _entering(costs, pot, m)
    if entering is None:
        return False

    # The cycle closes entering with the tree path from its row to its column,
    # the two ends climbing to their common ancestor.
    up, down = [entering[0]], [m + entering[1]]
    while up[-1] != down[-1]:
        if depth[up[-1]] >= depth[down[-1]]:
            up.append(parent[up[-1]])
        else:
            down.append(parent[down[-1]])
    path = up + down[-2::-1]  # entering row, ..., common ancestor, ..., entering column
    cycle = [entering] + [_edge_cell(a, b, m) for a, b in zip(path, path[1:])]
    # Odd positions give up flow; theta is the smallest of them.
    givers = cycle[1::2]
    theta = min(basis[c] for c in givers)
    leaving = min(c for c in givers if basis[c] == theta)  # Bland
    basis[entering] = 0
    for k, c in enumerate(cycle):
        basis[c] = basis[c] + theta if k % 2 == 0 else basis[c] - theta
    del basis[leaving]
    return True
