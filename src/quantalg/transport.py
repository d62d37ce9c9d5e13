"""Exact transportation problem solver over rationals.

Costs live in a two-component "big-M" arithmetic: a cost is a pair
(m, q) meaning m*M + q for an infinitely large M.  Forbidden cells
(infinite ground distance) get cost (1, 0); the optimum is infinite
exactly when its m-component is positive, i.e. when every feasible
coupling puts mass on a forbidden cell.  Pairs of Fractions add
componentwise and compare lexicographically, which Python tuples do
natively.

The solver is the classical primal transportation simplex on a spanning
tree basis, started from the northwest corner.  The basis is a dict from
basic cells to their flows.  Each pivot makes one walk of the basis tree
from row 0, which gives every node its potential (u_i + v_j = c_ij on
basic cells), parent and depth; the entering cell is read off the
potentials and the cycle off the parents.  Bland's rule on both the
entering and leaving choices prevents cycling.  Everything is exact.

The result keeps the optimal basis flows and potentials (those of the last
walk; with one row or one column, the costs).  The potentials are a dual
certificate: u_i + v_j <= c_ij on every cell, with equality on basic cells,
so the dual objective equals the primal one.  The flows are the coupling
behind a Kantorovich value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import DomainError
from .extvalue import INF, ExtValue

Cost = Tuple[Fraction, Fraction]
Cell = Tuple[int, int]

_ZERO: Cost = (Fraction(0), Fraction(0))
_FORBIDDEN: Cost = (Fraction(1), Fraction(0))


def _cost_of(d: ExtValue) -> Cost:
    return _FORBIDDEN if d.is_inf else (Fraction(0), d.rational)


def _add(a: Cost, b: Cost) -> Cost:
    return (a[0] + b[0], a[1] + b[1])


def _sub(a: Cost, b: Cost) -> Cost:
    return (a[0] - b[0], a[1] - b[1])


def _scale(a: Cost, t: Fraction) -> Cost:
    return (a[0] * t, a[1] * t)


class Transport(NamedTuple):
    """An optimal transport: its value (INF if every feasible flow uses a
    forbidden cell), the basic cells' flows (zero on degenerate ones), and
    the row and column potentials u, v as big-M cost pairs."""

    value: ExtValue
    flows: Dict[Cell, Fraction]
    u: List[Cost]
    v: List[Cost]


def _edge_cell(a: int, b: int, m: int) -> Cell:
    """The basic cell of the tree edge between nodes a and b."""
    return (a, b - m) if a < m else (b, a - m)


def min_cost_transport(
    supplies: Sequence[Fraction],
    demands: Sequence[Fraction],
    cost: Sequence[Sequence[ExtValue]],
) -> Transport:
    """Exact optimum of the transportation LP, with its basis and potentials.

    supplies and demands must be positive and have equal totals.
    """
    m, n = len(supplies), len(demands)
    if m == 0 or n == 0:
        raise DomainError("transportation problem needs nonempty supports")
    if any(s <= 0 for s in supplies) or any(d <= 0 for d in demands):
        raise DomainError("supplies and demands must be positive")
    if sum(supplies) != sum(demands):
        raise DomainError(
            f"mass mismatch: supply {sum(supplies)} vs demand {sum(demands)}"
        )

    costs: List[List[Cost]] = [[_cost_of(cost[i][j]) for j in range(n)] for i in range(m)]
    basis = _northwest_corner(list(supplies), list(demands))
    if m == 1 or n == 1:
        # Every cell is basic, so the northwest corner is the only feasible
        # flow, and the costs are potentials (with 0 on the other side).
        u, v = ([_ZERO], costs[0]) if m == 1 else ([row[0] for row in costs], [_ZERO])
    else:
        walk = _walk(costs, basis, m, n)
        while _pivot(costs, basis, m, n, walk):
            walk = _walk(costs, basis, m, n)
        u, v = walk[0][:m], walk[0][m:]

    total = _ZERO
    for (i, j), f in basis.items():
        if f:
            total = _add(total, _scale(costs[i][j], f))
    return Transport(INF if total[0] > 0 else ExtValue(total[1]), basis, u, v)


def _northwest_corner(a: List[Fraction], b: List[Fraction]) -> Dict[Cell, Fraction]:
    m, n = len(a), len(b)
    basis: Dict[Cell, Fraction] = {}
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


def _walk(costs, basis: Dict[Cell, Fraction], m: int, n: int):
    """One walk of the basis tree from row 0: every node's potential
    (u_i + v_j = c_ij on basic cells), parent and depth.  Tree nodes are rows
    0..m-1 and columns m..m+n-1."""
    adj = [[] for _ in range(m + n)]
    for (i, j) in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot = [None] * (m + n)
    parent = [0] * (m + n)
    depth = [0] * (m + n)
    pot[0] = _ZERO
    stack = [0]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if pot[b] is None:
                i, j = _edge_cell(a, b, m)
                pot[b] = _sub(costs[i][j], pot[a])
                parent[b], depth[b] = a, depth[a] + 1
                stack.append(b)
    return pot, parent, depth


def _pivot(costs, basis: Dict[Cell, Fraction], m: int, n: int, walk) -> bool:
    """One simplex pivot on basis, given its walk; False when the basis is
    already optimal."""
    pot, parent, depth = walk
    entering = next(
        ((i, j) for i in range(m) for j in range(n)
         if (i, j) not in basis and _sub(costs[i][j], _add(pot[i], pot[m + j])) < _ZERO),
        None)  # Bland: the first improving cell in row-major order
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
    basis[entering] = Fraction(0)
    for k, c in enumerate(cycle):
        basis[c] = basis[c] + theta if k % 2 == 0 else basis[c] - theta
    del basis[leaving]
    return True
