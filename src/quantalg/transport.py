"""Exact transportation problem solver over rationals, run on integers.

The masses are scaled to ints by W, the lcm of their denominators
(`scale_masses`), and the solver takes the costs as ints over a scale K,
with INT_INF on a forbidden cell (infinite ground distance).
`min_cost_transport`, the entry for ExtValue costs, scales them once by the
lcm of their finite denominators (`scale_costs`); a Kantorovich slot of
`semantics.PairGraph` hands over its cells as the ints it already holds,
at its own scale.  A forbidden cell costs M = (S + 2(m+n)) * top + 1, S
the scaled supply total and top the largest finite scaled cost, so an int
m*M + q stands for the big-M pair (m, q), compared lexicographically,
exactly: a potential (u_i + v_j = c_ij on basic cells, u_0 = 0) alternates
the costs of a tree path of at most m + n - 1 cells, so its q lies within
(m+n)/2 * top of 0 and, as M > 2(m+n) * top, decodes to one pair (`u`,
`v`); a reduced cost's q lies within (m+n+1) * top < M of 0, so its sign
is its pair's; and a coupling costs big*M + q with 0 <= q <= S * top < M,
so the optimum is infinite exactly when its total reaches M.

The solver is the primal transportation simplex on a spanning tree basis
(a dict from basic cells to flows), started from the least-cost (matrix
minimum) basis, which fills the cheapest cells first and the forbidden ones
last, or from a `Transport` the caller kept: an optimum of the same masses
under other costs is still feasible, so a caller that re-solves fixed
masses under new costs (a Kantorovich slot of `semantics.PairGraph`)
scales them once and starts each solve from the last optimum
(`solve_scaled`).  A `Transport` keeps its basis tree as a walk from row 0,
parents first: a solve sets the potentials in one pass over it, reads the
entering cell off them and its cycle off the parents, and walks the tree
again only after a pivot.  Bland's rule on both the entering and the
leaving cell prevents cycling.  Positive scalings keep the sign of every
reduced cost and the order of the flows, so every pivot is the one the
simplex takes on the rationals themselves, whatever the scale K.

A `Transport` holds the solver's ints: the optimal total over W*K
(INT_INF if infinite), which a pair graph reads as it is, and the basis
and potentials.  Rationals are built only when first read: the value
total/(W*K), the flows f/W and the potentials (m, q/K).  The potentials
are a dual certificate (u_i + v_j <= c_ij on every cell, with equality on
basic cells, so the dual objective equals the primal one), and the flows
are the coupling behind a Kantorovich value.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError
from .extvalue import INF, INT_INF, ExtValue

Cost = Tuple[Fraction, Fraction]
Cell = Tuple[int, int]


class Transport:
    """An optimal transport: its value (INF if every feasible flow uses a
    forbidden cell), the basic cells' flows (zero on degenerate ones), and
    the row and column potentials u, v as big-M cost pairs.  They are kept
    as the solver's scaled ints and become rationals when first read:
    `total` is the optimum's cost over W*K (INT_INF if it is infinite),
    `basis` maps each basic cell to W times its flow, and `tree` is its
    basis tree (`_tree`), for every shape.  A solve started from this one
    shares both until it pivots, so neither ever changes."""

    def __init__(self, total, basis: Dict[Cell, int], tree, pot: List[int],
                 W: int, K: int, M: int, m: int):
        self.total, self.basis, self.tree, self.W = total, basis, tree, W
        self._pot, self._K, self._M, self._m = pot, K, M, m

    @functools.cached_property
    def value(self) -> ExtValue:
        return INF if self.total is INT_INF else ExtValue(self.total, self.W * self._K)

    @functools.cached_property
    def flows(self) -> Dict[Cell, Fraction]:
        return {c: Fraction(f, self.W) for c, f in self.basis.items()}

    @functools.cached_property
    def _potentials(self) -> List[Cost]:
        h = self._M // 2
        pairs = (divmod(p + h, self._M) for p in self._pot)
        return [(Fraction(pm), Fraction(pq - h, self._K)) for pm, pq in pairs]

    @property
    def u(self) -> List[Cost]:
        return self._potentials[:self._m]

    @property
    def v(self) -> List[Cost]:
        return self._potentials[self._m:]


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


def scale_costs(cost: Sequence[Sequence[ExtValue]]) -> Tuple[int, List]:
    """A cost matrix as ints over K, the lcm of its finite cells'
    denominators: (K, the cells row-major, INT_INF for a forbidden one)."""
    flat = [c.ratio for row in cost for c in row]
    K = math.lcm(*{d for _, d in flat if d})
    return K, [x * (K // d) if d else INT_INF for x, d in flat]


def min_cost_transport(
    supplies: Sequence[Fraction],
    demands: Sequence[Fraction],
    cost: Sequence[Sequence[ExtValue]],
) -> Transport:
    """Exact optimum of the transportation LP, with its basis and potentials,
    solved from the least-cost start.

    supplies and demands must be positive and have equal totals.
    """
    return solve_scaled(*scale_masses(supplies, demands), *scale_costs(cost))


def solve_scaled(a: List[int], b: List[int], W: int, K: int, cost: List,
                 start: Optional[Transport] = None) -> Transport:
    """`min_cost_transport` on masses scaled by `scale_masses` and costs
    scaled to ints over K as `scale_costs` scales them (row-major, INT_INF
    on a forbidden cell), started from the basis of `start` (an earlier
    solve of these masses, under any costs: it is primal feasible), or from
    the least-cost start."""
    m, n = len(a), len(b)
    top = max(cost)
    forbidden = top is INT_INF
    if forbidden:
        top = max((c for c in cost if c is not INT_INF), default=0)
    M = (sum(a) + 2 * (m + n)) * top + 1
    if forbidden:
        cost = [M if c is INT_INF else c for c in cost]
    costs = [cost[i:i + n] for i in range(0, m * n, n)]
    if start is None:
        basis = _least_cost(list(a), list(b), cost)
        tree = _tree(basis, m, n)
    else:
        basis, tree = start.basis, start.tree
    pot, entering = _entering(costs, tree, m)
    if entering is not None:
        basis = dict(basis)  # the start's basis stays as it was
    while entering is not None:
        _pivot(basis, tree, entering, m)
        tree = _tree(basis, m, n)
        pot, entering = _entering(costs, tree, m)
    # the basis' cost, as its dual objective: u_i + v_j = c_ij on its cells
    total = sum(map(mul, a, pot)) + sum(map(mul, b, pot[m:]))
    return Transport(INT_INF if total >= M else total, basis, tree, pot, W, K, M, m)


def _least_cost(a: List[int], b: List[int], flat: List[int]) -> Dict[Cell, int]:
    """The matrix-minimum start: cells in increasing cost (`flat`, row-major,
    ties in that order), each of a live row and column taking all it can and
    crossing out its row if spent and not the last, else its column; the last
    live cell crosses out none, so the m + n - 1 cells form a spanning tree."""
    m, n = len(a), len(b)
    rows, cols, live_rows, live_cols = [True] * m, [True] * n, m, n
    basis: Dict[Cell, int] = {}
    for c in sorted(range(m * n), key=flat.__getitem__):
        i, j = divmod(c, n)
        if rows[i] and cols[j]:
            t = min(a[i], b[j])
            basis[(i, j)] = t
            a[i] -= t
            b[j] -= t
            if a[i] == 0 and live_rows > 1:
                rows[i], live_rows = False, live_rows - 1
            elif live_cols > 1:
                cols[j], live_cols = False, live_cols - 1
            else:
                return basis


def _tree(basis: Dict[Cell, int], m: int, n: int):
    """The basis tree walked from row 0: (walk, parent, depth), the walk a
    list of (node, its parent, the basic cell between them), parents
    first.  Tree nodes are rows 0..m-1 and columns m..m+n-1."""
    adj = [[] for _ in range(m + n)]
    for (i, j) in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent, depth = [0] + [-1] * (m + n - 1), [0] * (m + n)
    walk, stack = [], [0]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if parent[b] < 0:
                parent[b], depth[b] = a, depth[a] + 1
                walk.append((b, a, a, b - m) if a < m else (b, a, b, a - m))
                stack.append(b)
    return walk, parent, depth


def _entering(costs, tree, m: int) -> Tuple[List[int], Optional[Cell]]:
    """The basis tree's potentials under costs (u_0 = 0, u_i + v_j = c_ij on
    basic cells), and Bland's entering cell, the first in row-major order
    with a negative reduced cost c_ij - u_i - v_j, or None at an optimum."""
    pot = [0] * (len(tree[0]) + 1)
    for b, a, i, j in tree[0]:
        pot[b] = costs[i][j] - pot[a]
    v = pot[m:]
    for i, row in enumerate(costs):
        u = pot[i]
        for j, c in enumerate(row):
            if c - u < v[j]:
                return pot, (i, j)
    return pot, None


def _pivot(basis: Dict[Cell, int], tree, entering: Cell, m: int) -> None:
    """One simplex pivot on basis, whose tree is `tree`, bringing in the
    cell `entering`."""
    _, parent, depth = tree
    # The cycle closes entering with the tree path from its row to its column,
    # the two ends climbing to their common ancestor.
    up, down = [entering[0]], [m + entering[1]]
    while up[-1] != down[-1]:
        if depth[up[-1]] >= depth[down[-1]]:
            up.append(parent[up[-1]])
        else:
            down.append(parent[down[-1]])
    path = up + down[-2::-1]  # entering row, ..., common ancestor, ..., entering column
    cycle = [entering] + [(a, b - m) if a < m else (b, a - m)  # the edges' cells
                          for a, b in zip(path, path[1:])]
    # Odd positions give up flow; theta is the smallest of them.
    givers = cycle[1::2]
    theta = min(basis[c] for c in givers)
    leaving = min(c for c in givers if basis[c] == theta)  # Bland
    basis[entering] = 0
    for k, c in enumerate(cycle):
        basis[c] = basis[c] + theta if k % 2 == 0 else basis[c] - theta
    del basis[leaving]
