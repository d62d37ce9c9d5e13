"""Finite extended metric spaces, their text format, and the two metric
kernels over any ground distance: Hausdorff distance on finite sets and exact
Kantorovich distance on finitely supported distributions.

Products, function spaces, subsets and distributions over a space are not
built here: they are carriers inside the free models (see
`modelcheck.free_model`), whose distances `semantics.PairGraph` computes from
the same two pieces, `hausdorff_candidates` and `transport.solve_scaled`, on
ints: each of its slots has a static int scale, and it hands a node's
candidates and a transport's costs over as ints at that scale.  The kernels
here take ExtValues: `kantorovich_general` hands its costs to
`transport.min_cost_transport`, which scales them once."""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from .errors import DomainError
from .extvalue import INF, ZERO, ExtValue, ext_max
from .lexing import TokenStream
from .transport import min_cost_transport


class ScaledMetric(NamedTuple):
    """The distances of a finite space as ints, for exhaustive checks that
    compare them many times: `D[i][j]` is `scale * d(p_i, p_j)` for the
    points in `index` order, where `scale` is the lcm of the finite
    distances' denominators, and `inf` (an infinite distance) is above the
    sum of any two finite entries."""

    index: Dict[str, int]
    scale: int
    D: List[List[int]]
    inf: int

    def floor(self, e: ExtValue) -> int:
        """The int bound that an entry x satisfies (x <= it) iff x <= e: an
        int is at most scale * e iff it is at most its floor, and the floor
        is capped below `inf` so that only `inf` exceeds a finite e."""
        n, d = e.ratio
        return min(n * self.scale // d, self.inf - 1) if d else self.inf


class FinMetricSpace:
    """Finite extended metric space over string point ids."""

    def __init__(self, points: Sequence[str], dist: Mapping[Tuple[str, str], ExtValue],
                 validate: bool = True):
        self.points: Tuple[str, ...] = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise DomainError("duplicate point ids")
        if not self.points:
            raise DomainError("a metric space needs at least one point")
        self._d: Dict[Tuple[str, str], ExtValue] = {}
        index = {p: k for k, p in enumerate(self.points)}
        for (p, q), v in dist.items():
            if p not in index or q not in index:
                raise DomainError(f"distance given for unknown point pair ({p}, {q})")
            self._d[(p, q)] = v
            self._d.setdefault((q, p), v)  # a (q, p) given apart stays: validate sees it
        for p in self.points:
            self._d.setdefault((p, p), ZERO)  # a given d(p, p) stays: validate sees it
            for q in self.points:
                self._d.setdefault((p, q), INF)
        if validate:
            self.validate()

    def d(self, p: str, q: str) -> ExtValue:
        try:
            return self._d[(p, q)]
        except KeyError:
            raise DomainError(f"point pair ({p}, {q}) outside the space") from None

    @cached_property
    def scaled(self) -> ScaledMetric:
        """The distances as ints (`ScaledMetric`), computed once."""
        pts = self.points
        ratios = {k: v.ratio for k, v in self._d.items()}
        scale = math.lcm(*(d for _, d in ratios.values() if d))
        inf = 2 * max(n * (scale // d) for n, d in ratios.values() if d) + 1
        D = [[n * (scale // d) if d else inf for n, d in (ratios[(p, q)] for q in pts)]
             for p in pts]
        return ScaledMetric({p: i for i, p in enumerate(pts)}, scale, D, inf)

    def validate(self):
        pts = self.points
        D = self.scaled.D
        for i, p in enumerate(pts):
            if D[i][i]:
                raise DomainError(f"nonzero self-distance at {p}")
            for j, q in enumerate(pts):
                if D[i][j] != D[j][i]:
                    raise DomainError(f"asymmetric distance at ({p}, {q})")
                if i != j and D[i][j] == 0:
                    raise DomainError(f"zero distance between distinct points {p}, {q}")
        # inf is above any sum of two finite entries, so the int test is exact
        for i, p in enumerate(pts):
            for j, q in enumerate(pts):
                dpq, Dq = D[i][j], D[j]
                for k, dpr in enumerate(D[i]):
                    if dpr > dpq + Dq[k]:
                        raise DomainError(
                            f"triangle inequality fails at ({p}, {q}, {pts[k]})"
                        )

    def __eq__(self, other):
        return (isinstance(other, FinMetricSpace)
                and self.points == other.points and self._d == other._d)

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"FinMetricSpace({list(self.points)!r})"


def discrete(points: Sequence[str]) -> FinMetricSpace:
    """Discrete space: distinct points at infinite distance (a metric, so unchecked)."""
    return FinMetricSpace(points, {}, validate=False)


def kantorovich_general(mu, nu, ground: Callable[[object, object], ExtValue]) -> ExtValue:
    """Optimal transport cost between equal-mass distributions.

    mu and nu are anything with `.items`, a tuple of (point, positive weight)
    pairs, such as a semantic DistVal.  The transport checks that their
    masses are equal.  Zero-mass cells never touch the ground function, so an
    infinite ground never multiplies a zero weight.
    """
    cost = [[ground(a, b) for b, _ in nu.items] for a, _ in mu.items]
    return min_cost_transport([w for _, w in mu.items], [w for _, w in nu.items], cost).value


def hausdorff_general(U: Iterable, V: Iterable,
                      ground: Callable[[object, object], ExtValue]) -> ExtValue:
    """Hausdorff distance of two finite sets; inf over an empty set is INF.
    It is the first largest of the candidates (`hausdorff_candidates`)."""
    V = list(V)
    return ext_max(*hausdorff_candidates([[ground(a, b) for b in V] for a in U], len(V)))


def hausdorff_candidates(rows: List[List[ExtValue]], n: int) -> List[ExtValue]:
    """Each point's distance to its nearest point of the other set (INF if
    that set is empty), U's points first, from rows[i][j] = d(U_i, V_j) for
    the n points of V: a distance is symmetric, so V_j's distances to U are
    column j, and with U empty the rows hold no columns."""
    return [min(ds, default=INF) for ds in rows + (list(zip(*rows)) if rows else [()] * n)]


def parse_spaces(text: str, source: str = "<space>") -> Dict[str, FinMetricSpace]:
    """Parse `space NAME { points: p, q; d(p,q) = 1/2; ... }` blocks.

    Unspecified off-diagonal pairs default to INF; an entry holds both ways,
    a pair given both ways with two values is rejected as asymmetric, and
    the result is validated; a malformed metric is a DomainError.
    """
    ts = TokenStream(text, source)

    def space(kind: str, name: str) -> FinMetricSpace:
        ts.expect("points", ":")
        points = ts.expect_list(lambda: ts.expect_label("point id"))
        ts.expect(";")
        dist = {}
        while not ts.at("}"):
            ts.expect("d", "(")
            p = ts.expect_label("point id")
            ts.expect(",")
            q = ts.expect_label("point id")
            ts.expect(")", "=")
            dist[(p, q)] = ts.expect_ext()
            ts.expect(";")
        return FinMetricSpace(points, dist)

    return ts.blocks("space", ("space",), space)
