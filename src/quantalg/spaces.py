"""Finite extended metric spaces, space constructors, and the two metric
kernels: Hausdorff distance on finite subsets and exact Kantorovich distance
on finitely supported distributions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import DomainError
from .extvalue import INF, ZERO, ExtValue, ext_max
from .lexing import TokenStream
from .transport import min_cost_transport


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
            self._d[(q, p)] = v
        for p in self.points:
            self._d[(p, p)] = ZERO
        for p in self.points:
            for q in self.points:
                self._d.setdefault((p, q), INF)
        if validate:
            self.validate()

    def d(self, p: str, q: str) -> ExtValue:
        try:
            return self._d[(p, q)]
        except KeyError:
            raise DomainError(f"point pair ({p}, {q}) outside the space") from None

    def validate(self):
        pts = self.points
        for p in pts:
            for q in pts:
                dpq = self._d[(p, q)]
                if dpq != self._d[(q, p)]:
                    raise DomainError(f"asymmetric distance at ({p}, {q})")
                if p != q and dpq == ZERO:
                    raise DomainError(f"zero distance between distinct points {p}, {q}")
        for p in pts:
            for q in pts:
                for r in pts:
                    if self._d[(p, r)] > self._d[(p, q)] + self._d[(q, r)]:
                        raise DomainError(
                            f"triangle inequality fails at ({p}, {q}, {r})"
                        )

    def with_entry(self, p: str, q: str, value: ExtValue) -> "FinMetricSpace":
        dist = {k: v for k, v in self._d.items()}
        dist[(p, q)] = value
        dist[(q, p)] = value
        return FinMetricSpace(self.points, dist)

    def __eq__(self, other):
        return (isinstance(other, FinMetricSpace)
                and self.points == other.points and self._d == other._d)

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"FinMetricSpace({list(self.points)!r})"


def discrete(points: Sequence[str]) -> FinMetricSpace:
    """Discrete space: distinct points at infinite distance."""
    return FinMetricSpace(points, {}, validate=__debug__)


def rescale(c, X: FinMetricSpace) -> FinMetricSpace:
    c = Fraction(c)
    if not (0 < c <= 1):
        raise DomainError("rescale factor must be in (0, 1]")
    dist = {
        (p, q): X.d(p, q).scaled(c)
        for p in X.points for q in X.points
        if p != q and not X.d(p, q).is_inf
    }
    return FinMetricSpace(X.points, dist, validate=__debug__)


def coproduct(X: FinMetricSpace, Y: FinMetricSpace,
              tags: Tuple[str, str] = ("l", "r")) -> FinMetricSpace:
    """Disjoint union; points are tagged, cross distances are infinite."""
    lt, rt = tags
    points = [f"{lt}.{p}" for p in X.points] + [f"{rt}.{q}" for q in Y.points]
    dist = {}
    for p in X.points:
        for q in X.points:
            dist[(f"{lt}.{p}", f"{lt}.{q}")] = X.d(p, q)
    for p in Y.points:
        for q in Y.points:
            dist[(f"{rt}.{p}", f"{rt}.{q}")] = Y.d(p, q)
    return FinMetricSpace(points, dist, validate=__debug__)


def pair_id(x: str, y: str) -> str:
    return f"({x},{y})"


def box(X: FinMetricSpace, Y: FinMetricSpace) -> FinMetricSpace:
    """Monoidal product: pairs with the sum metric."""
    points = [pair_id(x, y) for x in X.points for y in Y.points]
    dist = {}
    for x in X.points:
        for y in Y.points:
            for x2 in X.points:
                for y2 in Y.points:
                    dist[(pair_id(x, y), pair_id(x2, y2))] = X.d(x, x2) + Y.d(y, y2)
    return FinMetricSpace(points, dist, validate=__debug__)


def tuple_id(values: Sequence[str]) -> str:
    return "<" + ",".join(values) + ">"


def power(X: FinMetricSpace, inputs: Sequence[str]) -> FinMetricSpace:
    """Function space inputs -> X with the pointwise supremum metric."""
    inputs = tuple(inputs)
    if not inputs:
        raise DomainError("power needs a nonempty input set")
    tuples: List[Tuple[str, ...]] = [()]
    for _ in inputs:
        tuples = [t + (p,) for t in tuples for p in X.points]
    points = [tuple_id(t) for t in tuples]
    dist = {}
    for t in tuples:
        for s in tuples:
            dist[(tuple_id(t), tuple_id(s))] = ext_max(
                *(X.d(a, b) for a, b in zip(t, s))
            )
    return FinMetricSpace(points, dist, validate=__debug__)


@dataclass(frozen=True)
class FinDist:
    """Finitely supported distribution; weights are positive exact rationals.

    Keys are arbitrary hashable labels (space points, semantic values);
    `from_pairs` sorts them, so there they must also be mutually comparable.
    Total mass is usually 1; sub-probability deficits are carried by an
    explicit bottom element rather than by missing mass.
    """

    items: Tuple[Tuple[object, Fraction], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[object, Fraction]]) -> "FinDist":
        acc: Dict[object, Fraction] = {}
        for k, w in pairs:
            w = Fraction(w)
            if w < 0:
                raise DomainError("negative weight in distribution")
            if w == 0:
                continue
            acc[k] = acc.get(k, Fraction(0)) + w
        if not acc:
            raise DomainError("empty distribution")
        return FinDist(tuple(sorted(acc.items())))

    @staticmethod
    def dirac(point) -> "FinDist":
        return FinDist(((point, Fraction(1)),))

    def support(self) -> Tuple[object, ...]:
        return tuple(k for k, _ in self.items)


def kantorovich_general(mu, nu, ground: Callable[[object, object], ExtValue]) -> ExtValue:
    """Optimal transport cost between equal-mass distributions.

    mu and nu are anything with `.items`, a tuple of (point, positive weight)
    pairs: a FinDist or a semantic DistVal.  The transport checks that their
    masses are equal.  Zero-mass cells never touch the ground function, so an
    infinite ground never multiplies a zero weight.
    """
    if mu == nu:
        return ZERO
    supplies = [w for _, w in mu.items]
    demands = [w for _, w in nu.items]
    cost = [[ground(a, b) for b, _ in nu.items] for a, _ in mu.items]
    return min_cost_transport(supplies, demands, cost)


def kantorovich(X: FinMetricSpace, mu: FinDist, nu: FinDist) -> ExtValue:
    """Kantorovich distance with ground metric d_X; supports must lie in X."""
    for p in mu.support() + nu.support():
        if p not in X.points:
            raise DomainError(f"support point {p} outside the space")
    return kantorovich_general(mu, nu, X.d)


def hausdorff_general(U: Iterable, V: Iterable,
                      ground: Callable[[object, object], ExtValue]) -> ExtValue:
    """Hausdorff distance of two finite sets; inf over an empty set is INF."""
    U, V = list(U), list(V)

    def directed(A, B):
        worst = ZERO
        for a in A:
            best = INF
            for b in B:
                d = ground(a, b)
                if d < best:
                    best = d
            if best > worst:
                worst = best
        return worst

    return ext_max(directed(U, V), directed(V, U))


def hausdorff(X: FinMetricSpace, U: Iterable[str], V: Iterable[str]) -> ExtValue:
    U, V = list(U), list(V)
    for p in U + V:
        if p not in X.points:
            raise DomainError(f"set element {p} outside the space")
    return hausdorff_general(U, V, X.d)


def parse_spaces(text: str, source: str = "<space>") -> Dict[str, FinMetricSpace]:
    """Parse `space NAME { points: p, q; d(p,q) = 1/2; ... }` blocks.

    Unspecified off-diagonal pairs default to INF; entries are symmetrized
    and the result is validated.
    """
    ts = TokenStream(text, source)
    spaces: Dict[str, FinMetricSpace] = {}
    while not ts.at(""):
        ts.expect("space")
        name = ts.expect_ident().text
        ts.expect("{")
        ts.expect("points")
        ts.expect(":")
        points = [ts.expect_label("point id")]
        while ts.accept(","):
            points.append(ts.expect_label("point id"))
        ts.expect(";")
        dist = {}
        while not ts.accept("}"):
            ts.expect("d")
            ts.expect("(")
            p = ts.expect_label("point id")
            ts.expect(",")
            q = ts.expect_label("point id")
            ts.expect(")")
            ts.expect("=")
            dist[(p, q)] = ts.expect_ext()
            ts.expect(";")
        try:
            spaces[name] = FinMetricSpace(points, dist)
        except DomainError as exc:
            # malformed metrics are domain errors, not parse errors
            raise DomainError(f"{source}: space {name}: {exc}") from None
    return spaces
