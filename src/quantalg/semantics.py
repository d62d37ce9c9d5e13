"""Denotation of terms in the concrete free-monad description given by a
layer plan, canonical normal forms, and the induced distance on terms.

A value is a nested structure of distribution / set / function / pair
layers over three leaf kinds: variables, exception points, and guard nodes
(one recursive step of a contractive operator).  In a coalgebra's one-step
values each guard holds a state leaf instead, whose distances the caller
supplies.  Distances are computed layer by layer: Kantorovich for
distributions, Hausdorff for sets, supremum over inputs for functions,
monoid distance plus inner distance for pairs, c times the inner distance
for guards, and the coproduct rule across leaf kinds (infinite in extended
mode, truncated to 1 in bounded mode).

When the caller's state distances are `extvalue.Affine` values, every
distance comes with the affine form in the state-pair unknowns that realises
it: the optimal coupling's flows, whether a bounded-mode cap binds, and the
chosen input, Hausdorff point and nearest point.  A caller may also choose
at the maximising nodes (function values and Hausdorff distances) itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from .errors import DomainError
from .extvalue import INF, ONE, ZERO, ExtValue, ext_max
from .spaces import FinMetricSpace, hausdorff_general, kantorovich_general
from .terms import FAMILIES, Term, Var
from .theories import LayerPlan, TheoryExpr, layer_plan

EXTENDED = "extended"
BOUNDED = "bounded"


class SemValue:
    """Immutable value of a layer plan.  Each value stores its hash when it
    is built, from its fields' (stored) hashes, so hashing a value never
    walks its subtree."""

    __slots__ = ()

    def __post_init__(self):
        # vars() holds exactly the dataclass fields, in declaration order
        object.__setattr__(self, "_hash",
                           hash((type(self).__name__,) + tuple(vars(self).values())))

    def __hash__(self):
        return self._hash


def _value(cls):
    """A frozen dataclass value that keeps SemValue's stored hash (left
    alone, dataclass would install a hash over all fields, recomputed on
    every call)."""
    cls.__hash__ = SemValue.__hash__
    return dataclass(frozen=True)(cls)


@_value
class VarLeaf(SemValue):
    name: str


@_value
class ExcLeaf(SemValue):
    label: str


@_value
class StateLeaf(SemValue):
    """A named state of a coalgebra, standing under a guard of a one-step
    value; its distances come from the caller's state metric."""

    name: str


@_value
class Guard(SemValue):
    name: str
    c: Fraction
    inner: SemValue


@_value
class DistVal(SemValue):
    items: Tuple[Tuple[SemValue, Fraction], ...]  # canonical order, weights > 0


@_value
class SetVal(SemValue):
    items: Tuple[SemValue, ...]  # canonical order, duplicate-free


@_value
class FuncVal(SemValue):
    items: Tuple[Tuple[str, SemValue], ...]  # total on the input set, in order


@_value
class PairVal(SemValue):
    alpha: object
    inner: SemValue


def canon_key(v: SemValue):
    """Total order on values: leaves, then guards, then composites."""
    if isinstance(v, VarLeaf):
        return (0, v.name)
    if isinstance(v, ExcLeaf):
        return (1, v.label)
    if isinstance(v, Guard):
        return (2, v.name, v.c, canon_key(v.inner))
    if isinstance(v, DistVal):
        return (3, tuple((canon_key(x), w) for x, w in v.items))
    if isinstance(v, SetVal):
        return (4, tuple(canon_key(x) for x in v.items))
    if isinstance(v, FuncVal):
        return (5, tuple((i, canon_key(x)) for i, x in v.items))
    if isinstance(v, PairVal):
        return (6, _alpha_key(v.alpha), canon_key(v.inner))
    if isinstance(v, StateLeaf):
        return (7, v.name)
    raise TypeError(f"not a SemValue: {v!r}")


def _alpha_key(alpha):
    return (0, alpha) if isinstance(alpha, Fraction) else (1, str(alpha))


def make_dist(pairs) -> DistVal:
    """Merge duplicate support elements, drop zero weights, sort canonically."""
    acc: Dict[SemValue, Fraction] = {}
    for v, w in pairs:
        if w == 0:
            continue
        if w < 0:
            raise DomainError("negative weight")
        acc[v] = acc.get(v, Fraction(0)) + w
    if not acc:
        raise DomainError("empty distribution value")
    items = tuple(sorted(acc.items(), key=lambda kv: canon_key(kv[0])))
    if sum(w for _, w in items) != 1:
        raise DomainError("distribution weights must sum to 1")
    return DistVal(items)


def make_set(values) -> SetVal:
    return SetVal(tuple(sorted(dict.fromkeys(values), key=canon_key)))


def map_guards(v: SemValue, f: Callable[[SemValue], SemValue]) -> SemValue:
    """v with each guard's inner value w replaced by f(w), rebuilt
    canonically; f meets the guards in v's item order."""
    if isinstance(v, DistVal):
        return make_dist((map_guards(x, f), w) for x, w in v.items)
    if isinstance(v, SetVal):
        return make_set(map_guards(x, f) for x in v.items)
    if isinstance(v, FuncVal):
        return FuncVal(tuple((i, map_guards(x, f)) for i, x in v.items))
    if isinstance(v, PairVal):
        return PairVal(v.alpha, map_guards(v.inner, f))
    if isinstance(v, Guard):
        return Guard(v.name, v.c, f(v.inner))
    return v


# ---------------------------------------------------------------------------
# Denotation

def denote(t: Term, th: TheoryExpr) -> SemValue:
    plan = layer_plan(th)
    return denote_with_plan(t, plan)


def denote_with_plan(t: Term, plan: LayerPlan) -> SemValue:
    if isinstance(t, Var):
        return _eta(plan.layers, VarLeaf(t.name))
    args = [denote_with_plan(a, plan) for a in t.args]
    return apply_operation(plan, t.op, args)


def apply_operation(plan: LayerPlan, op, args) -> SemValue:
    """The free algebra's interpretation of one operation on values.  An
    operation outside the plan's theory is a DomainError (see _check_member)."""
    _check_member(plan, op)
    if op.kind == "raise":
        return _eta(plan.layers, ExcLeaf(op.param))
    if op.kind == "next":
        return _eta(plan.layers, Guard(*op.param, args[0]))
    return _apply(plan.layers, FAMILIES[op.kind].home, op, list(args))


def _check_member(plan: LayerPlan, op) -> None:
    """The plan is the theory's signature: raise(e) needs e in the exception
    space, a contractive operator its guard (name and factor), and every
    other operation its home layer, where rd's arity is the layer's input
    count and wr's element lies in the layer's monoid."""
    if op.kind == "raise":
        ok = plan.exc_space is not None and op.param in plan.exc_space.points
    elif op.kind == "next":
        ok = any(op.param == (g.name, g.c) for g in plan.guards)
    else:
        target = FAMILIES[op.kind].home
        home = next((layer for layer in plan.layers if layer[0] == target), None)
        ok = (home is not None and (op.kind != "read" or op.param == len(home[1]))
              and (op.kind != "write" or home[1].contains(op.param)))
    if not ok:
        detail = (f" of arity {op.param}" if op.kind == "read" else
                  f" of factor {op.param[1]}" if op.kind == "next" else "")
        raise DomainError(f"operation {op}{detail} is not in the theory")


def _eta(layers, leaf: SemValue) -> SemValue:
    v = leaf
    for layer in reversed(layers):
        kind = layer[0]
        if kind == "dist":
            v = DistVal(((v, Fraction(1)),))
        elif kind == "set":
            v = SetVal((v,))
        elif kind == "func":
            v = FuncVal(tuple((i, v) for i in layer[1]))
        elif kind == "pair":
            v = PairVal(layer[1].unit, v)
    return v


def _apply(layers, target: str, op, args) -> SemValue:
    """Apply op at its home layer, acting pointwise through outer layers."""
    layer = layers[0]
    kind = layer[0]
    if kind == target:
        return _apply_here(layer, op, args)
    if kind == "func":
        inputs = layer[1]
        for a in args:
            if not isinstance(a, FuncVal) or tuple(i for i, _ in a.items) != inputs:
                raise DomainError("value does not match the function layer")
        return FuncVal(tuple(
            (i, _apply(layers[1:], target, op, [dict(a.items)[i] for a in args]))
            for i in inputs))
    if kind == "dist":
        (arg,) = args  # only unary operations live under a distribution layer
        if not isinstance(arg, DistVal):
            raise DomainError("value does not match the distribution layer")
        return make_dist(
            (_apply(layers[1:], target, op, [v]), w) for v, w in arg.items)
    if kind == "set":
        (arg,) = args
        if not isinstance(arg, SetVal):
            raise DomainError("value does not match the set layer")
        return make_set(_apply(layers[1:], target, op, [v]) for v in arg.items)
    raise DomainError(f"operation {op} cannot act through a {kind} layer")


def _apply_here(layer, op, args) -> SemValue:
    if op.kind == "conv":
        e = op.param
        a, b = args
        if not isinstance(a, DistVal) or not isinstance(b, DistVal):
            raise DomainError("conv applied to non-distribution values")
        return make_dist(
            [(v, w * e) for v, w in a.items] + [(v, w * (1 - e)) for v, w in b.items])
    if op.kind == "union":
        a, b = args
        if not isinstance(a, SetVal) or not isinstance(b, SetVal):
            raise DomainError("union applied to non-set values")
        return make_set(a.items + b.items)
    if op.kind == "empty":
        return SetVal(())
    if op.kind == "read":
        out = []
        for i, a in zip(layer[1], args):
            if not isinstance(a, FuncVal):
                raise DomainError("rd applied to non-function values")
            out.append((i, dict(a.items)[i]))
        return FuncVal(tuple(out))
    if op.kind == "write":
        mon = layer[1]
        (a,) = args
        if not isinstance(a, PairVal):
            raise DomainError("wr applied to a non-pair value")
        return PairVal(mon.mult(op.param, a.alpha), a.inner)
    raise DomainError(f"cannot apply {op}")


# ---------------------------------------------------------------------------
# Distances

def sem_dist(v: SemValue, w: SemValue, space: Optional[FinMetricSpace] = None,
             mode: str = EXTENDED, exc_space: Optional[FinMetricSpace] = None,
             pair_monoid=None, _memo: Optional[dict] = None,
             state_dist: Optional[Callable[[str, str], ExtValue]] = None,
             max_pick: Optional[Callable[[tuple, list], ExtValue]] = None) -> ExtValue:
    """Distance between two values of the same layer plan.

    Free variables are interpreted in `space`; exception labels in
    `exc_space`; pair components over a table monoid need `pair_monoid`;
    state leaves (one-step values of a coalgebra) in `state_dist`, uncapped.
    Bounded mode truncates ground distances at 1 (leaves and the ground fed
    to each distribution/set layer), matching the supremum over nonexpansive
    1-bounded dual functions.

    A maximising node, the distance of two function values (the largest
    over inputs) or of two set values (the largest of the Hausdorff
    candidates), is the first largest of its candidates, or
    `max_pick((a, b), candidates)` for the node's pair of values (a, b) if
    given.
    """
    if mode not in (EXTENDED, BOUNDED):
        raise DomainError(f"unknown mode {mode!r}")
    memo = _memo if _memo is not None else {}
    return _Kernel(space, mode == BOUNDED, exc_space, pair_monoid, state_dist,
                   max_pick, memo).rec(v, w)


class _Kernel:
    """The ground data and memo of one sem_dist call.  An object rather than
    mutually recursive closures, so that no reference cycle keeps the memo
    alive after the call returns."""

    def __init__(self, space, bounded, exc_space, pair_monoid, state_dist,
                 max_pick, memo):
        self.space = space
        self.bounded = bounded
        self.exc_space = exc_space
        self.pair_monoid = pair_monoid
        self.state_dist = state_dist
        self.max_pick = max_pick
        self.memo = memo
        # leaves of different kinds are `top` apart (the coproduct rule), and
        # bounded mode truncates ground distances at it
        self.top = ONE if bounded else INF

    def rec(self, a: SemValue, b: SemValue) -> ExtValue:
        if a == b:
            return ZERO
        memo = self.memo
        hit = memo.get((a, b))
        if hit is None:
            hit = self._dist(a, b)
            memo[(a, b)] = hit
            memo[(b, a)] = hit
        return hit

    def capped(self, a: SemValue, b: SemValue) -> ExtValue:
        return self.rec(a, b).truncated(ONE)

    def largest(self, a: SemValue, b: SemValue, candidates: list) -> ExtValue:
        if self.max_pick is None:
            return ext_max(*candidates)
        return self.max_pick((a, b), candidates)

    def _dist(self, a: SemValue, b: SemValue) -> ExtValue:
        kind = type(a)
        if kind is not type(b):
            leaves = (VarLeaf, ExcLeaf, Guard, StateLeaf)
            if isinstance(a, leaves) and isinstance(b, leaves):
                return self.top
            raise DomainError(
                f"shape mismatch: {type(a).__name__} vs {type(b).__name__}")
        if kind is Guard:
            if a.name != b.name:
                return self.top
            return self.rec(a.inner, b.inner).scaled(a.c)
        if kind is StateLeaf:
            if self.state_dist is None:
                raise DomainError(f"states {a.name}, {b.name} need a state metric")
            return self.state_dist(a.name, b.name)
        if kind is DistVal:
            return kantorovich_general(a, b, self.capped if self.bounded else self.rec)
        if kind is SetVal:
            return hausdorff_general(a.items, b.items,
                                     self.capped if self.bounded else self.rec,
                                     pick=partial(self.largest, a, b))
        if kind is FuncVal:
            if [i for i, _ in a.items] != [i for i, _ in b.items]:
                raise DomainError("function values over different input sets")
            return self.largest(a, b, [self.rec(x, y)
                                       for (_, x), (_, y) in zip(a.items, b.items)])
        if kind is PairVal:
            return self._alpha_dist(a.alpha, b.alpha) + self.rec(a.inner, b.inner)
        if kind is VarLeaf:
            if self.space is None:
                raise DomainError(f"variables {a.name}, {b.name} need a ground space")
            return self.space.d(a.name, b.name).truncated(self.top)
        if self.exc_space is None:
            return self.top  # distinct exception labels, no metric given
        return self.exc_space.d(a.label, b.label).truncated(self.top)

    def _alpha_dist(self, x, y) -> ExtValue:
        if isinstance(x, Fraction) and isinstance(y, Fraction):
            return ExtValue(abs(x - y))
        if self.pair_monoid is None:
            raise DomainError("table-monoid pair values need the plan's monoid")
        return self.pair_monoid.dist(x, y)


def term_dist(t: Term, s: Term, th: TheoryExpr,
              space: Optional[FinMetricSpace] = None,
              mode: str = EXTENDED) -> ExtValue:
    """The free-monad distance between two terms: sem_dist of denotations."""
    plan = layer_plan(th)
    v = denote_with_plan(t, plan)
    w = denote_with_plan(s, plan)
    return sem_dist_with_plan(v, w, plan, space, mode)


def sem_dist_with_plan(v: SemValue, w: SemValue, plan: LayerPlan,
                       space: Optional[FinMetricSpace] = None,
                       mode: str = EXTENDED,
                       memo: Optional[dict] = None,
                       state_dist: Optional[Callable[[str, str], ExtValue]] = None,
                       max_pick: Optional[Callable[[tuple, list], ExtValue]] = None
                       ) -> ExtValue:
    mon = None
    for layer in plan.layers:
        if layer[0] == "pair":
            mon = layer[1]
    return sem_dist(v, w, space, mode, plan.exc_space, pair_monoid=mon,
                    _memo=memo, state_dist=state_dist, max_pick=max_pick)


# ---------------------------------------------------------------------------
# Rendering

def format_value(v: SemValue) -> str:
    if isinstance(v, VarLeaf):
        return v.name
    if isinstance(v, ExcLeaf):
        return v.label
    if isinstance(v, Guard):  # a guard of `next` prints unnamed
        tag = "" if v.name == "next" else f"[{v.name}]"
        return f"Guard{tag}({format_value(v.inner)})"
    if isinstance(v, DistVal):
        inner = ", ".join(f"{format_value(x)}: {w}" for x, w in v.items)
        return "Dist{" + inner + "}"
    if isinstance(v, SetVal):
        return "Set{" + ", ".join(format_value(x) for x in v.items) + "}"
    if isinstance(v, FuncVal):
        inner = ", ".join(f"{i} -> {format_value(x)}" for i, x in v.items)
        return "Func{" + inner + "}"
    if isinstance(v, PairVal):
        return f"Pair({v.alpha}, {format_value(v.inner)})"
    raise TypeError(f"not a SemValue: {v!r}")
