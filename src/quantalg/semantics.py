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

The kernel is built once and evaluated many times: a `PairGraph` walks the
pair recursion once, and each evaluation only does arithmetic, for the state
distances it is given, with each transport started from its slot's last
optimal basis tree.  An evaluation, under a strategy that chooses at the
maximising nodes or none, leaves its slot values and optimal couplings on
the graph (`evaluated`, `plans`), and `PairGraph.policy` reads off them and
the strategy's choices the affine form in the state-pair distances that
realises each distance, as a row of ints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product, repeat, starmap
from math import gcd, lcm
from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, Optional, Tuple
from weakref import ref as weak_ref

from .errors import DomainError
from .extvalue import INF, ONE, ZERO, ExtValue, ext_max
from .spaces import FinMetricSpace, hausdorff_candidates
from .terms import FAMILIES, Term, Var
from .theories import LayerPlan, TheoryExpr, layer_plan
from .transport import Transport, solve_scaled

EXTENDED = "extended"
BOUNDED = "bounded"


class SemValue:
    """Immutable value of a layer plan, hash-consed (Filliâtre and Conchon):
    building a value equal to a live one returns that one, so equal values
    are one object, and values compare and hash by identity.  The intern
    table keys a value by its class and fields, a rational one by its ints
    (it hashes no Fraction), and holds its values weakly: a value lives only
    while something else refers to it.  A value's `key` (see `canon_key`) is
    built when first read, a leaf's and a guard's when it is made.  No code
    assigns to a value's fields."""

    __slots__ = ("key", "__weakref__")

    def __new__(cls, *fields, ident=None):
        ident = ident or (cls, *fields)
        entry = _interned.get(ident)
        v = entry() if entry is not None else None
        if v is None:
            v = object.__new__(cls)
            v._fill(*fields)
            _interned[ident] = entry = _Ref(v, _forget)
            entry.ident = ident
        return v

    def __getattr__(self, name):  # an unset slot: the key, built on its first read
        if name != "key":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.key = key = _LAZY_KEYS[type(self)](self)
        return key

    def __repr__(self):
        return type(self).__name__ + repr(tuple(getattr(self, s) for s in self.__slots__))


class _Ref(weak_ref):
    __slots__ = ("ident",)


_interned: Dict[tuple, _Ref] = {}  # (class, *fields), a rational as its ints -> the live value


def _forget(dead: _Ref) -> None:  # a value died: drop its entry, unless a new value has it
    global _interned
    if _interned.get(dead.ident) is dead:
        del _interned[dead.ident]
        _interned = _interned or {}  # an emptied dict keeps the size it reached: start anew


class VarLeaf(SemValue):
    __slots__ = ("name",)

    def _fill(self, name):
        self.name, self.key = name, (0, name)


class ExcLeaf(SemValue):
    __slots__ = ("label",)

    def _fill(self, label):
        self.label, self.key = label, (1, label)


class StateLeaf(SemValue):
    """A named state of a coalgebra, standing under a guard of a one-step
    value; its distances come from the caller's state metric."""

    __slots__ = ("name",)

    def _fill(self, name):
        self.name, self.key = name, (7, name)


class Guard(SemValue):
    __slots__ = ("name", "c", "inner")

    def __new__(cls, name, c, inner):
        return SemValue.__new__(cls, name, c, inner, ident=(cls, name, c.as_integer_ratio(), inner))

    def _fill(self, name, c, inner):  # the key now: key recursion stops at a guard
        self.name, self.c, self.inner, self.key = name, c, inner, (2, name, c, inner.key)


class DistVal(SemValue):
    """A distribution: the weight of `support[i]` is `weights[i]/W`, with
    the support in canonical order, every weight a positive int, and W the
    lcm of the reduced weights' denominators.  `items` gives the same as
    (value, Fraction weight) pairs."""

    __slots__ = ("support", "weights", "W")

    def _fill(self, support, weights, W):
        self.support, self.weights, self.W = support, weights, W

    @property
    def items(self) -> Tuple[Tuple[SemValue, Fraction], ...]:
        return tuple((x, Fraction(n, self.W)) for x, n in zip(self.support, self.weights))


class SetVal(SemValue):
    __slots__ = ("items",)  # canonical order, duplicate-free

    def _fill(self, items):
        self.items = items


class FuncVal(SemValue):
    __slots__ = ("items",)  # (input, value) pairs, total on the input set, in order

    def _fill(self, items):
        self.items = items


class PairVal(SemValue):
    __slots__ = ("alpha", "inner")  # alpha a Fraction or a table element's name

    def __new__(cls, alpha, inner):
        a = alpha if type(alpha) is str else alpha.as_integer_ratio()
        return SemValue.__new__(cls, alpha, inner, ident=(cls, a, inner))

    def _fill(self, alpha, inner):
        self.alpha, self.inner = alpha, inner


def canon_key(v: SemValue):
    """Total order on values: variables, exceptions, guards, distributions,
    sets, functions, pairs, then state leaves; a value keeps its key once built."""
    return v.key


# The keys built when first read (see SemValue), from the children's keys
_LAZY_KEYS = {
    DistVal: lambda v: (3, tuple((x.key, w) for x, w in v.items)),
    SetVal: lambda v: (4, tuple(x.key for x in v.items)),
    FuncVal: lambda v: (5, tuple((i, x.key) for i, x in v.items)),
    PairVal: lambda v: (6, (0, v.alpha) if isinstance(v.alpha, Fraction) else (1, str(v.alpha)),
                        v.inner.key)}


_key = attrgetter("key")


def make_dist(pairs, W: int) -> DistVal:
    """The distribution of (value, n) pairs, n an int, of weight n/W each:
    duplicate values merge, zero weights drop, the support is sorted
    canonically and the weights are reduced over their least denominator."""
    acc: Dict[SemValue, int] = {}
    for v, n in pairs:
        if n:
            if n < 0:
                raise DomainError("negative weight")
            acc[v] = acc.get(v, 0) + n
    if not acc:
        raise DomainError("empty distribution value")
    if sum(acc.values()) != W:
        raise DomainError("distribution weights must sum to 1")
    support = tuple(sorted(acc, key=_key))
    g = gcd(W, *acc.values())
    return DistVal(support, tuple(acc[v] // g for v in support), W // g)


def make_set(values) -> SetVal:
    return SetVal(tuple(sorted(dict.fromkeys(values), key=_key)))


def map_guards(v: SemValue, f: Callable[[SemValue], SemValue]) -> SemValue:
    """v with each guard's inner value w replaced by f(w), rebuilt
    canonically; f meets the guards in v's item order."""
    if isinstance(v, DistVal):
        return make_dist(((map_guards(x, f), n) for x, n in zip(v.support, v.weights)), v.W)
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
    return denote_with_plan(t, layer_plan(th))


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
            v = DistVal((v,), (1,), 1)
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
        return make_dist(((_apply(layers[1:], target, op, [v]), n)
                          for v, n in zip(arg.support, arg.weights)), arg.W)
    if kind == "set":
        (arg,) = args
        if not isinstance(arg, SetVal):
            raise DomainError("value does not match the set layer")
        return make_set(_apply(layers[1:], target, op, [v]) for v in arg.items)
    raise DomainError(f"operation {op} cannot act through a {kind} layer")


def _apply_here(layer, op, args) -> SemValue:
    if op.kind == "conv":
        p, q = op.param.numerator, op.param.denominator
        a, b = args
        if not isinstance(a, DistVal) or not isinstance(b, DistVal):
            raise DomainError("conv applied to non-distribution values")
        W = lcm(a.W, b.W)  # a's weights times p/q plus b's times (q - p)/q, over W * q
        s, t = W // a.W * p, W // b.W * (q - p)
        return make_dist([(v, n * s) for v, n in zip(a.support, a.weights)]
                         + [(v, n * t) for v, n in zip(b.support, b.weights)], W * q)
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
             pair_monoid=None) -> ExtValue:
    """Distance between two values of the same layer plan.

    Free variables are interpreted in `space`; exception labels in
    `exc_space`; pair components over a table monoid need `pair_monoid`.
    Bounded mode truncates ground distances at 1 (leaves and the ground fed
    to each distribution/set layer), matching the supremum over nonexpansive
    1-bounded dual functions.
    """
    return PairGraph([(v, w)], space, mode, exc_space, pair_monoid).evaluate()[0]


# Node kinds of a PairGraph: each op is (kind, slot, *data), children-first.
_STATE, _GUARD, _PAIR, _FUNC, _KANT, _HAUS, _MEAN = range(7)

# The slots an op of each kind reads
_READS = {_STATE: lambda op: (), _GUARD: lambda op: (op[2],), _PAIR: lambda op: (op[3],),
          _FUNC: itemgetter(2), _MEAN: itemgetter(3), _KANT: lambda op: chain.from_iterable(op[5]),
          _HAUS: lambda op: chain.from_iterable(op[2])}


class PairGraph:
    """The distance kernel compiled over a list of root value pairs.

    One walk of the pair recursion gives each pair of values it meets a
    slot; equal pairs share the slot of ZERO, and mirrored pairs share one.
    A slot holds a constant of the walk (leaf, coproduct and monoid
    distances) or the result of an op on earlier slots: a state pair's
    distance, c times a guard's inner distance, a monoid distance plus the
    inner distance, the largest over a function's inputs, Kantorovich over
    a cost matrix, its one coupling's cost if a distribution is a point
    mass, or Hausdorff over its row slots (a column is read off the rows,
    as mirrored pairs share a slot) and column count.  A state pair's op
    holds its number `state_index(u, v)`, given at the build, a Kantorovich
    op its masses (int weights over the lcm W of the W's) and W, and a point
    mass's op the other side's weights and W.  Values are compared, and the
    slots keyed, by identity.  Each Kantorovich slot keeps its last optimal
    `Transport` in `plans`, and the next evaluation's transport starts from
    its basis tree: the masses are the same, so it is still feasible.  An op
    that is INF whatever its op slots give is folded to the constant INF as
    it is built (`_infinite`), and then the ops that no root reads through
    op slots are dropped.  Under a strategy an INF candidate is the first
    largest, and `policy`'s finite rows read only finite cells, so neither
    reads a folded slot."""

    def __init__(self, pairs, space: Optional[FinMetricSpace] = None,
                 mode: str = EXTENDED, exc_space: Optional[FinMetricSpace] = None,
                 pair_monoid=None, state_index: Optional[Callable[[str, str], int]] = None):
        if mode not in (EXTENDED, BOUNDED):
            raise DomainError(f"unknown mode {mode!r}")
        self.space, self.exc_space, self.pair_monoid = space, exc_space, pair_monoid
        self.state_index = state_index
        # leaves of different kinds are `top` apart (the coproduct rule), and
        # ground distances are truncated at it: at 1 in bounded mode
        self.top = ONE if mode == BOUNDED else INF
        self.values: List[Optional[ExtValue]] = [ZERO]  # constants; None for an op's slot
        self.ops: Dict[int, tuple] = {}  # an op slot's op, children first
        self.evaluated: List[ExtValue] = []  # every slot's value at the last evaluation
        self.plans: Dict[int, Transport] = {}  # a Kantorovich slot's last optimum
        self._forms: Dict[int, tuple] = {}  # choice-free slots' rows (see `policy`)
        self._slots: Dict[Tuple[SemValue, SemValue], int] = {}
        self._inf, self._folded = set(), False  # the slots of INF constants; whether one folded
        self.roots = [self._slot(a, b) for a, b in pairs]
        if self._folded:  # keep the ops that a root reads through op slots
            live, ops = set(self.roots), self.ops
            for k in reversed(list(ops)):
                if k in live:
                    live.update(_READS[ops[k][0]](ops[k]))
                else:
                    del ops[k]
        del self._slots, self._inf

    def _slot(self, a: SemValue, b: SemValue) -> int:
        if a is b:  # equal values are one object
            return 0
        k = self._slots.get((a, b))
        if k is None:
            node, k = self._node(a, b), len(self.values)
            if type(node) is tuple:
                kind, op = node[0], (node[0], k) + node[1:]
                # check only ops that read an INF constant, hold sets or an INF monoid distance
                if (self._inf or kind == _HAUS or kind == _PAIR and node[1].is_inf) \
                        and self._infinite(op):
                    node, self._folded = INF, True
                else:
                    self.ops[k], node = op, None
            if node is not None and node.is_inf:
                self._inf.add(k)
            self.values.append(node)
            self._slots[(a, b)] = self._slots[(b, a)] = k
        return k

    def _infinite(self, op) -> bool:
        """Whether op is INF whatever its op slots give: `evaluate`'s rules on
        the INF constants it reads (a Kantorovich slot is INF when no coupling
        avoids its INF cells: its transport over the {0, INF} ground is INF)."""
        kind, inf, top, reads = op[0], self._inf, self.top, _READS[op[0]](op)
        if kind == _PAIR and op[2].is_inf or kind == _HAUS and not (op[2] and op[3]):
            return True  # an infinite monoid distance, or one empty set (two are one value)
        if kind in (_GUARD, _PAIR, _FUNC) or kind == _MEAN and top.is_inf:
            return not inf.isdisjoint(reads)
        if kind in (_STATE, _MEAN) or not top.is_inf or inf.isdisjoint(reads):
            return False  # a truncated ground, or no INF cell
        rows = op[5] if kind == _KANT else op[2]
        if any(map(inf.issuperset, rows)) or any(map(inf.issuperset, zip(*rows))):
            return True  # an all-INF row or column: a point with only INF cells
        return kind == _KANT and solve_scaled(op[2], op[3], op[4], [
            [INF if k in inf else ZERO for k in r] for r in rows]).value.is_inf

    def _node(self, a: SemValue, b: SemValue):
        """The distance of a and b as a constant, or as an op (kind, *data)
        on the slots of their children."""
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
            return _GUARD, self._slot(a.inner, b.inner), a.c
        if kind is StateLeaf:
            if self.state_index is None:
                raise DomainError(f"states {a.name}, {b.name} need a state metric")
            return _STATE, self.state_index(a.name, b.name)
        if kind is DistVal:  # a point mass has one coupling: the ground's mean under the other side
            if len(b.support) == 1:
                return _MEAN, a.weights, list(map(self._slot, a.support, repeat(b.support[0]))), a.W
            if len(a.support) == 1:
                return _MEAN, b.weights, list(map(self._slot, repeat(a.support[0]), b.support)), b.W
            W, n = lcm(a.W, b.W), len(b.support)  # the masses over it, as scale_masses scales them
            slots = list(starmap(self._slot, product(a.support, b.support)))  # no frame per level
            return (_KANT, [k * (W // a.W) for k in a.weights], [k * (W // b.W) for k in b.weights],
                    W, [slots[i:i + n] for i in range(0, len(slots), n)])
        if kind is SetVal:
            return _HAUS, [[self._slot(x, y) for y in b.items] for x in a.items], len(b.items)
        if kind is FuncVal:
            if [i for i, _ in a.items] != [i for i, _ in b.items]:
                raise DomainError("function values over different input sets")
            return _FUNC, [self._slot(x, y) for (_, x), (_, y) in zip(a.items, b.items)]
        if kind is PairVal:
            return _PAIR, self._alpha_dist(a.alpha, b.alpha), self._slot(a.inner, b.inner)
        if kind is VarLeaf:
            if self.space is None:
                raise DomainError(f"variables {a.name}, {b.name} need a ground space")
            return self.space.d(a.name, b.name).truncated(self.top)
        if self.exc_space is None:
            return self.top  # distinct exception labels, no metric given
        return self.exc_space.d(a.label, b.label).truncated(self.top)

    def _alpha_dist(self, x, y) -> ExtValue:
        if isinstance(x, Fraction) and isinstance(y, Fraction):  # |x - y| on ints
            a, b, c, e = x.numerator, x.denominator, y.numerator, y.denominator
            return ExtValue(abs(a * e - c * b), b * e)
        if self.pair_monoid is None:
            raise DomainError("table-monoid pair values need the plan's monoid")
        return self.pair_monoid.dist(x, y)

    def evaluate(self, states: Optional[List[ExtValue]] = None,
                 strategy=None) -> List[ExtValue]:
        """The roots' distances, with `states[k]` between the states of pair k
        (uncapped).  A maximising node (function or set values) is the first
        largest of its candidates, or `strategy.pick(slot, candidates)` under
        a strategy.  The graph keeps every slot's value in `evaluated` and
        each Kantorovich slot's optimal transport in `plans` (see `policy`)."""
        top, val, plans = self.top, list(self.values), self.plans

        def ground(slots):  # the ground of a distribution or set layer
            return [[val[k].truncated(top) for k in row] for row in slots]

        for op in self.ops.values():
            kind = op[0]
            if kind == _GUARD:
                out = val[op[2]].scaled(op[3])
            elif kind == _STATE:
                out = states[op[2]]
            elif kind == _PAIR:
                out = op[2] + val[op[3]]
            elif kind == _KANT:
                plan = plans[op[1]] = solve_scaled(op[2], op[3], op[4], ground(op[5]),
                                                   plans.get(op[1]))
                out = plan.value
            elif kind == _MEAN:  # sum weight * ground / W; an infinite ground's d 0 makes K 0
                cells = [val[k].truncated(top).ratio for k in op[3]]
                K = lcm(*(d for _, d in cells))
                out = ExtValue(sum(w * n * (K // d) for w, (n, d) in zip(op[2], cells)),
                               op[4] * K) if K else INF
            else:
                candidates = [val[k] for k in op[2]] if kind == _FUNC \
                    else hausdorff_candidates(ground(op[2]), op[3])
                out = ext_max(*candidates) if strategy is None \
                    else strategy.pick(op[1], candidates)
            val[op[1]] = out
        self.evaluated = val
        return [val[k] for k in self.roots]

    def policy(self, strategy) -> list:
        """Each root's distance at the graph's last evaluation, which was under
        the strategy, as an integer row (D, b, {k: c}), the affine form
        (b + sum c * states[k])/D, None if it is infinite, read off that
        evaluation's slot values and transports (`evaluated`, `plans`) and
        the strategy's choices: the chosen candidate, a Hausdorff
        candidate's first nearest point, a coupling's integer flows (a
        transport's basic ones, or a mean's weights; the row divided by its
        gcd), and 1 for a capped cell.
        The rows of choice-free slots (constants, state pairs, and guard and
        pair ops over such slots) are kept across calls in `_forms`, the
        others' for one call; rows are shared, so no reader changes one."""
        val, choice, plans, top, fixed = (self.evaluated, strategy.choice, self.plans,
                                          self.top, self._forms)
        memo: Dict[int, tuple] = {}

        def ground(k):  # a cell's row as a distribution or set layer sees it
            return (1, 1, {}) if val[k] > top else form(k)

        def form(k):  # k's value is finite, and so are those of the slots it reads
            row = fixed.get(k) or memo.get(k)
            if row is not None:
                return row
            op, keep = self.ops.get(k), memo
            if op is None:
                n, d = val[k].ratio
                row, keep = (d, n, {}), fixed
            elif op[0] == _STATE:
                row, keep = (1, 0, {op[2]: 1}), fixed
            elif op[0] == _GUARD:
                D, b, coef = form(op[2])
                n, d = op[3].numerator, op[3].denominator
                row = D * d, b * n, {j: w * n for j, w in coef.items()}
                keep = fixed if op[2] in fixed else memo
            elif op[0] == _PAIR:  # b/D + n/d over the lcm of D and d
                D, b, coef = form(op[3])
                n, d = op[2].ratio
                s = d // gcd(D, d)
                row = D * s, b * s + n * (D * s // d), {j: w * s for j, w in coef.items()}
                keep = fixed if op[3] in fixed else memo
            elif op[0] == _FUNC:
                row = form(op[2][choice[k]])
            elif op[0] == _HAUS:  # a candidate's cells: a row, or a column after the rows
                i, rows = choice[k], op[2]
                cells = rows[i] if i < len(rows) else [r[i - len(rows)] for r in rows]
                row = ground(min(cells, key=lambda j: val[j].truncated(top)))
            else:  # a coupling's cells: a point mass's one, or a transport's basic flows
                cells = [(f, ground(j)) for f, j in (zip(op[2], op[3]) if op[0] == _MEAN else (
                    (f, op[5][i][j]) for (i, j), f in plans[k].basis.items() if f))]
                L = lcm(*(D for _, (D, _, _) in cells))
                b, coef = 0, {}
                for f, (D, fb, fcoef) in cells:
                    s = f * (L // D)
                    b += s * fb
                    for u, w in fcoef.items():
                        coef[u] = coef.get(u, 0) + s * w
                g = gcd(L * op[4], b, *coef.values())
                row = L * op[4] // g, b // g, {u: w // g for u, w in coef.items()}
            keep[k] = row
            return row

        forms = [None if val[k].is_inf else form(k) for k in self.roots]
        del form  # it calls itself: free it and its memo now, not at a collection
        return forms


def plan_graph(plan: LayerPlan, pairs, space: Optional[FinMetricSpace] = None,
               mode: str = EXTENDED, state_index=None) -> PairGraph:
    """The PairGraph of value pairs of `plan`, over its exceptions and monoid."""
    mon = next((layer[1] for layer in plan.layers if layer[0] == "pair"), None)
    return PairGraph(pairs, space, mode, plan.exc_space, mon, state_index)


def term_dist(t: Term, s: Term, th: TheoryExpr,
              space: Optional[FinMetricSpace] = None,
              mode: str = EXTENDED) -> ExtValue:
    """The free-monad distance between two terms: sem_dist of denotations."""
    plan = layer_plan(th)
    v, w = denote_with_plan(t, plan), denote_with_plan(s, plan)
    return sem_dist_with_plan(v, w, plan, space, mode)


def sem_dist_with_plan(v: SemValue, w: SemValue, plan: LayerPlan,
                       space: Optional[FinMetricSpace] = None,
                       mode: str = EXTENDED) -> ExtValue:
    return plan_graph(plan, [(v, w)], space, mode).evaluate()[0]


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
