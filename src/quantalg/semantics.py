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
from itertools import product, repeat, starmap
from math import gcd, lcm
from operator import attrgetter, is_, itemgetter, mul
from typing import Callable, Dict, List, Optional, Tuple
from weakref import ref as weak_ref

from .errors import DomainError
from .extvalue import INF, INT_INF, ONE, ExtValue
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
    canonically; f meets the guards in v's item order.  A value in which f
    changed nothing is v itself, not rebuilt."""
    kind = type(v)
    if kind is Guard:
        w = f(v.inner)
        return v if w is v.inner else Guard(v.name, v.c, w)
    if kind is PairVal:
        w = map_guards(v.inner, f)
        return v if w is v.inner else PairVal(v.alpha, w)
    if kind not in (DistVal, SetVal, FuncVal):
        return v
    old = v.support if kind is DistVal else [x for _, x in v.items] if kind is FuncVal else v.items
    new = [map_guards(x, f) for x in old]
    if all(map(is_, new, old)):
        return v
    if kind is DistVal:
        return make_dist(zip(new, v.weights), v.W)
    if kind is SetVal:
        return make_set(new)
    return FuncVal(tuple(zip((i for i, _ in v.items), new)))


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
_READS = {_STATE: lambda op: (), _GUARD: lambda op: (op[2],), _PAIR: lambda op: (op[2],),
          _FUNC: itemgetter(2), _MEAN: itemgetter(2), _KANT: itemgetter(2), _HAUS: itemgetter(2)}


class PairGraph:
    """The distance kernel compiled over a list of root value pairs.

    One walk of the pair recursion gives each pair of values it meets a
    slot; equal pairs share the slot of ZERO, and mirrored pairs share one.
    A slot holds a constant of the walk (leaf, coproduct and monoid
    distances) or the result of an op on earlier slots: a state pair's
    distance, c times a guard's inner distance, a monoid distance plus the
    inner distance, the largest over a function's inputs, Kantorovich over
    a cost matrix, its one coupling's cost if a distribution is a point
    mass, or Hausdorff over its cells (a column is read off the rows, as
    mirrored pairs share a slot).  Values are compared, and the slots
    keyed, by identity.

    Every slot k has a static int scale `den[k]`, fixed as it is built, and
    an evaluation handed state distances whose finite denominators have the
    lcm S holds slot k's value as an int x standing for x / (den[k] * S)
    (INT_INF for INF), so it does only int products, sums, comparisons and
    transports.  A constant n/d has den d; a state pair 1; a guard of
    factor p/q den[j] * q over its inner slot j; a pair the lcm of den[j]
    and its monoid distance's denominator; an op over cells (a function, a
    Hausdorff, a Kantorovich or a point-mass slot) W * K, with K the lcm of
    its cells' dens and W the lcm of its masses' denominators (1 for
    functions and sets).  The ops, with each child's multiplier to the
    op's scale:

    - (_STATE, k, i): the state pair `state_index(u, v)` = i;
    - (_GUARD, k, j, p, q): x_j * p;
    - (_PAIR, k, j, m, a, alpha): x_j * m + a * S, alpha the monoid distance;
    - (kind, k, cells, mults, K, W, *data) for the other four: each cell
      j read at scale K as x_j * its mult (mults None if every one is 1),
      and, for a distribution or a set layer in bounded mode, capped at
      K * S (at 1); a Hausdorff op's data is its column count, a
      Kantorovich op's its masses as ints over W, a point mass's the other
      side's weights over W.

    Each Kantorovich slot keeps its last optimal `Transport` in `plans`,
    and the next evaluation's transport starts from its basis tree: the
    masses are the same, so it is still feasible.  An op that is INF
    whatever its op slots give is folded to the constant INF as it is built
    (`_infinite`), and then the ops that no root reads through op slots are
    dropped.  Under a strategy an INF candidate is the first largest, and
    `policy`'s finite rows read only finite cells, so neither reads a
    folded slot."""

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
        self.den: List[int] = [1]  # every slot's scale
        self._nums: list = [0]  # a constant's numerator over its den; 0 for an op's slot
        self.ops: Dict[int, tuple] = {}  # an op slot's op, children first
        self.plans: Dict[int, Transport] = {}  # a Kantorovich slot's last optimum
        self._val, self._scale, self._evaluated = [], 1, []  # the last evaluation (`evaluated`)
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
                    self.plans.pop(k, None)
        del self._slots, self._inf

    def _slot(self, a: SemValue, b: SemValue) -> int:
        if a is b:  # equal values are one object
            return 0
        k = self._slots.get((a, b))
        if k is None:
            node, k = self._node(a, b), len(self.den)
            if type(node) is tuple:
                den, op = node[0], (node[1], k) + node[2:]
                # check only ops that read an INF constant or hold sets
                if (self._inf or op[0] == _HAUS) and self._infinite(op):
                    node, self._folded = INF, True
                else:
                    self.ops[k], node, num = op, None, 0
            if node is not None:  # a constant n/d: n over den d
                num, den = node.ratio
                if not den:
                    num, den = INT_INF, 1
                    self._inf.add(k)
            self._nums.append(num)
            self.den.append(den)
            self._slots[(a, b)] = self._slots[(b, a)] = k
        return k

    def _infinite(self, op) -> bool:
        """Whether op is INF whatever its op slots give: `evaluate`'s rules on
        the INF constants it reads.  A Kantorovich slot is INF when no
        coupling avoids its INF cells: its transport over the {0, INT_INF}
        ground is infinite; when one does, that transport is feasible for
        the slot's masses and starts its first solve."""
        kind, inf, reads = op[0], self._inf, _READS[op[0]](op)
        if kind == _HAUS and not reads:
            return True  # one empty set (two are one value)
        if kind in (_GUARD, _PAIR, _FUNC) or kind == _MEAN and self.top.is_inf:
            return not inf.isdisjoint(reads)
        if kind in (_STATE, _MEAN) or not self.top.is_inf or inf.isdisjoint(reads):
            return False  # a truncated ground, or no INF cell
        n = op[6] if kind == _HAUS else len(op[7])
        rows = [reads[i:i + n] for i in range(0, len(reads), n)]
        if any(map(inf.issuperset, rows)) or any(map(inf.issuperset, zip(*rows))):
            return True  # an all-INF row or column: a point with only INF cells
        if kind == _HAUS:
            return False
        plan = solve_scaled(op[6], op[7], op[5], 1, [INT_INF if j in inf else 0 for j in reads])
        if plan.total is INT_INF:
            return True
        self.plans[op[1]] = plan
        return False

    def _node(self, a: SemValue, b: SemValue):
        """The distance of a and b as a constant, or as an op (den, kind,
        *data) on the slots of their children, den its slot's scale."""
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
            j = self._slot(a.inner, b.inner)
            p, q = a.c.as_integer_ratio()
            return self.den[j] * q, _GUARD, j, p, q
        if kind is StateLeaf:
            if self.state_index is None:
                raise DomainError(f"states {a.name}, {b.name} need a state metric")
            return 1, _STATE, self.state_index(a.name, b.name)
        if kind is DistVal:  # a point mass has one coupling: the ground's mean under the other side
            if len(b.support) == 1:
                cells = list(map(self._slot, a.support, repeat(b.support[0])))
                return self._op(_MEAN, cells, a.W, a.weights)
            if len(a.support) == 1:
                cells = list(map(self._slot, repeat(a.support[0]), b.support))
                return self._op(_MEAN, cells, b.W, b.weights)
            W = lcm(a.W, b.W)  # the masses over it, as scale_masses scales them
            cells = list(starmap(self._slot, product(a.support, b.support)))  # no frame per level
            return self._op(_KANT, cells, W, [k * (W // a.W) for k in a.weights],
                            [k * (W // b.W) for k in b.weights])
        if kind is SetVal:
            return self._op(_HAUS, [self._slot(x, y) for x in a.items for y in b.items], 1,
                            len(b.items))
        if kind is FuncVal:
            if [i for i, _ in a.items] != [i for i, _ in b.items]:
                raise DomainError("function values over different input sets")
            cells = [self._slot(x, y) for (_, x), (_, y) in zip(a.items, b.items)]
            return self._op(_FUNC, cells, 1)
        if kind is PairVal:
            alpha = self._alpha_dist(a.alpha, b.alpha)
            j = self._slot(a.inner, b.inner)
            n, d = alpha.ratio
            if not d:  # an infinite monoid distance: the pair is INF, and j may be unread
                self._folded = True
                return INF
            den = lcm(self.den[j], d)
            return den, _PAIR, j, den // self.den[j], n * (den // d), alpha
        if kind is VarLeaf:
            if self.space is None:
                raise DomainError(f"variables {a.name}, {b.name} need a ground space")
            return self.space.d(a.name, b.name).truncated(self.top)
        if self.exc_space is None:
            return self.top  # distinct exception labels, no metric given
        return self.exc_space.d(a.label, b.label).truncated(self.top)

    def _op(self, kind: int, cells: List[int], W: int, *data):
        """An op over cells, read at K, the lcm of their scales, with its
        slot's scale W * K: (W * K, kind, cells, their multipliers to K, or
        None if all are 1, K, W, *data)."""
        den = self.den
        dens = [den[j] for j in cells]
        K = lcm(*dens)
        mults = None if dens.count(K) == len(dens) else [K // d for d in dens]
        return W * K, kind, cells, mults, K, W, *data

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
        a strategy, the candidates as ints over the node's scale.  The graph
        keeps every slot's value (`evaluated`) and each Kantorovich slot's
        optimal transport in `plans` (see `policy`)."""
        ratios = [x.ratio for x in states or ()]
        S = lcm(*(d for _, d in ratios if d))
        xs = [n * (S // d) if d else INT_INF for n, d in ratios]
        val = [x * S for x in self._nums] if S > 1 else list(self._nums)
        bounded, plans = not self.top.is_inf, self.plans
        for op in self.ops.values():
            kind = op[0]
            if kind == _PAIR:
                out = val[op[2]] * op[3] + op[4] * S
            elif kind == _GUARD:
                out = val[op[2]] * op[3]
            elif kind == _STATE:
                out = xs[op[2]]
            else:
                cells = [val[j] for j in op[2]]
                if op[3] is not None:
                    cells = list(map(mul, cells, op[3]))
                if bounded and kind != _FUNC:  # a distribution or set layer's ground
                    cap = op[4] * S
                    cells = [x if x <= cap else cap for x in cells]
                if kind == _KANT:
                    plan = plans[op[1]] = solve_scaled(op[6], op[7], op[5], op[4] * S, cells,
                                                       plans.get(op[1]))
                    out = plan.total
                elif kind == _MEAN:  # sum weight * ground over W * K * S
                    out = sum(map(mul, op[6], cells))
                else:
                    if kind == _HAUS:
                        n = op[6]
                        cells = hausdorff_candidates(
                            [cells[i:i + n] for i in range(0, len(cells), n)], n)
                    out = max(cells) if strategy is None else strategy.pick(op[1], cells)
            val[op[1]] = out
        self._val, self._scale, self._evaluated = val, S, None
        den = self.den
        return [INF if val[k] is INT_INF else ExtValue(val[k], den[k] * S) for k in self.roots]

    @property
    def evaluated(self) -> List[ExtValue]:
        """Every slot's value at the last evaluation, built when first read."""
        if self._evaluated is None:
            S = self._scale
            self._evaluated = [INF if x is INT_INF else ExtValue(x, d * S)
                               for x, d in zip(self._val, self.den)]
        return self._evaluated

    def policy(self, strategy) -> list:
        """Each root's distance at the graph's last evaluation, which was under
        the strategy, as an integer row (D, b, {k: c}), the affine form
        (b + sum c * states[k])/D, None if it is infinite, read off that
        evaluation's slot values and transports and the strategy's choices:
        the chosen candidate, a Hausdorff candidate's first nearest point, a
        coupling's integer flows (a transport's basic ones, or a mean's
        weights; the row divided by its gcd), and 1 for a capped cell.
        The rows of choice-free slots (constants, state pairs, and guard and
        pair ops over such slots) are kept across calls in `_forms`, the
        others' for one call; rows are shared, so no reader changes one."""
        val, den, S, choice, plans, fixed = (self._val, self.den, self._scale, strategy.choice,
                                             self.plans, self._forms)
        bounded = not self.top.is_inf
        memo: Dict[int, tuple] = {}

        def ground(k):  # a cell's row as a distribution or set layer sees it
            return (1, 1, {}) if bounded and val[k] > den[k] * S else form(k)

        def form(k):  # k's value is finite, and so are those of the slots it reads
            row = fixed.get(k) or memo.get(k)
            if row is not None:
                return row
            op, keep = self.ops.get(k), memo
            if op is None:
                row, keep = (den[k], self._nums[k], {}), fixed
            elif op[0] == _STATE:
                row, keep = (1, 0, {op[2]: 1}), fixed
            elif op[0] == _GUARD:
                D, b, coef = form(op[2])
                n, d = op[3], op[4]
                row = D * d, b * n, {j: w * n for j, w in coef.items()}
                keep = fixed if op[2] in fixed else memo
            elif op[0] == _PAIR:  # b/D + n/d over the lcm of D and d
                D, b, coef = form(op[2])
                n, d = op[5].ratio
                s = d // gcd(D, d)
                row = D * s, b * s + n * (D * s // d), {j: w * s for j, w in coef.items()}
                keep = fixed if op[2] in fixed else memo
            elif op[0] == _FUNC:
                row = form(op[2][choice[k]])
            elif op[0] == _HAUS:  # a candidate's cells: a row, or a column after the rows
                i, cells, mults, n = choice[k], op[2], op[3] or [1] * len(op[2]), op[6]
                rows, cap = len(cells) // n, op[4] * S if bounded else INT_INF
                at = range(i * n, i * n + n) if i < rows else range(i - rows, len(cells), n)
                row = ground(cells[min(at, key=lambda p: min(val[cells[p]] * mults[p], cap))])
            else:  # a coupling's cells: a point mass's one, or a transport's basic flows
                n = len(op[7]) if op[0] == _KANT else 0
                cells = [(f, ground(j)) for f, j in (zip(op[6], op[2]) if op[0] == _MEAN else (
                    (f, op[2][i * n + j]) for (i, j), f in plans[k].basis.items() if f))]
                L = lcm(*(D for _, (D, _, _) in cells))
                b, coef = 0, {}
                for f, (D, fb, fcoef) in cells:
                    s = f * (L // D)
                    b += s * fb
                    for u, w in fcoef.items():
                        coef[u] = coef.get(u, 0) + s * w
                g = gcd(L * op[5], b, *coef.values())
                row = L * op[5] // g, b // g, {u: w // g for u, w in coef.items()}
            keep[k] = row
            return row

        forms = [None if val[k] is INT_INF else form(k) for k in self.roots]
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
