"""Finite coalgebras of composed theories, the discounted bisimilarity-metric
operator, certified fixed-point solving, and the term/coalgebra bridge.

A state's behaviour is a one-step value of the theory's layer plan whose
guards hold the successor states, so the bisimilarity-metric operator is
the term distance on one-step values with c times the current iterate
between successor states.  Markov processes, labelled Markov processes,
Mealy machines and MDPs are the plans of `markov_process_theory`,
`labelled_mp_theory`, `mealy_theory` and `mdp_theory`; they are also the
four kinds of the text format, whose transition targets are states, the
termination point `bot`, or `leaf(x)` ground points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DivergentGround, DomainError, UnsupportedShape
from .extvalue import INF, ZERO, ExtValue
from .lexing import TokenStream
from .semantics import (BOUNDED, EXTENDED, DistVal, ExcLeaf, FuncVal, Guard,
                        PairVal, SemValue, SetVal, StateLeaf, VarLeaf,
                        denote_with_plan, make_dist, map_guards,
                        sem_dist_with_plan)
from .spaces import FinDist, FinMetricSpace
from .terms import (App, Term, Var, app, conv, empty_op, next_op, raise_,
                    read, union_op, write)
from .theories import (LayerPlan, Monoid, RATIONAL_LINE, RationalLineMonoid,
                       TheoryExpr, labelled_mp_theory, layer_plan,
                       markov_process_theory, mdp_theory, mealy_theory)

BOT = ("bot",)


def state_target(name: str) -> tuple:
    return ("st", name)


def leaf_target(point: str) -> tuple:
    return ("leaf", point)


class Coalgebra:
    """Finite system over a layer plan with one contractive operator.

    Representation: `plan` is the theory's layer plan and `step` maps each
    state to its one-step value, a `SemValue` of that plan in which every
    guard holds a `StateLeaf` naming the successor state.  The text format's
    `bot` is `ExcLeaf("*")` and its `leaf(x)` is `VarLeaf(x)`.  The discount
    factor `c` is the contractive operator's.

    The constructor takes the text format's view: a kind (mp, lmp, mealy,
    mdp) and a table `trans` keyed by state (mp) or by (state, action or
    input), whose rows are distributions over targets, (target, reward)
    pairs for mdp, or (target, output) pairs for mealy.  The `trans`
    property reads the values back in that form.  `of_values` builds a
    system over any plan with one contractive operator.
    """

    def __init__(self, kind: str, c, states: Sequence[str], trans: dict,
                 actions: Optional[Sequence[str]] = None,
                 inputs: Optional[Sequence[str]] = None,
                 monoid: Optional[Monoid] = None,
                 space: Optional[FinMetricSpace] = None,
                 name: str = "system"):
        c = Fraction(c)
        if not (0 < c < 1):
            raise DomainError("discount factor must be in (0, 1)")
        self._init(layer_plan(_kind_theory(kind, c, actions, inputs, monoid)),
                   states, space, name)
        self.step = _values_of_trans(self, dict(trans))

    @classmethod
    def of_values(cls, plan: LayerPlan, states: Sequence[str],
                  step: Dict[str, SemValue],
                  space: Optional[FinMetricSpace] = None,
                  name: str = "system") -> "Coalgebra":
        C = cls.__new__(cls)
        C._init(plan, states, space, name)
        if set(step) != set(C.states):
            raise DomainError("every state needs exactly one one-step value")
        C.step = dict(step)
        return C

    def _init(self, plan, states, space, name):
        if len(plan.guards) != 1:
            raise UnsupportedShape("a coalgebra needs exactly one contractive operator")
        self.plan = plan
        self.c = plan.guards[0].c
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states) or not self.states:
            raise DomainError("states must be nonempty and distinct")
        self.space = space
        self.name = name
        self.kind = _plan_kind(plan)

    @property
    def trans(self) -> dict:
        return _trans_of_values(self)

    @property
    def inputs(self) -> Optional[Tuple[str, ...]]:
        """The function layer's inputs (actions or Mealy inputs), if any."""
        return next((l[1] for l in self.plan.layers if l[0] == "func"), None)

    @property
    def monoid(self) -> Optional[Monoid]:
        return next((l[1] for l in self.plan.layers if l[0] == "pair"), None)


class PseudoMetric:
    """Symmetric state-pair table with zero diagonal."""

    def __init__(self, states: Sequence[str],
                 table: Optional[Dict[Tuple[str, str], ExtValue]] = None):
        self.states = tuple(states)
        self._index = {s: k for k, s in enumerate(self.states)}
        self._t: Dict[Tuple[str, str], ExtValue] = {}
        for i, u in enumerate(self.states):
            for v in self.states[i + 1:]:
                self._t[(u, v)] = ZERO
        if table:
            for (u, v), val in table.items():
                self._t[self._key(u, v)] = val

    def _key(self, u: str, v: str) -> Tuple[str, str]:
        if u not in self._index or v not in self._index:
            raise DomainError(f"pair ({u}, {v}) outside the state set")
        return (u, v) if self._index[u] <= self._index[v] else (v, u)

    def d(self, u: str, v: str) -> ExtValue:
        if u == v:
            return ZERO
        return self._t[self._key(u, v)]

    def pairs(self):
        return sorted(self._t.items())

    def sup_diff(self, other: "PseudoMetric") -> ExtValue:
        worst = ZERO
        for k, val in self._t.items():
            o = other._t[k]
            if val.is_inf or o.is_inf:
                if val != o:
                    return INF
                continue
            gap = ExtValue(abs(val.rational - o.rational))
            if gap > worst:
                worst = gap
        return worst

    def __eq__(self, other):
        return isinstance(other, PseudoMetric) and self.states == other.states \
            and self._t == other._t


def zero_metric(states: Sequence[str]) -> PseudoMetric:
    return PseudoMetric(states)


# ---------------------------------------------------------------------------
# The one-step operator

def psi_step(C: Coalgebra, d: PseudoMetric, mode: str = BOUNDED) -> PseudoMetric:
    """One application of the bisimilarity-metric operator: the term distance
    between the states' one-step values, with d between successor states."""
    memo: dict = {}
    table: Dict[Tuple[str, str], ExtValue] = {}
    for i, u in enumerate(C.states):
        for v in C.states[i + 1:]:
            table[(u, v)] = sem_dist_with_plan(C.step[u], C.step[v], C.plan,
                                               C.space, mode, memo, d.d)
    return PseudoMetric(C.states, table)


@dataclass
class Certificate:
    """Machine-readable convergence evidence for the fixed-point solver."""

    iterations: int
    c: Fraction
    mode: str
    tol: Fraction
    initial_gap: ExtValue
    a_priori_bound: ExtValue
    residual: ExtValue
    exact: bool

    def as_record(self) -> dict:
        return {k: v if isinstance(v, (bool, int)) else str(v)
                for k, v in vars(self).items()}


def solve_bisim(C: Coalgebra, tol, mode: str = BOUNDED
                ) -> Tuple[PseudoMetric, Certificate]:
    """Iterate Psi from the zero metric until the a-priori Banach bound
    c^k/(1-c) * ||Psi(0)|| drops below tol, or the iterate is an exact fixed
    point.  The returned metric d_k satisfies ||d_k - d*|| <= tol.

    In bounded mode ||Psi(0)|| can be infinite (an infinite monoid distance,
    or a Hausdorff distance to the empty set); while the bound is infinite
    it is replaced by the a-posteriori bound c/(1-c) * ||d_k - d_{k-1}||.
    That is finite once the set of infinite pairs has stopped growing, and
    from then on Psi is a c-contraction on the remaining pairs.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise DomainError("tol must be positive")
    d0 = zero_metric(C.states)
    d1 = psi_step(C, d0, mode)
    gap = d1.sup_diff(d0)
    if mode == EXTENDED and gap.is_inf:
        bad = next(k for k, v in d1.pairs() if v.is_inf)
        raise DivergentGround(
            f"extended-mode ground distance is infinite on pair {bad}")
    if d1 == d0:
        cert = Certificate(1, C.c, mode, tol, gap, ZERO, ZERO, True)
        return d0, cert
    shrink = C.c / (1 - C.c)
    k = 1
    d = d1
    bound = gap.scaled(shrink)
    exact = False
    while bound > ExtValue(tol):
        d_next = psi_step(C, d, mode)
        k += 1
        if d_next == d:
            d = d_next
            bound = ZERO
            exact = True
            break
        if bound.is_inf:
            bound = d_next.sup_diff(d).scaled(shrink)
        else:
            bound = bound.scaled(C.c)
        d = d_next
    if exact:
        residual = ZERO
    else:
        residual = psi_step(C, d, mode).sup_diff(d)
        if residual == ZERO:
            exact = True
    return d, Certificate(k, C.c, mode, tol, gap, bound, residual, exact)


# ---------------------------------------------------------------------------
# Terms to coalgebras

def unfold_term(t: Term, th: TheoryExpr,
                space: Optional[FinMetricSpace] = None,
                name: str = "unfolded") -> Tuple[Coalgebra, str]:
    """Guard-closure of the term's denotation as a finite coalgebra.

    Each guard's inner value becomes a state, numbered in the order the
    guards are met; the result is acyclic by construction.  Returns the
    coalgebra and the root state.
    """
    plan = layer_plan(th)
    root = denote_with_plan(t, plan)
    names: Dict[SemValue, StateLeaf] = {}
    order: List[SemValue] = []

    def visit(value: SemValue) -> StateLeaf:
        if value not in names:
            names[value] = StateLeaf(f"s{len(order)}")
            order.append(value)
        return names[value]

    visit(root)
    step = {}
    for value in order:  # grows while it is walked
        step[names[value].name] = map_guards(value, visit)
    C = Coalgebra.of_values(plan, [names[v].name for v in order], step, space, name)
    return C, names[root].name


def disjoint_union(A: Coalgebra, B: Coalgebra,
                   tags: Tuple[str, str] = ("a", "b")) -> Coalgebra:
    """Tag and merge two systems over the same plan."""
    if A.plan != B.plan:
        raise DomainError("cannot union systems of different shapes")
    step: Dict[str, SemValue] = {}
    for side, tag in ((A, tags[0]), (B, tags[1])):
        for s in side.states:
            step[f"{tag}.{s}"] = map_guards(
                side.step[s], lambda st, tag=tag: StateLeaf(f"{tag}.{st.name}"))
    return Coalgebra.of_values(A.plan, list(step), step, A.space or B.space,
                               f"{A.name}+{B.name}")


# ---------------------------------------------------------------------------
# Coalgebras back to terms

CUT_VARIABLE = "_cut"


def approx_term(C: Coalgebra, state: str, depth: int) -> Term:
    """Depth-k unfolding of a (possibly cyclic) state into a term; deeper
    behaviour is cut to an exception (raise(*) in the one-point exception
    space) when the plan has exceptions and to a designated cut variable
    otherwise."""
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if state not in C.step:
        raise DomainError(f"unknown state {state!r}")
    exc = C.plan.exc_space
    cut = app(raise_(exc.points[0])) if exc is not None else Var(CUT_VARIABLE)

    def term(v: SemValue, k: int) -> Term:
        if isinstance(v, DistVal):
            return _convex_chain([(term(x, k), w) for x, w in v.items])
        if isinstance(v, SetVal):
            return _union_chain([term(x, k) for x in v.items])
        if isinstance(v, FuncVal):
            return App(read(len(v.items)), tuple(term(x, k) for _, x in v.items))
        if isinstance(v, PairVal):
            return App(write(v.alpha), (term(v.inner, k),))
        if isinstance(v, Guard):
            return App(next_op(v.name, v.c), (go(v.inner.name, k - 1),))
        if isinstance(v, ExcLeaf):
            return app(raise_(v.label))
        return Var(v.name)

    def go(s: str, k: int) -> Term:
        return cut if k == 0 else term(C.step[s], k)

    return go(state, depth)


def _convex_chain(items: List[Tuple[Term, Fraction]]) -> Term:
    if len(items) == 1:
        return items[0][0]
    (t0, w0) = items[0]
    rest = [(t, w / (1 - w0)) for t, w in items[1:]]
    return App(conv(w0), (t0, _convex_chain(rest)))


def _union_chain(terms: List[Term]) -> Term:
    if not terms:
        return app(empty_op())
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = App(union_op(), (t, out))
    return out


# ---------------------------------------------------------------------------
# Text format

def _kind_theory(kind: str, c: Fraction, actions, inputs, monoid) -> TheoryExpr:
    """The composed theory a text-format kind names."""
    if kind == "mp":
        return markov_process_theory(c)
    if kind in ("lmp", "mdp"):
        if not actions:
            raise DomainError(f"{kind} needs a nonempty action set")
        return (labelled_mp_theory if kind == "lmp" else mdp_theory)(actions, c)
    if kind == "mealy":
        if not inputs or monoid is None:
            raise DomainError("mealy needs inputs and an output monoid")
        return mealy_theory(inputs, monoid, c)
    raise DomainError(f"unknown coalgebra kind {kind!r}")


def _plan_kind(plan: LayerPlan) -> Optional[str]:
    """The text-format kind naming the plan, or None if the format has none."""
    shapes = tuple(layer[0] for layer in plan.layers)
    exc = plan.exc_space
    if exc is not None and tuple(exc.points) != ("*",):
        return None
    if shapes == ("dist",):
        return "mp"
    if shapes == ("func", "dist"):
        return "lmp"
    if exc is None and shapes == ("func", "pair"):
        return "mealy"
    if exc is None and shapes == ("func", "dist", "pair") \
            and isinstance(plan.layers[2][1], RationalLineMonoid):
        return "mdp"
    return None


def _values_of_trans(C: Coalgebra, trans: dict) -> Dict[str, SemValue]:
    """The text format's transition table as one-step values of C's plan."""
    layers = C.plan.layers
    guard = C.plan.guards[0]
    known = set(C.states)
    if layers[0][0] == "func":
        keys = [(s, i) for s in C.states for i in layers[0][1]]
    else:
        keys = list(C.states)
    for k in keys:
        if k not in trans:
            raise DomainError(f"missing transition row for {k!r}")
    if len(trans) != len(keys):
        bad = next(k for k in trans if k not in set(keys))
        raise DomainError(f"transition row for unknown key {bad!r}")

    def target(t) -> SemValue:
        if t[0] == "st":
            if t[1] not in known:
                raise DomainError(f"transition to unknown state {t[1]!r}")
            return Guard(guard.name, guard.c, StateLeaf(t[1]))
        if t[0] == "bot":
            if C.plan.exc_space is None:
                raise DomainError(f"{C.kind} transitions cannot use bot")
            return ExcLeaf("*")
        if t[0] == "leaf":
            if C.space is not None and t[1] not in C.space.points:
                raise DomainError(f"leaf point {t[1]!r} outside the space")
            return VarLeaf(t[1])
        raise DomainError(f"unknown target {t!r}")

    def cell(k, row, layers) -> SemValue:
        if not layers:
            return target(row)
        if layers[0][0] == "dist":
            if row.mass != 1:
                raise DomainError(f"row {k!r} has mass {row.mass}, expected 1")
            return make_dist((cell(k, x, layers[1:]), w) for x, w in row.items)
        t, alpha = row  # the pair layer
        if not layers[0][1].contains(alpha):
            raise DomainError(f"output {alpha!r} outside the monoid")
        return PairVal(alpha, cell(k, t, layers[1:]))

    if layers[0][0] == "func":
        return {s: FuncVal(tuple((i, cell((s, i), trans[(s, i)], layers[1:]))
                                 for i in layers[0][1]))
                for s in C.states}
    return {s: cell(s, trans[s], layers) for s in C.states}


def _trans_of_values(C: Coalgebra) -> dict:
    """C's one-step values as a text-format transition table."""
    if C.kind is None:
        raise UnsupportedShape("no coalgebra kind for layer shape "
                               + ("/".join(l[0] for l in C.plan.layers) or "leaf"))

    def row(v: SemValue):
        if isinstance(v, DistVal):
            return FinDist.from_pairs((row(x), w) for x, w in v.items)
        if isinstance(v, PairVal):
            return (row(v.inner), v.alpha)
        if isinstance(v, Guard):
            return state_target(v.inner.name)
        if isinstance(v, ExcLeaf):
            return BOT
        return leaf_target(v.name)

    trans = {}
    for s in C.states:
        v = C.step[s]
        if isinstance(v, FuncVal):
            for i, inner in v.items:
                trans[(s, i)] = row(inner)
        else:
            trans[s] = row(v)
    return trans


def parse_coalgebras(text: str, monoids: Optional[Dict[str, Monoid]] = None,
                     space: Optional[FinMetricSpace] = None,
                     source: str = "<coalgebra>") -> Dict[str, Coalgebra]:
    """Parse mp/lmp/mealy/mdp blocks; returns name -> coalgebra."""
    ts = TokenStream(text, source)
    out: Dict[str, Coalgebra] = {}
    while not ts.at(""):
        kind_tok = ts.expect_ident()
        kind = kind_tok.text
        if kind not in ("mp", "lmp", "mealy", "mdp"):
            raise ts.error(f"expected mp/lmp/mealy/mdp, found {kind!r}", kind_tok)
        name = ts.expect_ident().text
        for tok in ("{", "c", "="):
            ts.expect(tok)
        c = ts.expect_rational()
        ts.expect(";")
        labels, monoid = None, RATIONAL_LINE
        if kind != "mp":
            ts.expect("inputs" if kind == "mealy" else "actions")
            ts.expect(":")
            labels = [ts.expect_ident().text]
            while ts.accept(","):
                labels.append(ts.expect_ident().text)
            ts.expect(";")
        if kind == "mealy" and ts.accept("monoid"):
            ts.expect(":")
            ref = ts.expect_ident().text
            if not monoids or ref not in monoids:
                raise ts.error(f"unknown monoid {ref!r}")
            monoid = monoids[ref]
            ts.expect(";")
        states: List[str] = []
        trans: dict = {}
        while not ts.accept("}"):
            ts.expect("state")
            s = key = ts.expect_ident().text
            if s not in states:
                states.append(s)
            if kind != "mp":
                ts.expect("on")
                key = (s, ts.expect_ident().text)
            if kind == "mealy":
                ts.expect("->")
                trans[key] = _parse_pair(ts, _parse_output)
            else:
                ts.expect(":")
                trans[key] = _parse_dist_row(ts, kind)
            ts.expect(";")
        try:
            out[name] = Coalgebra(kind, c, states, trans, actions=labels,
                                  inputs=labels, monoid=monoid, space=space,
                                  name=name)
        except DomainError as exc:
            raise DomainError(f"{source}: system {name}: {exc}") from None
    return out


def _parse_target(ts: TokenStream) -> tuple:
    tok = ts.next()
    if tok.text == "bot":
        return BOT
    if tok.text == "leaf":
        ts.expect("(")
        point = ts.next()
        if point.kind not in ("ident", "num") and point.text != "*":
            raise ts.error(f"expected a leaf point, found {point.text!r}", point)
        ts.expect(")")
        return leaf_target(point.text)
    if tok.kind != "ident":
        raise ts.error(f"expected a target, found {tok.text!r}", tok)
    return state_target(tok.text)


def _parse_output(ts: TokenStream):
    tok = ts.next()
    if tok.kind == "num":
        return Fraction(tok.text)
    if tok.kind == "ident":
        return tok.text
    raise ts.error(f"expected a monoid element, found {tok.text!r}", tok)


def _parse_pair(ts: TokenStream, second) -> tuple:
    """`(target, x)` with x read by `second`: a reward or an output."""
    ts.expect("(")
    target = _parse_target(ts)
    ts.expect(",")
    x = second(ts)
    ts.expect(")")
    return (target, x)


def _parse_dist_row(ts: TokenStream, kind: str) -> FinDist:
    pairs = []
    while not pairs or ts.accept(","):
        w = ts.expect_rational()
        ts.expect("->")
        if kind == "mdp":
            pairs.append((_parse_pair(ts, TokenStream.expect_rational), w))
        else:
            pairs.append((_parse_target(ts), w))
    return FinDist.from_pairs(pairs)


def format_coalgebra(C: Coalgebra, monoid_name: Optional[str] = None) -> str:
    """Render a coalgebra in the text format parse_coalgebras accepts.

    Mealy systems over a table monoid need `monoid_name`, the name the
    reader will resolve through its monoid file."""
    trans = C.trans
    kind = C.kind
    lines = [f"{kind} {C.name} {{", f"  c = {C.c};"]
    if kind != "mp":
        label = "inputs" if kind == "mealy" else "actions"
        lines.append(f"  {label}: " + ", ".join(C.inputs) + ";")
    if kind == "mealy" and not isinstance(C.monoid, RationalLineMonoid):
        if monoid_name is None:
            raise DomainError(
                "a table-monoid mealy system needs a monoid name to serialize")
        lines.append(f"  monoid: {monoid_name};")

    def text(x) -> str:  # a target, or a (target, reward or output) pair
        if isinstance(x[0], tuple):
            return f"({text(x[0])}, {x[1]})"
        if x[0] == "st":
            return x[1]
        if x[0] == "bot":
            return "bot"
        return f"leaf({x[1]})"

    for key, row in trans.items():
        head = f"  state {key}" if kind == "mp" else f"  state {key[0]} on {key[1]}"
        if kind == "mealy":
            lines.append(f"{head} -> {text(row)};")
        else:
            lines.append(f"{head}: " + ", ".join(f"{w} -> {text(x)}" for x, w in row.items) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
