"""Finite coalgebras of composed theories, the discounted bisimilarity-metric
operator, exact fixed-point solving, and the term/coalgebra bridge.

A state's behaviour is a one-step value of the theory's layer plan whose
guards hold the successor states, so the bisimilarity-metric operator is
the term distance on one-step values with c times the current iterate
between successor states: a pair graph built once per system and mode,
evaluated at each iterate, and policy iteration reads its policies off it
(`Coalgebra.pair_graph`, `PairGraph.policy`).  Markov processes, labelled
Markov processes, Mealy machines and MDPs are the plans of
`markov_process_theory`, `labelled_mp_theory`, `mealy_theory` and
`mdp_theory`; they are also the four kinds of the text format, which reads
each row straight into a one-step value and writes it back from one.  A
target there is a state, the termination point `bot` (`ExcLeaf("*")`) or a
ground point `leaf(x)` (`VarLeaf(x)`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, QuantAlgError, UnsupportedShape
from .extvalue import ZERO, ExtValue
from .lexing import TokenStream
from .semantics import (BOUNDED, DistVal, ExcLeaf, FuncVal, Guard,
                        PairGraph, PairVal, SemValue, SetVal, StateLeaf, VarLeaf,
                        denote_with_plan, make_dist, map_guards, plan_graph)
from .spaces import FinMetricSpace
from .terms import (App, Term, Var, app, conv, empty_op, next_op, raise_,
                    read, union_op, write)
from .theories import (LayerPlan, Monoid, RATIONAL_LINE, RationalLineMonoid,
                       TheoryExpr, labelled_mp_theory, layer_plan,
                       markov_process_theory, mdp_theory, mealy_theory)


class Coalgebra:
    """Finite system over a layer plan with one contractive operator.

    Representation: `plan` is the theory's layer plan and `step` maps each
    state to its one-step value, a `SemValue` of that plan in which every
    guard holds a `StateLeaf` naming the successor state, which
    `successors` lists per state in item order, read off by one
    `map_guards` walk; a guard holding anything else is a DomainError.  The
    discount factor `c` is the contractive operator's.  The text format's
    kinds are four such plans; its `bot` is `ExcLeaf("*")` and its `leaf(x)`
    is `VarLeaf(x)`.  `pairs` lists the state pairs (u, v), u before v, in
    the order of a `PseudoMetric`'s `values` and of Psi's unknowns.
    """

    def __init__(self, plan: LayerPlan, states: Sequence[str],
                 step: Dict[str, SemValue],
                 space: Optional[FinMetricSpace] = None,
                 name: str = "system"):
        if len(plan.guards) != 1:
            raise UnsupportedShape("a coalgebra needs exactly one contractive operator")
        self.plan = plan
        self.c = plan.guards[0].c
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states) or not self.states:
            raise DomainError("states must be nonempty and distinct")
        if set(step) != set(self.states):
            raise DomainError("every state needs exactly one one-step value")
        self.step = dict(step)

        def successor(leaf: SemValue) -> SemValue:
            if not isinstance(leaf, StateLeaf) or leaf.name not in self.step:
                raise DomainError(f"transition to unknown state {getattr(leaf, 'name', leaf)!r}")
            out.append(leaf.name)
            return leaf

        self.successors: Dict[str, List[str]] = {}
        for s in self.states:
            out = self.successors[s] = []
            map_guards(self.step[s], successor)
        self.space = space
        self.name = name
        self.pairs = _pairs(self.states)
        self._graphs: Dict[str, PairGraph] = {}

    def pair_graph(self, mode: str) -> PairGraph:
        """Psi's pair graph in `mode` over the one-step values of `pairs`, its
        state leaves numbered by `PseudoMetric.index`, built once and kept."""
        if mode not in self._graphs:
            steps = [(self.step[u], self.step[v]) for u, v in self.pairs]
            self._graphs[mode] = plan_graph(self.plan, steps, self.space, mode,
                                            PseudoMetric(self.states).index)
        return self._graphs[mode]

    @property
    def inputs(self) -> Optional[Tuple[str, ...]]:
        """The function layer's inputs (actions or Mealy inputs), if any."""
        return next((l[1] for l in self.plan.layers if l[0] == "func"), None)

    @property
    def monoid(self) -> Optional[Monoid]:
        return next((l[1] for l in self.plan.layers if l[0] == "pair"), None)


def _pairs(states: Sequence[str]) -> List[Tuple[str, str]]:
    return [(u, v) for i, u in enumerate(states) for v in states[i + 1:]]


class PseudoMetric:
    """Symmetric state-pair table with zero diagonal, held as `values`, one
    distance per pair in `Coalgebra.pairs` order: {u, v} at `index(u, v)`."""

    def __init__(self, states: Sequence[str],
                 table: Optional[Dict[Tuple[str, str], ExtValue]] = None,
                 values: Optional[List[ExtValue]] = None):
        self.states = tuple(states)
        n = len(self.states)
        self.values = [ZERO] * (n * (n - 1) // 2) if values is None else values
        for (u, v), val in (table or {}).items():
            self.values[self.index(u, v)] = val

    def index(self, u: str, v: str) -> int:
        """The position of the pair {u, v} of distinct states in `values`."""
        if u not in self.states or v not in self.states or u == v:
            raise DomainError(f"pair ({u}, {v}) outside the state set")
        i, j = sorted((self.states.index(u), self.states.index(v)))
        return i * (2 * len(self.states) - i - 1) // 2 + j - i - 1

    def d(self, u: str, v: str) -> ExtValue:
        return ZERO if u == v else self.values[self.index(u, v)]

    def pairs(self):
        return sorted(zip(_pairs(self.states), self.values))

    def __eq__(self, other):
        return isinstance(other, PseudoMetric) and self.states == other.states \
            and self.values == other.values


# ---------------------------------------------------------------------------
# The one-step operator

def psi_step(C: Coalgebra, d: PseudoMetric, mode: str = BOUNDED,
             strategy: Optional["MaxStrategy"] = None) -> PseudoMetric:
    """One application of the bisimilarity-metric operator: the term distance
    between the states' one-step values, with d between successor states.

    With a strategy, the strategy chooses at the maximising nodes and keeps
    the choices that `PairGraph.policy` reads the policy off.  The graph
    reads d's pair vector and returns Psi(d)'s, both in `C.pairs` order."""
    return PseudoMetric(C.states, values=C.pair_graph(mode).evaluate(d.values, strategy))


@dataclass
class Certificate:
    """Machine-readable evidence for the fixed-point solver.

    `iterations` counts evaluations of Psi: the Kleene iterates d_1 .. d_k,
    then every evaluation policy iteration made, up to the one that
    returned d itself, a Kleene step or one that is plain Psi (under an
    improving strategy, or a held one with no choice beaten).  Every answer
    d has passed the exact test Psi(d) == d, so `exact` is True and
    `a_priori_bound` and `residual` (||Psi(d) - d||) are 0."""

    iterations: int
    c: Fraction
    mode: str
    a_priori_bound: ClassVar[ExtValue] = ZERO
    residual: ClassVar[ExtValue] = ZERO
    exact: ClassVar[bool] = True

    def as_record(self) -> dict:
        return {"iterations": self.iterations, "c": str(self.c), "mode": self.mode,
                "a_priori_bound": str(self.a_priori_bound),
                "residual": str(self.residual), "exact": self.exact}


def solve_bisim(C: Coalgebra, mode: str = BOUNDED) -> Tuple[PseudoMetric, Certificate]:
    """The bisimilarity metric of C, exactly.

    Psi is iterated from the zero metric (Kleene) until an iterate equals
    the one before it; an acyclic system gets there in at most height + 1
    steps.  A cyclic system leaves at the first iterate d_k whose infinite
    pairs are those of d_{k-1}, which is d_1 = Psi(0) when ||Psi(0)|| is
    finite, for exact policy iteration from d_k (`_policy_iteration`): the
    infinite pairs stay as they are, and Psi is a c-contraction on the
    others.  ||Psi(0)|| can be infinite: in extended mode at leaves of
    different kinds, in both modes at an infinite monoid distance or a
    Hausdorff distance to the empty set.  Kleene from 0 gives the least
    fixed point, so two states that only loop are at 0, not at INF.
    """
    cyclic = any(len(b) > 1 or b[0] in C.successors[b[0]] for b in _blocks(C.successors))
    d = PseudoMetric(C.states)
    for k in count(1):
        d_next = psi_step(C, d, mode)
        if d_next == d:
            return d, Certificate(k, C.c, mode)
        if cyclic and all(a.is_inf == b.is_inf for a, b in zip(d_next.values, d.values)):
            d, evaluations = _policy_iteration(C, d_next, mode)
            return d, Certificate(k + evaluations, C.c, mode)
        d = d_next


class MaxStrategy:
    """The maximising side's choices in Psi, for Hoffman and Karp's strategy
    iteration: a candidate index at each maximising node (an input of two
    function values, a Hausdorff candidate of two set values), keyed by the
    node's slot in the system's pair graph.  While `improving`, a node moves
    to its first largest candidate, but only where that is strictly larger
    than its current choice; otherwise every node keeps its choice (and
    sets `beaten` if a candidate strictly beats it), and Psi under the
    strategy is a minimum of affine forms.  The strategy keeps only its
    choices: the values and transports of an evaluation under it stay on the
    pair graph, which `PairGraph.policy` reads with them."""

    def __init__(self):
        self.choice: Dict[int, int] = {}
        self.improving = True
        self.beaten = False

    def pick(self, node: int, candidates: list):
        k, top = self.choice.get(node), max(candidates)
        if k is None or self.improving:
            if k is None or candidates[k] < top:
                k = self.choice[node] = candidates.index(top)  # the first largest
        elif not self.beaten and top > candidates[k]:
            self.beaten = True
        return candidates[k]


def _policy_iteration(C: Coalgebra, d: PseudoMetric, mode: str
                      ) -> Tuple[PseudoMetric, int]:
    """The exact fixed point of Psi, by Hoffman-Karp strategy iteration from
    d, and the number of Psi evaluations spent.

    A round improves the max strategy at d, then solves the min side with
    the strategy fixed, by policy iteration: the policy (the affine forms
    behind Psi under the strategy at d, `PairGraph.policy`) is solved
    exactly as d = b + M d, and Psi under the strategy is evaluated at the
    solution, until it returns d itself.  The min side's values fall
    strictly from one solve to the next, and the strategies' fixed points
    rise strictly from one round to the next, so neither a policy nor a
    strategy comes back and both loops end (a solve that does not move so
    raises QuantAlgError).  A plan with no distribution or set layer has no
    minimising node: Psi under a fixed strategy is affine, and one solve is
    its fixed point.  An evaluation is plain Psi(d) under an improving
    strategy, and under the held one if no held choice was beaten (by
    induction over the children-first ops, the candidates are plain Psi's
    and each held choice a largest), so one returning d is the exact test
    Psi(d) == d; a held one that beat a choice is followed by an improving one."""
    affine = not any(layer[0] in ("dist", "set") for layer in C.plan.layers)
    strategy = MaxStrategy()
    policy, evaluations = psi_step(C, d, mode, strategy), 1
    while True:
        if policy != d:
            new = _solve_policy(policy, C.pair_graph(mode).policy(strategy))
            up = strategy.improving  # an improving policy's solve rises, a held one's falls
            if new == d or not all(x >= y if up else x <= y for x, y in zip(new.values, d.values)):
                raise QuantAlgError(f"policy iteration on {C.name}: a solve moved the wrong way")
            d, strategy.improving = new, affine
        elif strategy.improving or not strategy.beaten:
            return d, evaluations
        else:
            strategy.improving = True
        strategy.beaten = False
        policy = psi_step(C, d, mode, strategy)
        evaluations += 1


def _solve_policy(policy: PseudoMetric, rows: list) -> PseudoMetric:
    """The metric d with d = rows[k] at d (`PairGraph.policy`) on the policy's
    finite pairs k; infinite ones (row None) are copied, and no row reads them."""
    values = list(policy.values)
    for k, (n, d) in solve_affine({k: r for k, r in enumerate(rows) if r}).items():
        values[k] = ExtValue(n, d)
    return PseudoMetric(policy.states, values=values)


def solve_affine(system: Dict[object, Tuple[int, int, Dict[object, int]]]
                 ) -> Dict[object, Tuple[int, int]]:
    """The x with D_k x_k = b_k + sum_j c_kj x_j for every integer row
    k -> (D_k, b_k, {j: c_kj}) of `PairGraph.policy`, where c >= 0 and each
    row's c sum to less than D_k, as the ints (n, d > 0) with x_k = n/d.

    The strongly connected blocks of the unknowns (row k reads x_j) are
    solved sinks first (`_blocks`), and a larger block is eliminated first
    (`_eliminate`).  Then each row, in reverse pivot order, reads only
    solved unknowns, and one back-substitution moves them into b as ints
    over the lcm of their denominators and divides.
    """
    x: Dict[object, Tuple[int, int]] = {}
    for block in _blocks({k: row[2] for k, row in system.items()}):
        rows = system
        if len(block) > 1:  # the pivots, last first, and their eliminated rows
            block, rows = _eliminate(block, system)
        for k in block:
            D, b, coef = rows[k]
            L = 1
            for j, w in coef.items():
                if j == k:
                    D -= w
                else:
                    n, d = x[j]  # b/L + w*n/d over the lcm L*s of L and d
                    g = math.gcd(L, d)
                    s = d // g
                    b, L = b * s + w * n * (L // g), L * s
            D *= L
            g = math.gcd(b, D)
            x[k] = b // g, D // g
    return {k: x[k] for k in system}


def _blocks(reads: Dict[object, Iterable]):
    """The strongly connected blocks of the graph k -> j for j in reads[k],
    each yielded after every block it reads (sinks first): Tarjan (1972),
    with an explicit stack of (unknown, index, stack height, iterator over
    its reads) in place of recursion; a yielded unknown's low link is lifted
    above every index, so only unknowns on the stack lower another's."""
    low: Dict[object, int] = {}
    stack: List[object] = []
    top = len(reads)
    for root in reads:
        if root in low:
            continue
        low[root] = i = len(low)
        work = [(root, i, 0, iter(reads[root]))]
        stack.append(root)
        while work:
            v, i, h, it = work[-1]
            for w in it:
                if w not in low:
                    low[w] = j = len(low)
                    work.append((w, j, len(stack), iter(reads[w])))
                    stack.append(w)
                    break
                if low[w] < low[v]:  # w is on the stack
                    low[v] = low[w]
            else:  # v has read all its unknowns
                work.pop()
                if low[v] == i:
                    block = stack[h:]
                    del stack[h:]
                    for w in block:
                        low[w] = top
                    yield block
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]


def _eliminate(block: List[object], system: Dict[object, Tuple[int, int, Dict[object, int]]]
               ) -> Tuple[List[object], Dict[object, Tuple[int, int, Dict[object, int]]]]:
    """A block's pivots, last first, and its rows in `solve_affine`'s form,
    by exact sparse Gaussian elimination on 0 = b_k + sum_j c_kj x_j - D_k x_k.
    Each pivot is the unpivoted diagonal entry of least Markowitz (1957) cost
    (r - 1)(c - 1), r the entries of its row and c the unpivoted rows of its
    column, and only unpivoted rows are cleared, so a row keeps its entries
    on later pivots and on earlier blocks' unknowns.  The block is strictly diagonally dominant by
    rows and elimination keeps it so, so no pivot is zero.  A row is a dict
    of its nonzero entries, divided by their gcd when read and after every
    update; each unpivoted column keeps the set of unpivoted rows it is in.
    """
    rows: Dict[object, Dict[object, int]] = {}
    rhs: Dict[object, int] = {}
    cols: Dict[object, set] = {k: set() for k in block}
    for k in block:
        D, b, coef = system[k]
        row = {j: w for j, w in coef.items() if w}
        row[k] = row.get(k, 0) - D
        g = math.gcd(b, *row.values())
        rows[k], rhs[k] = {j: w // g for j, w in row.items()}, b // g
        for j in row:
            if j in cols:
                cols[j].add(k)
    order = []
    while cols:
        p = min(cols, key=lambda k: (len(rows[k]) - 1) * (len(cols[k]) - 1))
        prow = rows[p]
        a = -prow[p]
        for j in prow:
            if j in cols:
                cols[j].discard(p)
        for r in cols.pop(p):  # row r := a * row r + f * row p, which clears column p
            row = rows[r]
            f = row.pop(p)
            for j in row:
                row[j] *= a
            # an M-matrix: off the diagonal a*row[j] >= 0 and f*w > 0, on it < 0; none cancels
            for j, w in prow.items():
                if j != p:
                    row[j] = row.get(j, 0) + f * w
                    if j in cols:
                        cols[j].add(r)
            rhs[r] = a * rhs[r] + f * rhs[p]
            g = math.gcd(rhs[r], *row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
                rhs[r] //= g
        order.append(p)
    return order[::-1], {p: (-rows[p].pop(p), rhs[p], rows[p]) for p in order}


# ---------------------------------------------------------------------------
# Terms to coalgebras

def unfold_term(t: Term, th: TheoryExpr,
                space: Optional[FinMetricSpace] = None) -> Tuple[Coalgebra, str]:
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
    C = Coalgebra(plan, [names[v].name for v in order], step, space, "unfolded")
    return C, names[root].name


def disjoint_union(A: Coalgebra, B: Coalgebra) -> Coalgebra:
    """Merge two systems over the same plan, A's states tagged `a.`, B's `b.`."""
    if A.plan != B.plan:
        raise DomainError("cannot union systems of different shapes")
    step: Dict[str, SemValue] = {}
    for side, tag in ((A, "a"), (B, "b")):
        for s in side.states:
            step[f"{tag}.{s}"] = map_guards(
                side.step[s], lambda st, tag=tag: StateLeaf(f"{tag}.{st.name}"))
    return Coalgebra(A.plan, list(step), step, A.space or B.space,
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

# The text format's kinds: the keyword of a kind's labels (None: it has
# none), whether its header may name a monoid, and its theory over (labels,
# monoid, c).  `parse_coalgebras` reads a row forward, `format_coalgebra`
# backward.
_KINDS = {
    "mp": (None, False, lambda labels, monoid, c: markov_process_theory(c)),
    "lmp": ("actions", False, lambda labels, monoid, c: labelled_mp_theory(labels, c)),
    "mealy": ("inputs", True, mealy_theory),
    "mdp": ("actions", False, lambda labels, monoid, c: mdp_theory(labels, c)),
}


def parse_coalgebras(text: str, monoids: Optional[Dict[str, Monoid]] = None,
                     space: Optional[FinMetricSpace] = None,
                     source: str = "<coalgebra>") -> Dict[str, Coalgebra]:
    """Parse mp/lmp/mealy/mdp blocks; returns name -> coalgebra.

    Each row is read straight into a one-step value by a walk of the kind's
    layer plan: a function layer is the row's `on i`, a distribution layer
    is `w -> cell, ...`, a pair layer is `(cell, x)` with x a monoid
    element, and a cell under the last layer is a state, `bot` or
    `leaf(x)`.  A state or a `state u on i` row given twice is a parse
    error."""
    ts = TokenStream(text, source)

    def system(kind: str, name: str) -> Coalgebra:
        ts.expect("c", "=")
        c = ts.expect_rational()
        ts.expect(";")
        label, names_monoid, theory = _KINDS[kind]
        labels, monoid = (), RATIONAL_LINE
        if label:
            ts.expect(label, ":")
            labels = ts.expect_list(lambda: ts.expect_ident().text)
            ts.expect(";")
        if names_monoid and ts.accept("monoid"):
            ts.expect(":")
            ref = ts.expect_ident().text
            if not monoids or ref not in monoids:
                raise ts.error(f"unknown monoid {ref!r}")
            monoid = monoids[ref]
            ts.expect(";")
        return _parse_rows(ts, layer_plan(theory(labels, monoid, c)), space, name)

    return ts.blocks("system", tuple(_KINDS), system)


def _parse_rows(ts: TokenStream, plan: LayerPlan, space, name: str) -> Coalgebra:
    guard = plan.guards[0]
    inputs = plan.layers[0][1] if plan.layers[0][0] == "func" else None
    layers = plan.layers[1:] if inputs else plan.layers
    rows: dict = {}  # state, or (state, input) -> value

    def cell(layers) -> SemValue:  # reads the current row's `key`
        if not layers:
            if ts.accept("bot"):
                if plan.exc_space is None:
                    raise DomainError("transitions of this kind cannot use bot")
                return ExcLeaf("*")
            if ts.accept("leaf"):
                ts.expect("(")
                point = ts.expect_label("a leaf point")
                ts.expect(")")
                if space is not None and point not in space.points:
                    raise DomainError(f"leaf point {point!r} outside the space")
                return VarLeaf(point)
            return Guard(guard.name, guard.c, StateLeaf(ts.expect_ident().text))
        if layers[0][0] == "dist":
            def weighted():  # (cell, n, d) for the weight n/d
                n, d = ts.expect_ratio()
                ts.expect("->")
                return cell(layers[1:]), n, d
            cells = ts.expect_list(weighted)
            W = math.lcm(*(d for _, _, d in cells))
            pairs = [(x, n * (W // d)) for x, n, d in cells]
            try:
                return make_dist(pairs, W)
            except DomainError:  # weights are never negative: the mass is not 1
                mass = ExtValue(sum(n for _, n in pairs), W)
                raise DomainError(f"row {key!r} has mass {mass}, expected 1") from None
        ts.expect("(")  # the pair layer
        inner = cell(layers[1:])
        ts.expect(",")
        alpha = ts.expect_element()
        ts.expect(")")
        if not layers[0][1].contains(alpha):
            raise DomainError(f"output {alpha!r} outside the monoid")
        return PairVal(alpha, inner)

    while not ts.at("}"):
        ts.expect("state")
        tok = ts.expect_ident()
        key = tok.text
        if inputs:
            ts.expect("on")
            key = (key, ts.expect_ident().text)
            if key[1] not in inputs:
                raise DomainError(f"transition row for unknown key {key!r}")
        if key in rows:
            raise ts.error(f"duplicate row for {key!r}", tok)
        ts.expect(":" if layers[0][0] == "dist" else "->")
        rows[key] = cell(layers)
        ts.expect(";")
    del cell  # it calls itself: free it and the values it holds now, not at a collection
    states = list(dict.fromkeys(k[0] if inputs else k for k in rows))
    if inputs:
        for key in ((s, i) for s in states for i in inputs):
            if key not in rows:
                raise DomainError(f"missing transition row for {key!r}")
        rows = {s: FuncVal(tuple((i, rows[(s, i)]) for i in inputs)) for s in states}
    return Coalgebra(plan, states, rows, space, name)


def format_coalgebra(C: Coalgebra, monoid_name: Optional[str] = None) -> str:
    """Render a coalgebra in the text format parse_coalgebras accepts,
    straight from its one-step values.  A row's cells are written `bot`
    first, then `leaf(x)`, then states, and mdp cells by target, then reward.

    Mealy systems over a table monoid need `monoid_name`, the name the
    reader will resolve through its monoid file."""
    exc = C.plan.exc_space
    for kind, (label, _, theory) in _KINDS.items():
        if (label is None) != (C.inputs is None):  # labels are a function layer's inputs
            continue
        plan = layer_plan(theory(C.inputs, C.monoid or RATIONAL_LINE, C.c))
        if plan.layers == C.plan.layers and (exc is None or exc == plan.exc_space):
            break
    else:
        raise UnsupportedShape("no coalgebra kind for layer shape "
                               + ("/".join(l[0] for l in C.plan.layers) or "leaf"))
    lines = [f"{kind} {C.name} {{", f"  c = {C.c};"]
    if C.inputs:
        lines.append(f"  {label}: " + ", ".join(C.inputs) + ";")
    if C.monoid is not None and not isinstance(C.monoid, RationalLineMonoid):
        if monoid_name is None:
            raise DomainError(
                "a table-monoid mealy system needs a monoid name to serialize")
        lines.append(f"  monoid: {monoid_name};")

    def order(v: SemValue):
        if isinstance(v, PairVal):
            return order(v.inner), v.alpha
        if isinstance(v, ExcLeaf):
            return 0, ""
        if isinstance(v, VarLeaf):
            return 1, v.name
        return 2, v.inner.name

    def text(v: SemValue) -> str:
        if isinstance(v, DistVal):
            return ", ".join(f"{w} -> {text(x)}"
                             for x, w in sorted(v.items, key=lambda xw: order(xw[0])))
        if isinstance(v, PairVal):
            return f"({text(v.inner)}, {v.alpha})"
        if isinstance(v, Guard):
            return v.inner.name
        if isinstance(v, ExcLeaf):
            return "bot"
        return f"leaf({v.name})"

    for s in C.states:
        v = C.step[s]
        rows = [(f"state {s} on {i}", x) for i, x in v.items] \
            if isinstance(v, FuncVal) else [(f"state {s}", v)]
        for head, x in rows:
            sep = ":" if isinstance(x, DistVal) else " ->"
            lines.append(f"  {head}{sep} {text(x)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
