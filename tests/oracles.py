"""Independent oracles used to freeze expected values.

The value-distance oracle is the pair recursion that the engine compiles
into a pair graph, run directly.  Under a max strategy it runs on `Affine`
values, whose arithmetic carries each distance's affine form in the
state-pair unknowns along: the forms come out of the recursion itself, where
the engine reads them off the pair graph's recorded choices.

The transport oracle enumerates every spanning-tree basic feasible solution
of the transport polytope and takes the minimum, solving each tree by leaf
elimination.  It shares no code with the production simplex, and neither
does the checker of a transport's dual certificate.

The equation oracle checks one axiom instance at a time, evaluating both
sides at every assignment for that instance alone, and the
non-expansiveness oracle compares every pair of argument vectors; both
compare the carrier's ExtValue distances, where the model checker compares
scaled ints.

The distribution oracle builds a distribution's items on Fraction weights,
merged and sorted by a canonical key computed afresh from each value's
fields and `items`, where the engine holds int weights, merges by identity
and sorts by the key each value builds when it is first read.

The tokenizer oracle is the earlier one-pass tokenizer, which builds each
token from its `re.finditer` match object: the engine's takes the token
texts from one `re.findall` and builds the tokens with no step per token."""

import itertools
import re
import unicodedata
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from typing import Optional

from quantalg.errors import DomainError
from quantalg.extvalue import ExtValue, INF, ZERO, _coerce, ext_max, ext_sum
from quantalg.lexing import MAX_DIGITS, Token, TokenStream
from quantalg.modelcheck import CheckEntry, Counterexample
from quantalg.terms import Var


def enumerate_transport(supplies, demands, cost):
    """Minimum cost over all basic feasible solutions; INF if every one of
    them puts positive mass on an infinite-cost cell."""
    m, n = len(supplies), len(demands)
    assert sum(supplies) == sum(demands)
    edges = [(i, j) for i in range(m) for j in range(n)]
    k = m + n - 1
    best = None
    for subset in combinations(edges, k):
        flows = _solve_tree(subset, supplies, demands)
        if flows is None:
            continue
        inf_units = Fraction(0)
        finite = Fraction(0)
        for (i, j), f in flows.items():
            if f == 0:
                continue
            c = cost[i][j]
            if c.is_inf:
                inf_units += f
            else:
                finite += f * c.rational
        cand = (inf_units, finite)
        if best is None or cand < best:
            best = cand
    assert best is not None, "transport polytope has no vertex?"
    return INF if best[0] > 0 else ExtValue(best[1])


def check_transport(supplies, demands, cost, plan):
    """Assert that plan, a min_cost_transport result, is optimal: its flows
    are feasible, its potentials satisfy u_i + v_j <= c_ij on every finite
    cell, and the primal and dual objectives are equal and give its value.
    Costs are big-M pairs (inf is (1, 0)), compared lexicographically."""
    m, n = len(supplies), len(demands)
    big = [[(Fraction(1), Fraction(0)) if c.is_inf else (Fraction(0), c.rational)
            for c in row] for row in cost]
    flows = plan.flows
    assert all(type(f) is Fraction and f >= 0 for f in flows.values())
    assert all(type(x) is Fraction for pot in (plan.u, plan.v) for p in pot for x in p)
    assert all(0 <= i < m and 0 <= j < n for i, j in flows)
    for i in range(m):
        assert sum(f for (r, _), f in flows.items() if r == i) == supplies[i]
    for j in range(n):
        assert sum(f for (_, c), f in flows.items() if c == j) == demands[j]
    for i in range(m):
        for j in range(n):
            if not cost[i][j].is_inf:
                reduced = tuple(big[i][j][k] - plan.u[i][k] - plan.v[j][k] for k in (0, 1))
                assert reduced >= (0, 0), (i, j, reduced)
    primal = tuple(sum(f * big[i][j][k] for (i, j), f in flows.items()) for k in (0, 1))
    dual = tuple(sum(s * u[k] for s, u in zip(supplies, plan.u))
                 + sum(d * v[k] for d, v in zip(demands, plan.v)) for k in (0, 1))
    assert primal == dual, (primal, dual)
    assert plan.value == (INF if primal[0] > 0 else ExtValue(primal[1]))
    return plan


def _solve_tree(subset, supplies, demands):
    """Flows of the tree basis, or None if not a tree or some flow < 0."""
    m, n = len(supplies), len(demands)
    nodes = [("r", i) for i in range(m)] + [("c", j) for j in range(n)]
    adj = defaultdict(list)
    for (i, j) in subset:
        adj[("r", i)].append((("c", j), (i, j)))
        adj[("c", j)].append((("r", i), (i, j)))
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        x = stack.pop()
        for y, _ in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(nodes):
        return None  # m+n-1 edges + connected == spanning tree
    rem_a = list(supplies)
    rem_b = list(demands)
    degree = {x: len(adj[x]) for x in nodes}
    used = set()
    flows = {}
    leaves = [x for x in nodes if degree[x] == 1]
    while leaves:
        x = leaves.pop()
        edge_info = next(((y, e) for y, e in adj[x] if e not in used), None)
        if edge_info is None:
            continue  # final node; its residual is 0 by mass conservation
        y, (i, j) = edge_info
        if x[0] == "r":
            f = rem_a[i]
            rem_a[i] -= f
            rem_b[j] -= f
        else:
            f = rem_b[j]
            rem_b[j] -= f
            rem_a[i] -= f
        if f < 0:
            return None
        flows[(i, j)] = f
        used.add((i, j))
        degree[x] -= 1
        degree[y] -= 1
        if degree[y] == 1:
            leaves.append(y)
    if len(flows) != len(subset):
        return None
    return flows


class Affine(ExtValue):
    """A finite ExtValue together with an affine form `const + sum of
    coef[k] * x_k` in opaque unknowns x that equals it at the current x.
    Sums and positive scalings carry the form along (the reflected sum too,
    which Python tries first for a subclass), so a computation written with
    ExtValue operations, maxima and minima reports the form behind its
    result; comparisons see the value only.  The value goes through
    ExtValue's public constructor and is read back as `rational`, so the
    form's arithmetic is Fraction's, independent of ExtValue's."""

    __slots__ = ("const", "coef")

    def __init__(self, value: Fraction, const: Fraction, coef: dict):
        super().__init__(value)
        self.const = const
        self.coef = coef  # never mutated once built

    def __add__(self, other: ExtValue) -> ExtValue:
        other = _coerce(other)
        if other.is_inf:
            return INF
        value = self.rational + other.rational
        if not isinstance(other, Affine):
            return Affine(value, self.const + other.rational, self.coef)
        coef = dict(self.coef)
        for k, w in other.coef.items():
            coef[k] = coef.get(k, 0) + w
        return Affine(value, self.const + other.const, coef)

    __radd__ = __add__

    def scaled(self, c) -> "Affine":
        c = c if type(c) is Fraction else Fraction(c)
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        return Affine(self.rational * c, self.const * c,
                      {k: w * c for k, w in self.coef.items()})


def form(x):
    """The affine form (b, {unknown: coefficient}) of a distance the
    reference computed, None if it is infinite."""
    if isinstance(x, Affine):
        return x.const, x.coef
    return None if x.is_inf else (x.rational, {})


def unknowns(d):
    """State distances for the reference: d(u, v) as an `Affine` value whose
    form is the pair's unknown, named by the pair itself (u before v in d's
    state order), or INF if it is infinite."""
    def state_dist(u, v):
        val = d.d(u, v)
        if u == v or val.is_inf:
            return val
        pair = (u, v) if d.states.index(u) < d.states.index(v) else (v, u)
        return Affine(val.rational, Fraction(0), {pair: Fraction(1)})
    return state_dist


def kantorovich_reference(mu, nu, ground):
    """The Kantorovich distance as the optimal coupling's flow-weighted sum
    of ground distances, which carries their forms if they are `Affine`."""
    from quantalg.transport import min_cost_transport

    cost = [[ground(a, b) for b, _ in nu.items] for a, _ in mu.items]
    plan = min_cost_transport([w for _, w in mu.items], [w for _, w in nu.items], cost)
    if plan.value.is_inf:
        return INF
    return ext_sum(cost[i][j].scaled(f) for (i, j), f in plan.flows.items() if f)


def psi_reference(T, d, mode, space=None):
    """The bisimilarity-metric operator written out per coalgebra kind over
    the table a test drew (tests/helpers.py `Table`): Kantorovich over
    targets (mp), its supremum over actions (lmp, mdp, with |r1 - r2| added
    to the target distance), or the output distance plus the target distance
    (mealy).  States are c * d apart, `bot` is 0 from itself and leaves are
    the space distance apart; in bounded mode ground distances are truncated
    at 1, and targets of different sorts are 1 (bounded) or inf (extended)
    apart."""
    from quantalg.bisim import PseudoMetric
    from quantalg.extvalue import ONE
    from quantalg.spaces import kantorovich_general

    def cap(x):
        return x.truncated(ONE) if mode == "bounded" else x

    def target_dist(t1, t2):
        if t1[0] == "st" and t2[0] == "st":
            return d.d(t1[1], t2[1]).scaled(T.c)
        if t1 == t2:
            return ExtValue(0)
        if t1[0] == "leaf" and t2[0] == "leaf":
            return cap(space.d(t1[1], t2[1]))
        return cap(INF)

    def ground(k1, k2):
        if T.kind == "mdp":
            (t1, r1), (t2, r2) = k1, k2
            return cap(ExtValue(abs(r1 - r2)) + target_dist(t1, t2))
        return cap(target_dist(k1, k2))

    rows = T.rows
    table = {}
    for i, u in enumerate(T.states):
        for v in T.states[i + 1:]:
            if T.kind == "mp":
                val = kantorovich_general(rows[u], rows[v], ground)
            elif T.kind in ("lmp", "mdp"):
                val = ext_max(*(kantorovich_general(rows[(u, a)], rows[(v, a)], ground)
                                for a in T.labels))
            else:
                parts = []
                for inp in T.labels:
                    tu, au = rows[(u, inp)]
                    tv, av = rows[(v, inp)]
                    parts.append(T.monoid.dist(au, av) + target_dist(tu, tv))
                val = ext_max(*parts)
            table[(u, v)] = val
    return PseudoMetric(T.states, table)


def sup_diff(d, e):
    """The largest |d(u, v) - e(u, v)| over the state pairs of two metrics
    on the same states, computed on Fractions; INF where exactly one of the
    two is infinite."""
    assert d.states == e.states
    worst = ZERO
    for (u, v), x in d.pairs():
        y = e.d(u, v)
        if x.is_inf or y.is_inf:
            if x != y:
                return INF
            continue
        worst = ext_max(worst, ExtValue(abs(x.rational - y.rational)))
    return worst


def canon_key_reference(v):
    """The canonical order's key of a value, recomputed from its fields:
    variables, exceptions, guards, distributions, sets, functions, pairs,
    then state leaves."""
    from quantalg.semantics import (DistVal, ExcLeaf, FuncVal, Guard, PairVal, SetVal,
                                    StateLeaf, VarLeaf)

    if isinstance(v, VarLeaf):
        return (0, v.name)
    if isinstance(v, ExcLeaf):
        return (1, v.label)
    if isinstance(v, Guard):
        return (2, v.name, v.c, canon_key_reference(v.inner))
    if isinstance(v, DistVal):
        return (3, tuple((canon_key_reference(x), w) for x, w in v.items))
    if isinstance(v, SetVal):
        return (4, tuple(canon_key_reference(x) for x in v.items))
    if isinstance(v, FuncVal):
        return (5, tuple((i, canon_key_reference(x)) for i, x in v.items))
    if isinstance(v, PairVal):
        alpha = (0, v.alpha) if isinstance(v.alpha, Fraction) else (1, str(v.alpha))
        return (6, alpha, canon_key_reference(v.inner))
    assert isinstance(v, StateLeaf)
    return (7, v.name)


def dist_items_reference(pairs):
    """The items of the distribution of (value, Fraction weight) pairs:
    values with equal keys (`canon_key_reference`) merged, zero weights
    dropped, the support sorted by key.  A negative weight, an empty
    support or a total other than 1 is the DomainError the engine raises."""
    acc = {}  # a support element's key -> (the element, its weight)
    for v, w in pairs:
        if w == 0:
            continue
        if w < 0:
            raise DomainError("negative weight")
        key = canon_key_reference(v)
        u, total = acc.get(key, (v, 0))
        acc[key] = (u, total + w)
    if not acc:
        raise DomainError("empty distribution value")
    if sum(w for _, w in acc.values()) != 1:
        raise DomainError("distribution weights must sum to 1")
    return tuple(acc[key] for key in sorted(acc))


def sem_dist_reference(v, w, space=None, mode="extended", exc_space=None, pair_monoid=None,
                       memo=None, state_dist=None, max_pick=None):
    """The value distance by the pair recursion itself, memoised on pairs of
    values (and on their mirrors) in `memo`, which calls may share: what
    `semantics.PairGraph` compiles.  `state_dist` gives state leaves their
    distances, and `max_pick((a, b), candidates)` chooses at the maximising
    node of the values a and b."""
    from quantalg.extvalue import ONE
    from quantalg.semantics import (DistVal, ExcLeaf, FuncVal, Guard, PairVal, SetVal,
                                    StateLeaf, VarLeaf)

    memo = {} if memo is None else memo
    bounded = mode == "bounded"
    top = ONE if bounded else INF  # the coproduct rule, and bounded mode's cap

    def rec(a, b):
        if a == b:
            return ZERO
        hit = memo.get((a, b))
        if hit is None:
            hit = memo[(a, b)] = memo[(b, a)] = dist(a, b)
        return hit

    def ground(a, b):
        return rec(a, b).truncated(ONE) if bounded else rec(a, b)

    def largest(a, b, candidates):
        return ext_max(*candidates) if max_pick is None else max_pick((a, b), candidates)

    def dist(a, b):
        if type(a) is not type(b):
            leaves = (VarLeaf, ExcLeaf, Guard, StateLeaf)
            if isinstance(a, leaves) and isinstance(b, leaves):
                return top
            raise DomainError(f"shape mismatch: {type(a).__name__} vs {type(b).__name__}")
        if isinstance(a, Guard):
            return top if a.name != b.name else rec(a.inner, b.inner).scaled(a.c)
        if isinstance(a, StateLeaf):
            if state_dist is None:
                raise DomainError(f"states {a.name}, {b.name} need a state metric")
            return state_dist(a.name, b.name)
        if isinstance(a, DistVal):
            return kantorovich_reference(a, b, ground)
        if isinstance(a, SetVal):
            rows = [[ground(x, y) for y in b.items] for x in a.items]
            cols = [[ground(y, x) for x in a.items] for y in b.items]
            return largest(a, b, [min(ds, default=INF) for ds in rows + cols])
        if isinstance(a, FuncVal):
            if [i for i, _ in a.items] != [i for i, _ in b.items]:
                raise DomainError("function values over different input sets")
            return largest(a, b, [rec(x, y) for (_, x), (_, y) in zip(a.items, b.items)])
        if isinstance(a, PairVal):
            if isinstance(a.alpha, Fraction) and isinstance(b.alpha, Fraction):
                alpha = ExtValue(abs(a.alpha - b.alpha))
            elif pair_monoid is None:
                raise DomainError("table-monoid pair values need the plan's monoid")
            else:
                alpha = pair_monoid.dist(a.alpha, b.alpha)
            return alpha + rec(a.inner, b.inner)
        if isinstance(a, VarLeaf):
            if space is None:
                raise DomainError(f"variables {a.name}, {b.name} need a ground space")
            return space.d(a.name, b.name).truncated(top)
        if exc_space is None:
            return top
        return exc_space.d(a.label, b.label).truncated(top)

    return rec(v, w)


def psi_kernel_reference(C, d, mode, strategy=None):
    """Psi on C by `sem_dist_reference` over its one-step values, one memo
    shared by all pairs; with a strategy (bisim.MaxStrategy), the strategy
    chooses at each maximising node, keyed by its pair of values, and the
    state distances are d's `unknowns`, so every finite distance is an
    `Affine` value or a constant."""
    from quantalg.bisim import PseudoMetric

    state_dist, pick = (d.d, None) if strategy is None else (unknowns(d), strategy.pick)
    memo = {}
    table = {}
    for i, u in enumerate(C.states):
        for v in C.states[i + 1:]:
            table[(u, v)] = sem_dist_reference(
                C.step[u], C.step[v], C.space, mode, C.plan.exc_space, C.monoid,
                memo, state_dist, pick)
    return PseudoMetric(C.states, table)


def evaluate(alg, t, assignment):
    """Homomorphic interpretation of t in alg; None when a lookup is
    undefined."""
    if isinstance(t, Var):
        value = assignment.get(t.name)
        if value is None:
            raise DomainError(f"unassigned variable {t.name}")
        return value
    args = []
    for a in t.args:
        v = evaluate(alg, a, assignment)
        if v is None:
            return None
        args.append(v)
    return alg.lookup(t.op, tuple(args))


def check_nonexpansive_reference(alg, op, origin=""):
    """Exhaustively check d(f(a), f(b)) <= c * max_i d(a_i, b_i), where c is
    the contraction factor of a `next` operation and 1 otherwise, on the
    carrier's ExtValue distances."""
    factor = op.param[1] if op.kind == "next" else None
    n = op.arity
    entry = CheckEntry("nonexpansive", f"nonexpansive {op}", origin, True)
    d = alg.carrier.d
    images = [(vec, alg.lookup(op, vec))
              for vec in itertools.product(alg.carrier.points, repeat=n)]
    for avec, fa in images:
        if fa is None:
            entry.skipped += 1
            continue
        for bvec, fb in images:
            if fb is None:
                entry.skipped += 1
                continue
            entry.checked += 1
            spread = ext_max(*(d(x, y) for x, y in zip(avec, bvec))) if n else ZERO
            if spread.is_inf:
                continue  # an infinite spread bounds nothing
            allowed = spread if factor is None else spread.scaled(factor)
            got = d(fa, fb)
            if got > allowed:
                entry.passed = False
                entry.counterexample = Counterexample(
                    {"args": avec, "args'": bvec},
                    f"d({fa},{fb}) = {got} > {allowed}")
                return entry
    return entry


def check_equation_reference(alg, ax, origin=""):
    """For every assignment: premises within their thresholds imply the
    conclusion within the bound, with the thresholds set to the actual
    premise distances when the axiom carries a continuous bound function."""
    entry = CheckEntry("axiom", ax.label, origin, True)
    variables = ax.variables()
    pts = alg.carrier.points
    for values in itertools.product(pts, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        lhs = evaluate(alg, ax.lhs, assignment)
        rhs = evaluate(alg, ax.rhs, assignment)
        if lhs is None or rhs is None:
            entry.skipped += 1
            continue
        entry.checked += 1
        got = alg.carrier.d(lhs, rhs)
        violation = _equation_violation(alg, ax, assignment, got)
        if violation is not None:
            entry.passed = False
            entry.counterexample = Counterexample(assignment, violation)
            return entry
    return entry


def _equation_violation(alg, ax, assignment, got) -> Optional[str]:
    if not ax.premises:
        if got > ax.bound:
            return f"d(lhs, rhs) = {got} > {ax.bound}"
        return None
    premise_dists = [
        alg.carrier.d(assignment[x], assignment[y]) for x, y, _ in ax.premises]
    # The given instance.
    eps = [e for _, _, e in ax.premises]
    if all(pd <= e for pd, e in zip(premise_dists, eps)) and got > ax.bound:
        return f"premises hold at {[str(e) for e in eps]} but d = {got} > {ax.bound}"
    if ax.bound_fn is None:
        return None
    # The tightest thresholds are the premise distances themselves (bound_fn
    # is monotone, so they dominate every other choice).
    if any(pd.is_inf for pd in premise_dists):
        return None  # no rational threshold admits this premise
    bound = ax.bound_fn(*premise_dists)
    if got > bound:
        return (f"premises hold at {[str(e) for e in premise_dists]} "
                f"but d = {got} > {bound}")
    return None


def check_theory_reference(alg, th, params):
    """check_theory's report, entry by entry, from the two oracles above."""
    from quantalg.modelcheck import Report
    from quantalg.theories import axiom_groups, instantiate_generators

    report = Report()
    alg.validate_closure()
    for op in instantiate_generators(th, params):
        if op not in alg.interp:
            report.entries.append(CheckEntry(
                "table", f"table for {op}", "", False,
                Counterexample({}, "no interpretation table")))
    for origin, atom, group in axiom_groups(th, params):
        if atom is not None:
            report.entries.extend(
                check_nonexpansive_reference(alg, op, origin)
                for op in instantiate_generators(atom, params) if op in alg.interp)
        report.entries.extend(check_equation_reference(alg, ax, origin) for ax in group)
    report.notes.append(
        "continuity rule not checked: distances on a finite carrier are attained")
    return report


# A match is a token and the whitespace and comments before it; past them
# some token matches (eof at the end), so no match backtracks into them.
_TOKEN_RE = re.compile(
    r"""
    (?:\s|\#[^\n]*)*
    (?: (?P<arrow>->)
      | (?P<num>\d+(?:/\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_.']*)
      | (?P<punct>[(){},;:=@*\[\]<>|+-])
      | (?P<bad>.)
      | (?P<eof>\Z))
    """,
    re.VERBOSE | re.DOTALL,
)


class TokenStreamReference(TokenStream):
    """A TokenStream whose tokens come from one `re.finditer` pass, a match
    object per token, with the same checks in the same order, made on every
    token: a zero denominator is one whose digits all have the value 0, in
    any script."""

    def __init__(self, text: str, source: str = "<input>"):
        self.source = source
        self.text = text
        new = tuple.__new__
        self.tokens = [new(Token, (m.lastgroup, m[m.lastindex], m.start(m.lastindex)))
                       for m in _TOKEN_RE.finditer(text)]
        if len(self.tokens) > 1 and self.tokens[-2].kind == "eof":
            del self.tokens[-1]  # finditer's empty match at the end, after trailing blanks
        for tok in self.tokens:
            if tok.kind == "bad":
                raise self.error(f"unexpected character {tok.text!r}", tok)
            if tok.kind == "num":
                if len(tok.text) > MAX_DIGITS and max(map(len, tok.text.split("/"))) > MAX_DIGITS:
                    raise self.error(f"numeral of more than {MAX_DIGITS} digits", tok)
                _, slash, den = tok.text.partition("/")
                if slash and all(unicodedata.digit(c) == 0 for c in den):
                    raise self.error(f"zero denominator in {tok.text!r}", tok)
        self.i = 0
