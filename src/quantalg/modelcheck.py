"""Exhaustive verification of finite quantitative algebras against a theory:
non-expansiveness of every interpretation, satisfaction of every instantiated
axiom, and tensor commutation.

Interpretation tables may be partial (the barycentric model is carved out of
an infinite algebra, and no nontrivial finite fragment of it is closed under
all operations); assignments whose lookups are undefined are skipped and
counted in the report.  A continuous schema is also checked with each
premise threshold set to the actual premise distance, the tightest threshold
that admits the assignment; this suffices because satisfaction is monotone
in the thresholds.

The instances of one schema (a run of consecutive instances with equal
sides and bound function, as `theories._premised` emits them) share one
loop over the assignments, in `itertools.product` order.  Each instance
keeps its own verdict and its own `checked`/`skipped` counts, up to its
first counterexample, and its own test at its given thresholds: its bound
need not be the bound function's value there.

The loop compares ints.  The carrier's distances are scaled once to ints
(`FinMetricSpace.scaled`: D[i][j] = L * d for L the lcm of the finite
denominators, and a sentinel above every finite sum for inf).  A threshold
or bound e becomes floor(L * e), which is exact: an int x exceeds L * e iff
it exceeds its floor.  The tight bound is computed once per tuple of premise
distances.  Each subterm of a side is tabulated over its own variables, so
a subterm with k distinct variables reads its op table n^k times on an
n-point carrier, not once per assignment of the schema's m variables (n^m
times).  ExtValues are rebuilt only to print a counterexample.  Every int
test decides what the ExtValue test decided, so the verdicts, counts,
counterexamples and output are those of the one-assignment-at-a-time loop
(`tests/oracles.py::check_equation_reference`).

The built-in models are finite carriers inside the free models of the
theories (`free_model`): sets with the Hausdorff metric, a grid of
distributions with the Kantorovich metric, functions with the supremum
metric and output-value pairs with the sum metric.  Their distances are
`semantics.sem_dist` and their tables `semantics.apply_operation`,
restricted to the carrier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import getitem, gt, le
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError
from .extvalue import ExtValue, ext_max
from .lexing import TokenStream
from .semantics import (DistVal, ExcLeaf, FuncVal, Guard, PairVal, SemValue, SetVal,
                        VarLeaf, apply_operation, make_dist, make_set, plan_graph)
from .spaces import FinMetricSpace, ScaledMetric
from .terms import (FAMILIES, KIND_OF_WORD, OpSym, Term, Var, next_op, parse_parameter,
                    read)
from .terms import variables as term_vars
from .theories import (AxiomInstance, Bary, ParamPool, Reader, Semi, TableMonoid,
                       TheoryExpr, Writer, axiom_groups, instantiate_generators,
                       layer_plan)

Table = Dict[Tuple[str, ...], str]


@dataclass
class FiniteAlgebra:
    """A finite carrier with (possibly partial) operation tables."""

    carrier: FinMetricSpace
    interp: Dict[OpSym, Table]

    def lookup(self, op: OpSym, args: Tuple[str, ...]) -> Optional[str]:
        table = self.interp.get(op)
        if table is None:
            return None
        return table.get(args)

    def validate_closure(self):
        """Every defined entry must land in the carrier with the right arity."""
        pts = set(self.carrier.points)
        for op, table in self.interp.items():
            for args, out in table.items():
                if len(args) != op.arity:
                    raise DomainError(f"{op} entry {args} has wrong arity")
                if any(a not in pts for a in args) or out not in pts:
                    raise DomainError(f"{op} entry {args} -> {out} escapes the carrier")


@dataclass
class Counterexample:
    assignment: Dict[str, str]
    detail: str


@dataclass
class CheckEntry:
    kind: str  # 'table' | 'nonexpansive' | 'axiom'
    label: str
    origin: str
    passed: bool
    counterexample: Optional[Counterexample] = None
    checked: int = 0
    skipped: int = 0


@dataclass
class Report:
    entries: List[CheckEntry] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> List[CheckEntry]:
        return [e for e in self.entries if not e.passed]


def check_nonexpansive(alg: FiniteAlgebra, op: OpSym, origin: str = "") -> CheckEntry:
    """Exhaustively check d(f(a), f(b)) <= c * max_i d(a_i, b_i), where c is
    the contraction factor of a `next` operation and 1 otherwise.  Distances
    are the carrier's scaled ints, so the test is got * den(c) > spread *
    num(c); an infinite spread bounds nothing."""
    factor = op.param[1] if op.kind == "next" else Fraction(1)
    num, den = factor.numerator, factor.denominator
    sc = alg.carrier.scaled
    D, index = sc.D, sc.index
    entry = CheckEntry("nonexpansive", f"nonexpansive {op}", origin, True)
    vecs = list(itertools.product(alg.carrier.points, repeat=op.arity))
    images = [alg.lookup(op, vec) for vec in vecs]
    defined = [pos for pos, fb in enumerate(images) if fb is not None]
    # the defined images, and the column of each argument, as point indices
    fbs = [index[images[pos]] for pos in defined]
    cols = list(zip(*([index[x] for x in vecs[pos]] for pos in defined)))
    for avec, fa in zip(vecs, images):
        if fa is None:
            entry.skipped += 1
            continue
        rows = [D[index[x]] for x in avec]
        gots = list(map(den.__mul__, map(D[index[fa]].__getitem__, fbs)))
        # b can fail only where got * den beats every argument's distance * num
        ranks = range(len(defined))
        for row, col in zip(rows, cols):
            ranks = [r for r in ranks if gots[r] > row[col[r]] * num]
        for rank in ranks:
            spread = max((row[col[rank]] for row, col in zip(rows, cols)), default=0)
            if spread < sc.inf and gots[rank] > spread * num:
                break
        else:
            entry.checked += len(defined)
            entry.skipped += len(vecs) - len(defined)
            continue
        # the b's met before the failing one: rank defined, the rest not
        bvec, fb = vecs[defined[rank]], images[defined[rank]]
        entry.checked += rank + 1
        entry.skipped += defined[rank] - rank
        spread = ext_max(*map(alg.carrier.d, avec, bvec))
        entry.passed = False
        entry.counterexample = Counterexample(
            {"args": avec, "args'": bvec},
            f"d({fa},{fb}) = {alg.carrier.d(fa, fb)} > {spread.scaled(factor)}")
        return entry
    return entry


# The most assignments judged at once: a schema with more is judged in
# blocks of its inner variables, so that no table outgrows a block.
_BLOCK = 1 << 16


def _tabulate(alg: FiniteAlgebra, t: Term, order: Sequence[str], fixed: Dict[str, int],
              cache: Dict[Term, tuple]) -> Tuple[Tuple[str, ...], List[Optional[str]]]:
    """The values of t at every assignment of its own variables, those of
    `order` it has, enumerated as `itertools.product` would; a variable in
    `fixed` is the point of that index.  Each op table is read once per
    value of the subterm's own variables, and a subterm free of `fixed`
    variables once for all blocks (`cache`).  None marks an undefined
    lookup."""
    if isinstance(t, Var):
        if t.name in fixed:
            return (), [alg.carrier.points[fixed[t.name]]]
        return (t.name,), list(alg.carrier.points)
    if t in cache:
        return cache[t]
    table = alg.interp.get(t.op, {})
    parts = [_tabulate(alg, a, order, fixed, cache) for a in t.args]
    own = tuple(v for v in order if any(v in vs for vs, _ in parts))
    n = len(alg.carrier.points)
    args = zip(*(_spread(values, vs, own, n) for vs, values in parts)) if parts else [()]
    out = own, list(map(table.get, args))
    if fixed.keys().isdisjoint(term_vars(t)):
        cache[t] = out
    return out


def _spread(values: List, own: Sequence[str], order: Sequence[str], n: int) -> List:
    """A table over the variables `own` (a subsequence of `order`), read at
    every assignment of `order` in `itertools.product` order."""
    if tuple(own) == tuple(order):
        return values
    strides = {v: n ** k for k, v in enumerate(reversed(own))}
    index = [0]
    for v in reversed(order):  # innermost variable first
        s = strides.get(v)
        index = index * n if s is None else [i + j for i in range(0, n * s, s) for j in index]
    return list(map(values.__getitem__, index))


def _distances(Dx: List[List[int]], a: tuple, b: tuple, order: Sequence[str],
               n: int) -> List[int]:
    """Dx[x][y] for tables a and b of point indices, at every assignment of
    `order`."""
    own = tuple(v for v in order if v in a[0] or v in b[0])
    xs, ys = (_spread(values, vs, own, n) for vs, values in (a, b))
    return _spread(list(map(getitem, map(Dx.__getitem__, xs), ys)), own, order, n)


class _TightBounds(dict):
    """floor(L * bound_fn(premise distances)) for each tuple of scaled
    premise distances, computed once; inf if a distance is inf, since no
    rational threshold admits an infinite one."""

    def __init__(self, bound_fn, sc: ScaledMetric):
        super().__init__()
        self.bound_fn, self.sc = bound_fn, sc

    def __missing__(self, pds: tuple) -> int:
        sc = self.sc
        self[pds] = bound = sc.inf if sc.inf in pds else sc.floor(
            self.bound_fn(*(ExtValue(pd, sc.scale) for pd in pds)))
        return bound


def check_equation(alg: FiniteAlgebra, group: Sequence[AxiomInstance],
                   origin: str = "") -> List[CheckEntry]:
    """One entry per instance of `group`, instances that share lhs, rhs,
    premise variables and bound function.  For every assignment: premises
    within their thresholds imply the conclusion within the bound, and with
    a bound function also within its value at the actual premise distances.
    An instance leaves the loop at its first counterexample."""
    first = group[0]
    entries = [CheckEntry("axiom", ax.label, origin, True) for ax in group]
    variables = first.variables()
    points, sc = alg.carrier.points, alg.carrier.scaled
    n = len(points)
    # Sides are tables of point indices, n where undefined; Dx is D with a
    # row and column of -1 at n, so got is -1 where a side is undefined.
    index = {**sc.index, None: n}
    Dx = [row + [-1] for row in sc.D] + [[-1] * (n + 1)]
    live = sorted(((ax, entry, sc.floor(ax.bound), [sc.floor(e) for _, _, e in ax.premises])
                   for ax, entry in zip(group, entries)), key=lambda t: t[2])
    tight = None
    if first.premises and first.bound_fn is not None:
        tight = _TightBounds(first.bound_fn, sc)
    split = next(k for k in range(len(variables) + 1) if n ** (len(variables) - k) <= _BLOCK)
    outer, inner = variables[:split], variables[split:]
    cache: Dict[Term, tuple] = {}
    checked = skipped = 0
    for block in itertools.product(range(n), repeat=split):
        fixed, base = dict(zip(outer, block)), checked + skipped
        sides = [(own, list(map(index.__getitem__, values)))
                 for own, values in (_tabulate(alg, side, inner, fixed, cache)
                                     for side in (first.lhs, first.rhs))]
        gots = _distances(Dx, *sides, inner, n)
        var_tables = {v: ((), [fixed[v]]) if v in fixed else ((v,), list(range(n)))
                      for v in variables}
        pdss = zip(*(_distances(Dx, var_tables[x], var_tables[y], inner, n)
                     for x, y, _ in first.premises)) if first.premises else itertools.repeat(())
        # An assignment can fail an instance only where got exceeds the
        # least bound or the tight one: the tightest thresholds are the
        # premise distances themselves (bound_fn is monotone, so they
        # dominate every other choice).
        least = itertools.repeat(live[0][2])
        if tight is not None:
            pdss, ahead = itertools.tee(pdss)
            least = map(min, map(tight.__getitem__, ahead), least)
        for pos, pds in itertools.compress(zip(itertools.count(), pdss), map(gt, gots, least)):
            got = gots[pos]
            over = tight is not None and got > tight[pds]
            failed = False
            for ax, entry, bound, eps in live:  # by increasing bound
                if got > bound and all(map(le, pds, eps)):
                    at_tight = False  # the given instance, whose bound need not be bound_fn(eps)
                elif over:
                    at_tight = True
                elif got <= bound:
                    break  # nor can a later instance fail here
                else:
                    continue
                entry.passed = False
                entry.skipped = skipped + gots[:pos].count(-1)
                entry.checked = base + pos + 1 - entry.skipped
                lhs, rhs = (points[_spread(values, own, inner, n)[pos]] for own, values in sides)
                entry.counterexample = _counterexample(alg, ax, base + pos, lhs, rhs, at_tight)
                failed = True
            if failed:
                live = [t for t in live if t[1].passed]
                if not live:
                    return entries
        undefined = gots.count(-1)
        checked, skipped = checked + len(gots) - undefined, skipped + undefined
    for _, entry, _, _ in live:
        entry.checked, entry.skipped = checked, skipped
    return entries


def _counterexample(alg: FiniteAlgebra, ax: AxiomInstance, pos: int, lhs: str, rhs: str,
                    at_tight: bool) -> Counterexample:
    """The violation at the pos-th assignment, whose sides are lhs and rhs,
    in ExtValues: at the given thresholds, or at the premise distances."""
    d, points, values = alg.carrier.d, alg.carrier.points, []
    variables = ax.variables()
    for _ in variables:
        pos, r = divmod(pos, len(points))
        values.append(points[r])
    assignment = dict(zip(variables, reversed(values)))
    got = d(lhs, rhs)
    if at_tight:
        premise_dists = [d(assignment[x], assignment[y]) for x, y, _ in ax.premises]
        detail = (f"premises hold at {[str(e) for e in premise_dists]} "
                  f"but d = {got} > {ax.bound_fn(*premise_dists)}")
    elif ax.premises:
        detail = (f"premises hold at {[str(e) for _, _, e in ax.premises]} "
                  f"but d = {got} > {ax.bound}")
    else:
        detail = f"d(lhs, rhs) = {got} > {ax.bound}"
    return Counterexample(assignment, detail)


def check_theory(alg: FiniteAlgebra, th: TheoryExpr, params: ParamPool) -> Report:
    """Aggregate table, non-expansiveness, and axiom checks for the theory.
    The instances of one schema, emitted one after another with equal sides
    and bound function (`theories._premised`), are checked together
    (`check_equation`), in the order `axiom_groups` emits them."""
    report = Report()
    alg.validate_closure()
    for op in instantiate_generators(th, params):
        if op not in alg.interp:
            report.entries.append(CheckEntry(
                "table", f"table for {op}", "", False,
                Counterexample({}, "no interpretation table")))
    for origin, atom, instances in axiom_groups(th, params):
        if atom is not None:
            for op in instantiate_generators(atom, params):
                if op in alg.interp:
                    report.entries.append(check_nonexpansive(alg, op, origin=origin))
        for _, run in itertools.groupby(instances, lambda ax: (ax.lhs, ax.rhs, ax.bound_fn)):
            report.entries.extend(check_equation(alg, list(run), origin))
    report.notes.append(
        "continuity rule not checked: distances on a finite carrier are attained")
    return report


def format_report(report: Report, verbose: bool = False) -> str:
    lines = []
    for e in report.entries:
        status = "pass" if e.passed else "FAIL"
        extra = f" (checked {e.checked}, skipped {e.skipped})" if verbose else ""
        lines.append(f"{status}  {e.origin or '-'}  {e.label}{extra}")
        if e.counterexample is not None:
            lines.append(f"      at {e.counterexample.assignment}: "
                         f"{e.counterexample.detail}")
    for n in report.notes:
        lines.append(f"note: {n}")
    lines.append("RESULT: " + ("pass" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Built-in concrete models: finite carriers inside the free models

def point_name(v: SemValue) -> str:
    """The carrier point that spells a value: {p,q} for a set, [p:1/2;q:1/2]
    for a distribution, <p,q> for a function (inputs in order), (z,p) for a
    pair, raise(e) for an exception and n(v) for a guard of operation n."""
    if isinstance(v, VarLeaf):
        return v.name
    if isinstance(v, SetVal):
        return "{" + ",".join(point_name(x) for x in v.items) + "}"
    if isinstance(v, DistVal):
        return "[" + ";".join(f"{point_name(x)}:{w}" for x, w in v.items) + "]"
    if isinstance(v, FuncVal):
        return "<" + ",".join(point_name(x) for _, x in v.items) + ">"
    if isinstance(v, PairVal):
        return f"({v.alpha},{point_name(v.inner)})"
    if isinstance(v, ExcLeaf):
        return f"raise({v.label})"
    if isinstance(v, Guard):
        return f"{v.name}({point_name(v.inner)})"
    raise TypeError(f"no point name for {v!r}")


def free_model(atom: TheoryExpr, X: FinMetricSpace, values: Sequence[SemValue],
               params: ParamPool = ParamPool()) -> FiniteAlgebra:
    """The finite part of the free model of `atom` over X that the carrier
    `values` cuts out: the free monad's distance (sem_dist, extended mode),
    and for each generator every result that lands in the carrier, so the
    tables are partial where the carrier is not closed."""
    plan = layer_plan(atom)
    points = [point_name(v) for v in values]
    ids = dict(zip(values, points))
    pairs = [(v, w) for v in values for w in values]
    dist = {(ids[v], ids[w]): d
            for (v, w), d in zip(pairs, plan_graph(plan, pairs, X).evaluate())}
    carrier = FinMetricSpace(points, dist, validate=False)
    interp: Dict[OpSym, Table] = {}
    for op in instantiate_generators(atom, params):
        table: Table = {}
        for args in itertools.product(values, repeat=op.arity):
            out = ids.get(apply_operation(plan, op, args))
            if out is not None:
                table[tuple(ids[a] for a in args)] = out
        interp[op] = table
    return FiniteAlgebra(carrier, interp)


def powerset_model(X: FinMetricSpace) -> FiniteAlgebra:
    """All subsets of X with the Hausdorff metric; union and empty."""
    pts = X.points
    return free_model(Semi(), X, [
        make_set(VarLeaf(p) for k, p in enumerate(pts) if mask >> k & 1)
        for mask in range(1 << len(pts))])


def distribution_model(X: FinMetricSpace, denominator: int,
                       weights: Sequence[Fraction]) -> FiniteAlgebra:
    """Distributions over X with weights in (1/denominator)Z, Kantorovich
    metric, and convex combination tables defined where the exact result
    stays on the grid."""
    grid = [make_dist(zip(map(VarLeaf, X.points), ks), denominator)
            for ks in itertools.product(range(denominator + 1), repeat=len(X.points))
            if sum(ks) == denominator]
    return free_model(Bary(), X, grid, ParamPool.make(weights=weights))


def reader_model(X: FinMetricSpace, inputs: Sequence[str]) -> FiniteAlgebra:
    """The function space X^inputs with sup metric and diagonal read."""
    inputs = tuple(inputs)
    return free_model(Reader(inputs), X, [
        FuncVal(tuple(zip(inputs, map(VarLeaf, f))))
        for f in itertools.product(X.points, repeat=len(inputs))])


def writer_model(monoid: TableMonoid, X: FinMetricSpace) -> FiniteAlgebra:
    """The product monoid-carrier x X with sum metric; writes multiply."""
    return free_model(Writer(monoid), X, [
        PairVal(alpha, VarLeaf(x)) for alpha in monoid.elements for x in X.points])


# ---------------------------------------------------------------------------
# Algebra files

def parse_algebras(text: str, spaces: Dict[str, FinMetricSpace],
                   source: str = "<algebra>") -> Dict[str, FiniteAlgebra]:
    """Parse `algebra NAME { carrier: SPACE; op conv(1/2): (p,q) -> r; ... }`."""
    ts = TokenStream(text, source)

    def algebra(kind: str, name: str) -> FiniteAlgebra:
        ts.expect("carrier", ":")
        ref = ts.expect_ident().text
        if ref not in spaces:
            raise ts.error(f"unknown space {ref!r}")
        carrier = spaces[ref]
        ts.expect(";")
        interp: Dict[OpSym, Table] = {}
        current: Optional[OpSym] = None
        while not ts.at("}"):
            if ts.accept("op"):
                current = _parse_opspec(ts)
                interp.setdefault(current, {})
                ts.expect(":")
                continue
            if current is None:
                raise ts.error("table entry before any `op` header")
            args: Tuple[str, ...] = ()
            if ts.accept("("):
                if not ts.at(")"):
                    args = tuple(ts.expect_list(lambda: ts.expect_label("carrier point")))
                ts.expect(")")
            ts.expect("->")
            outp = ts.expect_label("carrier point")
            ts.expect(";")
            if len(args) != current.arity:
                raise ts.error(f"{current} entry has arity {len(args)}")
            interp[current][args] = outp
        alg = FiniteAlgebra(carrier, interp)
        alg.validate_closure()
        return alg

    return ts.blocks("algebra", ("algebra",), algebra)


def _parse_opspec(ts: TokenStream) -> OpSym:
    """A family's word, then its parameter in parentheses if it has one."""
    tok = ts.expect_ident()
    kind = KIND_OF_WORD.get(tok.text)
    if kind is None:
        raise ts.error(f"unknown operation {tok.text!r}", tok)
    if not (FAMILIES[kind].param or kind in ("read", "next")):
        return OpSym(kind)
    ts.expect("(")
    if kind == "read":
        n = ts.expect_rational()
        if n.denominator != 1 or n < 1:
            raise ts.error(f"rd arity {n} is not a positive integer", tok)
        op = read(int(n))
    elif kind == "next":
        opname = ts.expect_ident().text
        ts.expect(",")
        c = ts.expect_rational()
        if not 0 < c < 1:
            raise ts.error(f"contraction factor {c} outside (0,1)", tok)
        op = next_op(opname, c)
    else:
        op = parse_parameter(ts, tok)
    ts.expect(")")
    return op
