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

The instances of one schema (equal sides, premise variables and bound
function) share one loop over the assignments, which evaluates the sides,
the premise distances and that tight bound once per assignment.  Each
instance keeps its own verdict and its own `checked`/`skipped` counts, up
to its first counterexample, and its own test at its given thresholds: its
bound need not be the bound function's value there.

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
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError
from .extvalue import ZERO, ext_max
from .lexing import TokenStream
from .semantics import (DistVal, ExcLeaf, FuncVal, Guard, PairVal, SemValue, SetVal,
                        VarLeaf, apply_operation, make_dist, make_set,
                        sem_dist_with_plan)
from .spaces import FinMetricSpace
from .terms import (OpSym, Term, Var, conv, empty_op, next_op, raise_, read,
                    union_op, write)
from .theories import (AxiomInstance, Bary, ParamPool, Reader, Semi, TableMonoid,
                       TheoryExpr, Writer, axiom_groups, instantiate_generators,
                       layer_plan)

Table = Dict[Tuple[str, ...], str]


@dataclass
class FiniteAlgebra:
    """A finite carrier with (possibly partial) operation tables."""

    carrier: FinMetricSpace
    interp: Dict[OpSym, Table]
    name: str = "algebra"

    def lookup(self, op: OpSym, args: Tuple[str, ...]) -> Optional[str]:
        table = self.interp.get(op)
        if table is None:
            return None
        return table.get(args)

    def evaluate(self, t: Term, assignment: Dict[str, str]) -> Optional[str]:
        """Homomorphic interpretation; None when a lookup is undefined."""
        if isinstance(t, Var):
            value = assignment.get(t.name)
            if value is None:
                raise DomainError(f"unassigned variable {t.name}")
            return value
        args = []
        for a in t.args:
            v = self.evaluate(a, assignment)
            if v is None:
                return None
            args.append(v)
        return self.lookup(t.op, tuple(args))

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

    def subreport(self, origin_prefix: str) -> "Report":
        return Report([e for e in self.entries if e.origin.startswith(origin_prefix)],
                      list(self.notes))


def check_nonexpansive(alg: FiniteAlgebra, op: OpSym, origin: str = "") -> CheckEntry:
    """Exhaustively check d(f(a), f(b)) <= c * max_i d(a_i, b_i), where c is
    the contraction factor of a `next` operation and 1 otherwise."""
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


def check_equation(alg: FiniteAlgebra, group: Sequence[AxiomInstance],
                   origin: str = "") -> List[CheckEntry]:
    """One entry per instance of `group`, instances that share lhs, rhs,
    premise variables and bound function.  For every assignment: premises
    within their thresholds imply the conclusion within the bound, and with
    a bound function also within its value at the actual premise distances.
    An instance leaves the loop at its first counterexample."""
    first = group[0]
    entries = [CheckEntry("axiom", ax.label, origin, True) for ax in group]
    live = [(ax, entry, [e for _, _, e in ax.premises]) for ax, entry in zip(group, entries)]
    variables = first.variables()
    pairs = [(x, y) for x, y, _ in first.premises]
    d = alg.carrier.d
    for values in itertools.product(alg.carrier.points, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        lhs = alg.evaluate(first.lhs, assignment)
        rhs = alg.evaluate(first.rhs, assignment)
        if lhs is None or rhs is None:
            for _, entry, _ in live:
                entry.skipped += 1
            continue
        got = d(lhs, rhs)
        premise_dists = [d(assignment[x], assignment[y]) for x, y in pairs]
        # The tightest thresholds are the premise distances themselves
        # (bound_fn is monotone, so they dominate every other choice); no
        # rational threshold admits an infinite one.  `tight` is kept only
        # when got exceeds it.
        tight = None
        if pairs and first.bound_fn is not None and not any(
                pd.is_inf for pd in premise_dists):
            tight = first.bound_fn(*premise_dists)
            if not got > tight:
                tight = None
        failed = False
        for ax, entry, eps in live:
            entry.checked += 1
            if got > ax.bound and all(pd <= e for pd, e in zip(premise_dists, eps)):
                # The given instance, whose bound need not be bound_fn(eps).
                detail = (f"premises hold at {[str(e) for e in eps]} but d = {got} > {ax.bound}"
                          if pairs else f"d(lhs, rhs) = {got} > {ax.bound}")
            elif tight is not None:
                detail = (f"premises hold at {[str(e) for e in premise_dists]} "
                          f"but d = {got} > {tight}")
            else:
                continue
            entry.passed = False
            entry.counterexample = Counterexample(assignment, detail)
            failed = True
        if failed:
            live = [t for t in live if t[1].passed]
            if not live:
                break
    return entries


def check_theory(alg: FiniteAlgebra, th: TheoryExpr, params: ParamPool) -> Report:
    """Aggregate table, non-expansiveness, and axiom checks for the theory.
    The instances of one schema are checked together (`check_equation`)."""
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
        schemata: Dict[tuple, List[AxiomInstance]] = {}
        for ax in instances:
            key = (ax.lhs, ax.rhs, tuple(p[:2] for p in ax.premises), ax.bound_fn)
            schemata.setdefault(key, []).append(ax)
        verdict = {}
        for group in schemata.values():
            verdict.update(zip(group, check_equation(alg, group, origin)))
        report.entries.extend(verdict[ax] for ax in instances)
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
               params: ParamPool = ParamPool(), name: str = "free") -> FiniteAlgebra:
    """The finite part of the free model of `atom` over X that the carrier
    `values` cuts out: the free monad's distance (sem_dist, extended mode),
    and for each generator every result that lands in the carrier, so the
    tables are partial where the carrier is not closed."""
    plan = layer_plan(atom)
    points = [point_name(v) for v in values]
    ids = dict(zip(values, points))
    memo: dict = {}
    dist = {(ids[v], ids[w]): sem_dist_with_plan(v, w, plan, X, memo=memo)
            for v in values for w in values}
    carrier = FinMetricSpace(points, dist, validate=False)
    interp: Dict[OpSym, Table] = {}
    for op in instantiate_generators(atom, params):
        table: Table = {}
        for args in itertools.product(values, repeat=op.arity):
            out = ids.get(apply_operation(plan, op, args))
            if out is not None:
                table[tuple(ids[a] for a in args)] = out
        interp[op] = table
    return FiniteAlgebra(carrier, interp, name=name)


def powerset_model(X: FinMetricSpace) -> FiniteAlgebra:
    """All subsets of X with the Hausdorff metric; union and empty."""
    pts = X.points
    return free_model(Semi(), X, [
        make_set(VarLeaf(p) for k, p in enumerate(pts) if mask >> k & 1)
        for mask in range(1 << len(pts))], name="powerset")


def distribution_model(X: FinMetricSpace, denominator: int,
                       weights: Sequence[Fraction]) -> FiniteAlgebra:
    """Distributions over X with weights in (1/denominator)Z, Kantorovich
    metric, and convex combination tables defined where the exact result
    stays on the grid."""
    grid = [make_dist((VarLeaf(p), Fraction(k, denominator)) for p, k in zip(X.points, ks))
            for ks in itertools.product(range(denominator + 1), repeat=len(X.points))
            if sum(ks) == denominator]
    return free_model(Bary(), X, grid, ParamPool.make(weights=weights),
                      name=f"distributions/{denominator}")


def reader_model(X: FinMetricSpace, inputs: Sequence[str]) -> FiniteAlgebra:
    """The function space X^inputs with sup metric and diagonal read."""
    inputs = tuple(inputs)
    return free_model(Reader(inputs), X, [
        FuncVal(tuple(zip(inputs, map(VarLeaf, f))))
        for f in itertools.product(X.points, repeat=len(inputs))], name="reader")


def writer_model(monoid: TableMonoid, X: FinMetricSpace) -> FiniteAlgebra:
    """The product monoid-carrier x X with sum metric; writes multiply."""
    return free_model(Writer(monoid), X, [
        PairVal(alpha, VarLeaf(x)) for alpha in monoid.elements for x in X.points],
        name="writer")


# ---------------------------------------------------------------------------
# Algebra files

def parse_algebras(text: str, spaces: Dict[str, FinMetricSpace],
                   source: str = "<algebra>") -> Dict[str, FiniteAlgebra]:
    """Parse `algebra NAME { carrier: SPACE; op conv(1/2): (p,q) -> r; ... }`."""
    ts = TokenStream(text, source)
    out: Dict[str, FiniteAlgebra] = {}
    while not ts.at(""):
        ts.expect("algebra")
        name = ts.expect_ident().text
        ts.expect("{")
        ts.expect("carrier")
        ts.expect(":")
        ref = ts.expect_ident().text
        if ref not in spaces:
            raise ts.error(f"unknown space {ref!r}")
        carrier = spaces[ref]
        ts.expect(";")
        interp: Dict[OpSym, Table] = {}
        current: Optional[OpSym] = None
        while not ts.accept("}"):
            if ts.accept("op"):
                current = _parse_opspec(ts)
                interp.setdefault(current, {})
                ts.expect(":")
                continue
            if current is None:
                raise ts.error("table entry before any `op` header")
            args: Tuple[str, ...] = ()
            if ts.accept("("):
                names = []
                if not ts.at(")"):
                    names.append(ts.expect_label("carrier point"))
                    while ts.accept(","):
                        names.append(ts.expect_label("carrier point"))
                ts.expect(")")
                args = tuple(names)
            ts.expect("->")
            outp = ts.expect_label("carrier point")
            ts.expect(";")
            if len(args) != current.arity:
                raise ts.error(f"{current} entry has arity {len(args)}")
            interp[current][args] = outp
        alg = FiniteAlgebra(carrier, interp, name=name)
        try:
            alg.validate_closure()
        except DomainError as exc:
            raise DomainError(f"{source}: algebra {name}: {exc}") from None
        out[name] = alg
    return out


def _parse_opspec(ts: TokenStream) -> OpSym:
    tok = ts.expect_ident()
    name = tok.text
    if name == "union":
        return union_op()
    if name == "empty":
        return empty_op()
    if name not in ("conv", "raise", "rd", "wr", "next"):
        raise ts.error(f"unknown operation {name!r}", tok)
    ts.expect("(")
    if name == "conv":
        e = ts.expect_rational()
        if not 0 <= e <= 1:
            raise ts.error(f"conv weight {e} outside [0,1]", tok)
        op = conv(e)
    elif name == "raise":
        op = raise_(ts.expect_label("exception label"))
    elif name == "rd":
        n = ts.expect_rational()
        if n.denominator != 1 or n < 1:
            raise ts.error(f"rd arity {n} is not a positive integer", tok)
        op = read(int(n))
    elif name == "wr":
        op = write(ts.expect_element())
    else:
        opname = ts.expect_ident().text
        ts.expect(",")
        c = ts.expect_rational()
        if not 0 < c < 1:
            raise ts.error(f"contraction factor {c} outside (0,1)", tok)
        op = next_op(opname, c)
    ts.expect(")")
    return op
