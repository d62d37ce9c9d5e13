"""Theory expressions, axiom instantiation, and the layered normal-form plan
that drives the semantics.

A theory expression combines atoms (barycentric, semilattice, exceptions,
reader, writer, contractive step) with Sum and Tensor.  Sum is plain union
of disjoint signatures and axioms; Tensor additionally makes every pair of
cross-side operations commute.  The layer plan is also the theory's
signature: each atom adds one layer, guard or exception space, a repeated
atom is rejected, and `semantics.apply_operation` admits exactly the
operations whose part of the plan exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, UnsupportedShape
from .extvalue import ZERO, ExtValue, ext_max, ext_sum
from .lexing import TokenStream
from .spaces import FinMetricSpace, discrete
from .terms import (App, MonoidElement, OpSym, Term, Var, app, conv, empty_op,
                    next_op, raise_, read, union_op, variables as term_vars, write)


# ---------------------------------------------------------------------------
# Monoids

class RationalLineMonoid:
    """(Q, +, 0) with metric |x - y|; nonexpansiveness of + is standard."""

    unit: Fraction = Fraction(0)
    elements = None  # infinite carrier

    def mult(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def dist(self, a: Fraction, b: Fraction) -> ExtValue:
        return ExtValue(abs(a - b))

    def contains(self, a) -> bool:
        return isinstance(a, Fraction)

    def __eq__(self, other):
        return isinstance(other, RationalLineMonoid)

    def __hash__(self):
        return hash("RationalLineMonoid")

    def __repr__(self):
        return "RationalLineMonoid()"


class TableMonoid:
    """Finite monoid over a metric space; laws are checked exhaustively."""

    def __init__(self, space: FinMetricSpace, unit: str,
                 table: Dict[Tuple[str, str], str]):
        self.space = space
        self.unit = unit
        self.table = dict(table)
        self.elements = space.points
        self._check()

    def _check(self):
        els = self.elements
        if self.unit not in els:
            raise DomainError("monoid unit outside the carrier")
        for a in els:
            for b in els:
                if (a, b) not in self.table or self.table[(a, b)] not in els:
                    raise DomainError(f"monoid multiplication missing or escapes at ({a}, {b})")
        for a in els:
            if self.table[(self.unit, a)] != a or self.table[(a, self.unit)] != a:
                raise DomainError(f"unit law fails at {a}")
        for a in els:
            for b in els:
                for c in els:
                    if self.table[(self.table[(a, b)], c)] != self.table[(a, self.table[(b, c)])]:
                        raise DomainError(f"associativity fails at ({a}, {b}, {c})")
        d = self.space.d
        for a in els:
            for a2 in els:
                for b in els:
                    for b2 in els:
                        if d(self.mult(a, b), self.mult(a2, b2)) > d(a, a2) + d(b, b2):
                            raise DomainError(
                                f"monoid multiplication is expansive at ({a},{b}) vs ({a2},{b2})"
                            )

    def mult(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def dist(self, a: str, b: str) -> ExtValue:
        return self.space.d(a, b)

    def contains(self, a) -> bool:
        return a in self.elements

    def __eq__(self, other):
        return (isinstance(other, TableMonoid) and self.elements == other.elements
                and self.unit == other.unit and self.table == other.table)

    def __hash__(self):
        return hash((self.elements, self.unit, tuple(sorted(self.table.items()))))


Monoid = Union[RationalLineMonoid, TableMonoid]

RATIONAL_LINE = RationalLineMonoid()


# ---------------------------------------------------------------------------
# Theory expressions

class TheoryExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Bary(TheoryExpr):
    pass


@dataclass(frozen=True)
class Semi(TheoryExpr):
    pass


@dataclass(frozen=True)
class Exc(TheoryExpr):
    space: FinMetricSpace


@dataclass(frozen=True)
class Reader(TheoryExpr):
    inputs: Tuple[str, ...]

    def __post_init__(self):
        if not self.inputs or len(set(self.inputs)) != len(self.inputs):
            raise DomainError("reader inputs must be nonempty and distinct")


@dataclass(frozen=True)
class Writer(TheoryExpr):
    monoid: Monoid


@dataclass(frozen=True)
class Contract(TheoryExpr):
    name: str
    c: Fraction

    def __post_init__(self):
        if not (0 < self.c < 1):
            raise DomainError("contraction factor must be in (0, 1)")


@dataclass(frozen=True)
class Sum(TheoryExpr):
    left: TheoryExpr
    right: TheoryExpr


@dataclass(frozen=True)
class Tensor(TheoryExpr):
    left: TheoryExpr
    right: TheoryExpr


ONE_POINT = discrete(["*"])


def atoms(th: TheoryExpr) -> Iterator[TheoryExpr]:
    if isinstance(th, (Sum, Tensor)):
        yield from atoms(th.left)
        yield from atoms(th.right)
    else:
        yield th


# ---------------------------------------------------------------------------
# Axiom instantiation

@dataclass(frozen=True, eq=False)
class AxiomInstance:
    """One conditional quantitative equation with variable-only premises.

    `bound_fn`, present for continuous schemata, maps the premise thresholds
    to the tight conclusion bound and is monotone in each argument.  The
    instances of one schema come from one `_premised` call: they share their
    sides and one `bound_fn` object and are emitted one after another.
    """

    label: str
    premises: Tuple[Tuple[str, str, ExtValue], ...]
    lhs: Term
    rhs: Term
    bound: ExtValue
    bound_fn: Optional[Callable[..., ExtValue]] = None

    def variables(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys([*(v for pair in self.premises for v in pair[:2]),
                                    *term_vars(self.lhs), *term_vars(self.rhs)]))


@dataclass(frozen=True)
class ParamPool:
    """Finite pools the axiom schemata draw their parameters from."""

    weights: Tuple[Fraction, ...] = ()
    epsilons: Tuple[Fraction, ...] = ()
    monoid_elems: Tuple[MonoidElement, ...] = ()

    @staticmethod
    def make(weights=(), epsilons=(), monoid_elems=()) -> "ParamPool":
        """Pools from rationals or their text, each value once (so 1/2 and
        2/4 count once); weights lie in [0,1] and thresholds are nonnegative,
        or DomainError.  A monoid element that is not a rational is a
        table-monoid element name."""
        def rational(a, what):
            try:
                return Fraction(a)
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"{what} {a!r} is not a rational") from None

        def elem(a):
            try:
                return Fraction(a)
            except (ValueError, ZeroDivisionError):
                return a  # checked against the monoid by the writer axioms

        weights = tuple(dict.fromkeys(rational(w, "weight") for w in weights))
        epsilons = tuple(dict.fromkeys(rational(e, "threshold") for e in epsilons))
        for w in weights:
            if not 0 <= w <= 1:
                raise DomainError(f"weight {w} outside [0,1]")
        for e in epsilons:
            if e < 0:
                raise DomainError(f"threshold {e} is negative")
        return ParamPool(weights, epsilons, tuple(dict.fromkeys(map(elem, monoid_elems))))


def axioms(th: TheoryExpr, params: ParamPool) -> List[AxiomInstance]:
    """Every axiom of every atom instantiated over the pools, plus one
    commutation instance per pair of cross-side generators of each Tensor.

    Side-condition schemata are emitted at their tight bound.
    """
    return [ax for _, _, group in axiom_groups(th, params) for ax in group]


def axiom_groups(th: TheoryExpr, params: ParamPool, origin: str = ""
                 ) -> Iterator[Tuple[str, Optional[TheoryExpr], List[AxiomInstance]]]:
    """The axioms of th in groups (origin, atom, instances), left to right:
    each atom's own axioms with the atom, and after both sides of each
    Tensor its commutation instances with atom None and origin + ".com".
    Origins spell the path to the node, one L or R per Sum/Tensor step."""
    if isinstance(th, (Sum, Tensor)):
        yield from axiom_groups(th.left, params, origin + "L")
        yield from axiom_groups(th.right, params, origin + "R")
        if isinstance(th, Tensor):
            yield origin + ".com", None, [
                _commutation(f, g)
                for f in instantiate_generators(th.left, params)
                for g in instantiate_generators(th.right, params)]
        return
    yield origin, th, _atom_axioms(th, params)


def _atom_axioms(atom: TheoryExpr, params: ParamPool) -> List[AxiomInstance]:
    eps = [ExtValue(e) for e in params.epsilons]
    out: List[AxiomInstance] = []
    x, y, z = Var("x"), Var("y"), Var("z")

    if isinstance(atom, Bary):
        if not params.weights:
            raise DomainError("barycentric axioms need a nonempty weight pool")
        out.append(AxiomInstance("B1", (), app(conv(1), x, y), x, ZERO))
        for e in params.weights:
            out.append(AxiomInstance(f"B2[{e}]", (), app(conv(e), x, x), x, ZERO))
            out.append(AxiomInstance(
                f"SC[{e}]", (), app(conv(e), x, y), app(conv(1 - e), y, x), ZERO))
        for e in params.weights:
            for e2 in params.weights:
                if e < 1 and e2 < 1:
                    inner = (e2 - e * e2) / (1 - e * e2)
                    out.append(AxiomInstance(
                        f"SA[{e},{e2}]", (),
                        app(conv(e2), app(conv(e), x, y), z),
                        app(conv(e * e2), x, app(conv(inner), y, z)),
                        ZERO))
        for e in params.weights:
            out += _premised(f"IB[{e}]", conv(e), conv(e), _ib_bound(e), eps)
        return out

    if isinstance(atom, Semi):
        u, o = union_op(), app(empty_op())
        out.append(AxiomInstance("S0", (), app(u, x, o), x, ZERO))
        out.append(AxiomInstance("S1", (), app(u, x, x), x, ZERO))
        out.append(AxiomInstance("S2", (), app(u, x, y), app(u, y, x), ZERO))
        out.append(AxiomInstance(
            "S3", (), app(u, app(u, x, y), z), app(u, x, app(u, y, z)), ZERO))
        return out + _premised("S4", u, u, ext_max, eps)

    if isinstance(atom, Exc):
        for p in atom.space.points:
            for q in atom.space.points:
                d = atom.space.d(p, q)
                if d.is_inf:
                    continue  # no rational-indexed instance exists
                out.append(AxiomInstance(
                    f"Exc[{p},{q}]", (), app(raise_(p)), app(raise_(q)), d))
        return out

    if isinstance(atom, Reader):
        n = len(atom.inputs)
        rd = read(n)
        out.append(AxiomInstance("Idem", (), x, App(rd, tuple([x] * n)), ZERO))
        diag_lhs = App(rd, tuple(Var(f"x{i}_{i}") for i in range(n)))
        diag_rhs = App(rd, tuple(
            App(rd, tuple(Var(f"x{i}_{j}") for j in range(n))) for i in range(n)))
        out.append(AxiomInstance("Diag", (), diag_lhs, diag_rhs, ZERO))
        return out

    if isinstance(atom, Writer):
        mon = atom.monoid
        alphas = _writer_pool(mon, params)
        if not alphas:
            raise DomainError(
                "writer axioms over the rational line need a monoid element pool")
        out.append(AxiomInstance("Zero", (), x, app(write(mon.unit), x), ZERO))
        for a in alphas:
            for b in alphas:
                out.append(AxiomInstance(
                    f"Mult[{a},{b}]", (),
                    app(write(a), app(write(b), x)),
                    app(write(mon.mult(a, b)), x), ZERO))
        for a in alphas:
            for b in alphas:
                out += _premised(f"Diff[{a},{b}]", write(a), write(b),
                                 lambda e, base=mon.dist(a, b): base + e, eps)
        return out

    if isinstance(atom, Contract):
        step = next_op(atom.name, atom.c)
        return _premised(f"Lip[{atom.name}]", step, step, lambda e: e.scaled(atom.c), eps)

    raise DomainError(f"unknown atom {atom!r}")


def _premised(label: str, f: OpSym, g: OpSym, bound_fn: Callable[..., ExtValue],
              eps: Sequence[ExtValue]) -> List[AxiomInstance]:
    """The schema x1 =_e1 y1, ..., xn =_en yn |- f(x1..xn) =_b g(y1..yn) for
    n the arity of f and b = bound_fn(e1..en): one instance per tuple of
    thresholds from eps, in `itertools.product` order, all sharing the two
    sides and bound_fn."""
    xs = [f"x{i}" for i in range(1, f.arity + 1)]
    ys = [f"y{i}" for i in range(1, f.arity + 1)]
    lhs, rhs = App(f, tuple(map(Var, xs))), App(g, tuple(map(Var, ys)))
    return [AxiomInstance(label, tuple(zip(xs, ys, es)), lhs, rhs, bound_fn(*es), bound_fn)
            for es in itertools.product(eps, repeat=f.arity)]


def _ib_bound(e: Fraction):
    def bound(e1: ExtValue, e2: ExtValue) -> ExtValue:
        # a zero weight drops its part, so that 0 * inf never arises
        return ext_sum(d.scaled(w) for d, w in ((e1, e), (e2, 1 - e)) if w != 0)

    return bound


def instantiate_generators(th: TheoryExpr, params: ParamPool) -> List[OpSym]:
    """The finite generator set used for commutation instances and model
    checking: parameterized families are instantiated over the pools,
    including the derived convex weights appearing in SC/SA instances and
    monoid products appearing in (Mult)."""
    ops: List[OpSym] = []
    for atom in atoms(th):
        if isinstance(atom, Bary):
            for e in conv_weight_closure(params.weights):
                ops.append(conv(e))
        elif isinstance(atom, Semi):
            ops.extend([union_op(), empty_op()])
        elif isinstance(atom, Exc):
            ops.extend(raise_(p) for p in atom.space.points)
        elif isinstance(atom, Reader):
            ops.append(read(len(atom.inputs)))
        elif isinstance(atom, Writer):
            mon = atom.monoid
            base = _writer_pool(mon, params)
            closed = dict.fromkeys([*base, *(mon.mult(a, b) for a in base for b in base),
                                    mon.unit])
            ops.extend(write(a) for a in closed)
        elif isinstance(atom, Contract):
            ops.append(next_op(atom.name, atom.c))
    return ops


def _writer_pool(mon: Monoid, params: ParamPool) -> Tuple[MonoidElement, ...]:
    """The pool's monoid elements; by default a table monoid's carrier."""
    alphas = params.monoid_elems or mon.elements or ()
    for a in alphas:
        if not mon.contains(a):
            raise DomainError(f"monoid element {a!r} outside the writer monoid")
    return alphas


def conv_weight_closure(weights: Sequence[Fraction]) -> List[Fraction]:
    """Pool weights plus the weights SC/SA/B1 instances derive from them."""
    out = dict.fromkeys([*weights, Fraction(1)])
    out.update(dict.fromkeys([1 - e for e in out]))
    below = [e for e in out if e < 1]
    out.update(dict.fromkeys(w for e in below for e2 in below
                             for w in (e * e2, (e2 - e * e2) / (1 - e * e2))))
    return list(out)


def _commutation(f: OpSym, g: OpSym) -> AxiomInstance:
    """f(g(x11..x1m), ..., g(xn1..xnm)) =_0 g(f(x11..xn1), ..., f(x1m..xnm))."""
    n, m = f.arity, g.arity
    if n == 0 and m == 0:
        # Tensoring two pointed theories would identify the constants; no
        # supported combination produces this.
        raise DomainError(f"commutation of two constants {f} and {g}")
    grid = [[Var(f"x{i}_{j}") for j in range(m)] for i in range(n)]
    lhs = App(f, tuple(App(g, tuple(row)) for row in grid))
    rhs = App(g, tuple(App(f, tuple(row[j] for row in grid)) for j in range(m)))
    return AxiomInstance(f"Com[{f},{g}]", (), lhs, rhs, ZERO)


# ---------------------------------------------------------------------------
# Layer plans

@dataclass(frozen=True)
class LayerPlan:
    """Concrete description of the theory's free monad: nested layers,
    outermost first, over leaf kinds (variables, exception points, and one
    recursive guard per contractive operator).

    Layers: ('func', inputs) | ('dist',) | ('set',) | ('pair', monoid).
    Each effect transformer changes one part: exceptions set `exc_space`, a
    contractive operator appends a guard, a reader prepends a 'func' layer
    and a writer appends a 'pair' layer.
    """

    layers: Tuple[Tuple, ...]
    guards: Tuple[Contract, ...]
    exc_space: Optional[FinMetricSpace]


def layer_plan(th: TheoryExpr) -> LayerPlan:
    """Normalization recipe: a fold of the four effect transformers.

    A Sum is flattened into its parts, whose transformers are Exc (T(X+E))
    and Contract (the resumption); a Tensor likewise, with Reader ((T X)^I)
    and Writer (T(M x X)).  At most one part is anything else: the fold
    starts from its plan, or the empty plan, and each transformer acts on it
    in turn (see LayerPlan).  Raises UnsupportedShape when a tensor would
    pass a guard or a writer would pass exceptions, whose commutation axioms
    have no layered normal form, and for contractive operators alone;
    DomainError for a repeated atom (see _transform).
    """
    plan = _plan(th)
    if not plan.layers and plan.exc_space is None:
        raise UnsupportedShape("a theory of contractive operators alone has no leaves to guard")
    return plan


def _plan(th: TheoryExpr) -> LayerPlan:
    if isinstance(th, Bary):
        return LayerPlan((("dist",),), (), None)
    if isinstance(th, Semi):
        return LayerPlan((("set",),), (), None)
    node, steps = ((Tensor, (Reader, Writer)) if isinstance(th, (Tensor, Reader, Writer))
                   else (Sum, (Exc, Contract)))
    parts = _flatten(th, node)
    others = [p for p in parts if not isinstance(p, steps)]
    if others == [th]:
        raise DomainError(f"unknown atom {th!r}")
    if len(others) > 1:
        raise UnsupportedShape(
            f"a {node.__name__} has more than one part besides its transformers: "
            + ", ".join(type(p).__name__ for p in others))
    plan = _plan(others[0]) if others else LayerPlan((), (), None)
    for p in parts:
        if isinstance(p, steps):
            plan = _transform(plan, p)
    return plan


def _transform(plan: LayerPlan, atom: TheoryExpr) -> LayerPlan:
    """One effect transformer applied to the plan of the theory it extends.
    An atom whose part of the plan already exists would give two
    operation families one interpretation, so it is a DomainError: a
    second exception space, reader or writer, or a second contractive
    operator of the same name."""
    layers, guards, exc = plan.layers, plan.guards, plan.exc_space
    kinds = [layer[0] for layer in layers]
    if (isinstance(atom, Exc) and exc is not None
            or isinstance(atom, Contract) and any(g.name == atom.name for g in guards)
            or isinstance(atom, Reader) and "func" in kinds
            or isinstance(atom, Writer) and "pair" in kinds):
        raise DomainError(f"repeated {type(atom).__name__} atom: a theory has at most one "
                          "exception, reader and writer atom, and one contractive "
                          "operator per name")
    if isinstance(atom, Exc):
        return LayerPlan(layers, guards, atom.space)
    if isinstance(atom, Contract):
        return LayerPlan(layers, guards + (atom,), exc)
    if guards:
        raise UnsupportedShape("a tensor cannot pass a contractive operator")
    if isinstance(atom, Reader):
        return LayerPlan((("func", atom.inputs),) + layers, guards, exc)
    if exc is not None:
        raise UnsupportedShape("a writer cannot pass exceptions")
    return LayerPlan(layers + (("pair", atom.monoid),), guards, exc)


def _flatten(th: TheoryExpr, node: type) -> List[TheoryExpr]:
    if isinstance(th, node):
        return _flatten(th.left, node) + _flatten(th.right, node)
    return [th]


# ---------------------------------------------------------------------------
# Ready-made composed theories

def markov_process_theory(c) -> TheoryExpr:
    """Barycentric + one-point exceptions + a contractive step."""
    return Sum(Sum(Bary(), Exc(ONE_POINT)), Contract("next", Fraction(c)))


def labelled_mp_theory(actions: Sequence[str], c) -> TheoryExpr:
    return Sum(Tensor(Sum(Bary(), Exc(ONE_POINT)), Reader(tuple(actions))),
               Contract("next", Fraction(c)))


def mealy_theory(inputs: Sequence[str], monoid: Monoid, c) -> TheoryExpr:
    return Sum(Tensor(Reader(tuple(inputs)), Writer(monoid)),
               Contract("next", Fraction(c)))


def mdp_theory(actions: Sequence[str], c) -> TheoryExpr:
    return Sum(Tensor(Tensor(Bary(), Writer(RATIONAL_LINE)), Reader(tuple(actions))),
               Contract("next", Fraction(c)))


# ---------------------------------------------------------------------------
# Parsing

def parse_theory(text: str, spaces: Optional[Dict[str, FinMetricSpace]] = None,
                 monoids: Optional[Dict[str, Monoid]] = None,
                 source: str = "<theory>") -> TheoryExpr:
    """Parse the theory expression grammar.

    bary | semi | exc{...} | reader{i1,...} | writer{q or name} |
    contr{name, c} | sum(th, th) | tensor(th, th).  exc{1} and exc{*} mean
    the one-point space; exc{a,b,...} is the discrete space on the listed
    labels; other names refer to `spaces`.
    """
    ts = TokenStream(text, source)
    th = _parse_theory(ts, spaces or {}, monoids or {})
    ts.expect_eof()
    return th


def _parse_theory(ts: TokenStream, spaces, monoids) -> TheoryExpr:
    i = ts.i
    name = ts.expect_ident()
    if name == "bary":
        return Bary()
    if name == "semi":
        return Semi()
    if name == "exc":
        ts.expect("{")
        labels = ts.expect_list(lambda: ts.expect_label("exception label"))
        ts.expect("}")
        if labels in (["1"], ["*"]):
            return Exc(ONE_POINT)
        if len(labels) == 1 and labels[0] in spaces:
            return Exc(spaces[labels[0]])
        return Exc(discrete(labels))
    if name == "reader":
        ts.expect("{")
        inputs = ts.expect_list(ts.expect_ident)
        ts.expect("}")
        return Reader(tuple(inputs))
    if name == "writer":
        ts.expect("{")
        ref = ts.expect_ident()
        ts.expect("}")
        if ref == "q":
            return Writer(RATIONAL_LINE)
        if ref in monoids:
            return Writer(monoids[ref])
        raise ts.error(f"unknown monoid {ref!r}", i)
    if name == "contr":
        ts.expect("{")
        opname = ts.expect_ident()
        ts.expect(",")
        c = ts.expect_rational()
        ts.expect("}")
        return Contract(opname, c)
    if name == "sum" or name == "tensor":
        ts.expect("(")
        left = _parse_theory(ts, spaces, monoids)
        ts.expect(",")
        right = _parse_theory(ts, spaces, monoids)
        ts.expect(")")
        return Sum(left, right) if name == "sum" else Tensor(left, right)
    raise ts.error(f"unknown theory atom {name!r}", i)


def parse_monoids(text: str, source: str = "<monoid>") -> Dict[str, Monoid]:
    """Parse `monoid NAME { elements: a, b; unit = a; mult(a,b) = c; d(a,b) = 1; }`."""
    ts = TokenStream(text, source)

    def monoid(kind: str, name: str) -> Monoid:
        ts.expect("elements", ":")
        elements = ts.expect_list(ts.expect_ident)
        ts.expect(";")
        ts.expect("unit", "=")
        unit = ts.expect_ident()
        ts.expect(";")
        table: Dict[Tuple[str, str], str] = {}
        dist: Dict[Tuple[str, str], ExtValue] = {}
        while not ts.at("}"):
            what = ts.expect_ident()
            ts.expect("(")
            a = ts.expect_ident()
            ts.expect(",")
            b = ts.expect_ident()
            ts.expect(")", "=")
            if what == "mult":
                table[(a, b)] = ts.expect_ident()
            elif what == "d":
                dist[(a, b)] = ts.expect_ext()
            else:
                raise ts.error(f"expected mult or d, found {what!r}")
            ts.expect(";")
        return TableMonoid(FinMetricSpace(elements, dist), unit, table)

    return ts.blocks("monoid", ("monoid",), monoid)
