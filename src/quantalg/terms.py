"""Operation symbols, terms, substitution, and the term surface grammar.

Operation symbols come in families of parameterized symbols: convex
combination +_e, exception constants raise_e, semilattice union/empty,
n-ary read, unary writes wr_alpha, and unary contractive step operators.
Which of them a theory has is decided by its layer plan, when a term is
denoted (`semantics.apply_operation`), not here.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Tuple, Union

from .errors import DomainError
from .lexing import Token, TokenStream

MonoidElement = Union[Fraction, str]

# Each family by its OpSym kind: its word in terms and `op` headers, arity
# (None for rd: one argument per reader input), whether a parameter is written
# first, and the layer it acts at (None for raise and next: at a leaf).
Family = namedtuple("Family", "word arity param home")
FAMILIES = {
    "conv": Family("conv", 2, True, "dist"),
    "raise": Family("raise", 0, True, None),
    "union": Family("union", 2, False, "set"),
    "empty": Family("empty", 0, False, "set"),
    "read": Family("rd", None, False, "func"),
    "write": Family("wr", 1, True, "pair"),
    "next": Family("next", 1, False, None),
}
KIND_OF_WORD = {f.word: kind for kind, f in FAMILIES.items()}


@dataclass(frozen=True)
class OpSym:
    """One operation symbol; `param` depends on the family `kind`."""

    kind: str
    param: object = None

    def __post_init__(self):
        if self.kind == "conv":
            e = self.param
            if not isinstance(e, Fraction) or not (0 <= e <= 1):
                raise ValueError(f"conv parameter must be a rational in [0,1], got {e!r}")
        elif self.kind == "read":
            if not isinstance(self.param, int) or self.param < 1:
                raise ValueError("read arity must be a positive integer")
        elif self.kind not in FAMILIES:
            raise ValueError(f"unknown operation family {self.kind!r}")

    @property
    def arity(self) -> int:
        n = FAMILIES[self.kind].arity
        return self.param if n is None else n

    def __str__(self) -> str:
        return self.written(())

    def written(self, args: Iterable[str]) -> str:
        """The symbol as a term writes it around the argument texts `args`."""
        family = FAMILIES[self.kind]
        parts = [str(self.param), *args] if family.param else list(args)
        head = self.param[0] if self.kind == "next" else family.word
        return f"{head}({', '.join(parts)})" if parts else head


def conv(e) -> OpSym:
    return OpSym("conv", e if type(e) is Fraction else Fraction(e))


def raise_(label: str) -> OpSym:
    return OpSym("raise", label)


def union_op() -> OpSym:
    return OpSym("union")


def empty_op() -> OpSym:
    return OpSym("empty")


def read(n: int) -> OpSym:
    return OpSym("read", n)


def write(alpha: MonoidElement) -> OpSym:
    return OpSym("write", alpha)


def next_op(name: str = "next", c=None) -> OpSym:
    # a Fraction is kept, so a term's guards share the plan's c (see semantics._check_member)
    return OpSym("next", (name, c if c is None or type(c) is Fraction else Fraction(c)))


class Term:
    """Base class; terms are Var or App nodes, immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App(Term):
    op: OpSym
    args: Tuple[Term, ...]

    def __post_init__(self):
        if len(self.args) != self.op.arity:
            raise ValueError(
                f"{self.op} expects {self.op.arity} arguments, got {len(self.args)}"
            )

    def __str__(self) -> str:
        return format_term(self)


def app(op: OpSym, *args: Term) -> App:
    return App(op, tuple(args))


def variables(t: Term) -> Iterator[str]:
    """Yield variable names in left-to-right occurrence order."""
    if isinstance(t, Var):
        yield t.name
    else:
        for a in t.args:
            yield from variables(a)


def bind(t: Term, sigma: Mapping[str, Term]) -> Term:
    """Homomorphic substitution; variables missing from sigma are left fixed."""
    if isinstance(t, Var):
        return sigma.get(t.name, t)
    return App(t.op, tuple(bind(a, sigma) for a in t.args))


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return t.op.written(map(format_term, t.args))


def parse_term(text: str, theory=None, source: str = "<term>") -> Term:
    """Parse the term surface grammar.

    With a theory, each contractive operator is written by its name, as in
    `step(x)`, and `next` stands for the theory's only one; with several,
    `next` is ambiguous and a DomainError.  Without a theory, `next` stays
    unresolved.  Whether each operation is in the theory (`rd` of the
    reader's arity among them) is decided when the term is denoted: an
    operation outside it is a DomainError there.
    """
    from .theories import Contract, atoms

    contracts = {} if theory is None else {
        a.name: next_op(a.name, a.c) for a in atoms(theory) if isinstance(a, Contract)}
    if len(contracts) == 1:
        only, = contracts.values()
        contracts["next"] = only
    ts = TokenStream(text, source)
    t = _parse_term(ts, contracts, {})
    ts.expect_eof()
    return t


def _parse_term(ts: TokenStream, contracts: Mapping[str, OpSym], ops: dict) -> Term:
    # One frame per nesting level: a helper frame would lower the depth at which
    # a nested term exhausts the recursion limit.  `ops`: each op read, by spelling.
    tok = ts.next()
    kind = KIND_OF_WORD.get(tok.text)
    if kind is None:
        if tok.kind != "ident":
            raise ts.error(f"expected a term, found {tok.text or 'end of input'!r}", tok)
        if tok.text in contracts and ts.accept("("):
            a = _parse_term(ts, contracts, ops)
            ts.expect(")")
            return App(contracts[tok.text], (a,))
        return Var(tok.text)
    if kind == "empty":
        return App(empty_op(), ())
    family = FAMILIES[kind]
    ts.expect("(")
    spelling = (tok.text, ts.peek().text) if family.param else None
    op = ops.get(spelling)
    if op is not None:
        ts.next()  # the parameter, whose spelling was read before
    elif spelling:
        op = ops[spelling] = parse_parameter(ts, tok)
    args = [] if family.param else [_parse_term(ts, contracts, ops)]
    while len(args) != family.arity:
        if family.arity is not None:
            ts.expect(",")
        elif not ts.accept(","):
            break
        args.append(_parse_term(ts, contracts, ops))
    ts.expect(")")
    if kind == "next":
        if "next" not in contracts and len(contracts) > 1:
            raise DomainError(
                f"{ts.source}:{ts.line(tok)}: next is ambiguous among the contractive "
                f"operators {', '.join(contracts)}; write one by its name")
        op = contracts["next"] if "next" in contracts else next_op()
    elif op is None:
        op = read(len(args)) if kind == "read" else OpSym(kind)
    return App(op, tuple(args))


def parse_parameter(ts: TokenStream, tok: Token) -> OpSym:
    """The operation of the family `tok` names (conv, raise or wr), reading
    its parameter: a conv weight, which must lie in [0,1], an exception
    label, or a monoid element."""
    if tok.text == "conv":  # n/d lies in [0,1] when n <= d: the numeral has no sign
        n, d = ts.expect_ratio()
        if n > d:
            raise ts.error(f"conv weight {Fraction(n, d)} outside [0,1]", tok)
        return conv(Fraction(n, d))
    if tok.text == "raise":
        return raise_(ts.expect_label("exception label"))
    return write(ts.expect_element())
