"""Shared random generators for the test suite (seeded, deterministic), and
a writer of drawn coalgebra tables in the text format."""

import random
from dataclasses import dataclass
from fractions import Fraction

from quantalg import (EXTENDED, App, Bary, Contract, DomainError, Exc,
                      FinMetricSpace, ONE_POINT, RATIONAL_LINE, Reader, Semi,
                      Sum, TableMonoid, Tensor, Var, Writer, app, atoms, conv,
                      empty_op, ext, next_op, parse_coalgebras, raise_, read,
                      union_op, write)
from quantalg.extvalue import INF


@dataclass(frozen=True)
class FinDist:
    """A finitely supported distribution as a test draws it: (key, weight)
    items with positive exact weights, sorted by key, so keys must be
    mutually comparable.  It has `.items` like a semantic DistVal, which is
    all the Kantorovich kernel reads."""

    items: tuple

    @staticmethod
    def from_pairs(pairs) -> "FinDist":
        acc = {}
        for k, w in pairs:
            w = Fraction(w)
            if w < 0:
                raise DomainError("negative weight in distribution")
            if w:
                acc[k] = acc.get(k, Fraction(0)) + w
        if not acc:
            raise DomainError("empty distribution")
        return FinDist(tuple(sorted(acc.items())))

    @staticmethod
    def dirac(point) -> "FinDist":
        return FinDist(((point, Fraction(1)),))


def rational(rng: random.Random, max_den: int = 8, max_num: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(1, max_num * den), den)


def weight(rng: random.Random, max_den: int = 6) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def random_space(rng: random.Random, points, max_den: int = 8,
                 inf_prob: float = 0.0) -> FinMetricSpace:
    """Random metric: sample symmetric positive entries, then take the
    shortest-path closure so the triangle inequality holds."""
    points = list(points)
    n = len(points)
    d = {}
    for i in range(n):
        for j in range(i + 1, n):
            if inf_prob and rng.random() < inf_prob:
                d[(i, j)] = INF
            else:
                d[(i, j)] = ext(rational(rng, max_den))

    def get(i, j):
        if i == j:
            return ext(0)
        return d[(min(i, j), max(i, j))]

    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                via = get(i, k) + get(k, j)
                if via < get(i, j):
                    d[(i, j)] = via
    table = {(points[i], points[j]): get(i, j)
             for i in range(n) for j in range(i + 1, n)}
    return FinMetricSpace(points, table)


def random_dist(rng: random.Random, points, max_den: int = 12) -> FinDist:
    """Random distribution over a nonempty subset with denominator <= max_den."""
    den = rng.randint(1, max_den)
    support = [p for p in points if rng.random() < 0.7]
    if not support:
        support = [rng.choice(list(points))]
    cuts = sorted(rng.randint(0, den) for _ in range(len(support) - 1))
    weights = []
    prev = 0
    for c in cuts + [den]:
        weights.append(Fraction(c - prev, den))
        prev = c
    return FinDist.from_pairs(
        [(p, w) for p, w in zip(support, weights) if w > 0])


SHAPE_ATOMS = (Bary(), Semi(), Exc(ONE_POINT), Reader(("a", "b")), Writer(RATIONAL_LINE),
               Contract("next", Fraction(1, 2)))


def theory_shapes(steps: int = 2) -> list:
    """Every theory with at most `steps` sum/tensor steps over SHAPE_ATOMS,
    each step adding one atom on either side."""
    shapes = level = list(SHAPE_ATOMS)
    for _ in range(steps):
        level = list(dict.fromkeys(
            node(*pair) for th in level for atom in SHAPE_ATOMS for node in (Sum, Tensor)
            for pair in ((th, atom), (atom, th))))
        shapes = shapes + level
    return shapes


def random_term(rng: random.Random, th, leaf_vars, depth: int):
    """Random well-formed term over th's signature with the given leaves."""
    choices = []
    exc_labels = []
    for atom in atoms(th):
        if isinstance(atom, Bary):
            choices.append("conv")
        elif isinstance(atom, Semi):
            choices.extend(["union", "empty"])
        elif isinstance(atom, Exc):
            exc_labels = list(atom.space.points)
        elif isinstance(atom, Reader):
            choices.append(("read", atom.inputs))
        elif isinstance(atom, Writer):
            choices.append(("write", atom.monoid))
        elif isinstance(atom, Contract):
            choices.append(("next", atom.name, atom.c))

    def leaf():
        opts = []
        if leaf_vars:
            opts.append("var")
        if exc_labels:
            opts.append("raise")
        kind = rng.choice(opts)
        if kind == "var":
            return Var(rng.choice(leaf_vars))
        return app(raise_(rng.choice(exc_labels)))

    def go(k):
        if k == 0 or (k < depth and rng.random() < 0.25):
            return leaf()
        pick = rng.choice(choices)
        if pick == "conv":
            return App(conv(weight(rng)), (go(k - 1), go(k - 1)))
        if pick == "union":
            return App(union_op(), (go(k - 1), go(k - 1)))
        if pick == "empty":
            return app(empty_op())
        if pick[0] == "read":
            return App(read(len(pick[1])), tuple(go(k - 1) for _ in pick[1]))
        if pick[0] == "write":
            mon = pick[1]
            alpha = rational(rng, 4) if mon.elements is None else rng.choice(list(mon.elements))
            return App(write(alpha), (go(k - 1),))
        if pick[0] == "next":
            return App(next_op(pick[1], pick[2]), (go(k - 1),))
        raise AssertionError(pick)

    return go(depth)


BOT = ("bot",)


def st(name: str) -> tuple:
    return ("st", name)


def leaf(point: str) -> tuple:
    return ("leaf", point)


@dataclass
class Table:
    """A system as a test draws it, in the text format's terms: rows keyed
    by state (mp) or by (state, label), each a FinDist over targets (mp,
    lmp), a FinDist over (target, reward) pairs (mdp), or one (target,
    output) pair (mealy).  Targets are st(s), BOT and leaf(x)."""

    kind: str
    c: Fraction
    states: list
    rows: dict
    labels: tuple = ()
    monoid: object = RATIONAL_LINE


def table_text(T: Table, name: str = "T") -> str:
    """T in the coalgebra text format; a table monoid is named M."""
    def cell(x) -> str:
        if isinstance(x[0], tuple):
            return f"({cell(x[0])}, {x[1]})"
        return {"st": x[-1], "bot": "bot", "leaf": f"leaf({x[-1]})"}[x[0]]

    lines = [f"{T.kind} {name} {{ c = {T.c};"]
    if T.labels:
        label = "inputs" if T.kind == "mealy" else "actions"
        lines.append(f"{label}: " + ", ".join(T.labels) + ";")
    if T.monoid != RATIONAL_LINE:
        lines.append("monoid: M;")
    for key, row in T.rows.items():
        head = f"state {key}" if T.kind == "mp" else f"state {key[0]} on {key[1]}"
        if T.kind == "mealy":
            lines.append(f"{head} -> {cell(row)};")
        else:
            lines.append(f"{head}: " + ", ".join(f"{w} -> {cell(x)}" for x, w in row.items) + ";")
    return "\n".join(lines + ["}"]) + "\n"


def table_coalgebra(T: Table, space=None):
    """T read through parse_coalgebras."""
    return parse_coalgebras(table_text(T), {"M": T.monoid}, space)["T"]


def random_coalgebra(rng: random.Random, kind: str, n_states: int = 3,
                     c: Fraction = Fraction(1, 2), actions=("a", "b"),
                     inputs=("i", "j"), max_den: int = 6):
    """Random closed system of the given kind."""
    states = [f"s{k}" for k in range(n_states)]

    def row(allow_bot=True):
        targets = [st(s) for s in states] + ([BOT] if allow_bot else [])
        support = rng.sample(targets, rng.randint(1, min(3, len(targets))))
        den = rng.randint(1, max_den)
        cuts = sorted(rng.randint(0, den) for _ in range(len(support) - 1))
        weights, prev = [], 0
        for cut in cuts + [den]:
            weights.append(Fraction(cut - prev, den))
            prev = cut
        return FinDist.from_pairs((t, w) for t, w in zip(support, weights) if w > 0)

    if kind == "mp":
        return table_coalgebra(Table("mp", c, states, {s: row() for s in states}))
    if kind == "lmp":
        rows = {(s, a): row() for s in states for a in actions}
        return table_coalgebra(Table("lmp", c, states, rows, actions))
    if kind == "mealy":
        rows = {(s, i): (st(rng.choice(states)), rational(rng, 4))
                for s in states for i in inputs}
        return table_coalgebra(Table("mealy", c, states, rows, inputs))
    if kind == "mdp":
        def mdp_row():
            base = row(allow_bot=False)
            return FinDist.from_pairs(
                ((t, Fraction(rng.randint(0, 3))), w) for t, w in base.items)
        rows = {(s, a): mdp_row() for s in states for a in actions}
        return table_coalgebra(Table("mdp", c, states, rows, actions))
    raise AssertionError(kind)


# max on 0 <= 1/2 <= 1, as names z, h, o: a table monoid with finite distances
MAX_MONOID = TableMonoid(
    FinMetricSpace(["z", "h", "o"], {("z", "h"): ext("1/2"), ("h", "o"): ext("1/2"),
                                     ("z", "o"): ext(1)}), "z",
    {(a, b): max(a, b, key="zho".index) for a in "zho" for b in "zho"})


def random_cyclic_table(rng: random.Random, kind: str, mode: str, space,
                        monoid=RATIONAL_LINE, n: int = 3,
                        c: Fraction = Fraction(1, 2)) -> Table:
    """A random table in which every row reaches a state, so that the system
    is cyclic.  Distribution rows also reach leaf(x) points of the space and,
    for mp and lmp, bot.  In extended mode ||Psi(0)|| stays finite if the
    space's distances are: no row reaches bot, and every distribution row
    puts mass 1/2 on states and 1/2 on leaves."""
    names = [f"s{k}" for k in range(n)]
    states = [st(s) for s in names]
    leaves = [leaf(x) for x in space.points]
    labels = ("a", "b")

    def row():
        if mode == EXTENDED:
            parts = [(random_dist(rng, states, 6), Fraction(1, 2)),
                     (random_dist(rng, leaves, 6), Fraction(1, 2))]
        else:
            others = states + leaves + ([BOT] if kind in ("mp", "lmp") else [])
            e = Fraction(rng.randint(1, 3), 4)
            parts = [(FinDist.dirac(rng.choice(states)), e),
                     (random_dist(rng, others, 6), 1 - e)]
        return FinDist.from_pairs((t, w * share) for dist, share in parts
                                  for t, w in dist.items)

    if kind == "mp":
        return Table("mp", c, names, {s: row() for s in names})
    keys = [(s, a) for s in names for a in labels]
    if kind == "lmp":
        return Table("lmp", c, names, {k: row() for k in keys}, labels)
    if kind == "mdp":
        return Table("mdp", c, names, {k: FinDist.from_pairs(
            ((t, Fraction(rng.randint(0, 4), 2)), w) for t, w in row().items)
            for k in keys}, labels)
    outputs = list(monoid.elements) if monoid is not RATIONAL_LINE \
        else [Fraction(k, 2) for k in range(5)]
    return Table("mealy", c, names, {k: (rng.choice(states), rng.choice(outputs))
                                     for k in keys}, labels, monoid)


def random_acyclic_table(rng: random.Random, kind: str, space,
                         monoid=RATIONAL_LINE, n: int = 4,
                         c: Fraction = Fraction(1, 2)) -> Table:
    """A random table in which each row targets only later states, leaf(x)
    points of the space and, for mp and lmp, bot, so that the system is
    acyclic: s_k reaches s_j only if j > k."""
    names = [f"s{k}" for k in range(n)]
    leaves = [leaf(x) for x in space.points]
    labels = ("a", "b")

    def targets(k):
        return [st(s) for s in names[k + 1:]] + leaves \
            + ([BOT] if kind in ("mp", "lmp") else [])

    if kind == "mp":
        return Table("mp", c, names, {s: random_dist(rng, targets(k), 6)
                                      for k, s in enumerate(names)})
    keys = [(s, a, k) for k, s in enumerate(names) for a in labels]
    if kind == "lmp":
        return Table("lmp", c, names, {(s, a): random_dist(rng, targets(k), 6)
                                       for s, a, k in keys}, labels)
    if kind == "mdp":
        return Table("mdp", c, names, {(s, a): FinDist.from_pairs(
            ((t, Fraction(rng.randint(0, 4), 2)), w)
            for t, w in random_dist(rng, targets(k), 6).items) for s, a, k in keys}, labels)
    outputs = list(monoid.elements) if monoid is not RATIONAL_LINE \
        else [Fraction(k, 2) for k in range(5)]
    return Table("mealy", c, names, {(s, a): (rng.choice(targets(k)), rng.choice(outputs))
                                     for s, a, k in keys}, labels, monoid)


def dense_recipe_table(kind: str, n: int) -> Table:
    """A system of the dense recipe, drawn from random.Random(n): n states,
    c = 9/10, and in every row four distinct target states with weights in
    24ths.  Every third mp row, s0, s3, ..., puts mass 1/2 on bot and the
    other half on its targets; mdp rows (actions a and b) give each cell a
    reward of 0, 1/4 or 1/2.  One block of each policy system holds most of
    its unknowns, and their rows of 4-5 entries fill in under elimination."""
    rng = random.Random(n)
    names = [f"s{k}" for k in range(n)]

    def row(bot: bool) -> list:
        targets = rng.sample(names, 4)
        total = 12 if bot else 24
        cuts = [0, *sorted(rng.sample(range(1, total), 3)), total]
        cells = [(st(t), Fraction(b - a, 24)) for t, a, b in zip(targets, cuts, cuts[1:])]
        return cells + [(BOT, Fraction(1, 2))] if bot else cells

    c = Fraction(9, 10)
    if kind == "mp":
        return Table("mp", c, names, {s: FinDist.from_pairs(row(k % 3 == 0))
                                      for k, s in enumerate(names)})
    rewards = (Fraction(0), Fraction(1, 4), Fraction(1, 2))
    return Table("mdp", c, names, {(s, a): FinDist.from_pairs(
        ((t, rng.choice(rewards)), w) for t, w in row(False)) for s in names for a in "ab"},
        ("a", "b"))
