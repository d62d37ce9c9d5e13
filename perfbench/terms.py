"""Random terms for the benchmark, built as plain tuples and printed in the
term grammar, plus an unfolding of closed Markov-process terms that shares
no code with quantalg.

A term is one of ("var", name), ("raise",), ("empty",), ("next", t),
("conv", weight, t, s), ("union", t, s), ("rd", t, s) and ("wr", alpha, t).
"""

from __future__ import annotations

import random
from fractions import Fraction

# Theory texts; {c} is the discount of the contractive step.  The wide ops
# are the branching operations a full tree draws its inner nodes from.
THEORIES = {
    "mp": ("sum(sum(bary, exc{{1}}), contr{{next, {c}}})", ("conv",), True),
    "lmp": ("sum(tensor(sum(bary, exc{{1}}), reader{{a, b}}), contr{{next, {c}}})",
            ("conv", "rd"), True),
    "mealy": ("sum(tensor(reader{{a, b}}, writer{{q}}), contr{{next, {c}}})",
              ("rd", "wr"), False),
    "mdp": ("sum(tensor(tensor(bary, writer{{q}}), reader{{a, b}}), contr{{next, {c}}})",
            ("conv", "rd", "wr"), False),
    "semi": ("sum(sum(semi, exc{{1}}), contr{{next, {c}}})", ("union",), True),
}

VARIABLES = ("x", "y", "z")
WEIGHTS = tuple(Fraction(k, 8) for k in range(1, 8))
OUTPUTS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))



def space_text(variables=VARIABLES) -> str:
    """The ground space of the free variables: d = 1, 1/2 and 3/2 between
    the first and second, second and third, and first and third."""
    x, y, z = variables
    return (f"space S {{ points: {x}, {y}, {z}; d({x},{y}) = 1; d({y},{z}) = 1/2; "
            f"d({x},{z}) = 3/2; }}\n")


def theory_text(kind: str, c: Fraction) -> str:
    return THEORIES[kind][0].format(c=c)


def fmt(t) -> str:
    k = t[0]
    if k == "var":
        return t[1]
    if k == "raise":
        return "raise(*)"
    if k == "empty":
        return "empty"
    if k == "next":
        return f"next({fmt(t[1])})"
    if k == "conv":
        return f"conv({t[1]}, {fmt(t[2])}, {fmt(t[3])})"
    if k == "union":
        return f"union({fmt(t[1])}, {fmt(t[2])})"
    if k == "rd":
        return f"rd({fmt(t[1])}, {fmt(t[2])})"
    if k == "wr":
        return f"wr({t[1]}, {fmt(t[2])})"
    raise ValueError(k)


def next_chain(n: int) -> str:
    """next^n(raise(*)), written without recursion."""
    return "next(" * n + "raise(*)" + ")" * n


def full_tree(rng: random.Random, kind: str, depth: int, closed: bool = False,
              period: int = 4, variables=VARIABLES):
    """A term whose every branch reaches `depth`, with leaves only at the
    bottom.  Open terms take a contractive step at every level i (from the
    top) with i % period == 1 and a wide operation of the theory elsewhere,
    so up to period - 1 binary levels separate two steps: a distribution
    under a step flattens to up to 2 ** (period - 1) leaves.
    Closed terms have raise(*) as their only leaf, so they place each step
    at random (one node in three) to keep their branches apart."""
    wide, has_exc = THEORIES[kind][1], THEORIES[kind][2]
    leaves = [("raise",)] if closed else [("var", v) for v in variables]
    if has_exc and not closed:
        leaves.append(("raise",))
    if kind == "semi" and not closed:
        leaves.append(("empty",))

    def go(level: int):
        if level == depth:
            return rng.choice(leaves)
        if (rng.random() < 1 / 3) if closed else (level % period == 1):
            return ("next", go(level + 1))
        op = rng.choice(wide)
        if op == "conv":
            return ("conv", rng.choice(WEIGHTS), go(level + 1), go(level + 1))
        if op == "wr":
            return ("wr", rng.choice(OUTPUTS), go(level + 1))
        return (op, go(level + 1), go(level + 1))

    return go(0)


def small_tree(rng: random.Random, kind: str, depth: int, variables=VARIABLES):
    """A term of depth at most `depth` whose branches may stop early."""
    wide, has_exc = THEORIES[kind][1], THEORIES[kind][2]
    leaves = [("var", v) for v in variables] + ([("raise",)] if has_exc else [])

    def go(level: int):
        if level == depth or (level > 0 and rng.random() < 0.3):
            return rng.choice(leaves)
        op = rng.choice(wide + ("next",))
        if op == "next":
            return ("next", go(level + 1))
        if op == "conv":
            return ("conv", rng.choice(WEIGHTS), go(level + 1), go(level + 1))
        if op == "wr":
            return ("wr", rng.choice(OUTPUTS), go(level + 1))
        return (op, go(level + 1), go(level + 1))

    return go(0)


def mirror(t):
    """An equal term under the commutativity axioms: conv(e, a, b) becomes
    conv(1-e, b, a) and union(a, b) becomes union(b, a) at every node."""
    k = t[0]
    if k == "conv":
        return ("conv", 1 - t[1], mirror(t[3]), mirror(t[2]))
    if k == "union":
        return ("union", mirror(t[2]), mirror(t[1]))
    if k == "next":
        return ("next", mirror(t[1]))
    if k == "rd":
        return ("rd", mirror(t[1]), mirror(t[2]))
    if k == "wr":
        return ("wr", t[1], mirror(t[2]))
    return t


# ---------------------------------------------------------------------------
# Unfolding closed Markov-process terms

def _frozen(dist: dict) -> tuple:
    """A distribution as a tuple of (leaf, weight) in an order that does not
    depend on string hashing."""
    return tuple(sorted(dist.items(), key=repr))


def _denote_mp(t):
    """A closed MP term as a distribution {"*" | ("g", inner): weight}, with
    inner the frozen distribution under a guard."""
    k = t[0]
    if k == "raise":
        return {"*": Fraction(1)}
    if k == "next":
        return {("g", _frozen(_denote_mp(t[1]))): Fraction(1)}
    if k == "conv":
        e = t[1]
        out = {}
        for leaf, w in _denote_mp(t[2]).items():
            out[leaf] = out.get(leaf, 0) + e * w
        for leaf, w in _denote_mp(t[3]).items():
            out[leaf] = out.get(leaf, 0) + (1 - e) * w
        return {leaf: w for leaf, w in out.items() if w}
    raise ValueError(f"not a closed MP term: {k}")


def unfold_mp(t, prefix: str):
    """States of the term's unfolding, root first: a list of
    (name, [(weight, target)]) with target a state name or "bot"."""
    names = {}
    order = []

    def visit(value: tuple) -> str:
        if value not in names:
            names[value] = f"{prefix}{len(order)}"
            order.append(value)
        return names[value]

    visit(_frozen(_denote_mp(t)))
    rows = []
    i = 0
    while i < len(order):
        value = order[i]
        i += 1
        row = []
        for leaf, w in value:
            row.append((w, "bot" if leaf == "*" else visit(leaf[1])))
        rows.append((names[value], row))
    return rows


def union_text(c: Fraction, *systems) -> str:
    """An mp coalgebra file holding the given unfoldings side by side."""
    lines = [f"mp U {{ c = {c};"]
    for rows in systems:
        for name, row in rows:
            cells = ", ".join(f"{w} -> {target}" for w, target in sorted(row, key=str))
            lines.append(f"  state {name}: {cells};")
    lines.append("}")
    return "\n".join(lines) + "\n"
