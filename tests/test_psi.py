"""Psi as the term distance on one-step values, against the per-kind
operator of tests/oracles.py applied to the table the test drew."""

import random
from fractions import Fraction

from quantalg import (BOUNDED, EXTENDED, Coalgebra, FinMetricSpace, Guard, PairVal,
                      PseudoMetric, RATIONAL_LINE, StateLeaf, TableMonoid, ext,
                      layer_plan, make_set, parse_theory, psi_step, solve_bisim)
from quantalg import bisim
from quantalg.bisim import MaxStrategy, _solve_policy
from quantalg.extvalue import Affine

from helpers import (BOT, FinDist, Table, leaf, random_cyclic_table, random_space, st,
                     table_coalgebra)
from oracles import psi_kernel_reference, psi_reference

INF_MONOID = TableMonoid(
    FinMetricSpace(["e", "a", "b"], {("e", "b"): ext(1)}), "e",
    {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
     ("a", "e"): "a", ("a", "a"): "a", ("a", "b"): "a",
     ("b", "e"): "b", ("b", "a"): "a", ("b", "b"): "b"})


def _row(rng, targets):
    support = rng.sample(targets, rng.randint(1, min(3, len(targets))))
    den = rng.randint(len(support), 6)
    cuts = sorted(rng.sample(range(1, den), len(support) - 1))
    weights = [Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]
    return FinDist.from_pairs(zip(support, weights))


def random_table(rng, kind, space, monoid=RATIONAL_LINE, n=3):
    """A random table of the kind whose targets include bot (mp, lmp) and
    leaf(x) points of the space."""
    states = [f"s{k}" for k in range(n)]
    targets = [st(s) for s in states] + [leaf(x) for x in space.points]
    if kind in ("mp", "lmp"):
        targets.append(BOT)
    labels = ("a", "b")
    if kind == "mp":
        return Table("mp", Fraction(1, 2), states, {s: _row(rng, targets) for s in states})
    if kind == "lmp":
        return Table("lmp", Fraction(1, 3), states,
                     {(s, a): _row(rng, targets) for s in states for a in labels}, labels)
    if kind == "mdp":
        def mdp_row():
            base = _row(rng, targets)
            return FinDist.from_pairs(((t, Fraction(rng.randint(0, 4), 2)), w)
                                      for t, w in base.items)
        return Table("mdp", Fraction(2, 3), states,
                     {(s, a): mdp_row() for s in states for a in labels}, labels)
    outputs = list(monoid.elements) if monoid is not RATIONAL_LINE \
        else [Fraction(k, 2) for k in range(5)]
    return Table("mealy", Fraction(1, 2), states,
                 {(s, i): (rng.choice(targets), rng.choice(outputs))
                  for s in states for i in labels}, labels, monoid)


def test_psi_matches_per_kind_reference_on_kleene_iterates():
    rng = random.Random(71)
    cases = [(kind, RATIONAL_LINE) for kind in ("mp", "lmp", "mdp", "mealy")]
    cases.append(("mealy", INF_MONOID))
    for kind, monoid in cases:
        for mode in (BOUNDED, EXTENDED):
            for _ in range(6):
                space = random_space(rng, ["x", "y"], max_den=4, inf_prob=0.3)
                T = random_table(rng, kind, space, monoid)
                C = table_coalgebra(T, space)
                d = PseudoMetric(C.states)
                for _ in range(4):
                    got = psi_step(C, d, mode)
                    assert got == psi_reference(T, d, mode, space), (kind, mode)
                    d = got


def _set_system(rng, c):
    """A random cyclic system of sets of (output, successor) cells."""
    plan = layer_plan(parse_theory(f"sum(tensor(semi, writer{{q}}), contr{{next, {c}}})"))
    states = [f"s{k}" for k in range(3)]
    return Coalgebra(plan, states, {s: make_set(
        PairVal(Fraction(rng.randint(0, 4), 4), Guard("next", c, StateLeaf(rng.choice(states))))
        for _ in range(rng.randint(1, 3))) for s in states})


def _form(x):
    return (x.const, x.coef) if isinstance(x, Affine) else str(x)


def test_policy_forms_match_the_recursive_reference():
    # Psi under a max strategy: the pair graph's strategy keyed by slot, the
    # reference's own keyed by pairs of values, through rounds of policy
    # iteration that alternate improving and holding the strategy
    rng = random.Random(97)
    systems = []
    for kind in ("mp", "lmp", "mdp", "mealy"):
        for mode in (BOUNDED, EXTENDED):
            for _ in range(3):
                space = random_space(rng, ["x", "y"], max_den=4)
                T = random_cyclic_table(rng, kind, mode, space, n=rng.randint(2, 4))
                systems.append((table_coalgebra(T, space), mode))
    systems += [(_set_system(rng, Fraction(1, 2)), mode) for mode in (BOUNDED, EXTENDED)
                for _ in range(3)]
    affine = 0
    for C, mode in systems:
        d = psi_step(C, PseudoMetric(C.states), mode)
        mine, theirs = MaxStrategy(), MaxStrategy()
        for rnd in range(4):
            got = psi_step(C, d, mode, mine)
            want = psi_kernel_reference(C, d, mode, theirs)
            assert [(k, _form(x)) for k, x in got.pairs()] \
                == [(k, _form(x)) for k, x in want.pairs()], (C.plan, mode, rnd)
            affine += sum(isinstance(x, Affine) and bool(x.coef) for _, x in got.pairs())
            d = _solve_policy(got)
            mine.improving = theirs.improving = rnd % 2 == 1
    assert affine > 200, affine


def test_solve_bisim_builds_the_pair_graph_once_per_mode(monkeypatch):
    built = []

    def counting(plan, pairs, space=None, mode=EXTENDED):
        built.append(mode)
        return plan_graph(plan, pairs, space, mode)

    plan_graph = bisim.plan_graph
    monkeypatch.setattr(bisim, "plan_graph", counting)
    rng = random.Random(5)
    space = random_space(rng, ["x", "y"], max_den=4)
    C = table_coalgebra(random_cyclic_table(rng, "lmp", EXTENDED, space, n=4), space)
    d, cert = solve_bisim(C, BOUNDED)
    assert cert.iterations > 3 and built == [BOUNDED]
    solve_bisim(C, EXTENDED)
    assert solve_bisim(C, BOUNDED)[0] == d and built == [BOUNDED, EXTENDED]
