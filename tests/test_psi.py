"""Psi as the term distance on one-step values, against the per-kind
operator of tests/oracles.py applied to the table the test drew."""

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as hst

from quantalg import (BOUNDED, EXTENDED, Coalgebra, FinMetricSpace, Guard, PairVal,
                      PseudoMetric, RATIONAL_LINE, StateLeaf, TableMonoid, ext,
                      layer_plan, make_set, parse_coalgebras, parse_theory, psi_step,
                      solve_bisim)
from quantalg import bisim, semantics
from quantalg.extvalue import INF, INT_INF, ZERO, ExtValue, ext_sum
from quantalg.semantics import FuncVal, PairGraph
from quantalg.bisim import MaxStrategy, _solve_policy
from quantalg.spaces import hausdorff_candidates
from quantalg.transport import min_cost_transport

from helpers import (BOT, MAX_MONOID, FinDist, Table, dense_recipe_table, leaf,
                     random_cyclic_table, random_space, st, table_coalgebra)
from oracles import check_transport, form, psi_kernel_reference, psi_reference

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


def _set_plan(c):
    return layer_plan(parse_theory(f"sum(tensor(semi, writer{{q}}), contr{{next, {c}}})"))


def _set_system(rng, c):
    """A random cyclic system of sets of (output, successor) cells."""
    states = [f"s{k}" for k in range(3)]
    return Coalgebra(_set_plan(c), states, {s: make_set(
        PairVal(Fraction(rng.randint(0, 4), 4), Guard("next", c, StateLeaf(rng.choice(states))))
        for _ in range(rng.randint(1, 3))) for s in states})


def _as_form(row, pairs):
    """An integer row (D, b, {k: c}) as the affine form (b/D, {pair: c/D}),
    with the graph's unknown k named by its state pair, `pairs[k]`."""
    if row is None:
        return None
    D, b, coef = row
    return Fraction(b, D), {pairs[k]: Fraction(c, D) for k, c in coef.items()}


def _policy_and_reference(C, d, mode, mine, theirs):
    """Psi under each strategy at d: the graph's integer rows
    (`PairGraph.policy`), their affine forms, and the reference's forms,
    which its Affine arithmetic carried, pair by pair."""
    got = psi_step(C, d, mode, mine)
    want = psi_kernel_reference(C, d, mode, theirs)
    assert got == want, (C.plan, mode)
    rows = C.pair_graph(mode).policy(mine)
    assert all(type(x) is int for r in rows if r for x in (r[0], r[1], *r[2].values()))
    return (got, rows, [(k, _as_form(r, C.pairs)) for k, r in zip(C.pairs, rows)],
            [(k, form(want.d(*k))) for k in C.pairs])


def _cold(C, mode):
    """C with a fresh pair graph in `mode`, whose transports start cold, as
    the reference's do (the bases its fold checks left are dropped); its
    slots are numbered as C's are."""
    fresh = Coalgebra(C.plan, C.states, C.step, C.space, C.name)
    fresh.pair_graph(mode).plans.clear()
    return fresh


def _check_warm_policy(C, d, mode, strategy, got):
    """C's own graph, its transports warm-started from earlier rounds, after
    an evaluation under the strategy at d that gave `got`: every form of its
    policy is tight at d, and every coupling it read passes check_transport.
    Returns the policy's rows."""
    graph = C.pair_graph(mode)
    rows = graph.policy(strategy)
    for k, row in enumerate(rows):
        if row is None:
            assert got.values[k].is_inf
            continue
        D, b, coef = row
        at_d = Fraction(b + sum(c * d.values[j].rational for j, c in coef.items()), D)
        assert at_d == got.values[k].rational, (C.plan, mode, k)
    val = graph.evaluated
    for slot, plan in graph.plans.items():
        cells, _, _, W, a, b = graph.ops[slot][2:]
        cost = [[val[j].truncated(graph.top) for j in cells[i:i + len(b)]]
                for i in range(0, len(cells), len(b))]
        check_transport([Fraction(x, W) for x in a], [Fraction(x, W) for x in b], cost, plan)
    return rows


def test_policy_forms_match_the_recursive_reference():
    # Psi under a max strategy: the pair graph's strategy keyed by slot, the
    # reference's own keyed by pairs of values, through rounds of policy
    # iteration that alternate improving and holding the strategy; the forms
    # a fresh graph reads off its recorded choices equal, exactly, the forms
    # the reference's Affine arithmetic carries through the pair recursion.
    # The system's own graph, whose transports start from the last round's
    # couplings, may pick other optimal couplings: its values are the same,
    # and its forms are tight at d and its couplings optimal
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
    affine = other_coupling = 0
    for C, mode in systems:
        d = psi_step(C, PseudoMetric(C.states), mode)
        mine, theirs, warm = MaxStrategy(), MaxStrategy(), MaxStrategy()
        for rnd in range(4):
            got, rows, forms, want = _policy_and_reference(_cold(C, mode), d, mode, mine, theirs)
            assert forms == want, (C.plan, mode, rnd)
            affine += sum(f is not None and bool(f[1]) for _, f in forms)
            assert psi_step(C, d, mode, warm) == got
            other_coupling += _check_warm_policy(C, d, mode, warm, got) != rows
            d = _solve_policy(got, rows)
            mine.improving = theirs.improving = warm.improving = rnd % 2 == 1
    assert affine > 200, affine
    assert other_coupling > 0, other_coupling


@settings(max_examples=30, deadline=None)
@given(hst.integers(0, 2 ** 32 - 1), hst.sampled_from(["mp", "lmp", "mdp"]),
       hst.sampled_from([BOUNDED, EXTENDED]))
def test_dirac_rows_keep_their_forms_tight(seed, kind, mode):
    # a cyclic system in which some rows, the first among them, are Dirac:
    # its graph has point-mass (mean) slots, whose rows a policy reads off
    # their weights; from the Kleene iterate at which the infinite pairs
    # repeat, as solve_bisim hands over, through rounds of policy iteration
    # the forms equal the reference's, and those of the warm graph are
    # tight at d
    rng = random.Random(seed)
    space = random_space(rng, ["x", "y"], max_den=4)
    T = random_cyclic_table(rng, kind, mode, space, n=rng.randint(2, 4))
    for k, (key, row) in enumerate(T.rows.items()):
        if k == 0 or rng.random() < 0.5:
            T.rows[key] = FinDist.dirac(rng.choice([x for x, _ in row.items]))
    C = table_coalgebra(T, space)
    d = psi_step(C, PseudoMetric(C.states), mode)
    assume(any(op[0] == semantics._MEAN for op in C.pair_graph(mode).ops.values()))
    while [x.is_inf for x in psi_step(C, d, mode).values] != [x.is_inf for x in d.values]:
        d = psi_step(C, d, mode)
    mine, theirs, warm = MaxStrategy(), MaxStrategy(), MaxStrategy()
    for rnd in range(3):
        got, rows, forms, want = _policy_and_reference(_cold(C, mode), d, mode, mine, theirs)
        assert forms == want, (C.plan, mode, rnd)
        assert psi_step(C, d, mode, warm) == got
        _check_warm_policy(C, d, mode, warm, got)
        d = _solve_policy(got, rows)
        mine.improving = theirs.improving = warm.improving = rnd % 2 == 1


def test_policy_follows_the_strategy_between_equal_inputs():
    # input j wins at d = 0 and ties with input i at d(s, t) = 1/2: the held
    # choice is j, whose form is the constant 1/4, though i's value is equal
    C = parse_coalgebras(
        "mealy M { c = 1/2; inputs: i, j; state s on i -> (t, 0); state s on j -> (s, 1/4);"
        " state t on i -> (s, 0); state t on j -> (s, 0); }")["M"]
    for mode in (BOUNDED, EXTENDED):
        mine, theirs = MaxStrategy(), MaxStrategy()
        psi_step(C, PseudoMetric(C.states), mode, mine)
        psi_kernel_reference(C, PseudoMetric(C.states), mode, theirs)
        assert list(mine.choice.values()) == [1]
        mine.improving = theirs.improving = False
        d = PseudoMetric(C.states, {("s", "t"): ext("1/2")})
        got, _, forms, want = _policy_and_reference(C, d, mode, mine, theirs)
        assert got.d("s", "t") == ext("1/4")
        assert forms == want == [(("s", "t"), (Fraction(1, 4), {}))]


def test_policy_takes_the_first_nearest_point_next_to_a_capped_cell():
    # bounded mode, d(s, t) = 1: s's one cell is exactly 1 from one of t's
    # cells (form 1/2 + d(s, t)/2) and 3/2, capped to the constant 1, from
    # the other; the first of the two in t's canonical order is the nearest
    c = Fraction(1, 2)

    def cell(out, succ):
        return PairVal(Fraction(out), Guard("next", c, StateLeaf(succ)))

    exact = (Fraction(1, 2), {("s", "t"): Fraction(1, 2)})
    cases = [((cell(0, "s"),), (cell("1/2", "t"), cell("3/2", "s")), exact),
             ((cell(1, "s"),), (cell(0, "t"), cell("3/2", "t")), (Fraction(1), {}))]
    d = PseudoMetric(["s", "t"], {("s", "t"): ext(1)})
    for s_cells, t_cells, nearest in cases:
        C = Coalgebra(_set_plan(c), ["s", "t"],
                      {"s": make_set(s_cells), "t": make_set(t_cells)})
        got, _, forms, want = _policy_and_reference(C, d, BOUNDED, MaxStrategy(),
                                                    MaxStrategy())
        assert got.d("s", "t") == ext(1)
        assert forms == want == [(("s", "t"), nearest)]


def test_solve_bisim_builds_the_pair_graph_once_per_mode(monkeypatch):
    built = []

    def counting(plan, pairs, space=None, mode=EXTENDED, state_index=None):
        built.append(mode)
        return plan_graph(plan, pairs, space, mode, state_index)

    plan_graph = bisim.plan_graph
    monkeypatch.setattr(bisim, "plan_graph", counting)
    rng = random.Random(8)  # a system that takes four evaluations
    space = random_space(rng, ["x", "y"], max_den=4)
    C = table_coalgebra(random_cyclic_table(rng, "lmp", EXTENDED, space, n=4), space)
    d, cert = solve_bisim(C, BOUNDED)
    assert cert.iterations > 3 and built == [BOUNDED]
    solve_bisim(C, EXTENDED)
    assert solve_bisim(C, BOUNDED)[0] == d and built == [BOUNDED, EXTENDED]


def test_a_held_choice_is_beaten_only_by_a_strictly_larger_candidate():
    one, half = ext(1), ext(Fraction(1, 2))
    s = MaxStrategy()
    assert s.pick(7, [half, one, one]) == one and s.choice == {7: 1} and not s.beaten
    s.improving = False
    assert s.pick(7, [one, one, half]) == one and not s.beaten  # a tie
    assert s.pick(8, [half, one]) == one and s.choice[8] == 1 and not s.beaten  # a new node
    assert s.pick(7, [one, half, half]) == half and s.beaten  # kept, and marked
    assert s.choice == {7: 1, 8: 1}


def test_a_held_evaluation_with_nothing_beaten_closes_policy_iteration(monkeypatch):
    # the answer returned off a held evaluation, with no improving one after
    # it, still passes the exact test Psi(d) == d of the kernel reference
    closing = []

    def recording(C, d, mode=BOUNDED, strategy=None):
        closing.append(strategy is not None and not strategy.improving)
        return psi_step(C, d, mode, strategy)

    monkeypatch.setattr(bisim, "psi_step", recording)
    rng = random.Random(29)
    systems = [(table_coalgebra(dense_recipe_table("mp", 8)), BOUNDED)]
    for kind in ("lmp", "mdp"):
        for mode in (BOUNDED, EXTENDED):
            for _ in range(4):
                space = random_space(rng, ["x", "y"], max_den=4)
                T = random_cyclic_table(rng, kind, mode, space, n=rng.randint(2, 4))
                systems.append((table_coalgebra(T, space), mode))
    systems += [(_set_system(rng, Fraction(1, 2)), mode) for mode in (BOUNDED, EXTENDED)
                for _ in range(4)]
    held = 0
    for C, mode in systems:
        closing.clear()
        d, _ = solve_bisim(C, mode)
        held += closing[-1]
        assert psi_kernel_reference(C, d, mode) == d, (C.plan, mode)
    assert held > len(systems) // 2, held


def test_a_row_over_a_choice_is_read_again_at_every_policy():
    # a guard and a pair op over a maximising node are not choice-free: when
    # the choice moves, so do their rows
    c, s, t, u = Fraction(1, 2), StateLeaf("s"), StateLeaf("t"), StateLeaf("u")

    def value(alpha, a, b):
        return PairVal(alpha, Guard("next", c, FuncVal((("i", a), ("j", b)))))

    index = {("s", "t"): 0, ("s", "u"): 1, ("t", "u"): 2}
    graph = PairGraph([(value(Fraction(1, 3), s, s), value(Fraction(1, 2), t, u))],
                      state_index=lambda a, b: index[a, b])
    strategy = MaxStrategy()
    rows = []
    for states in ([ext(1), ZERO, ZERO], [ZERO, ext(1), ZERO]):
        graph.evaluate(states, strategy)
        rows.append(graph.policy(strategy)[0])
    assert rows == [(6, 1, {0: 3}), (6, 1, {1: 3})]  # 1/6 + d/2


def _ext_evaluation(graph, states, choice):
    """Every slot's value at `states` by the ExtValue rules the graph's ops
    stand for, each transport solved cold by `min_cost_transport` (the
    constants are the graph's own), and the choices and `beaten` flag of a
    max-scan over ExtValue candidates under MaxStrategy's rule from the
    choices `choice`, or from none (`improving` says how they are held)."""
    choice, improving = dict(choice[0]), choice[1]
    top, beaten = graph.top, False
    val = [INF if x is INT_INF else ExtValue(x, d) for x, d in zip(graph._nums, graph.den)]
    for k, op in graph.ops.items():
        kind = op[0]
        if kind == semantics._STATE:
            out = states[op[2]]
        elif kind == semantics._GUARD:
            out = val[op[2]].scaled(Fraction(op[3], op[4]))
        elif kind == semantics._PAIR:
            out = op[5] + val[op[2]]
        else:
            cells, W = op[2], op[5]
            ground = [val[j].truncated(top) for j in cells]
            if kind == semantics._KANT:
                n = len(op[7])
                out = min_cost_transport([Fraction(x, W) for x in op[6]],
                                         [Fraction(x, W) for x in op[7]],
                                         [ground[i:i + n] for i in range(0, len(cells), n)]).value
            elif kind == semantics._MEAN:
                out = ext_sum(c.scaled(Fraction(w, W)) for w, c in zip(op[6], ground))
            else:
                n = op[6] if kind == semantics._HAUS else 0
                candidates = [val[j] for j in cells] if kind == semantics._FUNC else \
                    hausdorff_candidates([ground[i:i + n] for i in range(0, len(cells), n)], n)
                best = 0
                for i, c in enumerate(candidates):
                    if c > candidates[best]:
                        best = i
                held = choice.get(k)
                if held is None or improving and candidates[held] < candidates[best]:
                    held = choice[k] = best
                beaten = beaten or candidates[best] > candidates[held]
                out = candidates[held]
        val[k] = out
    return val, choice, beaten


def _random_metric(rng, C, mode):
    """Uncapped state distances over assorted denominators, INF among them
    in extended mode."""
    return PseudoMetric(C.states, values=[
        INF if mode == EXTENDED and rng.random() < 0.2
        else ext(Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 7, 10, 24])))
        for _ in C.pairs])


@settings(max_examples=80, deadline=None)
@given(hst.integers(0, 2 ** 32 - 1),
       hst.sampled_from(["mp", "lmp", "mdp", "mealy", "monoid", "set"]),
       hst.sampled_from([BOUNDED, EXTENDED]))
def test_the_int_scale_evaluates_as_exact_rationals(seed, kind, mode):
    # the pair graph runs on ints over per-slot scales: at random state
    # distances (INF ones in extended mode, and a space with INF leaf
    # distances, so that slots fold and fold checks seed transports), its
    # roots equal the per-kind reference, plain and under a fresh strategy;
    # under a strategy improving and held in turn, every slot of `evaluated`
    # and every choice equal an ExtValue evaluation of the same ops with
    # cold transports, every policy row is tight at d and every coupling
    # optimal
    rng = random.Random(seed)
    space = random_space(rng, ["x", "y", "z"], max_den=4, inf_prob=0.3)
    c = Fraction(rng.choice([1, 2, 9]), 10)
    if kind == "set":
        T, C = None, _set_system(rng, c)
    else:
        monoid = rng.choice([INF_MONOID, MAX_MONOID]) if kind == "monoid" else RATIONAL_LINE
        T = random_cyclic_table(rng, "mealy" if kind == "monoid" else kind, mode, space,
                                monoid, n=rng.randint(2, 4), c=c)
        C = table_coalgebra(T, space)
    graph, strategy = C.pair_graph(mode), MaxStrategy()
    for rnd in range(4):
        d = _random_metric(rng, C, mode)
        want = psi_reference(T, d, mode, space) if T else psi_kernel_reference(C, d, mode)
        assert psi_step(C, d, mode) == want, (kind, mode)
        assert graph.evaluated == _ext_evaluation(graph, d.values, ({}, True))[0]
        strategy.improving, strategy.beaten = rnd % 2 == 0, False
        ref, choice, beaten = _ext_evaluation(graph, d.values,
                                              (strategy.choice, strategy.improving))
        got = psi_step(C, d, mode, strategy)
        if rnd == 0:
            assert got == want
        assert graph.evaluated == ref and strategy.choice == choice
        assert strategy.beaten == beaten
        _check_warm_policy(C, d, mode, strategy, got)
