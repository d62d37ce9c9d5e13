import math
import random
import signal
from collections import Counter
from fractions import Fraction

import pytest

from quantalg import (BOUNDED, EXTENDED, FinMetricSpace, PseudoMetric,
                      RATIONAL_LINE, TableMonoid, approx_term, disjoint_union,
                      ext, format_coalgebra, labelled_mp_theory,
                      layer_plan, markov_process_theory, mdp_theory, mealy_theory,
                      parse_coalgebras, parse_term, parse_theory, psi_step,
                      solve_bisim, term_dist, unfold_term)
from quantalg import bisim
from quantalg.errors import DomainError, QuantAlgError
from quantalg.extvalue import INF, ZERO

from helpers import (BOT, MAX_MONOID, FinDist, Table, dense_recipe_table,
                     random_acyclic_table, random_coalgebra, random_cyclic_table,
                     random_space, random_term, st, table_coalgebra, table_text)
from oracles import psi_kernel_reference, psi_reference, sup_diff

C12 = Fraction(1, 2)
MP = markov_process_theory(C12)


def system(text, space=None):
    """The one system of a coalgebra text."""
    (C,) = parse_coalgebras(text, None, space).values()
    return C


def mealy_pq():
    return system("mealy M { c = 1/2; inputs: i;"
                  " state p on i -> (p, 1); state q on i -> (q, 2); }")


def mp_uv():
    return system("mp P { c = 1/2; state u: 1/2 -> u, 1/2 -> bot;"
                  " state v: 1/4 -> v, 3/4 -> bot; }")


def test_psi_examples():
    same = system("mp P { c = 1/2; state u: 1 -> bot; state v: 1 -> bot; }")
    assert psi_step(same, PseudoMetric(same.states), BOUNDED).d("u", "v") == ZERO

    d1 = psi_step(mealy_pq(), PseudoMetric(["p", "q"]), BOUNDED)
    assert d1.d("p", "q") == ext(1)

    d1 = psi_step(mp_uv(), PseudoMetric(["u", "v"]), BOUNDED)
    assert d1.d("u", "v") == ext("1/4")


def test_solve_mealy_geometric_series():
    C = mealy_pq()
    d, cert = solve_bisim(C, BOUNDED)
    assert d.d("p", "q") == ext(2)
    assert psi_step(C, d, BOUNDED) == d
    assert cert.exact and cert.a_priori_bound == ZERO


def test_solve_mp_linear_fixed_point():
    d, cert = solve_bisim(mp_uv(), BOUNDED)
    assert d.d("u", "v") == ext("2/7")
    # value iteration cross-check at a coarser horizon
    d_it = PseudoMetric(["u", "v"])
    for _ in range(40):
        d_it = psi_step(mp_uv(), d_it, BOUNDED)
    assert abs(d_it.d("u", "v").rational - Fraction(2, 7)) < Fraction(1, 10**10)


def test_bisimilar_states_get_zero():
    C = system("mp P { c = 1/2; state u: 1/2 -> v, 1/2 -> bot;"
               " state v: 1/2 -> u, 1/2 -> bot; }")
    d, cert = solve_bisim(C, BOUNDED)
    assert d.d("u", "v") == ZERO and cert.exact


def test_extended_mode_answers_inf_where_the_ground_diverges():
    # termination against a state that never terminates: leaves of two
    # kinds, at INF in extended mode and at 1 in bounded mode
    C = system("mp P { c = 1/2; state u: 1 -> bot; state v: 1 -> v; }")
    d, cert = solve_bisim(C, EXTENDED)
    assert d.d("u", "v") == INF and cert.exact
    assert psi_step(C, d, EXTENDED) == d
    d, _ = solve_bisim(C, BOUNDED)
    assert d.d("u", "v") == ext(1)


def test_extended_mode_gives_the_least_fixed_point():
    # INF solves d = c * d too; Kleene from 0 stops at the least solution, 0,
    # for two states that only loop, and at INF against a state that stops
    C = system("mp P { c = 1/2; state u: 1/2 -> u, 1/2 -> bot; state v: 1 -> v;"
               " state w: 1 -> w; }")
    d, cert = solve_bisim(C, EXTENDED)
    assert d.d("v", "w") == ZERO and cert.exact
    assert d.d("u", "v") == d.d("u", "w") == INF
    assert psi_step(C, d, EXTENDED) == d


def test_unfold_reproduces_four_node_chain():
    t = parse_term(
        "next(conv(1/2, next(raise(*)), conv(1/2, next(next(raise(*))), raise(*))))",
        MP)
    C, root = unfold_term(t, MP)
    assert root == "s0"
    assert len(C.states) == 4
    assert C.step == system(
        "mp P { c = 1/2; state s0: 1 -> s1;"
        " state s1: 1/2 -> s2, 1/4 -> s3, 1/4 -> bot;"
        " state s2: 1 -> bot; state s3: 1 -> s2; }").step


def test_unfold_trivial_cases():
    C, root = unfold_term(parse_term("raise(*)", MP), MP)
    assert C.states == (root,)
    assert C.step == system("mp P { c = 1/2; state s0: 1 -> bot; }").step
    C, root = unfold_term(parse_term("next(x)", MP), MP)
    assert root == "s0" and C.step == system(
        "mp P { c = 1/2; state s0: 1 -> s1; state s1: 1 -> leaf(x); }").step


def _named_successors(T: Table) -> dict:
    """Each state of a table -> the states its rows name, one per cell, as a
    Counter: a cell is a target, or a (target, output or reward) pair."""
    found = {s: Counter() for s in T.states}
    for key, row in T.rows.items():
        cells = [row] if T.kind == "mealy" else [x for x, _ in row.items]
        for x in cells:
            target = x[0] if isinstance(x[0], tuple) else x
            if target[0] == "st":
                found[key if T.kind == "mp" else key[0]][target[1]] += 1
    return found


def test_successors_are_the_states_each_row_names():
    # one entry per guard, for every kind, cyclic or not; a union tags them
    rng = random.Random(29)
    space = random_space(rng, ["x", "y"], max_den=4)
    for kind in ("mp", "lmp", "mdp", "mealy"):
        for _ in range(5):
            for T in (random_cyclic_table(rng, kind, BOUNDED, space, n=rng.randint(2, 5)),
                      random_acyclic_table(rng, kind, space, n=rng.randint(2, 5))):
                C = table_coalgebra(T, space)
                assert {s: Counter(C.successors[s]) for s in C.states} == _named_successors(T)
                U = disjoint_union(C, C)
                assert U.successors == {f"{tag}.{s}": [f"{tag}.{t}" for t in C.successors[s]]
                                        for tag in "ab" for s in C.states}
    C = system("mp P { c = 1/2; state u: 1/4 -> v, 1/4 -> bot, 1/2 -> u; state v: 1 -> v; }")
    assert C.successors == {"u": ["u", "v"], "v": ["v"]}  # in the value's item order
    C, _ = unfold_term(parse_term("next(conv(1/2, next(raise(*)), next(next(raise(*)))))", MP), MP)
    assert C.successors == {"s0": ["s1"], "s1": ["s2", "s3"], "s2": [], "s3": ["s2"]}


def test_the_constructor_rejects_a_guard_off_the_state_set():
    # built through the API, as parsed text is: a dangling target fails when
    # the system is built, not inside Psi
    from quantalg import Coalgebra, ExcLeaf, Guard, StateLeaf, VarLeaf, make_dist

    plan = layer_plan(MP)

    def step(leaf=None):  # 1/2 -> leaf, 1/2 -> bot; or 1 -> bot
        if leaf is None:
            return make_dist([(ExcLeaf("*"), 1)], 1)
        return make_dist([(Guard("next", C12, leaf), 1), (ExcLeaf("*"), 1)], 2)

    assert Coalgebra(plan, ["u"], {"u": step(StateLeaf("u"))}).successors == {"u": ["u"]}
    for leaf, shown in [(StateLeaf("zz"), "'zz'"), (VarLeaf("x"), "'x'"),
                        (ExcLeaf("*"), "ExcLeaf('*',)")]:
        with pytest.raises(DomainError) as err:
            Coalgebra(plan, ["u"], {"u": step(leaf)})
        assert str(err.value) == f"transition to unknown state {shown}"
    with pytest.raises(DomainError) as err:
        parse_coalgebras("mp P { c = 1/2; state u: 1/2 -> u, 1/2 -> zz; }", source="P.coalg")
    assert str(err.value) == "P.coalg: system P: transition to unknown state 'zz'"
    for states, steps, message in [
            (["u", "u"], {"u": step(StateLeaf("u"))}, "states must be nonempty and distinct"),
            ([], {}, "states must be nonempty and distinct"),
            (["u"], {"u": step(), "v": step()}, "every state needs exactly one one-step value"),
            (["u", "v"], {"u": step()}, "every state needs exactly one one-step value")]:
        with pytest.raises(DomainError) as err:
            Coalgebra(plan, states, steps)
        assert str(err.value) == message


def test_unfold_requires_guard():
    from quantalg import Bary
    from quantalg.errors import UnsupportedShape

    with pytest.raises(UnsupportedShape):
        unfold_term(parse_term("x"), Bary())


ZO = TableMonoid(FinMetricSpace(["z", "o"], {("z", "o"): ext(1)}), "z",
                 {("z", "z"): "z", ("z", "o"): "o", ("o", "z"): "o", ("o", "o"): "o"})
XY = FinMetricSpace(["x", "y"], {("x", "y"): ext("1/2")})


@pytest.mark.parametrize("th, term", [
    (MP, "next(conv(1/2, next(raise(*)), conv(1/2, next(next(x)), raise(*))))"),
    (labelled_mp_theory(["a", "b"], C12),
     "rd(next(conv(1/3, raise(*), next(rd(x, y)))), conv(1/4, y, next(raise(*))))"),
    (mealy_theory(["i", "j"], RATIONAL_LINE, C12),
     "rd(wr(1, next(rd(wr(2, x), wr(1/2, y)))), wr(0, next(rd(x, y))))"),
    (mealy_theory(["i", "j"], ZO, C12),
     "rd(wr(o, next(rd(wr(z, x), wr(o, y)))), wr(z, next(rd(y, y))))"),
    (mdp_theory(["a", "b"], C12),
     "rd(conv(1/2, wr(3, next(rd(wr(0, x), wr(1, y)))), wr(0, y)),"
     " conv(1/3, next(rd(x, y)), wr(2, next(rd(x, y)))))"),
], ids=["mp", "lmp", "mealy", "mealy-table", "mdp"])
def test_round_trip_through_text_format(th, term):
    C, root = unfold_term(parse_term(term, th), th, XY)
    text = format_coalgebra(C, monoid_name="M")
    C2 = parse_coalgebras(text, {"M": ZO}, XY)[C.name]
    assert C2.states == C.states
    assert C2.step == C.step
    assert format_coalgebra(C2, monoid_name="M") == text
    d1, _ = solve_bisim(C, BOUNDED)
    d2, _ = solve_bisim(C2, BOUNDED)
    assert d1 == d2


def test_parse_all_kinds():
    text = """
    mp P { c = 1/2; state u: 1/2 -> u, 1/4 -> leaf(x), 1/4 -> bot; }
    lmp L { c = 1/2; actions: a, b;
      state u on a: 1 -> u; state u on b: 1/2 -> u, 1/2 -> bot; }
    mealy M { c = 1/2; inputs: i; state p on i -> (p, 3/2); }
    mdp D { c = 1/3; actions: a;
      state u on a: 1/2 -> (v, 0), 1/4 -> (u, 3), 1/4 -> (u, 0); state v on a: 1 -> (v, 1); }
    """
    systems = parse_coalgebras(text)
    assert {name: format_coalgebra(C) for name, C in systems.items()} == {
        "P": "mp P {\n  c = 1/2;\n  state u: 1/4 -> bot, 1/4 -> leaf(x), 1/2 -> u;\n}\n",
        "L": "lmp L {\n  c = 1/2;\n  actions: a, b;\n  state u on a: 1 -> u;\n"
             "  state u on b: 1/2 -> bot, 1/2 -> u;\n}\n",
        "M": "mealy M {\n  c = 1/2;\n  inputs: i;\n  state p on i -> (p, 3/2);\n}\n",
        "D": "mdp D {\n  c = 1/3;\n  actions: a;\n"
             "  state u on a: 1/4 -> (u, 0), 1/4 -> (u, 3), 1/2 -> (v, 0);\n"
             "  state v on a: 1 -> (v, 1);\n}\n",
    }
    with pytest.raises(DomainError):
        parse_coalgebras("mp B { c = 1/2; state u: 1/2 -> u; }")  # mass != 1


def test_approx_term_examples():
    C = mp_uv()
    assert approx_term(C, "u", 0) == parse_term("raise(*)", MP)
    loop = system("mp P { c = 1/2; state s: 1 -> s; }")
    assert approx_term(loop, "s", 2) == parse_term("next(next(raise(*)))", MP)


def test_approx_term_cauchy_property():
    rng = random.Random(23)
    for _ in range(5):
        C = random_coalgebra(rng, "mp", 3)
        for k in range(4):
            a = approx_term(C, "s0", k)
            b = approx_term(C, "s0", k + 1)
            gap = term_dist(a, b, MP, None, BOUNDED)
            assert gap <= ext(Fraction(1, 2 ** k))


def test_approx_term_recovers_fixed_point():
    C = mp_uv()
    d, _ = solve_bisim(C, BOUNDED)
    k = 12
    a = approx_term(C, "u", k)
    b = approx_term(C, "v", k)
    approx_d = term_dist(a, b, MP, None, BOUNDED)
    slack = Fraction(2, 2 ** k) / (1 - C12)
    assert abs(approx_d.rational - d.d("u", "v").rational) <= slack


def test_psi_monotone_and_contractive():
    rng = random.Random(31)
    for kind in ("mp", "lmp", "mealy", "mdp"):
        for _ in range(6):
            C = random_coalgebra(rng, kind, 3)
            space = random_space(rng, list(C.states), max_den=4)
            d1 = PseudoMetric(C.states, {
                (u, v): space.d(u, v).truncated(ext(1))
                for u in C.states for v in C.states if u != v})
            d0 = PseudoMetric(C.states)
            p0, p1 = psi_step(C, d0, BOUNDED), psi_step(C, d1, BOUNDED)
            for (u, v), val in p0.pairs():
                assert val <= p1.d(u, v)  # monotone
            gap_in = sup_diff(d1, d0)
            gap_out = sup_diff(p1, p0)
            assert gap_out <= gap_in.scaled(C.c)  # c-contractive


def test_solver_output_is_pseudometric_within_slack():
    rng = random.Random(37)
    for kind in ("mp", "lmp", "mealy", "mdp"):
        C = random_coalgebra(rng, kind, 4)
        d, _ = solve_bisim(C, BOUNDED)
        assert psi_step(C, d, BOUNDED) == d
        sts = C.states
        for u in sts:
            assert d.d(u, u) == ZERO
            for v in sts:
                assert d.d(u, v) == d.d(v, u)
                for w in sts:
                    assert d.d(u, w) <= d.d(u, v) + d.d(v, w)


def test_correspondence_on_closed_terms_smoke():
    # Markov processes, nondeterministic systems with a Hausdorff lifting, and
    # MDPs with termination (exceptions summed outside the writer)
    HAUS = parse_theory("sum(sum(semi, exc{1}), contr{next, 1/2})")
    MDPT = parse_theory("sum(sum(tensor(tensor(bary, writer{q}), reader{a, b}), exc{1}),"
                        " contr{next, 1/2})")
    checked = 0
    for th in (MP, HAUS, MDPT):
        rng = random.Random(41)
        for _ in range(15):
            t = random_term(rng, th, [], 3)
            s = random_term(rng, th, [], 3)
            Ct, rt = unfold_term(t, th)
            Cs, rs = unfold_term(s, th)
            U = disjoint_union(Ct, Cs)
            d, cert = solve_bisim(U, BOUNDED)
            want = term_dist(t, s, th, None, BOUNDED)
            assert cert.exact
            assert d.d(f"a.{rt}", f"b.{rs}") == want
            checked += 1
    assert checked == 45


def test_correspondence_mealy_with_leaves():
    rng = random.Random(43)
    MM = mealy_theory(["i1", "i2"], RATIONAL_LINE, C12)
    X = random_space(rng, ["x", "y"], max_den=4)
    for _ in range(10):
        t = random_term(rng, MM, ["x", "y"], 3)
        s = random_term(rng, MM, ["x", "y"], 3)
        Ct, rt = unfold_term(t, MM, X)
        Cs, rs = unfold_term(s, MM, X)
        U = disjoint_union(Ct, Cs)
        d, cert = solve_bisim(U, BOUNDED)
        want = term_dist(t, s, MM, X, BOUNDED)
        assert cert.exact
        assert d.d(f"a.{rt}", f"b.{rs}") == want


def test_certificate_guarantee():
    rng = random.Random(47)
    for kind in ("mp", "lmp", "mealy", "mdp"):
        for _ in range(4):
            C = random_coalgebra(rng, kind, 3,
                                 c=rng.choice([C12, Fraction(1, 3), Fraction(2, 3)]))
            d, cert = solve_bisim(C, BOUNDED)
            assert psi_step(C, d, BOUNDED) == d
            assert cert.exact and cert.residual == ZERO == cert.a_priori_bound


def _perturb_outputs(rng, t):
    """Copy of a Mealy term with the same shape but new outputs and leaves."""
    from quantalg.terms import App, Var, write

    if isinstance(t, Var):
        return Var(rng.choice(["x", "y"]))
    if t.op.kind == "write":
        return App(write(Fraction(rng.randint(0, 3))),
                   tuple(_perturb_outputs(rng, a) for a in t.args))
    return App(t.op, tuple(_perturb_outputs(rng, a) for a in t.args))


def test_correspondence_mealy_extended_mode_shape_matched():
    # Extended-mode solving needs every state pair shape-compatible; for
    # acyclic unfoldings that means guard-free terms (single-state systems).
    # Outputs and leaf points still give nontrivial distances.
    rng = random.Random(53)
    MM = mealy_theory(["i1", "i2"], RATIONAL_LINE, C12)
    X = random_space(rng, ["x", "y"], max_den=4)
    nontrivial = 0
    for _ in range(12):
        t = parse_term(
            f"rd(wr({rng.randint(0, 3)}, {rng.choice('xy')}), "
            f"wr({rng.randint(0, 3)}, {rng.choice('xy')}))", MM)
        s = _perturb_outputs(rng, t)
        Ct, rt = unfold_term(t, MM, X)
        Cs, rs = unfold_term(s, MM, X)
        U = disjoint_union(Ct, Cs)
        d, cert = solve_bisim(U, EXTENDED)
        want = term_dist(t, s, MM, X, EXTENDED)
        assert cert.exact
        assert d.d(f"a.{rt}", f"b.{rs}") == want
        if want > ZERO:
            nontrivial += 1
    assert nontrivial >= 5


def test_mealy_table_monoid_round_trip_and_distance():
    from quantalg import FinMetricSpace, TableMonoid, ext, format_coalgebra
    from quantalg import mealy_theory as mk_mm

    S = FinMetricSpace(["z", "o"], {("z", "o"): ext(1)})
    mon = TableMonoid(S, "z", {("z", "z"): "z", ("z", "o"): "o",
                               ("o", "z"): "o", ("o", "o"): "o"})
    th = mk_mm(["i"], mon, C12)
    X = FinMetricSpace(["x", "y"], {("x", "y"): ext("1/2")})
    t = parse_term("rd(wr(o, x))", th)
    s = parse_term("rd(wr(z, y))", th)
    assert term_dist(t, s, th, X) == ext("3/2")  # d_mon(o,z) + d_X(x,y)
    C, root = unfold_term(t, th, X)
    text = format_coalgebra(C, monoid_name="M")
    monoids = {"M": mon}
    C2 = parse_coalgebras(text, monoids, X)[C.name]
    assert C2.step == C.step and C2.monoid == mon


def test_correspondence_lmp_closed_terms():
    rng = random.Random(59)
    LMP = labelled_mp_theory(["a1", "a2"], C12)
    for _ in range(8):
        t = random_term(rng, LMP, [], 3)
        s = random_term(rng, LMP, [], 3)
        Ct, rt = unfold_term(t, LMP)
        Cs, rs = unfold_term(s, LMP)
        U = disjoint_union(Ct, Cs)
        d, cert = solve_bisim(U, BOUNDED)
        assert cert.exact
        assert d.d(f"a.{rt}", f"b.{rs}") == term_dist(t, s, LMP, None, BOUNDED)


def test_correspondence_mdp_with_leaves():
    from quantalg import mdp_theory

    rng = random.Random(61)
    MDP = mdp_theory(["a1", "a2"], C12)
    X = random_space(rng, ["x", "y"], max_den=4)
    for _ in range(8):
        t = random_term(rng, MDP, ["x", "y"], 3)
        s = random_term(rng, MDP, ["x", "y"], 3)
        Ct, rt = unfold_term(t, MDP, X)
        Cs, rs = unfold_term(s, MDP, X)
        U = disjoint_union(Ct, Cs)
        d, cert = solve_bisim(U, BOUNDED)
        assert cert.exact
        assert d.d(f"a.{rt}", f"b.{rs}") == term_dist(t, s, MDP, X, BOUNDED)


def test_approx_term_lmp_and_mdp_recover_fixed_point():
    rng = random.Random(67)
    from quantalg import labelled_mp_theory as mk_lmp, mdp_theory as mk_mdp

    LMP = mk_lmp(("a", "b"), C12)
    C = random_coalgebra(rng, "lmp", 3, actions=("a", "b"))
    d, _ = solve_bisim(C, BOUNDED)
    k = 9
    a = approx_term(C, "s0", k)
    b = approx_term(C, "s1", k)
    got = term_dist(a, b, LMP, None, BOUNDED)
    slack = Fraction(2, 2 ** k) / (1 - C12)
    assert abs(got.rational - d.d("s0", "s1").rational) <= slack

    MDP = mk_mdp(("a", "b"), C12)
    D = random_coalgebra(rng, "mdp", 3, actions=("a", "b"))
    d2, _ = solve_bisim(D, BOUNDED)
    space = FinMetricSpace(["_cut"], {})
    a2 = approx_term(D, "s0", k)
    b2 = approx_term(D, "s1", k)
    got2 = term_dist(a2, b2, MDP, space, BOUNDED)
    assert abs(got2.rational - d2.d("s0", "s1").rational) <= slack


def test_policy_iteration_is_exact_against_the_reference_operator():
    # Psi is a contraction, so its fixed point is unique: a metric the
    # independent per-kind operator maps to itself is the bisimilarity metric.
    rng = random.Random(73)
    tol = Fraction(1, 1000)
    cases = [(kind, RATIONAL_LINE) for kind in ("mp", "lmp", "mdp", "mealy")]
    cases.append(("mealy", MAX_MONOID))
    for kind, monoid in cases:
        for mode in (BOUNDED, EXTENDED):
            for _ in range(5):
                space = random_space(rng, ["x", "y"], max_den=4)
                c = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)])
                T = random_cyclic_table(rng, kind, mode, space, monoid, rng.randint(2, 4), c)
                d, cert = solve_bisim(table_coalgebra(T, space), mode)
                assert cert.exact and cert.a_priori_bound == ZERO, (kind, mode)
                assert psi_reference(T, d, mode, space) == d, (kind, mode)
                # a Kleene iterate of the reference operator within tol of d*
                it = psi_reference(T, PseudoMetric(d.states), mode, space)
                bound = sup_diff(it, PseudoMetric(d.states)).scaled(c / (1 - c))
                while bound > ext(tol):
                    it, bound = psi_reference(T, it, mode, space), bound.scaled(c)
                assert sup_diff(d, it) <= ext(tol), (kind, mode)


# e, a, b with `a` absorbing and infinitely far from e and b: in bounded mode
# ||Psi(0)|| is infinite as soon as a Mealy row writes `a`.
ABSORBING = TableMonoid(
    FinMetricSpace(["e", "a", "b"], {("e", "b"): ext(1)}), "e",
    {(x, y): "a" if "a" in (x, y) else max(x, y, key="eb".index)
     for x in "eab" for y in "eab"})


def test_policy_iteration_after_the_infinite_pairs_are_fixed():
    # ||Psi(0)|| is infinite, so Kleene iteration runs until the set of
    # infinite pairs stops growing and policy iteration solves the rest.
    # Infinite pairs make other fixed points of Psi (all of them infinite,
    # say), so the answer's infinite pairs are checked against the Kleene
    # iterates of the reference operator, whose infinite pairs are settled
    # after one step per pair.
    rng = random.Random(83)
    space = random_space(rng, ["x", "y"], max_den=4)
    with_inf = 0
    for _ in range(40):
        c = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)])
        T = random_cyclic_table(rng, "mealy", BOUNDED, space, ABSORBING, rng.randint(2, 5), c)
        d, cert = solve_bisim(table_coalgebra(T, space), BOUNDED)
        assert cert.exact and cert.a_priori_bound == ZERO
        assert psi_reference(T, d, BOUNDED, space) == d
        it = psi_reference(T, PseudoMetric(d.states), BOUNDED, space)
        infinite_at_zero = any(v.is_inf for _, v in it.pairs())
        for _ in range(len(d.pairs())):
            it = psi_reference(T, it, BOUNDED, space)
        infinite = [k for k, v in d.pairs() if v.is_inf]
        assert infinite == [k for k, v in it.pairs() if v.is_inf]
        with_inf += infinite_at_zero and len(infinite) < len(d.pairs())
    assert with_inf >= 5, with_inf


def test_solve_affine_matches_sympy_lu_solve():
    # (I - M) x = b, given as integer rows, against sympy's LU solve, on
    # random sparse rows, on block-triangular systems (a row reads its own
    # block and later ones only) and on near-singular ones (every row of M
    # sums to 1 - 1/1000).
    sympy = pytest.importorskip("sympy")
    from quantalg.bisim import solve_affine

    rng = random.Random(79)

    def row(n, cols, stochastic):
        """A substochastic row over cols, stochastic if asked."""
        weights = [rng.randint(1, 6) for _ in cols]
        total = sum(weights) + (0 if stochastic else rng.randint(0, 6))
        out = [Fraction(0)] * n
        for j, w in zip(cols, weights):
            out[j] += Fraction(w, total)
        return out

    def check(c, P):
        n = len(P)
        b = [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n)]
        system = {}  # x_i = b_i + sum_j cP_ij x_j as an integer row over its lcm D
        for i in range(n):
            coef = {j: c * P[i][j] for j in range(n) if P[i][j]}
            D = math.lcm(b[i].denominator, *(w.denominator for w in coef.values()))
            system[i] = (D, int(b[i] * D), {j: int(w * D) for j, w in coef.items()})
        got = solve_affine(system)
        assert all(type(x) is int and type(y) is int and y > 0 for x, y in got.values())
        # (I - cP) x = b with each row scaled to integers
        rows = [[int(i == j) - c * P[i][j] for j in range(n)] + [b[i]] for i in range(n)]
        rows = [[int(x * math.lcm(*(y.denominator for y in row))) for x in row]
                for row in rows]
        want = sympy.Matrix([r[:-1] for r in rows]).LUsolve(sympy.Matrix([r[-1] for r in rows]))
        assert [Fraction(*got[i]) for i in range(n)] == [Fraction(int(x.p), int(x.q))
                                                          for x in want]

    for _ in range(24):  # at most 4 columns a row, one of them i + 1
        n = rng.randint(1, 30)
        c = Fraction(rng.randint(1, 9), 10)
        check(c, [row(n, rng.sample(range(n), min(n, rng.randint(0, 3))) + [(i + 1) % n],
                      False) for i in range(n)])
    for _ in range(8):  # blocks [lo, hi), each a cycle plus edges to later columns
        n = rng.randint(2, 30)
        cuts = [0, *sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1)))), n]
        c = Fraction(rng.randint(1, 9), 10)
        check(c, [row(n, rng.sample(range(lo, n), min(n - lo, rng.randint(0, 3)))
                      + [lo + (i - lo + 1) % (hi - lo)], rng.random() < 0.5)
                  for lo, hi in zip(cuts, cuts[1:]) for i in range(lo, hi)])
    for _ in range(8):  # stochastic P under c = 999/1000
        n = rng.randint(1, 30)
        check(Fraction(999, 1000),
              [row(n, rng.sample(range(n), min(n, rng.randint(0, 3))) + [(i + 1) % n], True)
               for i in range(n)])


def _sympy_solution(sympy, system):
    """The solution of the integer rows D_k x_k = b_k + sum_j c_kj x_j by
    sympy's LU solve, keyed as the system is."""
    keys = list(system)
    at = {k: i for i, k in enumerate(keys)}
    A = sympy.zeros(len(keys), len(keys))
    for k, (D, _, coef) in system.items():
        A[at[k], at[k]] = D
        for j, w in coef.items():
            A[at[k], at[j]] -= w
    x = A.LUsolve(sympy.Matrix([system[k][1] for k in keys]))
    return {k: Fraction(int(x[at[k]].p), int(x[at[k]].q)) for k in keys}


def test_solve_affine_by_blocks_matches_sympy():
    # Mealy-like systems: a row reads at most one other unknown, or itself,
    # so each component is a chain into a cycle and most blocks are single
    # rows; and multi-row blocks with edges into chains.  The rows are keyed
    # by state pairs and listed in a shuffled order, so a block's rows come
    # neither together nor after the blocks they read.
    sympy = pytest.importorskip("sympy")
    nx = pytest.importorskip("networkx")
    from quantalg.bisim import _blocks, solve_affine

    rng = random.Random(41)

    def system(n, reads):
        keys = [(f"u{i}", f"v{i}") for i in range(n)]
        rows = {}
        for i in rng.sample(range(n), n):
            D = rng.randint(2, 40)
            coef, room = {}, D - 1  # the c of a row sum to less than D
            for j in reads(i):
                if room:
                    w = rng.randint(1, room)
                    coef[keys[j]], room = coef.get(keys[j], 0) + w, room - w
            rows[keys[i]] = (D, rng.randint(0, 30), coef)
        return rows

    for _ in range(20):
        n = rng.randint(1, 30)
        succ = [rng.randrange(n) for _ in range(n)]  # a functional graph
        cases = [system(n, lambda i: [succ[i]] if rng.random() < 0.9 else []),
                 system(n, lambda i: [succ[i]] + rng.sample(range(n), min(n, rng.randint(0, 2))))]
        for rows in cases:
            got = solve_affine(rows)
            assert list(got) == list(rows)
            assert all(type(a) is int and type(b) is int and b > 0 and math.gcd(a, b) == 1
                       for a, b in got.values())
            assert {k: Fraction(*v) for k, v in got.items()} == _sympy_solution(sympy, rows)
            graph = {k: [j for j, w in coef.items() if w] for k, (_, _, coef) in rows.items()}
            blocks = list(_blocks({k: coef for k, (_, _, coef) in rows.items()}))
            G = nx.DiGraph([(k, j) for k, js in graph.items() for j in js])
            G.add_nodes_from(graph)
            assert sorted(map(sorted, blocks)) == sorted(
                map(sorted, nx.strongly_connected_components(G)))
            done = set()
            for block in blocks:  # sinks first: a block reads only itself and earlier ones
                done.update(block)
                assert all(j in done for k in block for j in graph[k])


def test_solve_affine_on_a_long_chain_needs_no_recursion():
    from quantalg.bisim import solve_affine

    n = 10 ** 4  # x_i = 1 + x_{i+1}/2, x_{n-1} = 1: x_i = 2 - 2^(i+1-n)
    rows = {i: (2, 2, {i + 1: 1}) for i in range(n - 1)}
    rows[n - 1] = (1, 1, {})
    got = solve_affine(rows)
    assert [Fraction(*got[i]) for i in (0, n - 2, n - 1)] == [
        2 - Fraction(1, 2 ** (n - 1)), Fraction(3, 2), 1]


@pytest.mark.parametrize("kind, n, iterations", [("mp", 16, 6), ("mdp", 8, 12),
                                                 ("mdp", 16, 16)])
def test_dense_recipe_reaches_the_exact_fixed_point(kind, n, iterations):
    # policy systems with blocks of up to 116 unknowns, whose rows fill in
    # under elimination, and answers with denominators of 160 digits and more
    C = table_coalgebra(dense_recipe_table(kind, n))
    d, cert = solve_bisim(C, BOUNDED)
    assert cert.iterations == iterations
    assert psi_kernel_reference(C, d, BOUNDED) == d


def test_a_solve_that_moves_the_wrong_way_is_an_error(monkeypatch):
    # a faulty solver, whose eliminated blocks forget the unknowns of earlier
    # blocks, gives policies that do not move d the way policy iteration
    # needs; the check turns the endless loop this would make into an error
    eliminate = bisim._eliminate

    def dropping(block, system):
        inside = set(block)
        return eliminate(block, {k: (D, b, {j: c for j, c in coef.items() if j in inside})
                                 for k, (D, b, coef) in system.items() if k in inside})

    def hung(signum, frame):
        raise TimeoutError("policy iteration did not end")

    monkeypatch.setattr(bisim, "_eliminate", dropping)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(QuantAlgError, match="a solve moved the wrong way"):
            solve_bisim(table_coalgebra(dense_recipe_table("mp", 16)), BOUNDED)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_policy_iteration_on_set_layers():
    # Hausdorff max-min choices, alone (a set of outputs and successors) and
    # under a max over inputs (a reader over sets with termination), against
    # the Hausdorff distance written out over the drawn rows.
    from quantalg import Coalgebra, ExcLeaf, FuncVal, Guard, PairVal, StateLeaf, make_set

    rng = random.Random(83)
    cases = [("sum(tensor(semi, writer{q}), contr{next, %s})", m) for m in (BOUNDED, EXTENDED)]
    cases.append(("sum(sum(tensor(semi, reader{a, b}), exc{1}), contr{next, %s})", BOUNDED))
    for theory, mode in cases:
        for _ in range(6):
            c = rng.choice([Fraction(1, 2), Fraction(9, 10)])
            plan = layer_plan(parse_theory(theory % c))
            states = [f"s{k}" for k in range(rng.randint(2, 4))]
            inputs = ("a", "b") if plan.layers[0][0] == "func" else (None,)
            # a row is a nonempty set of (output, successor) or, under a reader,
            # of successors and bot (None); every set names a state
            targets = states + [None] if inputs[0] else states
            rows = {(s, i): [(Fraction(rng.randint(0, 4), 4), rng.choice(states))]
                    + [(Fraction(rng.randint(0, 4), 4), rng.choice(targets))
                       for _ in range(rng.randint(0, 2))] for s in states for i in inputs}

            def cell(alpha, t):
                leaf = ExcLeaf("*") if t is None else Guard("next", c, StateLeaf(t))
                return leaf if inputs[0] else PairVal(alpha, leaf)

            def value(s):
                sets = [(i, make_set(cell(*x) for x in rows[(s, i)])) for i in inputs]
                return FuncVal(tuple(sets)) if inputs[0] else sets[0][1]

            C = Coalgebra(plan, states, {s: value(s) for s in states})
            d, cert = solve_bisim(C, mode)
            assert cert.exact and cert.a_priori_bound == ZERO

            def ground(x, y):
                (alpha, t), (beta, u) = x, y
                if not inputs[0]:
                    g = abs(alpha - beta) + c * d.d(t, u).rational
                elif None in (t, u):  # bot against bot, or against a state
                    g = Fraction(int(t != u))
                else:
                    g = c * d.d(t, u).rational
                return min(g, Fraction(1)) if mode == BOUNDED else g

            def hausdorff(U, V):
                return max([min(ground(x, y) for y in V) for x in U]
                           + [min(ground(y, x) for x in U) for y in V])

            for u in states:
                for v in states:
                    want = max(hausdorff(rows[(u, i)], rows[(v, i)]) for i in inputs)
                    assert d.d(u, v) == ext(want if u != v else 0), (theory, mode)


def test_unknown_mode_is_rejected_up_front():
    # The pair graph rejects the mode even over zero pairs, and a stale
    # positional tolerance lands in `mode`.
    one = system("mp P { c = 1/2; state u: 1 -> bot; }")
    for C in (one, mp_uv()):
        for mode in ("bogus", Fraction(1, 100)):
            with pytest.raises(DomainError, match="unknown mode"):
                solve_bisim(C, mode)


def test_acyclic_iterations_match_an_independent_kleene_count():
    # An acyclic system is answered by Kleene iteration alone: the answer is
    # the first iterate of the reference operator equal to the one before
    # it, and `iterations` is its index.  Over ABSORBING some pairs are
    # infinite in bounded mode; in extended mode a mismatch of sorts is too.
    rng = random.Random(89)
    cases = [(kind, RATIONAL_LINE) for kind in ("mp", "lmp", "mdp", "mealy")]
    cases.append(("mealy", ABSORBING))
    seen = {"inf": 0, "extended inf": 0, "extended": 0}
    for kind, monoid in cases:
        for mode in (BOUNDED, EXTENDED):
            for _ in range(8):
                space = random_space(rng, ["x", "y"], max_den=4)
                c = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)])
                T = random_acyclic_table(rng, kind, space, monoid, rng.randint(1, 6), c)
                prev = PseudoMetric(T.states)
                it, k = psi_reference(T, prev, mode, space), 1
                while it != prev:
                    prev, it, k = it, psi_reference(T, it, mode, space), k + 1
                d, cert = solve_bisim(table_coalgebra(T, space), mode)
                assert (cert.iterations, d) == (k, it), (kind, mode)
                inf = any(v.is_inf for _, v in d.pairs())
                seen["inf"] += inf
                seen["extended inf"] += inf and mode == EXTENDED
                seen["extended"] += mode == EXTENDED
    assert min(seen.values()) >= 3, seen


def test_deep_chain_is_solved_exactly(tmp_path, capsys):
    # s_i: 1/2 -> s_{i+1}, 1/2 -> bot with c = 1/2, 30 states deep: Kleene
    # iteration reaches the fixed point only after 30 steps, long after the
    # iterates are within 1/1000 of it.
    from quantalg.cli import main

    names = [f"s{i}" for i in range(30)]
    rows = {s: FinDist.from_pairs([(st(t), C12), (BOT, C12)])
            for s, t in zip(names, names[1:])}
    rows[names[-1]] = FinDist.dirac(BOT)
    T = Table("mp", C12, names, rows)
    d, cert = solve_bisim(table_coalgebra(T), BOUNDED)
    assert psi_reference(T, d, BOUNDED) == d
    assert cert.iterations == 30
    (tmp_path / "chain.coalg").write_text(table_text(T))
    assert main(["bisim", "--tol", "1/1000", str(tmp_path / "chain.coalg")]) == 0
    assert capsys.readouterr().out.endswith(
        "  certificate: iterations=30 a_priori_bound=0 residual=0 exact=yes\n")


def test_pseudometric_index_is_the_position_in_the_coalgebra_pairs():
    # a metric's pair vector is in `Coalgebra.pairs` order, the numbering of
    # Psi's pair graph and its policy rows; a pair off the state set or on
    # the diagonal has no index, so a table cannot store one
    rng = random.Random(41)
    for _ in range(60):
        names = rng.sample([f"q{k}" for k in range(20)], rng.randint(1, 12))
        C = system("mp P { c = 1/2; " + " ".join(f"state {s}: 1 -> {s};" for s in names) + " }")
        d = PseudoMetric(names)
        assert C.states == d.states == tuple(names)
        assert [d.index(u, v) for u, v in C.pairs] == list(range(len(d.values)))
        assert all(d.index(u, v) == d.index(v, u) for u, v in C.pairs)
        for u, v in [(names[0], "zz"), ("zz", names[-1]), (names[-1], names[-1])]:
            with pytest.raises(DomainError):
                d.index(u, v)
    with pytest.raises(DomainError):
        PseudoMetric(["u", "v"], {("u", "u"): ext(1)})


def test_approx_term_over_a_set_layer_with_an_empty_set():
    # s steps to {raise(*), next(t), next(s)} in canonical order and t to the
    # empty set: unions chain to the right and t's behaviour is `empty`
    from quantalg import Coalgebra, ExcLeaf, Guard, StateLeaf, make_set

    th = parse_theory("sum(sum(semi, exc{1}), contr{next, 1/2})")
    C = Coalgebra(layer_plan(th), ["s", "t"], {
        "s": make_set([Guard("next", C12, StateLeaf("t")), Guard("next", C12, StateLeaf("s")),
                       ExcLeaf("*")]),
        "t": make_set([])})
    assert approx_term(C, "t", 3) == parse_term("empty", th)
    assert approx_term(C, "s", 0) == parse_term("raise(*)", th)
    assert approx_term(C, "s", 2) == parse_term(
        "union(raise(*), union(next(union(raise(*), union(next(raise(*)), next(raise(*))))),"
        " next(empty)))", th)


def test_format_coalgebra_needs_a_table_monoid_name():
    S = FinMetricSpace(["z", "o"], {("z", "o"): ext(1)})
    mon = TableMonoid(S, "z", {("z", "z"): "z", ("z", "o"): "o",
                               ("o", "z"): "o", ("o", "o"): "o"})
    C, _ = unfold_term(parse_term("rd(wr(o, x))", mealy_theory(["i"], mon, C12)),
                       mealy_theory(["i"], mon, C12), FinMetricSpace(["x"], {}))
    with pytest.raises(DomainError, match="monoid name"):
        format_coalgebra(C)
