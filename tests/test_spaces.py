import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quantalg import (FinMetricSpace, discrete, hausdorff_general,
                      kantorovich_general, parse_spaces, spaces)
from quantalg.errors import DomainError
from quantalg.extvalue import INF, ZERO, ext
from quantalg.transport import min_cost_transport, scale_costs, scale_masses, solve_scaled

from helpers import FinDist, random_dist, random_space
from oracles import check_transport, enumerate_transport


@pytest.fixture(autouse=True)
def checked_transports(monkeypatch):
    """Every transport a test here solves passes check_transport."""
    def checked(supplies, demands, cost):
        plan = min_cost_transport(supplies, demands, cost)
        return check_transport(supplies, demands, cost, plan)

    monkeypatch.setattr(spaces, "min_cost_transport", checked)


def test_discrete():
    X = discrete(["a"])
    assert X.d("a", "a") == ZERO
    Y = discrete(["a", "b"])
    assert Y.d("a", "b") == INF
    with pytest.raises(DomainError):
        discrete([])
    with pytest.raises(DomainError):
        discrete(["a", "a"])


def test_metric_validation():
    with pytest.raises(DomainError):  # triangle violation
        FinMetricSpace(["a", "b", "c"],
                       {("a", "b"): ext(1), ("b", "c"): ext(1), ("a", "c"): ext(5)})
    with pytest.raises(DomainError):  # separation
        FinMetricSpace(["a", "b"], {("a", "b"): ZERO})


def test_hausdorff_examples():
    X = FinMetricSpace(["x", "y"], {("x", "y"): ext(2)})
    assert hausdorff_general(["x", "y"], ["x", "y"], X.d) == ZERO
    assert hausdorff_general(["x"], ["x", "y"], X.d) == ext(2)
    assert hausdorff_general([], ["x"], X.d) == INF
    assert hausdorff_general([], [], X.d) == ZERO


def test_hausdorff_union_bound():
    # soundness of the semilattice congruence rule
    rng = random.Random(11)
    for _ in range(50):
        X = random_space(rng, ["p", "q", "r", "s"])
        pts = list(X.points)
        pick = lambda: [p for p in pts if rng.random() < 0.6]
        U, V, U2, V2 = pick(), pick(), pick(), pick()
        lhs = hausdorff_general(U + U2, V + V2, X.d)
        rhs = max(hausdorff_general(U, V, X.d), hausdorff_general(U2, V2, X.d))
        assert lhs <= rhs


def test_kantorovich_examples():
    X = FinMetricSpace(["a", "b"], {("a", "b"): ext(1)})
    mu = FinDist.from_pairs([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
    nu = FinDist.dirac("b")
    assert kantorovich_general(mu, mu, X.d) == ZERO
    assert kantorovich_general(mu, nu, X.d) == ext("1/2")
    Y = discrete(["a", "b"])
    assert kantorovich_general(FinDist.dirac("a"), FinDist.dirac("b"), Y.d) == INF
    with pytest.raises(DomainError):
        kantorovich_general(mu, FinDist.from_pairs([("a", Fraction(1, 2))]), X.d)


def test_kantorovich_dirac_recovers_ground_metric():
    rng = random.Random(5)
    for _ in range(20):
        X = random_space(rng, ["a", "b", "c"], inf_prob=0.2)
        for p in X.points:
            for q in X.points:
                got = kantorovich_general(FinDist.dirac(p), FinDist.dirac(q), X.d)
                assert got == X.d(p, q)


def test_kantorovich_matches_enumeration_oracle():
    rng = random.Random(2024)
    for _ in range(120):
        pts = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        X = random_space(rng, pts, max_den=12, inf_prob=0.25)
        mu = random_dist(rng, pts, 12)
        nu = random_dist(rng, pts, 12)
        got = kantorovich_general(mu, nu, X.d)
        supplies = [w for _, w in mu.items]
        demands = [w for _, w in nu.items]
        cost = [[X.d(p, q) for q, _ in nu.items] for p, _ in mu.items]
        want = enumerate_transport(supplies, demands, cost)
        assert got == want, (pts, mu, nu)


def test_kantorovich_pseudometric_laws():
    rng = random.Random(99)
    for _ in range(40):
        pts = ["a", "b", "c", "d"]
        X = random_space(rng, pts, max_den=6)
        mus = [random_dist(rng, pts, 6) for _ in range(3)]
        for m in mus:
            assert kantorovich_general(m, m, X.d) == ZERO
        d01 = kantorovich_general(mus[0], mus[1], X.d)
        assert d01 == kantorovich_general(mus[1], mus[0], X.d)
        d12 = kantorovich_general(mus[1], mus[2], X.d)
        d02 = kantorovich_general(mus[0], mus[2], X.d)
        assert d02 <= d01 + d12


def test_kantorovich_convexity_bound():
    # soundness of the interpolative congruence rule, exactly
    rng = random.Random(17)
    for _ in range(30):
        pts = ["a", "b", "c"]
        X = random_space(rng, pts, max_den=6)
        mu1, nu1 = random_dist(rng, pts, 6), random_dist(rng, pts, 6)
        mu2, nu2 = random_dist(rng, pts, 6), random_dist(rng, pts, 6)
        e = Fraction(rng.randint(0, 4), 4)
        mix = lambda a, b: FinDist.from_pairs(
            [(p, w * e) for p, w in a.items] + [(p, w * (1 - e)) for p, w in b.items])
        if e in (0, 1):
            continue
        K = lambda a, b: kantorovich_general(a, b, X.d)
        lhs = K(mix(mu1, mu2), mix(nu1, nu2))
        rhs = K(mu1, nu1).scaled(e) + K(mu2, nu2).scaled(1 - e)
        assert lhs <= rhs


def test_space_file_parsing():
    text = """
    space S {
      points: p, q, r;
      d(p,q) = 1/2;
      d(q,r) = 1/2;
      d(p,r) = 1;
    }
    """
    S = parse_spaces(text)["S"]
    assert S.d("q", "p") == ext("1/2")
    # unspecified pairs default to INF
    T = parse_spaces("space T { points: a, b; }")["T"]
    assert T.d("a", "b") == INF


def test_transport_simplex_against_float_lp_on_larger_instances():
    scipy_opt = pytest.importorskip("scipy.optimize")
    import numpy as np

    rng = random.Random(71)
    for _ in range(40):
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        pts_m = [f"a{i}" for i in range(m)]
        pts_n = [f"b{j}" for j in range(n)]
        X = random_space(rng, pts_m + pts_n, max_den=9)
        mu = random_dist(rng, pts_m, 10)
        nu = random_dist(rng, pts_n, 10)
        got = kantorovich_general(mu, nu, X.d)
        # float LP cross-check
        sup = [float(w) for _, w in mu.items]
        dem = [float(w) for _, w in nu.items]
        cost = np.array([[float(X.d(p, q).rational) for q, _ in nu.items]
                         for p, _ in mu.items])
        mm, nn = cost.shape
        A_eq = []
        for i in range(mm):
            row = np.zeros_like(cost)
            row[i, :] = 1
            A_eq.append(row.ravel())
        for j in range(nn):
            row = np.zeros_like(cost)
            row[:, j] = 1
            A_eq.append(row.ravel())
        res = scipy_opt.linprog(cost.ravel(), A_eq=np.array(A_eq)[:-1],
                                b_eq=np.array(sup + dem)[:-1],
                                bounds=[(0, None)] * (mm * nn), method="highs")
        assert res.success
        assert abs(float(got.rational) - res.fun) < 1e-9


def _masses(rng, k, uniform):
    if uniform:
        return [Fraction(1, k)] * k
    raw = [rng.randint(1, 9) for _ in range(k)]
    return [Fraction(r, sum(raw)) for r in raw]


def test_transport_simplex_against_networkx_on_integer_scaled_instances():
    # Exact oracle up to 16 x 16: scale masses and costs to integers, make the
    # finite cells arcs of a bipartite network, and solve it with networkx's
    # network simplex.  Uniform masses make the least-cost start degenerate.
    nx = pytest.importorskip("networkx")
    rng = random.Random(16)
    sizes = [(16, 16), (16, 1), (1, 16)]
    sizes += [(rng.randint(2, 16), rng.randint(2, 16)) for _ in range(45)]
    infeasible = 0
    for k, (m, n) in enumerate(sizes):
        uniform = k % 3 == 0
        if uniform and k % 2 == 0:
            n = m
        supplies, demands = _masses(rng, m, uniform), _masses(rng, n, uniform)
        forbid = rng.choice([0, 0.2, 0.5])
        cost = [[INF if rng.random() < forbid
                 else ext(Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 4])))
                 for _ in range(n)] for _ in range(m)]
        plan = min_cost_transport(supplies, demands, cost)
        got = check_transport(supplies, demands, cost, plan).value

        mass_scale = math.lcm(*(w.denominator for w in supplies + demands))
        cost_scale = math.lcm(*(c.rational.denominator for row in cost for c in row
                                if not c.is_inf))
        G = nx.DiGraph()
        for i, s in enumerate(supplies):
            G.add_node(("r", i), demand=-int(s * mass_scale))
        for j, d in enumerate(demands):
            G.add_node(("c", j), demand=int(d * mass_scale))
        for i in range(m):
            for j in range(n):
                if not cost[i][j].is_inf:
                    G.add_edge(("r", i), ("c", j), weight=int(cost[i][j].rational * cost_scale))
        try:
            flow_cost, _ = nx.network_simplex(G)
            want = ext(Fraction(flow_cost, mass_scale * cost_scale))
        except nx.NetworkXUnfeasible:
            want = INF
            infeasible += 1
        assert got == want, (m, n, supplies, demands, cost)
    assert 0 < infeasible < len(sizes)


@given(st.data())
def test_the_least_cost_start_is_a_spanning_tree_basis(data):
    # on costs with many ties and big-M cells, and on uniform (degenerate)
    # masses: m + n - 1 cells, whose flows meet every row's and column's
    # mass and whose graph reaches all m + n rows and columns
    from quantalg.transport import _least_cost, _tree

    m, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    if data.draw(st.booleans()):
        a, b = [n] * m, [m] * n
    else:
        a = [n * k for k in data.draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))]
        cuts = sorted(data.draw(st.sets(st.integers(1, max(sum(a) - 1, 1)), min_size=n - 1,
                                        max_size=n - 1)))
        b = [y - x for x, y in zip([0] + cuts, cuts + [sum(a)])]
    flat = data.draw(st.lists(st.sampled_from([0, 1, 2, 3, 10**6]), min_size=m * n,
                              max_size=m * n))
    basis = _least_cost(list(a), list(b), flat)
    assert len(basis) == m + n - 1 and min(basis.values()) >= 0
    assert [sum(f for (i, _), f in basis.items() if i == r) for r in range(m)] == a
    assert [sum(f for (_, j), f in basis.items() if j == c) for c in range(n)] == b
    walk, parent, _ = _tree(basis, m, n)
    assert len(walk) == m + n - 1 and min(parent) >= 0


def _random_transport(rng, m, n, forbid):
    supplies = _masses(rng, m, rng.random() < 0.3)
    demands = _masses(rng, n, rng.random() < 0.3)
    cost = [[INF if rng.random() < forbid
             else ext(Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 4])))
             for _ in range(n)] for _ in range(m)]
    return supplies, demands, cost


def test_transport_scaling_costs_scales_the_value_and_keeps_the_plan():
    rng = random.Random(93)
    for _ in range(60):
        supplies, demands, cost = _random_transport(
            rng, rng.randint(1, 7), rng.randint(1, 7), rng.choice([0, 0.3]))
        plan = spaces.min_cost_transport(supplies, demands, cost)
        for r in (Fraction(7, 3), Fraction(1, 1000), Fraction(10**40, 3)):
            scaled = [[c.scaled(r) for c in row] for row in cost]
            got = spaces.min_cost_transport(supplies, demands, scaled)
            assert got.value == plan.value.scaled(r)
            assert got.flows == plan.flows
            for side, base in ((got.u, plan.u), (got.v, plan.v)):
                assert side == [(big, q * r) for big, q in base]


def test_transport_scaling_masses_scales_the_flows_and_the_value():
    rng = random.Random(94)
    for _ in range(60):
        supplies, demands, cost = _random_transport(
            rng, rng.randint(1, 7), rng.randint(1, 7), rng.choice([0, 0.3]))
        plan = spaces.min_cost_transport(supplies, demands, cost)
        for s in (Fraction(5), Fraction(2, 9), Fraction(1, 10**30)):
            got = spaces.min_cost_transport([w * s for w in supplies],
                                            [w * s for w in demands], cost)
            assert got.flows == {c: f * s for c, f in plan.flows.items()}
            assert got.value == plan.value.scaled(s)


def _coprime_masses(rng, k, dens):
    """k positive masses of total 1, the first k - 1 over the given
    denominators in turn (each below 1/k), the last their complement."""
    head = []
    for i in range(k - 1):
        d = dens[i % len(dens)]
        head.append(Fraction(rng.randint(1, d - 1), d * k))
    return head + [1 - sum(head)]


def test_transport_with_coprime_masses_and_huge_cost_denominators():
    # Masses over sevenths, elevenths and thirteenths, costs over denominators
    # of more than 100 digits: the integer scalings are large and coprime.
    rng = random.Random(95)
    big_dens = [3**211, 7**120 + 2, 10**101 + 267, rng.randint(10**101, 10**102)]
    outcomes = {"inf": 0, "finite next to forbidden cells": 0}
    for _ in range(40):
        m, n = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)])
        supplies = _coprime_masses(rng, m, [7, 11])
        demands = _coprime_masses(rng, n, [13, 7, 11])
        cost = [[INF if rng.random() < 0.35
                 else ext(Fraction(rng.randint(0, 10**103), rng.choice(big_dens)))
                 for _ in range(n)] for _ in range(m)]
        got = spaces.min_cost_transport(supplies, demands, cost).value
        assert got == enumerate_transport(supplies, demands, cost)
        if got.is_inf:
            outcomes["inf"] += 1
        elif any(c.is_inf for row in cost for c in row):
            outcomes["finite next to forbidden cells"] += 1
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize("supplies, demands", [
    ([], [Fraction(1)]),
    ([Fraction(1), Fraction(0)], [Fraction(1)]),
    ([Fraction(1)], [Fraction(3, 2), Fraction(-1, 2)]),
    ([Fraction(1, 3)], [Fraction(1, 2)]),
])
def test_transport_rejects_empty_nonpositive_or_unequal_masses(supplies, demands):
    cost = [[ZERO] * len(demands) for _ in supplies]
    with pytest.raises(DomainError):
        min_cost_transport(supplies, demands, cost)


@st.composite
def _meeting_masses(draw):
    """Masses of small integer parts of one total, so that partial sums of
    supplies and demands often meet (degenerate bases)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    total = draw(st.integers(max(m, n, 2), 10))

    def parts(k):
        cuts = sorted(draw(st.lists(st.integers(1, total - 1), min_size=k - 1,
                                    max_size=k - 1, unique=True)))
        return [Fraction(b - a, total) for a, b in zip([0] + cuts, cuts + [total])]

    return parts(m), parts(n)


@st.composite
def _masses_and_two_costs(draw):
    """Masses as `_meeting_masses` draws them and two cost matrices with
    forbidden cells."""
    supplies, demands = draw(_meeting_masses())
    cell = st.one_of(st.just(INF), st.fractions(0, 6, max_denominator=3).map(ext))
    costs = [[[draw(cell) for _ in demands] for _ in supplies] for _ in range(2)]
    return supplies, demands, *costs


@given(_masses_and_two_costs())
def test_a_transport_started_from_another_optimum_is_the_cold_optimum(case):
    # an optimum of the same masses under other costs is a feasible start:
    # the warm solve reaches the cold value, with an optimal coupling and a
    # dual certificate, and leaves the start's basis and tree as they were
    supplies, demands, first, second = case
    a, b, W = scale_masses(supplies, demands)
    start = solve_scaled(a, b, W, *scale_costs(first))
    kept = copy.deepcopy((start.basis, start.tree))
    warm = solve_scaled(a, b, W, *scale_costs(second), start)
    assert (start.basis, start.tree) == kept
    cold = min_cost_transport(supplies, demands, second)
    assert check_transport(supplies, demands, second, warm).value == cold.value


@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (5, 1)])
def test_one_row_and_one_column_transports_solve_cold_and_warm(m, n):
    # one line of cells: the least-cost start is the only feasible flow and
    # already a spanning tree, so no cell enters, cold or warm, and the tree's
    # potentials (u_0 = 0) certify the enumerated optimum under any costs
    rng = random.Random(10 * m + n)
    for _ in range(30):
        supplies, demands = _masses(rng, m, rng.random() < 0.3), _masses(rng, n, False)
        a, b, W = scale_masses(supplies, demands)
        plan = None
        for _ in range(3):
            cost = [[INF if rng.random() < 0.3 else ext(Fraction(rng.randint(0, 12), 3))
                     for _ in range(n)] for _ in range(m)]
            cold = min_cost_transport(supplies, demands, cost)
            plan = solve_scaled(a, b, W, *scale_costs(cost), plan)
            want = enumerate_transport(supplies, demands, cost)
            for got in (cold, plan):
                assert check_transport(supplies, demands, cost, got).value == want
                assert len(got.basis) == m + n - 1 and len(got.tree[0]) == m + n - 1
            assert plan.basis == cold.basis


@st.composite
def _masses_and_cost_chain(draw):
    """Masses as `_meeting_masses` draws them and a chain of three to five
    cost matrices on them.  A matrix has random cells, or all its finite
    cells 0, or all of them one value c, so that a coupling's finite part
    reaches S * top, the most a finite total can be under the forbidden
    cost M; each may have forbidden cells."""
    supplies, demands = draw(_meeting_masses())
    m, n = len(supplies), len(demands)
    chain = []
    for _ in range(draw(st.integers(3, 5))):
        flat = st.one_of(st.just(ZERO), st.fractions(1, 6, max_denominator=3).map(ext))
        finite = draw(st.one_of(st.just(None), flat))
        cell = st.fractions(0, 6, max_denominator=3).map(ext) if finite is None \
            else st.just(finite)
        cell = st.one_of(st.just(INF), cell)
        chain.append([[draw(cell) for _ in range(n)] for _ in range(m)])
    return supplies, demands, chain


@given(_masses_and_cost_chain())
def test_a_chain_of_warm_transports_keeps_the_cold_optimum(case):
    # each solve starts from the Transport of the one before, as a
    # Kantorovich slot's solves do over the rounds of policy iteration
    supplies, demands, chain = case
    a, b, W = scale_masses(supplies, demands)
    plan = None
    for cost in chain:
        plan = solve_scaled(a, b, W, *scale_costs(cost), plan)
        cold = min_cost_transport(supplies, demands, cost)
        assert check_transport(supplies, demands, cost, plan).value == cold.value


def test_a_coupling_of_only_the_largest_finite_cost_stays_finite():
    # the finite part of the total is S * top, just below M (S is 1000
    # where the masses are in 1000ths), and the potentials decode although
    # they sit next to forbidden cells; with every finite cost 0, top is 0
    # and M is 1
    c, X, half, quarter = ext(Fraction(5, 3)), INF, Fraction(1, 2), Fraction(1, 4)
    for supplies, demands, cost, value in (
            ([half] * 2, [quarter] * 4, [[c, c, X, X], [X, X, c, c]], c),
            ([Fraction(1)], [Fraction(1, 3), Fraction(2, 3)], [[c, c]], c),
            ([Fraction(1, 1000), Fraction(999, 1000)], [half] * 2, [[c, c], [c, X]], INF),
            ([Fraction(1, 1000), Fraction(999, 1000)], [half] * 2, [[X, c], [c, c]], c),
            ([Fraction(1, 3), Fraction(2, 3)], [Fraction(1)], [[c], [X]], INF),
            ([half] * 2, [half] * 2, [[ZERO, X], [X, ZERO]], ZERO),
            ([half] * 2, [half] * 2, [[X, ZERO], [ZERO, X]], ZERO),
            ([half] * 2, [quarter, Fraction(3, 4)], [[ZERO, X], [X, ZERO]], INF)):
        plan = min_cost_transport(supplies, demands, cost)
        assert check_transport(supplies, demands, cost, plan).value == value
