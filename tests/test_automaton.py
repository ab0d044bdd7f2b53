"""Box-ball line states, carrier and sweep evolutions, column transport."""
import random

import pytest

from crystal_ca import automaton
from crystal_ca import (
    AlgebraSpec,
    AutomatonState,
    CapExceeded,
    InapplicableError,
    clear_tables,
    column_diagram_check,
    delta,
    dual_vertex_step,
    enumerate_crystal,
    evolve_T,
    evolve_T_factorized,
    evolve_carrier,
    evolve_fine,
    from_counts,
    make_backend,
    parse_element,
    parse_state,
    vertex_step,
)

from conftest import memos, random_state

A11 = AlgebraSpec("A1", 1)
A13 = AlgebraSpec("A1", 3)

ROWS = [
    "1112211211111111",
    "1111122121111111",
    "1111111212211111",
    "1111111121122111",
]


def dotted(s):
    return ".".join(s)


def intro_state():
    return parse_state(A11, 1, dotted(ROWS[0]))


def test_state_normalization_and_equality():
    s = intro_state()
    assert s.window_start == 3
    assert "".join(b.word() for b in s.window) == "22112"
    assert s.background_letter == "1"
    t = parse_state(A11, 1, dotted("22112"), window_start=3)
    assert s == t and hash(s) == hash(t)
    assert s != parse_state(A11, 1, dotted("22112"), window_start=4)


def test_states_of_different_braces_differ():
    upper = parse_state(AlgebraSpec("A2odd", 3, "upper"), 0, "1.2")
    lower = parse_state(AlgebraSpec("A2odd", 3, "lower"), 0, "1.2")
    assert upper != lower and len({upper, lower}) == 2


@pytest.mark.parametrize("pattern", [(2, 1), (1, 2, 3)])
@pytest.mark.parametrize("start", [-3, 5])
def test_trim_against_every_phase(pattern, start):
    spec, k = AlgebraSpec("A1", 2), 1
    a = spec.letter_at(k)
    other = next(c for c in spec.coord_letters if c != a)
    period = len(pattern)

    def site(j, off):
        cap = pattern[j % period]
        if not off:
            return delta(spec, cap, a)
        return from_counts(spec, {a: cap - 1, other: 1}, cap)

    # a full period of background on each side, so every capacity is cut;
    # the background site inside the core stays
    core = [True, False, True]
    offs = [False] * (period + 1) + core + [False] * (period + 1)
    sites = tuple(site(start + p, off) for p, off in enumerate(offs))
    s = AutomatonState(spec, k, start, sites, pattern)
    cut = period + 1
    assert s.window_start == start + cut
    assert s.window == sites[cut:cut + len(core)]

    rest = tuple(site(start + p, False) for p in range(len(offs)))
    bare = AutomatonState(spec, k, start, rest, pattern)
    assert bare.window == () and bare.window_start == 0
    assert bare == AutomatonState(spec, k, 0, (), pattern)


@pytest.mark.parametrize("family, rank, counts", [
    ("B1", 3, [{"1": 1, "0": 1}, {"3b": 2}, {"3b": 1, "2": 1}, {"0": 1, "3b": 1}]),
    ("C1", 2, [{"0": 1}, {"1": 1, "2b": 1}, {"2b": 2}, {"1": 2}]),
])
def test_deviation_reads_the_background_slot(family, rank, counts):
    spec = AlgebraSpec(family, rank)
    for k in range(spec.d):
        s = AutomatonState(spec, k, 0, tuple(from_counts(spec, c, 2) for c in counts), (2,))
        a = s.background_letter
        assert s.deviation() == sum(b.l - b.get(a) for b in s.window)


def test_pattern_minimal_period():
    s = parse_state(A11, 1, "12.12", pattern=(2, 2))
    assert s.pattern == (2,)
    s = parse_state(A11, 1, "12.1.12.1", pattern=(2, 1, 2, 1))
    assert s.pattern == (2, 1)


def test_pattern_validation():
    with pytest.raises(ValueError, match="capacity pattern demands"):
        parse_state(A11, 1, "12.12", pattern=(2, 1))
    with pytest.raises(ValueError, match="mixed capacities"):
        parse_state(A11, 1, "12.1")
    with pytest.raises(ValueError, match="positive"):
        parse_state(A11, 1, "1", pattern=(0,))
    # a B_1 element of rank 3 sits at a B_1 site of a rank-1 line
    with pytest.raises(ValueError, match="^window element from a different algebra$"):
        AutomatonState(A11, 1, 0, (parse_element(A13, "2"),), (1,))


def test_site_and_render():
    s = intro_state()
    assert repr(s) == "<state k=1 @3 2.2.1.1.2>"
    assert s.site(3).word() == "2"
    assert s.site(0).word() == "1" and s.site(40).word() == "1"
    assert s.render(0, 15, sep="") == ROWS[0]
    assert s.render(lo=3, hi=7) == "2.2.1.1.2"


def test_deviation_and_profile():
    s = intro_state()
    assert s.deviation() == 3
    assert s.weight_profile() == {"1": -3, "2": 3}


def test_vertex_step_rules(a1_1):
    two = parse_element(A11, "2")
    one = parse_element(A11, "1")
    assert vertex_step(a1_1, 1, 0, two) == (one, 0)
    assert vertex_step(a1_1, 1, 2, two) == (two, 1)
    assert vertex_step(a1_1, 1, 0, one) == (one, 1)
    b, s = dual_vertex_step(a1_1, 1, 0, one)
    assert b == two and s == 0
    b, s = dual_vertex_step(a1_1, 1, 3, one)
    assert b == one and s == 2 + 0


def test_intro_rows_by_all_modes(a1_1):
    s = intro_state()
    cur = s
    for want in ROWS[1:]:
        stepped, M = evolve_T(a1_1, cur)
        assert stepped.render(0, 15, sep="") == want
        assert evolve_T_factorized(a1_1, cur, 1) == stepped
        assert evolve_fine(a1_1, cur, cur.k + A11.d) == stepped
        cur = stepped


def test_carrier_trace_frozen(a1_1):
    _, trace = evolve_carrier(a1_1, intro_state(), 3)
    assert [c.word() for c in trace] == [
        "111", "112", "122", "112", "111", "112", "111",
    ]


def test_carrier_capacity_plateau(a1_1):
    s = intro_state()
    ref, _ = evolve_carrier(a1_1, s, 3)
    for M in range(4, 9):
        out, _ = evolve_carrier(a1_1, s, M)
        assert out == ref
    small, _ = evolve_carrier(a1_1, s, 1)
    assert small != ref
    stable, M_used = evolve_T(a1_1, s)
    assert stable == ref


def test_multi_step_and_inverse(a1_1):
    s = intro_state()
    two = evolve_T_factorized(a1_1, evolve_T_factorized(a1_1, s, 1), 1)
    assert evolve_T_factorized(a1_1, s, 2) == two
    assert evolve_T_factorized(a1_1, two, -2) == s
    assert evolve_T_factorized(a1_1, s, 0) == s


def test_sigma_memo_holds_only_the_line_capacities(a1_3):
    # sigma^t is stored per element of the capacities the lines carry, so
    # the memo of each power stays within B_1 and B_2, never a table of B_M
    clear_tables()
    rng = random.Random(5)
    pattern = (2, 1)
    for _ in range(200):
        s = random_state(A13, rng, pattern, rng.randrange(4), 0, 12)
        for t in (1, -1):
            evolve_T_factorized(a1_3, s, t)
    bound = sum(len(enumerate_crystal(A13, l)) for l in pattern)
    stored = memos("sigma")
    assert sorted(stored) == sorted((A13, t % A13.sigma_order) for t in (1, -1))
    for images in stored.values():
        assert 0 < len(images) <= bound
        assert {l for l, _ in images} == set(pattern)
    clear_tables()
    assert memos("sigma") == {}


@pytest.mark.parametrize("t", [1, -1])
def test_sweep_budget_guard(a1_1, monkeypatch, t):
    # both sweep directions run one loop with one site budget
    monkeypatch.setattr(automaton, "_SWEEP_LIMIT", 0)
    with pytest.raises(CapExceeded, match="^vertex sweep exceeded the site budget$"):
        evolve_T_factorized(a1_1, intro_state(), t)


def test_fine_endpoints(a1_1):
    s = intro_state()
    assert evolve_fine(a1_1, s, s.k) == s
    with pytest.raises(ValueError):
        evolve_fine(a1_1, s, s.k - 1)


def test_conservation(a1_1):
    cur = intro_state()
    dev, profile = cur.deviation(), cur.weight_profile()
    for _ in range(4):
        cur = evolve_T_factorized(a1_1, cur, 1)
        assert cur.deviation() == dev
        assert cur.weight_profile() == profile


def test_soliton_velocity(a1_1, a1_1_graph):
    # evolve_T's two paths: the one infinite pass on the builtin rules, and
    # the doubling of finite carriers on a graph-backed B_1
    for bk in (a1_1, a1_1_graph):
        for length in range(1, 5):
            s = parse_state(A11, 1, dotted("2" * length))
            out, _ = evolve_T(bk, s)
            assert out.window_start == s.window_start + length
            assert [b.word() for b in out.window] == ["2"] * length


def test_two_soliton_overtaking(a1_1):
    cur = intro_state()
    for _ in range(3):
        cur = evolve_T_factorized(a1_1, cur, 1)
    assert cur.render(0, 15, sep="") == ROWS[3]
    # content survives the collision: a free 2-soliton ahead of a 1-soliton
    assert "".join(b.word() for b in cur.window) == "211 22".replace(" ", "")


def test_background_fixed_point(a1_1):
    s = AutomatonState(A11, 1, 0, (), (1,))
    assert s.window == ()
    out, trace = evolve_carrier(a1_1, s, 4)
    assert out == s
    assert [c.word() for c in trace] == ["1111"]
    assert evolve_T_factorized(a1_1, s, 1) == s


def test_mixed_capacities(a1_1, a1_1_graph):
    s = parse_state(A11, 1, "22.2.11.1", pattern=(2, 1))
    for bk in (a1_1, a1_1_graph):  # one infinite pass, then the doubling
        stable, _ = evolve_T(bk, s)
        assert evolve_T_factorized(bk, s, 1) == stable
        assert evolve_fine(bk, s, s.k + A11.d) == stable
        assert evolve_T_factorized(bk, stable, -1) == s
        assert stable.deviation() == s.deviation()


def test_carrier_budget_guard(a1_1, monkeypatch):
    # a swap whose carrier never returns to rest meets the fixed tail budget
    s = intro_state()
    stuck = parse_element(A11, "122")
    monkeypatch.setattr(automaton, "r_elementary", lambda bk, car, b: (b, stuck))
    budget = 4 * s.deviation() + 16
    with pytest.raises(CapExceeded, match=f"within {budget} extra sites"):
        evolve_carrier(a1_1, s, 3)


def test_evolve_T_limit_guard(a1_1, a1_1_graph):
    s = parse_state(A11, 1, dotted("22"))
    # the one infinite pass needs no capacity limit and returns dev + 1
    assert evolve_T(a1_1, s, M_limit=1)[1] == 3
    # the doubling starts at M = 2 and gives up past M_limit
    with pytest.raises(CapExceeded):
        evolve_T(a1_1_graph, s, M_limit=1)
    for bk, M_settled in ((a1_1, 3), (a1_1_graph, 2)):
        out, M_used = evolve_T(bk, s)
        assert M_used == M_settled and out.window_start == 2


def test_infinite_carrier_tail_budget(a1_1):
    # at offset 0 the background letter is 2: the carrier picks up both 1s
    # and needs two background sites past the window to put them down
    s = parse_state(A11, 0, "1.1")
    for budget in (0, 1):
        with pytest.raises(CapExceeded, match=f"infinite carrier did not return "
                                              f"to rest within {budget} extra sites"):
            automaton._evolve_infinite(s, budget)
    assert automaton._evolve_infinite(s, 2) == evolve_T(a1_1, s)[0]


def test_evolve_T_past_the_capacity_limit(a1_1, a1_1_graph):
    # a soliton of deviation 600: the one pass needs no capacity limit, while
    # the doubling, which starts at M = 600, gives up at M_limit = 512
    s = parse_state(A11, 1, dotted("2" * 600))
    out, M = evolve_T(a1_1, s)
    assert M == 601
    assert out.window_start == s.window_start + 600 and out.window == s.window
    assert out == evolve_T_factorized(a1_1, s, 1)
    with pytest.raises(CapExceeded):
        evolve_T(a1_1_graph, s)


def test_evolve_T_large_carrier_without_tables():
    # rank 4, 40 sites of B_2: the carrier starts at M = the deviation, far
    # past what a swap table of B_M (x) B_2 could enumerate
    spec = AlgebraSpec("A1", 4)
    bk = make_backend(spec)
    s = random_state(spec, random.Random(40), (2,), 0, 0, 40)
    clear_tables()
    try:
        out, M = evolve_T(bk, s, M_limit=512)
        assert M >= s.deviation() >= 64
        assert out == evolve_T_factorized(bk, s, 1)
        assert memos("tables") == {}
    finally:
        clear_tables()


def test_column_diagram_frozen(a1_3):
    u = parse_element(A13, "111223")
    b = parse_element(A13, "344")
    res = column_diagram_check(a1_3, u, b, k=3, margin=1)
    assert res["ok"] and res["cells_ok"]
    assert res["outputs"] == res["oracle_t"]
    assert res["image"] == "223.111344" and res["oracle"] == "223.111344"


def test_column_diagram_vacuum_partner(a1_3):
    # the small factor carries off the non-background letters, as in the
    # frozen example; the all-1 partner leaves a pure background big factor
    u = parse_element(A13, "111223")
    b = delta(A13, 3, A13.letter_at(3))
    res = column_diagram_check(a1_3, u, b, k=3, margin=1)
    assert res["ok"]
    assert res["oracle"] == "223.111111"


def test_column_diagram_declines_out_of_domain(a1_3):
    u = parse_element(A13, "11223")
    b = parse_element(A13, "344")
    with pytest.raises(InapplicableError):
        column_diagram_check(a1_3, u, b, k=3, margin=1)
