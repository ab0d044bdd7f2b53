"""Swap tables, the factorized swap, side conditions, the verification suite."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystal_ca import automaton, rmatrix
from crystal_ca import (
    AlgebraSpec,
    CrystalElement,
    GraphProvider,
    InapplicableError,
    Providers,
    RMatrixError,
    Tensor,
    UnreachedElement,
    apply_e,
    apply_f,
    apply_r_at,
    clear_tables,
    delta,
    domain_gap,
    enumerate_crystal,
    eps,
    evolve_T,
    evolve_T_factorized,
    get_table,
    in_domain,
    make_backend,
    parse_element,
    parse_state,
    parse_tensor,
    phi,
    r_composite,
    r_elementary,
    r_factorized,
    sample_domain_element,
    sigma_letterwise,
    verify_theorem,
    weyl_s,
    yang_baxter_check,
)
from crystal_ca.crystal import memo
from crystal_ca.rmatrix import _build_table, _scramble, auto_capacity
from conftest import memos

A1_1 = AlgebraSpec("A1", 1)
A1_2 = AlgebraSpec("A1", 2)
A1_3 = AlgebraSpec("A1", 3)


def test_table_bijection_and_inverse(a1_2):
    table = get_table(a1_2, 2, 3)
    assert len(table) == len(enumerate_crystal(A1_2, 2)) * len(enumerate_crystal(A1_2, 3))
    assert len(set(table.values())) == len(table)
    for u in enumerate_crystal(A1_2, 2):
        for v in enumerate_crystal(A1_2, 3):
            v2, u2 = r_elementary(a1_2, u, v)
            back = r_elementary(a1_2, v2, u2)
            assert back == (u, v)
            for r in (v2, u2):
                assert CrystalElement(r.spec, r.l, r.x) == r


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_closed_form_matches_table(rank):
    # A1 swaps on the builtin rules come from the closed form, and build no
    # table; the propagated table is the reference, entry by entry
    spec = AlgebraSpec("A1", rank)
    bk = make_backend(spec)
    levels = [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)]
    if rank == 3:
        levels += [(17, 1), (17, 2), (17, 3)]
    clear_tables()
    try:
        for l, m in levels:
            table = _build_table(bk, l, m)
            for a in enumerate_crystal(spec, l):
                for b in enumerate_crystal(spec, m):
                    b2, a2 = r_elementary(bk, a, b)
                    assert (b2.x, a2.x) == table[(a.x, b.x)]
                    assert (b2.l, a2.l) == (m, l)
        assert memos("tables") == {}
    finally:
        clear_tables()


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_infinite_slot_matches_large_finite_slot(rank):
    # an infinite slot p swaps like slot p holding l + load, the site's
    # capacity plus the carrier's letters off p: every Q term that adds x_p
    # is then at least the k = 1 term
    spec = AlgebraSpec("A1", rank)
    n = rank + 1
    for l in (1, 2, 3):
        for b in enumerate_crystal(spec, l):
            for car in itertools.product(range(4), repeat=n):
                load = sum(car)
                if load > 3:
                    continue
                for p in (q for q in range(n) if car[q] == 0):
                    big = car[:p] + (l + load,) + car[p + 1:]
                    y, x2 = rmatrix._a1_swap(big, b.x)
                    assert rmatrix._a1_swap(car, b.x, p) == (
                        y, x2[:p] + (0,) + x2[p + 1:])


def test_clear_tables_forgets_infinite_swaps():
    clear_tables()
    try:
        b = parse_element(A1_2, "23")
        pair = rmatrix.r_infinite(A1_2, 0, (0, 1, 0), b)
        # the carrier keeps its 2, takes the site's 3 and leaves a 1
        assert pair == (parse_element(A1_2, "12"), (0, 1, 1))
        assert memos("inf") == {(A1_2, 0): {((0, 1, 0), b.x): pair}}
        assert memo("inf", A1_2, 0)[((0, 1, 0), b.x)] is pair
        clear_tables()
        assert memos("inf") == {}
    finally:
        clear_tables()


def test_evolve_T_infinite_pass_on_builtin_only(monkeypatch, a1_1, a1_1_graph):
    # a graph-backed A1 backend has no closed form: evolve_T keeps doubling
    # finite carrier passes there
    passes = []
    finite = automaton.evolve_carrier

    def counted(bk, state, M):
        passes.append(M)
        return finite(bk, state, M)

    monkeypatch.setattr(automaton, "evolve_carrier", counted)
    s = parse_state(A1_1, 1, "2.2.1.2")
    clear_tables()
    try:
        by_graph, M = evolve_T(a1_1_graph, s)
        assert len(passes) >= 2 and passes[0] == M == s.deviation()
        done = len(passes)
        assert evolve_T(a1_1, s) == (by_graph, s.deviation() + 1)
        assert len(passes) == done
    finally:
        clear_tables()


def test_swaps_carry_the_callers_brace():
    # stored pairs carry their spec, so one brace's pairs must never be
    # handed to a run under the other brace in the same process
    clear_tables()
    try:
        for brace in ("upper", "lower", "upper"):
            spec = AlgebraSpec("A1", 2, brace)
            bk = make_backend(spec)
            for a in enumerate_crystal(spec, 2):
                for b in enumerate_crystal(spec, 1):
                    for el in r_elementary(bk, a, b):
                        assert el.spec == spec
                        assert CrystalElement(spec, el.l, el.x) == el
    finally:
        clear_tables()


# one use of each memo of the store, on a backend of the caller's spec
MEMO_USES = {
    "tables": lambda bk: get_table(bk, 2, 1),
    "swaps": lambda bk: r_elementary(bk, delta(bk.spec, 2, "2"), delta(bk.spec, 1, "3")),
    "inf": lambda bk: evolve_T(bk, parse_state(bk.spec, 0, "2.3.1")),
    "sigma": lambda bk: evolve_T_factorized(bk, parse_state(bk.spec, 0, "2.3.1"), 1),
    "pools": lambda bk: verify_theorem(bk, (2, 1), trials=2),
}


def _stored_elements(value):
    if isinstance(value, CrystalElement):
        yield value
    elif isinstance(value, (tuple, dict)):
        for v in (value.values() if isinstance(value, dict) else value):
            yield from _stored_elements(v)


@pytest.mark.parametrize("name", sorted(MEMO_USES))
def test_memo_store_contract(name):
    # each memo fills only on use; a memo of elements keys on the caller's
    # whole spec and stores only elements that carry it, so one brace's
    # elements never reach a run under the other; tables hold coordinates
    # and are shared by both braces
    clear_tables()
    try:
        assert memos(name) == {}
        for brace in ("upper", "lower", "upper"):
            spec = AlgebraSpec("A1", 2, brace)
            MEMO_USES[name](make_backend(spec))
            stored = memos(name)
            if name == "tables":
                assert list(stored) == [("A1", 2, "builtin")]
                assert not list(_stored_elements(stored))
                continue
            assert spec in {key[0] for key in stored}
            for key, entries in stored.items():
                elements = list(_stored_elements(entries))
                assert elements and all(el.spec == key[0] for el in elements)
        if name != "tables":
            assert {key[0].brace for key in memos(name)} == {"upper", "lower"}
    finally:
        clear_tables()


def test_anchors_swap(a1_2):
    for a in A1_2.a_letters:
        got = r_elementary(a1_2, delta(A1_2, 2, a), delta(A1_2, 3, a))
        assert got == (delta(A1_2, 3, a), delta(A1_2, 2, a))


def test_equal_levels_identity(a1_2):
    for u in enumerate_crystal(A1_2, 2):
        for v in enumerate_crystal(A1_2, 2):
            assert r_elementary(a1_2, u, v) == (u, v)


def test_equivariance_exhaustive():
    # the swap table commutes with the tensor-operator layer's e_i and f_i,
    # for level pairs with l < m, l > m and l == m
    for rank in (1, 2, 3):
        spec = AlgebraSpec("A1", rank)
        bk = make_backend(spec)
        for l, m in ((1, 2), (3, 1), (2, 2)):
            for u in enumerate_crystal(spec, l):
                for v in enumerate_crystal(spec, m):
                    t = Tensor((u, v))
                    rt = apply_r_at(bk, t, 0)
                    for op in (apply_e, apply_f):
                        for i in spec.index_set:
                            lhs = op(bk, i, t)
                            rhs = op(bk, i, rt)
                            if lhs is None:
                                assert rhs is None
                            else:
                                assert apply_r_at(bk, lhs, 0) == rhs


def test_commutes_with_automorphism(a1_2):
    for u in enumerate_crystal(A1_2, 1):
        for v in enumerate_crystal(A1_2, 3):
            v2, u2 = r_elementary(a1_2, u, v)
            got = r_elementary(a1_2, sigma_letterwise(u), sigma_letterwise(v))
            assert got == (sigma_letterwise(v2), sigma_letterwise(u2))


def test_composite_block_orders(a1_2):
    # the one-factor composite is the elementary chain at positions 0, 1, 2
    rng = random.Random(5)
    pool1 = enumerate_crystal(A1_2, 1)
    pool2 = enumerate_crystal(A1_2, 2)
    for _ in range(25):
        t = Tensor((rng.choice(pool2), rng.choice(pool1), rng.choice(pool2),
                    rng.choice(pool1)))
        assert r_composite(a1_2, t) == apply_r_at(a1_2, apply_r_at(
            a1_2, apply_r_at(a1_2, t, 0), 1), 2)


def test_yang_baxter_spot(a1_1):
    cases, mismatches = yang_baxter_check(a1_1, (1, 2, 2))
    assert cases == 2 * 3 * 3 and mismatches == 0


def test_yang_baxter_counts_mismatches(monkeypatch, a1_1):
    # the plain transposition on B_1 (x) B_1, where R is the identity, breaks
    # the braid identity on B_1 (x) B_1 (x) B_2
    real = rmatrix.r_elementary

    def swap(bk, a, b):
        return (b, a) if a.l == b.l == 1 else real(bk, a, b)

    clear_tables()
    monkeypatch.setattr(rmatrix, "r_elementary", swap)
    try:
        cases, mismatches = yang_baxter_check(a1_1, (1, 1, 2))
    finally:
        clear_tables()
    assert cases == 2 * 2 * 3 and mismatches == 6


def test_factorized_frozen_example(a1_3):
    t = parse_tensor(A1_3, "111223.344")
    image, states = r_factorized(a1_3, t, k=3, margin=1)
    assert image.word() == "223.111344"
    assert r_composite(a1_3, t) == image
    assert len(states) == A1_3.d + 1
    assert [A1_3.index_at(3 + j) for j in range(1, len(states))] == [0, 3, 2]
    assert [st.word() for st in states[1:]] == [
        "112234.344",
        "112234.334",
        "112224.334",
    ]
    assert states[0] == t


def test_factorized_negative_control(a1_3):
    t = parse_tensor(A1_3, "11223.344")
    with pytest.raises(InapplicableError) as exc:
        r_factorized(a1_3, t, k=3, margin=1)
    assert exc.value.reason == "domain"
    assert exc.value.states == ()
    with pytest.raises(InapplicableError) as exc:
        r_factorized(a1_3, t, k=3, margin=0)
    assert exc.value.reason == "orientation"
    assert exc.value.step == 4
    assert exc.value.states == (t,)
    assert r_composite(a1_3, t).word() == "223.11344"


def test_factorized_needs_two_factors(a1_3):
    with pytest.raises(ValueError):
        r_factorized(a1_3, Tensor((parse_element(A1_3, "112"),)))


def test_factorized_default_margin_is_partner_capacity(a1_2):
    # without a margin the domain asks for a gap of sum(partner capacities),
    # here 2, over letter a_0 = 3
    t = parse_tensor(A1_2, "12333.13")
    assert domain_gap(t.factors[0], "3") == 2
    image, _ = r_factorized(a1_2, t)
    assert image == r_composite(a1_2, t)
    t = parse_tensor(A1_2, "22333.13")
    assert domain_gap(t.factors[0], "3") == 1
    with pytest.raises(InapplicableError, match="not 2-dominated by letter 3") as exc:
        r_factorized(a1_2, t)
    assert exc.value.reason == "domain"


def _reference_chain(bk, t, k, margin):
    """r_factorized written with the public eps, phi and weyl_s, one
    signature pass per call: the reference for its single-pass steps."""
    u = t.factors[0]
    spec = u.spec
    if not in_domain(u, spec.letter_at(k), margin):
        raise InapplicableError("domain", "")
    cur, states = t, [t]
    for m in range(k + 1, k + spec.d + 1):
        i = spec.index_at(m)
        if eps(bk, i, cur) <= phi(bk, i, cur):
            raise InapplicableError("orientation", "", step=m, states=tuple(states))
        cur = weyl_s(bk, i, cur)
        if eps(bk, i, cur) != bk.eps(i, cur.factors[0]):
            raise InapplicableError("locality", "", step=m, states=tuple(states))
        states.append(cur)
    moved = cur.factors[1:] + cur.factors[:1]
    return Tensor(tuple(sigma_letterwise(f) for f in moved)), tuple(states)


def _chain_outcome(chain, bk, t, k, margin):
    try:
        image, states = chain(bk, t, k, margin)
    except InapplicableError as err:
        return err.reason, err.step, err.states
    return "applied", image, states


@pytest.mark.parametrize("backend", ["a1_1", "a1_2", "a1_3", "a1_1_graph"])
def test_factorized_matches_reference_chain(request, backend):
    # margin-0 draws, half scrambled as in verify_theorem's control mode, run
    # with the domain test on (margin 0) and off (margin -M); partners of up
    # to twice M's load make the chain refuse by orientation and by locality
    bk = request.getfixturevalue(backend)
    spec = bk.spec
    M = auto_capacity(spec, 0)
    rng = random.Random(2)
    seen = {"applied": 0, "domain": 0, "orientation": 0, "locality": 0}
    for shape in [(1,), (2, 1), (1, 2, 3), (3, 3)]:
        pools = [enumerate_crystal(spec, l) for l in shape]
        for k in range(spec.d + 1):
            for _ in range(30):
                u = sample_domain_element(spec, M, spec.letter_at(k), 0, rng)
                if rng.random() < 0.5:
                    u = _scramble(u, rng)
                t = Tensor((u,) + tuple(rng.choice(pool) for pool in pools))
                for margin in (0, -M):
                    got = _chain_outcome(r_factorized, bk, t, k, margin)
                    assert got == _chain_outcome(_reference_chain, bk, t, k, margin), (
                        t.word(), k, margin)
                    seen[got[0]] += 1
    assert all(seen.values()), seen


def test_domain_gap_values():
    u = parse_element(A1_3, "111223")
    assert domain_gap(u, "1") == 1
    assert domain_gap(u, "2") == -1
    assert in_domain(u, "1", 1) and not in_domain(u, "1", 2)
    with pytest.raises(ValueError):
        domain_gap(u, "0")
    c1 = AlgebraSpec("C1", 2)
    v = parse_element(c1, "1122b")
    assert domain_gap(v, "1") == 2
    assert domain_gap(v, "1b") == -2
    assert domain_gap(v, "2b") == -2


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([AlgebraSpec("A1", 2), AlgebraSpec("A1", 3),
                     AlgebraSpec("C1", 2), AlgebraSpec("D1", 4)]),
    st.integers(0, 3),
    st.integers(0, 40),
    st.integers(0, 10_000),
)
def test_domain_sampler_property(spec, margin, kshift, seed):
    rng = random.Random(seed)
    a = spec.letter_at(kshift)
    M = 2 * margin + spec.rank + 2 + rng.randint(0, 5)
    el = sample_domain_element(spec, M, a, margin, rng)
    assert el.l == M
    assert in_domain(el, a, margin)


def test_domain_sampler_refuses_bad_arguments():
    rng = random.Random(0)
    with pytest.raises(ValueError, match="^M=4 is below the domain margin 5$"):
        sample_domain_element(A1_2, 4, "3", 5, rng)
    # C1's "0" is a slack letter: it has no slot to hold the dominant weight
    with pytest.raises(ValueError, match="^letter '0' has no stored slot$"):
        sample_domain_element(AlgebraSpec("C1", 2), 6, "0", 1, rng)
    # a negative margin would size the other slots past M: refused by name on
    # every draw, not only on the draws whose slots overflow
    for seed in range(50):
        with pytest.raises(ValueError, match="^the domain margin must be non-negative, got -10$"):
            sample_domain_element(A1_2, 3, "3", -10, random.Random(seed))


@pytest.mark.parametrize("rank", [1, 2])
def test_domain_boundary_exhaustive(rank):
    # the chain with its domain test off (a margin below every gap), on every
    # u of B_M, M <= auto_capacity, with gap >= L = sum(shape): past the
    # boundary it always applies and is right; on it, it is never wrong but
    # some tensors are refused (orientation).  Below it, the per-step checks
    # let a few wrong images through at rank 2, so the domain is needed.
    spec = AlgebraSpec("A1", rank)
    bk = make_backend(spec)
    seen = {"beyond": 0, "boundary": 0, "refused": 0}
    for shape in [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (1, 1, 1)]:
        L = sum(shape)
        partners = list(itertools.product(*(enumerate_crystal(spec, l) for l in shape)))
        for k in (0, 1):
            a = spec.letter_at(k)
            for M in range(L, 2 * L + rank + 3):
                for u in enumerate_crystal(spec, M):
                    gap = domain_gap(u, a)
                    if gap < L:
                        continue
                    for xs in partners:
                        t = Tensor((u,) + xs)
                        seen["beyond" if gap > L else "boundary"] += 1
                        try:
                            image, _ = r_factorized(bk, t, k=k, margin=-M)
                        except InapplicableError as err:
                            assert gap == L, (t.word(), k, err)
                            seen["refused"] += 1
                            continue
                        assert image == r_composite(bk, t), (t.word(), k, gap)
    assert seen["beyond"] and seen["refused"]


def test_verify_theorem_green(a1_2):
    report = verify_theorem(a1_2, (2, 1), k=1, trials=40, seed=7)
    assert report["passes"] == 40
    assert report["flagged"] == 0
    assert report["failures"] == []
    assert report["margin"] == 3 and report["M"] == 2 * 3 + 2 + 2


def test_verify_theorem_margin0_control(a1_2):
    report = verify_theorem(a1_2, (1, 1), k=0, trials=60, seed=11, margin=0)
    assert report["failures"] == []
    assert report["flagged"] > 0
    assert report["passes"] + report["flagged"] == 60
    assert len(report["flagged_examples"]) <= 10
    for ex in report["flagged_examples"]:
        assert ex["reason"] in ("domain", "orientation", "locality")


def test_verify_theorem_runs_in_one_thread(a1_2):
    # jobs survives only as a keyword that must be 1
    report = verify_theorem(a1_2, (2, 1), k=2, trials=24, seed=3)
    assert verify_theorem(a1_2, (2, 1), k=2, trials=24, seed=3, jobs=1) == report
    for jobs in (0, 2):
        with pytest.raises(ValueError, match=f"jobs must be 1, got {jobs}"):
            verify_theorem(a1_2, (2, 1), k=2, trials=24, seed=3, jobs=jobs)


@pytest.mark.parametrize("check, on", [("phi-left", CrystalElement), ("chain-eps", Tensor)])
def test_verify_theorem_step_detectors_fire(monkeypatch, a1_2, check, on):
    # the chain reads no rmatrix.phi: a phi off by one on single elements
    # reaches only the phi-left check, and on tensors only chain-eps
    real = rmatrix.phi
    monkeypatch.setattr(rmatrix, "phi", lambda bk, i, b: real(bk, i, b) + isinstance(b, on))
    report = verify_theorem(a1_2, (2, 1), k=1, trials=6, seed=7)
    assert report["passes"] == report["flagged"] == 0
    shift = 1 if check == "chain-eps" else -1
    assert len(report["failures"]) == 6
    for entry in report["failures"]:
        assert entry["expected"] == entry["got"]
        assert [(p["check"], p["step"], int(p["expected"]) - int(p["got"]))
                for p in entry["problems"]] == [(check, 1 + j, shift)
                                                for j in range(1, A1_2.d + 1)]


def test_verify_theorem_pools_cold_warm_and_cleared(a1_2):
    # partners are drawn from pools enumerated once per (spec, l), in
    # enumerate_crystal's order, so a seed draws the same partners whether
    # the pools are cold, warm or rebuilt after clear_tables()
    def run():
        return verify_theorem(a1_2, (2, 1, 2), k=1, trials=40, seed=13, margin=0)

    clear_tables()
    try:
        assert memos("pools") == {}
        cold = run()
        assert list(memos("pools")) == [(A1_2,)]
        pools = dict(memo("pools", A1_2))
        assert sorted(pools) == [1, 2]
        for l, pool in pools.items():
            assert pool == tuple(enumerate_crystal(A1_2, l))
        warm = run()
        assert all(memo("pools", A1_2)[l] is pool for l, pool in pools.items())
        clear_tables()
        assert memos("pools") == {}
        assert run() == warm == cold
        assert cold["flagged"] and cold["passes"]
    finally:
        clear_tables()


def test_unreached_pairs_detected():
    clear_tables()
    try:
        # a structurally valid B_1 with no 0-arrow: its pair crystal reaches 3 of 4 pairs
        no_wrap = GraphProvider("A1", 1, 1, {(1, (1, 0)): (0, 1)})
        bk = Providers(AlgebraSpec("A1", 1), {1: no_wrap})
        with pytest.raises(UnreachedElement):
            get_table(bk, 1, 1)
        # a failed build stores nothing
        assert not any(memos("tables").values())
    finally:
        clear_tables()


@pytest.mark.parametrize("l, m", [(2, 1), (1, 2), (2, 3), (3, 2)])
def test_table_cache_keyed_per_backend(tmp_path, monkeypatch, a1_1, l, m):
    # a rewired but structurally valid B_2: f_1 jumps 11 = (2, 0) to 22 = (0, 2)
    rewired = Providers(AlgebraSpec("A1", 1), {2: GraphProvider(
        "A1", 1, 2, {(1, (2, 0)): (0, 2), (0, (0, 2)): (1, 1), (0, (1, 1)): (2, 0)})})
    # tables live in memory only; CRYSTAL_CA_CACHE_DIR is ignored, nothing is written
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("CRYSTAL_CA_CACHE_DIR", str(cache))
    clear_tables()
    try:
        # swaps share one memo, keyed per backend too: with the builtin pairs
        # warm, the rewired backend still reads its own (conflicting) table
        a, b = enumerate_crystal(A1_1, l)[0], enumerate_crystal(A1_1, m)[-1]
        pair = r_elementary(a1_1, a, b)
        assert r_elementary(a1_1, a, b) is pair
        with pytest.raises(RMatrixError):
            r_elementary(rewired, a, b)
        assert r_elementary(a1_1, a, b) is pair
        builtin = get_table(a1_1, l, m)
        with pytest.raises(RMatrixError):
            get_table(rewired, l, m)
        assert get_table(a1_1, l, m) is builtin
        clear_tables()
        assert get_table(a1_1, l, m) == builtin
        assert list(cache.iterdir()) == []
    finally:
        clear_tables()
