"""Swap tables, the factorized swap, side conditions, the verification suite."""
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystal_ca import (
    AlgebraSpec,
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
    get_table,
    in_domain,
    load_graph,
    make_backend,
    parse_element,
    parse_tensor,
    r_composite,
    r_elementary,
    r_factorized,
    sample_domain_element,
    sigma_letterwise,
    verify_theorem,
    yang_baxter_check,
)

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
    rng = random.Random(5)
    pool1 = enumerate_crystal(A1_2, 1)
    pool2 = enumerate_crystal(A1_2, 2)
    for _ in range(25):
        t = Tensor((rng.choice(pool2), rng.choice(pool1), rng.choice(pool2),
                    rng.choice(pool1)))
        for nleft in (1, 2, 3):
            r_composite(a1_2, t, nleft, check_orders=True)
        assert r_composite(a1_2, t, 2) == apply_r_at(a1_2, apply_r_at(
            a1_2, apply_r_at(a1_2, apply_r_at(a1_2, t, 1), 0), 2), 1)


def test_composite_bad_split(a1_2):
    t = parse_tensor(A1_2, "12.3")
    with pytest.raises(ValueError):
        r_composite(a1_2, t, 2)
    with pytest.raises(ValueError):
        r_composite(a1_2, t, 0)


def test_yang_baxter_spot(a1_1):
    cases, mismatches = yang_baxter_check(a1_1, (1, 2, 2))
    assert cases == 2 * 3 * 3 and mismatches == 0


def test_factorized_frozen_example(a1_3):
    t = parse_tensor(A1_3, "111223.344")
    image, trace = r_factorized(a1_3, t, k=3, margin=1)
    assert image.word() == "223.111344"
    assert r_composite(a1_3, t, 1) == image
    assert [s.m for s in trace.steps] == [4, 5, 6]
    assert [s.color for s in trace.steps] == [0, 3, 2]
    assert [s.state_after.word() for s in trace.steps] == [
        "112234.344",
        "112234.334",
        "112224.334",
    ]
    assert trace.states[0] == t
    assert trace.states[-1].word() == "112224.334"


def test_factorized_negative_control(a1_3):
    t = parse_tensor(A1_3, "11223.344")
    with pytest.raises(InapplicableError) as exc:
        r_factorized(a1_3, t, k=3, margin=1)
    assert exc.value.reason == "domain"
    with pytest.raises(InapplicableError) as exc:
        r_factorized(a1_3, t, k=3, margin=0)
    assert exc.value.reason == "orientation"
    assert exc.value.step == 4
    assert r_composite(a1_3, t, 1).word() == "223.11344"


def test_factorized_needs_two_factors(a1_3):
    with pytest.raises(ValueError):
        r_factorized(a1_3, Tensor((parse_element(A1_3, "112"),)))


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


def test_verify_theorem_jobs_deterministic(a1_2):
    one = verify_theorem(a1_2, (2, 1), k=2, trials=24, seed=3, jobs=1)
    two = verify_theorem(a1_2, (2, 1), k=2, trials=24, seed=3, jobs=2)
    assert one == two


def test_unreached_pairs_detected():
    clear_tables()
    try:
        empty = GraphProvider("A1", 1, 1, {})
        bk = Providers(AlgebraSpec("A1", 1), {1: empty})
        with pytest.raises(UnreachedElement):
            get_table(bk, 1, 1)
    finally:
        clear_tables()


def test_disk_cache_roundtrip(tmp_path, monkeypatch, a1_1):
    monkeypatch.setenv("CRYSTAL_CA_CACHE_DIR", str(tmp_path))
    clear_tables()
    table = dict(get_table(a1_1, 1, 2))
    path = tmp_path / "rtable_A1_1_builtin_1_2.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["payload"]["schema"] == 1
    clear_tables()
    assert dict(get_table(a1_1, 1, 2)) == table

    # a corrupted file is ignored and silently rebuilt
    path.write_text(path.read_text()[:40])
    clear_tables()
    assert dict(get_table(a1_1, 1, 2)) == table
    assert json.loads(path.read_text())["payload"]["schema"] == 1

    # a wrong digest is ignored too
    doc = json.loads(path.read_text())
    doc["sha256"] = "0" * 64
    path.write_text(json.dumps(doc))
    clear_tables()
    assert dict(get_table(a1_1, 1, 2)) == table
    clear_tables()


@pytest.mark.parametrize("l, m", [(2, 1), (1, 2), (2, 3), (3, 2)])
def test_table_cache_keyed_per_backend(tmp_path, monkeypatch, a1_1, l, m):
    # a rewired but structurally valid B_2: f_1 jumps 11 -> 22 directly
    path = tmp_path / "rewired.graph"
    path.write_text("A1 1 2\n11 1 22\n22 0 12\n12 0 11\n")
    rewired = Providers(AlgebraSpec("A1", 1), {2: load_graph(str(path), admit=False)})
    monkeypatch.setenv("CRYSTAL_CA_CACHE_DIR", str(tmp_path / "cache"))
    clear_tables()
    try:
        builtin = get_table(a1_1, l, m)
        with pytest.raises(RMatrixError):
            get_table(rewired, l, m)
        clear_tables()  # the disk copy of the builtin table is not handed over either
        with pytest.raises(RMatrixError):
            get_table(rewired, l, m)
        assert get_table(a1_1, l, m) == builtin
    finally:
        clear_tables()
