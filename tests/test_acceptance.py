"""Acceptance gate: one criterion per test, one reported line per criterion.

Each criterion runs inside a timing guard with the stated wall-clock budget;
the verdict lines are printed in the terminal summary after the run.
"""
import itertools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import ACCEPTANCE
from crystal_ca import (
    AlgebraSpec,
    InapplicableError,
    enumerate_crystal,
    evolve_T,
    evolve_T_factorized,
    evolve_carrier,
    load_graph,
    make_backend,
    parse_element,
    parse_state,
    parse_tensor,
    r_composite,
    r_factorized,
    t_closed,
    t_def,
    verify_theorem,
    yang_baxter_check,
)
from crystal_ca.cli import main

ROWS = [
    "1112211211111111",
    "1111122121111111",
    "1111111212211111",
    "1111111121122111",
]


@contextmanager
def criterion(num, desc, budget):
    t0 = time.perf_counter()
    try:
        yield
    except pytest.skip.Exception as exc:
        ACCEPTANCE.append(f"SKIPPED criterion {num}: {desc} ({exc})")
        raise
    except BaseException:
        elapsed = time.perf_counter() - t0
        ACCEPTANCE.append(
            f"FAIL criterion {num}: {desc} ({elapsed:.2f}s, budget {budget:.0f}s)"
        )
        raise
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        ACCEPTANCE.append(
            f"FAIL criterion {num}: {desc} over budget ({elapsed:.2f}s > {budget:.0f}s)"
        )
        pytest.fail(f"criterion {num} exceeded its {budget:.0f}s budget: {elapsed:.2f}s")
    ACCEPTANCE.append(
        f"PASS criterion {num}: {desc} ({elapsed:.2f}s, budget {budget:.0f}s)"
    )


def test_criterion_01_worked_example_replay(a1_3):
    with criterion(1, "worked swap replay, offset 3", 1.0):
        spec = AlgebraSpec("A1", 3)
        t = parse_tensor(spec, "111223.344")
        image, states = r_factorized(a1_3, t, k=3, margin=1)
        assert [spec.index_at(3 + j) for j in range(1, len(states))] == [0, 3, 2]
        assert [st.word() for st in states[1:]] == [
            "112234.344", "112234.334", "112224.334",
        ]
        assert image.word() == "223.111344"
        assert r_composite(a1_3, t) == image


def test_criterion_02_negative_control(a1_3):
    with criterion(2, "out-of-domain control declines, oracle still answers", 1.0):
        spec = AlgebraSpec("A1", 3)
        t = parse_tensor(spec, "11223.344")
        with pytest.raises(InapplicableError) as exc:
            r_factorized(a1_3, t, k=3, margin=1)
        assert exc.value.reason == "domain"
        with pytest.raises(InapplicableError) as exc:
            r_factorized(a1_3, t, k=3, margin=0)
        assert exc.value.reason == "orientation" and exc.value.step == 4
        assert r_composite(a1_3, t).word() == "223.11344"


def test_criterion_03_line_evolution_figure(a1_1):
    with criterion(3, "two-soliton line replay, carrier plateau and trace", 1.0):
        spec = AlgebraSpec("A1", 1)
        state = parse_state(spec, 1, ".".join(ROWS[0]))
        cur = state
        for want in ROWS[1:]:
            cur = evolve_T_factorized(a1_1, cur, 1)
            assert cur.render(0, 15, sep="") == want
        ref, trace = evolve_carrier(a1_1, state, 3)
        assert [c.word() for c in trace] == [
            "111", "112", "122", "112", "111", "112", "111",
        ]
        for M in range(4, 9):
            out, _ = evolve_carrier(a1_1, state, M)
            assert out == ref


def test_criterion_04_factorization_theorem(a1_1, a1_2, a1_3):
    with criterion(4, "factorization theorem vs oracle, 540 trials", 60.0):
        ones = [(1,), (2,), (3,)]
        twos = [(2, 1), (2, 2), (1, 1)]
        threes = [(1, 2, 3), (3, 1, 2), (2, 3, 1)]
        total = 0
        for n, bk in ((1, a1_1), (2, a1_2), (3, a1_3)):
            spec = AlgebraSpec("A1", n)
            for k in range(spec.d + 1):
                idx = (n + k) % 3
                for shape in (ones[idx], twos[idx], threes[idx]):
                    report = verify_theorem(
                        bk, shape, k=k, trials=20,
                        seed=1000 * n + 10 * k + len(shape),
                    )
                    assert report["failures"] == [], report["failures"][:2]
                    assert report["flagged"] == 0
                    assert report["passes"] == 20
                    total += 20
        assert total >= 500


def test_criterion_05_yang_baxter(a1_1, a1_2):
    with criterion(5, "Yang-Baxter identity, exhaustive on small levels", 30.0):
        for sizes in itertools.product((1, 2), repeat=3):
            cases, mismatches = yang_baxter_check(a1_1, sizes)
            assert mismatches == 0
            assert cases == (sizes[0] + 1) * (sizes[1] + 1) * (sizes[2] + 1)
        for sizes in ((1, 1, 1), (2, 1, 1)):
            cases, mismatches = yang_baxter_check(a1_2, sizes)
            assert mismatches == 0


def test_criterion_06_t_map(a1_1, a1_2, a1_3):
    with criterion(6, "t-map closed form and injectivity, exhaustive", 10.0):
        for n, bk in ((1, a1_1), (2, a1_2), (3, a1_3)):
            spec = AlgebraSpec("A1", n)
            for l in range(1, 5):
                seen = set()
                for el in enumerate_crystal(spec, l):
                    tv = t_def(bk, el)
                    assert tv == t_closed(el)
                    assert tv not in seen
                    seen.add(tv)


def test_criterion_07_evolution_decomposition(tmp_path):
    with criterion(7, "evolution decomposition, 200 random lines, every offset", 60.0):
        total = 0
        for rank, seed in ((1, 4), (2, 5)):
            spec = AlgebraSpec("A1", rank)
            period = spec.d * spec.sigma_order
            assert 100 >= period  # every offset class occurs
            path = tmp_path / f"corollary_{rank}.json"
            code = main([
                "verify", "corollary", "--algebra", "A1", "--rank", str(rank),
                "--trials", "100", "--seed", str(seed),
                "--max-window", "8", "--max-cap", "3",
                "--emit-json", str(path),
            ])
            assert code == 0
            doc = json.loads(path.read_text())
            assert doc["passes"] == 100 and doc["failures"] == []
            total += doc["trials"]
        assert total >= 200


def test_criterion_08_column_transport(tmp_path):
    with criterion(8, "column transport replay, 500 sampled swaps", 30.0):
        total = 0
        for rank, l, seed in ((2, 2, 1), (3, 3, 2)):
            path = tmp_path / f"columns_{rank}.json"
            code = main([
                "verify", "columns", "--algebra", "A1", "--rank", str(rank),
                "--l", str(l), "--trials", "250", "--seed", str(seed),
                "--emit-json", str(path),
            ])
            assert code == 0
            doc = json.loads(path.read_text())
            assert doc["passes"] == 250 and doc["flagged"] == 0
            assert doc["failures"] == []
            total += doc["trials"]
        assert total >= 500


def test_criterion_09_soliton_phenomenology(a1_1):
    with criterion(9, "soliton speed, overtaking, conservation", 10.0):
        spec = AlgebraSpec("A1", 1)
        for length in range(1, 5):
            s = parse_state(spec, 1, ".".join("2" * length))
            out, _ = evolve_T(a1_1, s)
            assert out.window_start == s.window_start + length
            assert [b.word() for b in out.window] == ["2"] * length
        cur = parse_state(spec, 1, ".".join(ROWS[0]))
        dev, profile = cur.deviation(), cur.weight_profile()
        for _ in range(3):
            cur = evolve_T_factorized(a1_1, cur, 1)
            assert cur.deviation() == dev
            assert cur.weight_profile() == profile
        assert cur.render(0, 15, sep="") == ROWS[3]
        assert "".join(b.word() for b in cur.window) == "21122"


def _provided_graph_paths():
    paths = []
    env = os.environ.get("CRYSTAL_CA_GRAPHS", "")
    paths += [p for p in env.split(os.pathsep) if p]
    data = Path(__file__).parent / "data"
    paths += sorted(str(p) for p in data.glob("*.graph"))
    return paths


def test_criterion_10_twisted_family_replay():
    with criterion(10, "twisted-family replay from provided crystal graphs", 60.0):
        providers = [(p, load_graph(p)) for p in _provided_graph_paths()]
        a2 = [(p, pr) for p, pr in providers if pr.family == "A2odd"]
        if not a2:
            pytest.skip("no A2odd crystal graphs provided; criteria 1-9 "
                        "ran on coordinate-backed data only")
        rank = a2[0][1].rank
        spec = AlgebraSpec("A2odd", rank)
        bk = make_backend(spec, tuple(p for p, pr in a2 if pr.rank == rank))
        levels = sorted(bk.graphs)
        for l in levels:
            seen = set()
            for el in enumerate_crystal(spec, l):
                tv = t_def(bk, el)
                assert tv == t_closed(el)
                assert tv not in seen
                seen.add(tv)
        lo = levels[0]
        cases, mismatches = yang_baxter_check(bk, (lo, lo, lo))
        assert cases > 0 and mismatches == 0
        report = verify_theorem(bk, (lo,), k=0, trials=25, seed=0,
                                margin=1, M=levels[-1])
        assert report["failures"] == []
        state = parse_state(spec, 0, parse_element(spec, "1" * lo).word(),
                            pattern=(lo,))
        stepped = evolve_T_factorized(bk, state, 1)
        assert evolve_T_factorized(bk, stepped, -1) == state
        assert stepped.weight_profile() == state.weight_profile()
