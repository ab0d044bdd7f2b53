"""One harness for the line dynamics.  An engine maps (backend, state) to
the state one step later, or to None on a line it does not apply to; a row
is one backend.  Every engine runs on every line of every row: a family
joins by getting a row, an evolution by getting an engine."""
import random

import pytest

import crystal_ca
from crystal_ca import (AlgebraSpec, AutomatonState, BackendMissing, evolve_T,
                        evolve_T_factorized, evolve_carrier, evolve_fine,
                        export_graph_text, from_counts, make_backend)
from crystal_ca.rmatrix import has_closed_form

from conftest import random_state


def move_balls(state, colors=None):
    """The ball-moving algorithm (Takahashi-Satsuma 1990; capacities after
    Takahashi-Matsukidaira 1997), a reference sharing nothing with R or the
    Weyl operators.  The background letter is 1 and a box's 1s are its
    vacancies.  For each color in turn, every ball of that color moves once,
    leftmost first, to the nearest box strictly to its right holding a 1.
    The colors n+1 down to 2, the default, make one time step."""
    spec = state.spec
    colors = [str(c) for c in range(spec.rank + 1, 1, -1)] if colors is None else colors
    boxes = [{a: b.get(a) for a in spec.word_letters} for b in state.window]
    caps = [b.l for b in state.window]
    j = state.window_start + len(boxes)
    for _ in range(state.deviation() + 1):  # room for every ball to land
        caps.append(state.capacity_at(j))
        boxes.append({a: 0 for a in spec.word_letters} | {"1": caps[-1]})
        j += 1
    for c in colors:
        for p in [p for p, box in enumerate(boxes) for _ in range(box[c])]:
            q = next(q for q in range(p + 1, len(boxes)) if boxes[q]["1"])
            boxes[p][c] -= 1
            boxes[p]["1"] += 1
            boxes[q]["1"] -= 1
            boxes[q][c] += 1
    sites = tuple(from_counts(spec, box, l) for box, l in zip(boxes, caps))
    return AutomatonState(spec, state.k, state.window_start, sites, state.pattern)


ENGINES = {
    "evolve_T": lambda bk, s: evolve_T(bk, s)[0],
    "evolve_carrier(M)": lambda bk, s: evolve_carrier(bk, s, evolve_T(bk, s)[1])[0],
    "evolve_carrier(2M)": lambda bk, s: evolve_carrier(bk, s, 2 * evolve_T(bk, s)[1])[0],
    "evolve_T_factorized": lambda bk, s: evolve_T_factorized(bk, s, 1),
    "evolve_fine": lambda bk, s: evolve_fine(bk, s, s.k + s.spec.d),
    "move_balls": lambda bk, s: (move_balls(s) if s.spec.family == "A1"
                                 and s.background_letter == "1" else None),
}

# (family, rank, graph-backed); each family but A1 at its minimum rank
ROWS = ([("A1", n, False) for n in (1, 2, 3, 4)] + [("A1", n, True) for n in (1, 2)]
        + [("A2odd", 3, False), ("A2even", 2, False), ("B1", 3, False),
           ("C1", 2, False), ("D1", 4, False), ("D2", 2, False)])


@pytest.fixture(scope="session")
def graph_paths(tmp_path_factory):
    """B_1..B_3 of A1 ranks 1 and 2, exported from the coordinate rules."""
    folder = tmp_path_factory.mktemp("graphs")
    for rank, l in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]:
        bk = make_backend(AlgebraSpec("A1", rank))
        (folder / f"{rank}-{l}.graph").write_text(export_graph_text(bk, l))
    return {rank: sorted(map(str, folder.glob(f"{rank}-*.graph"))) for rank in (1, 2)}


def check_line(bk, s):
    """Every engine that applies gives one step and keeps the invariants."""
    want, M = evolve_T(bk, s)
    # the one infinite pass reports the capacity it proves large enough
    assert not has_closed_form(bk) or M == s.deviation() + max(s.pattern), s
    for name, step in ENGINES.items():
        assert step(bk, s) in (None, want), (name, s)
    assert (want.deviation(), want.weight_profile()) == (s.deviation(), s.weight_profile())
    assert evolve_T_factorized(bk, want, -1) == s, s
    return want


@pytest.mark.parametrize("family, rank, graphs", ROWS,
                         ids=[f"{f}-{n}{'-graphs' * g}" for f, n, g in ROWS])
def test_engines_agree(family, rank, graphs, graph_paths):
    spec = AlgebraSpec(family, rank)
    bk = make_backend(spec, graph_paths[rank] if graphs else ())
    try:
        bk.provider_for(1)
    except BackendMissing as err:
        pytest.skip(str(err))
    rng = random.Random(400 + rank)
    for pattern in [(1,), (2,), (3,), (2, 1), (1, 2, 3)]:
        for k in range(spec.d * spec.sigma_order):
            for start in (-3, 0, 1):
                check_line(bk, random_state(spec, rng, pattern, k, start, rng.randint(1, 8)))
    if family != "A1":
        return  # the ball-moving reference is written for A1 only
    # the ball-moving grid, k = n: moving only the j largest colors is the
    # fine step at n + j, so each raising sweep moves the balls of one color
    rng, ascending_differs = random.Random(70 + rank), 0
    colors = [str(c) for c in range(rank + 1, 1, -1)]  # the default order
    for pattern in [(1,), (2,), (2, 1)]:
        for _ in range(40):
            s = random_state(spec, rng, pattern, rank, rng.randint(-3, 3), rng.randint(1, 10))
            moved = check_line(bk, s)
            for j in range(rank):
                assert move_balls(s, colors[:j]) == evolve_fine(bk, s, rank + j), (s, j)
            ascending_differs += move_balls(s, colors[::-1]) != moved
    assert (ascending_differs > 0) == (rank > 1)  # color order matters from two on


def test_every_evolution_is_an_engine():
    exported = {name for name in vars(crystal_ca) if name.startswith("evolve_")}
    assert exported <= {name.split("(")[0] for name in ENGINES}
