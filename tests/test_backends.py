"""Coordinate backend, graph files: parsing, structural checks, admission."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystal_ca import (
    AlgebraSpec,
    BackendMissing,
    BuiltinA1,
    CrystalElement,
    GraphError,
    GraphProvider,
    Providers,
    admission_errors,
    delta,
    enumerate_crystal,
    export_graph_text,
    load_graph,
    make_backend,
    parse_element,
)

A1_1 = AlgebraSpec("A1", 1)
A1_2 = AlgebraSpec("A1", 2)


def write_graph(tmp_path, text, name="g.graph"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_builtin_frozen_ops():
    bk = BuiltinA1(2)
    top = delta(A1_2, 4, "1")
    assert top.x == (4, 0, 0)
    assert bk.power(1, top, 1).x == (3, 1, 0)
    assert bk.power(2, top, 1) is None
    assert bk.power(0, top, 1) is None
    bot = delta(A1_2, 4, "3")
    assert bk.power(2, bot, -1).x == (0, 1, 3)
    assert bk.power(0, bot, 1).x == (1, 0, 3)
    assert bk.eps(0, top) == 4 and bk.phi(0, bot) == 4


def test_builtin_matches_definitions():
    bk = BuiltinA1(2)
    for el in enumerate_crystal(A1_2, 3):
        for i in A1_2.index_set:
            up, down = bk.power(i, el, -1), bk.power(i, el, 1)
            assert (up is None) == (bk.eps(i, el) == 0)
            assert (down is None) == (bk.phi(i, el) == 0)
            if up is not None:
                assert bk.power(i, up, 1) == el


@pytest.fixture(scope="module")
def exported_graphs(tmp_path_factory):
    """GraphProviders loaded from the exported coordinate rules, by (rank, l)."""
    root = tmp_path_factory.mktemp("graphs")
    out = {}
    for rank in (1, 2, 3):
        bk = make_backend(AlgebraSpec("A1", rank))
        for l in (1, 2, 3):
            out[rank, l] = load_graph(write_graph(root, export_graph_text(bk, l),
                                                  f"a1_{rank}_{l}.graph"))
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_power_matches_single_steps(exported_graphs, data):
    rank, l = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    spec = AlgebraSpec("A1", rank)
    el = data.draw(st.sampled_from(enumerate_crystal(spec, l)))
    n = data.draw(st.integers(-l - 1, l + 1))
    for bk in (BuiltinA1(rank), exported_graphs[rank, l], make_backend(spec)):
        for i in spec.index_set:
            want = el
            for _ in range(abs(n)):
                if want is not None:
                    want = bk.power(i, want, 1 if n > 0 else -1)
            got = bk.power(i, el, n)
            assert got == want
            if got is not None:
                assert CrystalElement(got.spec, got.l, got.x) == got


@pytest.mark.parametrize("edges,fragment", [
    ({(1, (2, 0)): (5, 5)}, r"\(5, 5\)"),
    ({(1, (3, 0)): (1, 1)}, r"\(3, 0\)"),
    ({(1, (2, 0)): (1, 1, 0)}, r"\(1, 1, 0\)"),
    ({(1, (2, -1)): (1, 0)}, r"\(2, -1\)"),
])
def test_graph_provider_validates_arrows(edges, fragment):
    with pytest.raises(GraphError, match=fragment):
        GraphProvider("A1", 1, 2, edges)


@pytest.mark.parametrize("l,edges,fragment", [
    # a 2-cycle on B_1 = {1 = (1, 0), 2 = (0, 1)}: a walk along it never ends
    (1, {(1, (1, 0)): (0, 1), (1, (0, 1)): (1, 0)}, "1-arrows form a cycle"),
    # B_2 = {11 = (2, 0), 12 = (1, 1), 22 = (0, 2)}
    (2, {(1, (2, 0)): (1, 1), (1, (0, 2)): (1, 1)}, r"two 1-arrows into \(1, 1\)"),
    (2, {(1, (2, 0)): (1, 1)}, "1 elements of B_2 unreached"),
])
def test_graph_provider_checks_structure(l, edges, fragment):
    # built directly, not from a file: the structure rules still hold
    with pytest.raises(GraphError, match=fragment):
        GraphProvider("A1", 1, l, edges)


def test_graph_provider_rejects_other_levels(tmp_path):
    provider = load_graph(write_graph(tmp_path, "A1 1 1\n1 1 2\n2 0 1\n"))
    other = parse_element(A1_1, "11")
    for query in (provider.eps, provider.phi):
        with pytest.raises(ValueError, match="graph for B_1 asked about a B_2"):
            query(1, other)
    with pytest.raises(ValueError, match="graph for B_1 asked about a B_2"):
        provider.power(1, other, 1)


def test_export_roundtrip(a1_2):
    text = export_graph_text(a1_2, 2)
    assert text == export_graph_text(a1_2, 2)
    assert text.splitlines()[0] == "A1 2 2"


def test_export_load_admission_roundtrip(tmp_path, a1_2):
    path = write_graph(tmp_path, export_graph_text(a1_2, 2))
    provider = load_graph(path)
    assert admission_errors(provider) == []
    bk = make_backend(A1_2, (path,))
    assert 2 in bk.graphs
    for el in enumerate_crystal(A1_2, 2):
        for i in A1_2.index_set:
            assert bk.f(i, el) == a1_2.f(i, el)
            assert bk.eps(i, el) == a1_2.eps(i, el)


def test_hand_built_two_node_graph(tmp_path):
    path = write_graph(tmp_path, "A1 1 1\n1 1 2\n2 0 1\n")
    provider = load_graph(path)
    one = parse_element(A1_1, "1")
    assert provider.power(1, one, 1).word() == "2"
    assert provider.power(1, one, -1) is None
    assert provider.phi(0, one) == 0 and provider.eps(0, one) == 1


def test_comments_and_blank_lines(tmp_path):
    text = "# two letters\n\nA1 1 1  # header\n1 1 2\n\n2 0 1 # wrap\n"
    provider = load_graph(write_graph(tmp_path, text))
    assert provider.l == 1


@pytest.mark.parametrize("text,fragment", [
    ("", "empty graph file"),
    ("A1 1\n", "header"),
    ("Z9 1 1\n", "unknown family"),
    ("A1 one 1\n", "must be integers"),
    ("A1 1 0\n", "must be positive"),
    ("A1 1 1\n1 1\n", "source color target"),
    ("A1 1 1\n1 x 2\n", "color must be an integer"),
    ("A1 1 1\n1 5 2\n", "outside 0..1"),
    ("A1 1 1\nz 1 2\n", "unexpected character"),
    ("A1 1 2\n11 1 12\n11 1 22\n", "second 1-arrow out of"),
    ("A1 1 2\n11 1 12\n22 1 12\n", "two 1-arrows into"),
    ("A1 1 2\n11 1 12\n12 1 11\n22 0 12\n", "form a cycle"),
    ("A1 1 2\n11 1 12\n", "unreached"),
])
def test_structural_rejections(tmp_path, text, fragment):
    with pytest.raises(GraphError, match=fragment):
        load_graph(write_graph(tmp_path, text))


def test_tampered_graph_fails_admission(tmp_path):
    # rewired 1-arrow: structurally legal, but the operator laws break
    text = "A1 1 2\n11 1 22\n22 0 12\n12 0 11\n"
    path = write_graph(tmp_path, text)
    with pytest.raises(GraphError, match="admission failed"):
        load_graph(path)
    # the same arrows on coordinates 11 = (2, 0), 12 = (1, 1), 22 = (0, 2)
    edges = {(1, (2, 0)): (0, 2), (0, (0, 2)): (1, 1), (0, (1, 1)): (2, 0)}
    assert admission_errors(GraphProvider("A1", 1, 2, edges)) != []
    # B_1 with its two colors swapped: structurally legal, and the first law
    # to fail is the delta chain's
    edges = {(0, (1, 0)): (0, 1), (1, (0, 1)): (1, 0)}
    errs = admission_errors(GraphProvider("A1", 1, 1, edges))
    assert errs[:2] == ["[upper] phi_1(delta[2]) != 0", "[upper] e-max_1 misses delta[1]"]


def test_make_backend_family_mismatch(tmp_path):
    path = write_graph(tmp_path, "A1 1 1\n1 1 2\n2 0 1\n")
    with pytest.raises(GraphError, match="need C1 rank 2"):
        make_backend(AlgebraSpec("C1", 2), (path,))


def test_make_backend_duplicate_level(tmp_path):
    path = write_graph(tmp_path, "A1 1 1\n1 1 2\n2 0 1\n")
    with pytest.raises(GraphError, match="duplicate graph"):
        make_backend(A1_1, (path, path))


def test_backend_missing_without_graphs():
    for family, letter in (("A2odd", "1"), ("B1", "3b")):
        spec = AlgebraSpec(family, 3)
        bk = make_backend(spec)
        assert not bk.covers(1)
        el = delta(spec, 1, letter)
        with pytest.raises(BackendMissing):
            bk.eps(1, el)


def test_builtin_only_queries_skip_dispatch(monkeypatch):
    bk = make_backend(A1_2)
    builtin = BuiltinA1(2)

    def no_dispatch(self, l):
        raise AssertionError("builtin-only queries went through provider_for")

    monkeypatch.setattr(Providers, "provider_for", no_dispatch)
    for el in enumerate_crystal(A1_2, 2):
        for i in A1_2.index_set:
            assert bk.eps(i, el) == builtin.eps(i, el)
            assert bk.phi(i, el) == builtin.phi(i, el)
            assert bk.e(i, el) == builtin.power(i, el, -1)
            assert bk.f(i, el) == builtin.power(i, el, 1)
            for n in (-2, 2):
                assert bk.power(i, el, n) == builtin.power(i, el, n)


def test_graph_backed_queries_dispatch_per_level(tmp_path, monkeypatch):
    path = write_graph(tmp_path, "A1 1 1\n1 1 2\n2 0 1\n")
    bk = make_backend(A1_1, (path,))
    seen = []
    dispatch = Providers.provider_for

    def spy(self, l):
        seen.append(l)
        return dispatch(self, l)

    monkeypatch.setattr(Providers, "provider_for", spy)
    one, three = delta(A1_1, 1, "1"), delta(A1_1, 3, "1")
    assert bk.f(1, one) == parse_element(A1_1, "2")
    assert bk.power(1, three, 2) == parse_element(A1_1, "122")
    assert bk.eps(1, one) == 0 and bk.phi(0, three) == 0
    assert seen == [1, 3, 1, 3]


def test_builtin_covers_every_level(a1_1):
    assert a1_1.covers(1) and a1_1.covers(17)


def test_graph_preferred_over_builtin(tmp_path, a1_1):
    # a registered graph serves its level; the coordinate rules serve the rest
    path = write_graph(tmp_path, "A1 1 1\n1 1 2\n2 0 1\n")
    bk = make_backend(A1_1, (path,))
    assert bk.provider_for(1) is bk.graphs[1]
    assert isinstance(bk.provider_for(3), BuiltinA1)
