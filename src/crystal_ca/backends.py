"""Structure backends: where eps, phi and power on single elements come from.

The package computes the type A1 family directly from coordinates.  Every
other family is accepted through a crystal-graph file (one f-arrow per line).
Every graph provider checks its arrow structure when it is built (arrows
form color-wise strings without cycles, node set is exactly B_l).  A loaded
graph is only admitted after a law suite tying it to the operator layer:
the delta chain, the e-max chain, the t-statistics matching their closed
form (which separates points), and the Weyl realization of the diagram
automorphism.  S_i needs no law of its own: eps and phi are positions on
the strings, so S_i sends an element to its mirror on its own string, and
twice to itself.
"""
from __future__ import annotations

from .algebra import FAMILIES, AlgebraSpec
from .crystal import (
    CrystalElement,
    FormatError,
    _check_rank_printable,
    apply_e,
    delta,
    e_max,
    enumerate_crystal,
    parse_element,
    sigma_letterwise,
    sigma_via_weyl,
    t_failures,
)


class BackendMissing(RuntimeError):
    """No structure source covers the requested family/rank/capacity."""


class GraphError(ValueError):
    """A crystal-graph file failed validation; message says where and why."""


class BuiltinA1:
    """A1 rule source, answering eps, phi and power from coordinates:
    slot i feeds slot i-1 cyclically."""

    family = "A1"

    def __init__(self, rank: int):
        self.rank = rank
        self._m = rank + 1

    def eps(self, i: int, el: CrystalElement) -> int:
        return el.x[i]

    def phi(self, i: int, el: CrystalElement) -> int:
        return el.x[(i - 1) % self._m]

    def power(self, i: int, el: CrystalElement, n: int):
        """f_i^n for n > 0, e_i^-n for n < 0: one move of |n| units between
        slots i-1 and i, or None when the source slot holds fewer."""
        if n > 0:
            src, dst = (i - 1) % self._m, i
        elif n < 0:
            src, dst, n = i, (i - 1) % self._m, -n
        else:
            return el
        if el.x[src] < n:
            return None
        x = list(el.x)
        x[src] -= n
        x[dst] += n
        return CrystalElement._trusted(el.spec, el.l, tuple(x))


class GraphProvider:
    """Rule source answering eps, phi and power from an arrow list for one B_l.

    The arrow structure is checked once, here, for every provider: each
    endpoint lies in B_l, no element has two arrows of one color coming in,
    each color's arrows form strings (no cycles), and every element of B_l
    has some arrow.  One walk down each string checks the last rule and
    tabulates eps and phi, so queries never walk and the elements that
    power returns are built without checks.
    """

    def __init__(self, family: str, rank: int, l: int,
                 f_edges: dict[tuple[int, tuple[int, ...]], tuple[int, ...]]):
        spec = AlgebraSpec(family, rank)
        nodes = {el.x for el in enumerate_crystal(spec, l)}
        e_edges: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
        for (i, src), dst in f_edges.items():
            for x in (src, dst):
                if not isinstance(x, tuple) or x not in nodes:
                    raise GraphError(f"arrow {(i, src)} -> {dst}: {x} is not an element "
                                     f"of {family} rank {rank} B_{l}")
            if (i, dst) in e_edges:
                raise GraphError(f"two {i}-arrows into {dst}")
            e_edges[i, dst] = src
        eps: dict[tuple[int, tuple[int, ...]], int] = {}
        phi: dict[tuple[int, tuple[int, ...]], int] = {}
        for i, head in f_edges:
            if (i, head) in e_edges:
                continue
            string = [head]
            while (i, string[-1]) in f_edges:
                string.append(f_edges[i, string[-1]])
            for k, x in enumerate(string):
                eps[i, x], phi[i, x] = k, len(string) - 1 - k
        for i, x in f_edges:
            if (i, x) not in phi:  # no string head leads here: x lies on a cycle
                raise GraphError(f"{i}-arrows form a cycle at {x}")
        unreached = nodes - {x for _i, x in phi}
        if unreached:
            raise GraphError(f"{len(unreached)} elements of B_{l} unreached by any arrow")
        self.family = family
        self.rank = rank
        self.l = l
        self._f = f_edges
        self._e = e_edges
        self._eps = eps
        self._phi = phi

    def _check_level(self, el: CrystalElement):
        if el.l != self.l:
            raise ValueError(f"graph for B_{self.l} asked about a B_{el.l} element")

    def eps(self, i: int, el: CrystalElement) -> int:
        self._check_level(el)
        return self._eps.get((i, el.x), 0)

    def phi(self, i: int, el: CrystalElement) -> int:
        self._check_level(el)
        return self._phi.get((i, el.x), 0)

    def power(self, i: int, el: CrystalElement, n: int):
        """f_i^n for n > 0, e_i^-n for n < 0: |n| arrows walked, one element
        built at the end, or None when the walk runs out of arrows."""
        self._check_level(el)
        if n == 0:
            return el
        table = self._f if n > 0 else self._e
        x = el.x
        for _ in range(abs(n)):
            x = table.get((i, x))
            if x is None:
                return None
        return CrystalElement._trusted(el.spec, el.l, x)


class Providers:
    """Per-capacity dispatch of the structure queries.

    Rule sources answer eps, phi and power; e and f are powers -1 and 1.
    identity names the structure source: "builtin", or the frozenset of
    (capacity, graph provider) items.  Caches of derived data such as R
    tables key on it and so keep the providers alive: no identity is reused
    while an entry lives, and one source's answers are never handed to
    another (two loads of one file are two sources).  Without graph files
    the builtin rules answer every capacity, so the queries are bound to
    them directly and skip provider_for.
    """

    def __init__(self, spec: AlgebraSpec, graphs: dict[int, GraphProvider] | None = None):
        self.spec = spec
        self.graphs = {} if graphs is None else graphs
        self._builtin = BuiltinA1(spec.rank) if spec.family == "A1" else None
        if self.graphs:
            self.identity = frozenset(self.graphs.items())
        else:
            self.identity = "builtin"
            b = self._builtin
            if b is not None:
                self.eps, self.phi, self.power = b.eps, b.phi, b.power

    def provider_for(self, l: int):
        if l in self.graphs:
            return self.graphs[l]
        if self._builtin is not None:
            return self._builtin
        raise BackendMissing(
            f"no backend for {self.spec.family} rank {self.spec.rank} B_{l}; "
            f"supply a crystal-graph file"
        )

    def covers(self, l: int) -> bool:
        return self._builtin is not None or l in self.graphs

    def eps(self, i: int, el: CrystalElement) -> int:
        return self.provider_for(el.l).eps(i, el)

    def phi(self, i: int, el: CrystalElement) -> int:
        return self.provider_for(el.l).phi(i, el)

    def e(self, i: int, el: CrystalElement):
        return self.power(i, el, -1)

    def f(self, i: int, el: CrystalElement):
        return self.power(i, el, 1)

    def power(self, i: int, el: CrystalElement, n: int):
        return self.provider_for(el.l).power(i, el, n)


# ---------------------------------------------------------------------------
# graph files


def load_graph(path: str) -> GraphProvider:
    """Read, validate and run the admission suite on a graph file."""
    try:
        with open(path, encoding="utf-8") as fh:
            provider = _parse_graph(fh, where=path)
    except UnicodeDecodeError as err:
        raise GraphError(f"{path}: not UTF-8 text: {err}") from None
    errors = admission_errors(provider)
    if errors:
        raise GraphError(f"{path}: admission failed: " + "; ".join(errors[:5]))
    return provider


def _parse_graph(fh, where: str) -> GraphProvider:
    header = None
    f_edges: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
    spec = None
    l = 0
    for ln, raw in enumerate(fh, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 3:
                raise GraphError(f"{where}:{ln}: header must be 'family rank l'")
            fam, rank_s, l_s = parts
            if fam not in FAMILIES:
                raise GraphError(f"{where}:{ln}: unknown family {fam!r}")
            try:
                rank, l = int(rank_s), int(l_s)
            except ValueError:
                raise GraphError(f"{where}:{ln}: rank and l must be integers") from None
            try:
                spec = AlgebraSpec(fam, rank)
                _check_rank_printable(spec)  # the arrows are written in letters
            except ValueError as err:
                raise GraphError(f"{where}:{ln}: {err}") from None
            if l < 1:
                raise GraphError(f"{where}:{ln}: l must be positive")
            header = (fam, rank, l)
            continue
        if len(parts) != 3:
            raise GraphError(f"{where}:{ln}: expected 'source color target'")
        src_s, color_s, dst_s = parts
        try:
            color = int(color_s)
        except ValueError:
            raise GraphError(f"{where}:{ln}: color must be an integer") from None
        if color not in spec.index_set:
            raise GraphError(f"{where}:{ln}: color {color} outside 0..{spec.rank}")
        try:
            src = parse_element(spec, src_s, l)
            dst = parse_element(spec, dst_s, l)
        except (FormatError, ValueError) as err:
            raise GraphError(f"{where}:{ln}: {err}") from None
        key = (color, src.x)
        if key in f_edges:
            raise GraphError(f"{where}:{ln}: second {color}-arrow out of {src_s}")
        f_edges[key] = dst.x
    if header is None:
        raise GraphError(f"{where}: empty graph file")
    try:
        return GraphProvider(*header, f_edges)
    except GraphError as err:
        raise GraphError(f"{where}: {err}") from None


def export_graph_text(bk: Providers, l: int) -> str:
    """The B_l arrow list in the loadable text format."""
    spec = bk.spec
    lines = [f"{spec.family} {spec.rank} {l}\n"]
    for el in enumerate_crystal(spec, l):
        for i in spec.index_set:
            out = bk.f(i, el)
            if out is not None:
                lines.append(f"{el.word()} {i} {out.word()}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# admission


def admission_errors(provider: GraphProvider) -> list[str]:
    """Law checks a graph must pass before the package will use it."""
    errs: list[str] = []
    fam, rank, l = provider.family, provider.rank, provider.l
    for brace in ("upper", "lower"):
        spec = AlgebraSpec(fam, rank, brace)
        bk = Providers(spec, {l: provider})
        td = spec.translation_data()
        elements = enumerate_crystal(spec, l)
        # the delta chain: S_{i_k} carries delta[a_{k-1}] to delta[a_k], by e-powers
        cur = delta(spec, l, td.a_seq[0])
        for k in range(1, spec.d + 1):
            i = td.i_seq[k - 1]
            want = delta(spec, l, td.a_seq[k])
            if bk.phi(i, cur) != 0:
                errs.append(f"[{brace}] phi_{i}(delta[{td.a_seq[k-1]}]) != 0")
            got = e_max(bk, i, cur)
            if got != want:
                errs.append(f"[{brace}] e-max_{i} misses delta[{td.a_seq[k]}]")
                break
            cur = got
        # every element drains to the same extreme point
        top = delta(spec, l, td.a_seq[spec.d])
        for el in elements:
            cur = el
            for i in td.i_seq:
                cur = e_max(bk, i, cur)
            if cur != top:
                errs.append(f"[{brace}] e-max chain from {el.word()} misses the extreme point")
                break
        # t-map: definition matches the closed form, which separates points
        for bad in t_failures(bk, elements):
            errs.append(f"[{brace}] t({bad['element']}) closed form mismatch")
            break
        # diagram automorphism: Weyl chain form, letter form, intertwining
        for el in elements:
            if sigma_via_weyl(bk, el) != sigma_letterwise(el):
                errs.append(f"[{brace}] Weyl chain disagrees with sigma on {el.word()}")
                break
        pairs = [(i, el) for el in elements for i in spec.index_set]
        for i, el in pairs:
            lhs = apply_e(bk, i, el)
            rhs = apply_e(bk, spec.sigma_index(i), sigma_letterwise(el))
            if (None if lhs is None else sigma_letterwise(lhs)) != rhs:
                errs.append(f"[{brace}] sigma does not intertwine e_{i} at {el.word()}")
                break
        if errs:
            return errs
    # a graph claiming to be A1 must agree with the coordinate rules
    if fam == "A1":
        builtin = BuiltinA1(rank)
        for i, el in pairs:
            if provider.eps(i, el) != builtin.eps(i, el) or provider.phi(i, el) != builtin.phi(i, el):
                errs.append(f"eps/phi disagree with coordinate rules at {el.word()}")
                return errs
            if any(provider.power(i, el, n) != builtin.power(i, el, n) for n in (1, -1)):
                errs.append(f"arrows disagree with coordinate rules at {el.word()}")
                return errs
    return errs


def make_backend(spec: AlgebraSpec, graph_paths: tuple[str, ...] = ()) -> Providers:
    """Assemble the dispatch bundle from the builtin rules plus graph files."""
    graphs: dict[int, GraphProvider] = {}
    for path in graph_paths:
        provider = load_graph(path)
        if (provider.family, provider.rank) != (spec.family, spec.rank):
            raise GraphError(
                f"{path}: graph is {provider.family} rank {provider.rank}, "
                f"need {spec.family} rank {spec.rank}"
            )
        if provider.l in graphs:
            raise GraphError(f"{path}: duplicate graph for B_{provider.l}")
        graphs[provider.l] = provider
    return Providers(spec, graphs)
