"""Structure backends: where eps/phi/e/f on single elements come from.

The package computes the type A1 family directly from coordinates.  Every
other family is accepted through a crystal-graph file (one f-arrow per line).
A loaded graph is only admitted after structural checks (arrows form
color-wise partial matchings without cycles, node set is exactly B_l) and a
law suite tying it to the operator layer: the delta chain, the e-max chain,
the t-map closed form with injectivity, the Weyl realization of the diagram
automorphism, and S_i being an involution.
"""
from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field

from .algebra import FAMILIES, AlgebraSpec
from .crystal import (
    CrystalElement,
    FormatError,
    apply_e,
    delta,
    e_max,
    enumerate_crystal,
    parse_element,
    sigma_letterwise,
    sigma_via_weyl,
    t_closed,
    t_def,
    weyl_s,
)


class BackendMissing(RuntimeError):
    """No structure source covers the requested family/rank/capacity."""


class GraphError(ValueError):
    """A crystal-graph file failed validation; message says where and why."""


class BuiltinA1:
    """Coordinate rules for the A1 family: slot i feeds slot i-1 cyclically."""

    family = "A1"

    def __init__(self, rank: int):
        self.rank = rank
        self._m = rank + 1

    def eps(self, i: int, el: CrystalElement) -> int:
        return el.x[i]

    def phi(self, i: int, el: CrystalElement) -> int:
        return el.x[(i - 1) % self._m]

    def e(self, i: int, el: CrystalElement):
        if el.x[i] == 0:
            return None
        x = list(el.x)
        x[i] -= 1
        x[(i - 1) % self._m] += 1
        return CrystalElement(el.spec, el.l, tuple(x))

    def f(self, i: int, el: CrystalElement):
        j = (i - 1) % self._m
        if el.x[j] == 0:
            return None
        x = list(el.x)
        x[j] -= 1
        x[i] += 1
        return CrystalElement(el.spec, el.l, tuple(x))


class GraphProvider:
    """eps/phi/e/f looked up from an explicit arrow list for one B_l."""

    def __init__(self, family: str, rank: int, l: int,
                 f_edges: dict[tuple[int, tuple[int, ...]], tuple[int, ...]]):
        self.family = family
        self.rank = rank
        self.l = l
        self._f = f_edges
        self._e = {(i, dst): src for (i, src), dst in f_edges.items()}
        self.digest = hashlib.sha256(repr(sorted(f_edges.items())).encode()).hexdigest()
        self._eps_cache: dict[tuple[int, tuple[int, ...]], int] = {}
        self._phi_cache: dict[tuple[int, tuple[int, ...]], int] = {}

    def _walk(self, table, cache, i, x):
        key = (i, x)
        if key not in cache:
            n, cur = 0, x
            while (i, cur) in table:
                cur = table[(i, cur)]
                n += 1
            cache[key] = n
        return cache[key]

    def eps(self, i: int, el: CrystalElement) -> int:
        return self._walk(self._e, self._eps_cache, i, el.x)

    def phi(self, i: int, el: CrystalElement) -> int:
        return self._walk(self._f, self._phi_cache, i, el.x)

    def e(self, i: int, el: CrystalElement):
        dst = self._e.get((i, el.x))
        return None if dst is None else CrystalElement(el.spec, el.l, dst)

    def f(self, i: int, el: CrystalElement):
        dst = self._f.get((i, el.x))
        return None if dst is None else CrystalElement(el.spec, el.l, dst)


@dataclass
class Providers:
    """Per-capacity dispatch of the four structure queries.

    identity names the structure source ("builtin", or a digest of the graph
    files' arrows by capacity); caches of derived data such as R tables key
    on it, so one source's answers are never handed to another.
    """

    spec: AlgebraSpec
    graphs: dict[int, GraphProvider] = field(default_factory=dict)

    def __post_init__(self):
        self._builtin = BuiltinA1(self.spec.rank) if self.spec.family == "A1" else None
        if self.graphs:
            blob = ";".join(f"{l}:{g.digest}" for l, g in sorted(self.graphs.items()))
            self.identity = hashlib.sha256(blob.encode()).hexdigest()
        else:
            self.identity = "builtin"

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
        return self.provider_for(el.l).e(i, el)

    def f(self, i: int, el: CrystalElement):
        return self.provider_for(el.l).f(i, el)


# ---------------------------------------------------------------------------
# graph files


def load_graph(path: str, admit: bool = True) -> GraphProvider:
    """Read, validate and (by default) run the admission suite on a graph file."""
    with open(path, encoding="utf-8") as fh:
        provider = _parse_graph(fh, where=path)
    if admit:
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
    _check_structure(header, f_edges, where)
    return GraphProvider(*header, f_edges)


def _check_structure(header, f_edges, where):
    fam, rank, l = header
    spec = AlgebraSpec(fam, rank)
    targets_seen: set[tuple[int, tuple[int, ...]]] = set()
    for (color, _src), dst in f_edges.items():
        key = (color, dst)
        if key in targets_seen:
            raise GraphError(f"{where}: two {color}-arrows into {dst}")
        targets_seen.add(key)
    # no color may admit a cycle
    for color in spec.index_set:
        seen_done: set[tuple[int, ...]] = set()
        for (c, src) in list(f_edges):
            if c != color or src in seen_done:
                continue
            path = []
            cur = src
            on_path = set()
            while (color, cur) in f_edges and cur not in seen_done:
                if cur in on_path:
                    raise GraphError(f"{where}: {color}-arrows form a cycle at {cur}")
                on_path.add(cur)
                path.append(cur)
                cur = f_edges[(color, cur)]
            seen_done.update(path)
            seen_done.add(cur)
    nodes = {src for (_c, src) in f_edges} | set(f_edges.values())
    expected = {el.x for el in enumerate_crystal(spec, l)}
    missing = expected - nodes
    extra = nodes - expected
    if extra:
        raise GraphError(f"{where}: {len(extra)} nodes outside B_{l}")
    if missing:
        raise GraphError(f"{where}: {len(missing)} elements of B_{l} unreached by any arrow")


def export_graph(bk: Providers, l: int, fh) -> None:
    """Write the B_l arrow list in the loadable text format."""
    spec = bk.spec
    fh.write(f"{spec.family} {spec.rank} {l}\n")
    for el in enumerate_crystal(spec, l):
        for i in sorted(spec.index_set):
            out = bk.f(i, el)
            if out is not None:
                fh.write(f"{el.word()} {i} {out.word()}\n")


def export_graph_text(bk: Providers, l: int) -> str:
    buf = io.StringIO()
    export_graph(bk, l, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# admission


def admission_errors(provider: GraphProvider, cap: int = 200_000) -> list[str]:
    """Law checks a graph must pass before the package will use it."""
    errs: list[str] = []
    fam, rank, l = provider.family, provider.rank, provider.l
    for brace in ("upper", "lower"):
        spec = AlgebraSpec(fam, rank, brace)
        bk = Providers(spec, {l: provider})
        td = spec.translation_data()
        elements = enumerate_crystal(spec, l, cap)
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
        # t-map: definition matches the closed form and separates points
        seen: dict[tuple[int, ...], CrystalElement] = {}
        for el in elements:
            tv = t_def(bk, el)
            if tv != t_closed(el):
                errs.append(f"[{brace}] t({el.word()}) closed form mismatch")
                break
            if tv in seen:
                errs.append(f"[{brace}] t not injective: {el.word()} vs {seen[tv].word()}")
                break
            seen[tv] = el
        # diagram automorphism: Weyl chain form, letter form, intertwining
        for el in elements:
            if sigma_via_weyl(bk, el) != sigma_letterwise(el):
                errs.append(f"[{brace}] Weyl chain disagrees with sigma on {el.word()}")
                break
        for el in elements:
            bad = False
            for i in spec.index_set:
                lhs = apply_e(bk, i, el)
                rhs = apply_e(bk, spec.sigma_index(i), sigma_letterwise(el))
                if (lhs is None) != (rhs is None):
                    bad = True
                elif lhs is not None and sigma_letterwise(lhs) != rhs:
                    bad = True
                if bad:
                    errs.append(f"[{brace}] sigma does not intertwine e_{i} at {el.word()}")
                    break
            if bad:
                break
        # S_i is an involution
        for el in elements:
            bad = False
            for i in spec.index_set:
                if weyl_s(bk, i, weyl_s(bk, i, el)) != el:
                    errs.append(f"[{brace}] S_{i} not an involution at {el.word()}")
                    bad = True
                    break
            if bad:
                break
        if errs:
            return errs
    # a graph claiming to be A1 must agree with the coordinate rules
    if fam == "A1":
        spec = AlgebraSpec(fam, rank)
        builtin = BuiltinA1(rank)
        for el in enumerate_crystal(spec, l, cap):
            for i in spec.index_set:
                if provider.eps(i, el) != builtin.eps(i, el) or provider.phi(i, el) != builtin.phi(i, el):
                    errs.append(f"eps/phi disagree with coordinate rules at {el.word()}")
                    return errs
                if provider.f(i, el) != builtin.f(i, el) or provider.e(i, el) != builtin.e(i, el):
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
