"""Kashiwara operators, tensor routing, Weyl operators, the automorphism,
and the t-map, against the coordinate backend."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystal_ca import (
    FAMILIES,
    AlgebraSpec,
    CrystalElement,
    Tensor,
    apply_e,
    apply_f,
    clear_tables,
    delta,
    e_max,
    enumerate_crystal,
    eps,
    f_max,
    make_backend,
    parse_element,
    parse_tensor,
    phi,
    sigma_letterwise,
    sigma_letterwise_pow,
    sigma_via_weyl,
    t_closed,
    t_def,
    weyl_s,
)
from crystal_ca.algebra import _MIN_RANK
from crystal_ca.crystal import t_failures

SPEC2 = AlgebraSpec("A1", 2)
SPEC3 = AlgebraSpec("A1", 3)


def elements(spec, l):
    return st.sampled_from(enumerate_crystal(spec, l))


def tensors(spec, shape):
    return st.tuples(*(elements(spec, l) for l in shape)).map(Tensor)


def test_eps_phi_closed_form(a1_3):
    u = parse_element(SPEC3, "111223")
    assert phi(a1_3, 0, u) == 0
    assert eps(a1_3, 0, u) == 3
    assert phi(a1_3, 1, u) == 3 and eps(a1_3, 1, u) == 2
    t = parse_tensor(SPEC3, "111223.344")
    assert eps(a1_3, 0, t) == 3
    assert phi(a1_3, 0, t) == 2


def test_apply_e_tensor_routing(a1_3):
    t = parse_tensor(SPEC3, "111223.344")
    assert apply_e(a1_3, 0, t).word() == "112234.344"


def test_null_semantics(a1_3):
    u = parse_element(SPEC3, "1111")
    assert apply_e(a1_3, 1, u) is None
    assert eps(a1_3, 1, u) == 0
    assert apply_f(a1_3, 3, u) is None


@settings(max_examples=150, deadline=None)
@given(elements(SPEC2, 3), st.integers(0, 2))
def test_inverse_pair(a1_2, b, i):
    bk = a1_2
    down = apply_f(bk, i, b)
    if down is not None:
        assert apply_e(bk, i, down) == b
    up = apply_e(bk, i, b)
    if up is not None:
        assert apply_f(bk, i, up) == b


@settings(max_examples=150, deadline=None)
@given(tensors(SPEC2, (2, 2)), st.integers(0, 2))
def test_eps_phi_count_iterations(a1_2, t, i):
    bk = a1_2
    count = 0
    cur = t
    while True:
        cur = apply_e(bk, i, cur)
        if cur is None:
            break
        count += 1
    assert count == eps(bk, i, t)
    count = 0
    cur = t
    while True:
        cur = apply_f(bk, i, cur)
        if cur is None:
            break
        count += 1
    assert count == phi(bk, i, t)


@settings(max_examples=150, deadline=None)
@given(elements(SPEC2, 2), elements(SPEC2, 3), st.integers(0, 2))
def test_two_factor_recursion(a1_2, b1, b2, i):
    bk = a1_2
    t = Tensor((b1, b2))
    e1, p1 = eps(bk, i, b1), phi(bk, i, b1)
    e2, p2 = eps(bk, i, b2), phi(bk, i, b2)
    assert phi(bk, i, t) == p2 + max(p1 - e2, 0)
    assert eps(bk, i, t) == e1 + max(e2 - p1, 0)


@settings(max_examples=100, deadline=None)
@given(tensors(SPEC2, (2, 1, 2)), st.integers(0, 2))
def test_weyl_involution_tensor(a1_2, t, i):
    bk = a1_2
    assert weyl_s(bk, i, weyl_s(bk, i, t)) == t


@settings(max_examples=100, deadline=None)
@given(elements(SPEC2, 2), elements(SPEC2, 3), st.integers(0, 2))
def test_weyl_commutes_with_transposition(a1_2, b1, b2, i):
    bk = a1_2
    lhs = weyl_s(bk, i, Tensor((b2, b1)))
    rhs = weyl_s(bk, i, Tensor((b1, b2)))
    assert lhs.factors == (rhs.factors[1], rhs.factors[0])


# Recursive reference for the tensor operators: head (x) tail, where e_i acts
# on the head iff phi_i(head) >= eps_i(tail) and f_i iff phi_i(head) > eps_i(tail).


def ref_eps_phi(bk, i, factors):
    e_acc, p_acc = bk.eps(i, factors[0]), bk.phi(i, factors[0])
    for f in factors[1:]:
        ef, pf = bk.eps(i, f), bk.phi(i, f)
        e_acc, p_acc = e_acc + max(ef - p_acc, 0), pf + max(p_acc - ef, 0)
    return e_acc, p_acc


def ref_apply(bk, i, factors, lower):
    if factors is None:
        return None
    op = bk.f if lower else bk.e
    head, tail = factors[0], factors[1:]
    if tail:
        p_head, e_tail = bk.phi(i, head), ref_eps_phi(bk, i, tail)[0]
        if not (p_head > e_tail or (p_head == e_tail and not lower)):
            rest = ref_apply(bk, i, tail, lower)
            return None if rest is None else (head,) + rest
    r = op(i, head)
    return None if r is None else (r,) + tail


def ref_power(bk, i, factors, n):
    for _ in range(abs(n)):
        factors = ref_apply(bk, i, factors, n > 0)
    return factors


REF_BACKENDS = {r: make_backend(AlgebraSpec("A1", r)) for r in (1, 2, 3)}
REF_POOLS = {(r, l): enumerate_crystal(AlgebraSpec("A1", r), l)
             for r in (1, 2, 3) for l in (1, 2, 3)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_matches_recursive_rule(data):
    rank = data.draw(st.integers(1, 3))
    bk = REF_BACKENDS[rank]
    shape = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    factors = tuple(data.draw(st.sampled_from(REF_POOLS[rank, l])) for l in shape)
    t = Tensor(factors)

    def tensor(fs):
        return None if fs is None else Tensor(fs)

    for i in bk.spec.index_set:
        e, p = ref_eps_phi(bk, i, factors)
        assert (eps(bk, i, t), phi(bk, i, t)) == (e, p)
        assert apply_e(bk, i, t) == tensor(ref_apply(bk, i, factors, False))
        assert apply_f(bk, i, t) == tensor(ref_apply(bk, i, factors, True))
        assert e_max(bk, i, t) == tensor(ref_power(bk, i, factors, -e))
        assert f_max(bk, i, t) == tensor(ref_power(bk, i, factors, p))
        assert weyl_s(bk, i, t) == tensor(ref_power(bk, i, factors, p - e))


def test_e_max_f_max(a1_3):
    u = parse_element(SPEC3, "111223")
    assert e_max(a1_3, 0, u).word() == "223444"
    assert eps(a1_3, 0, e_max(a1_3, 0, u)) == 0
    assert phi(a1_3, 1, f_max(a1_3, 1, u)) == 0


def test_weyl_fixed_point(a1_3):
    t = parse_tensor(SPEC3, "11223.344")
    for i in range(4):
        assert weyl_s(a1_3, i, t) == t


def test_sigma_letterwise_examples(a1_3):
    u = parse_element(SPEC3, "111223")
    assert sigma_letterwise(u).word() == "112444"
    assert sigma_via_weyl(a1_3, u).word() == "112444"
    a2 = AlgebraSpec("A2odd", 3)
    el = parse_element(a2, "1123331b")
    out = sigma_letterwise(el)
    assert out.get("1") == el.get("1b") and out.get("1b") == el.get("1")
    assert out.get("2") == el.get("2") and out.get("3") == el.get("3")
    c1 = AlgebraSpec("C1", 2)
    el = parse_element(c1, "1202b")
    assert sigma_letterwise(el) == el
    d1 = AlgebraSpec("D1", 4)
    el = parse_element(d1, "114b")
    out = sigma_letterwise(el)
    assert out.get("1b") == 2 and out.get("4") == 1 and out.get("4b") == 0


def test_sigma_via_weyl_k_independence(a1_2):
    for el in enumerate_crystal(SPEC2, 3):
        base = sigma_letterwise(el)
        for k in range(SPEC2.d + 1):
            assert sigma_via_weyl(a1_2, el, k) == base
    for k in (-1, SPEC2.d + 1):
        with pytest.raises(ValueError, match=f"^k must lie in 0..{SPEC2.d}, got {k}$"):
            sigma_via_weyl(a1_2, el, k)


def test_sigma_pow(a1_2):
    el = enumerate_crystal(SPEC2, 3)[7]
    order = SPEC2.sigma_order
    assert sigma_letterwise_pow(el, order) == el
    assert sigma_letterwise_pow(el, -1) == sigma_letterwise_pow(el, order - 1)
    assert sigma_letterwise_pow(sigma_letterwise_pow(el, 1), -1) == el
    # every family: images are valid elements of the same B_l, and sigma has its order
    for fam in FAMILIES:
        for rank in (_MIN_RANK[fam], _MIN_RANK[fam] + 1):
            spec = AlgebraSpec(fam, rank)
            for l in (1, 2, 3):
                for el in enumerate_crystal(spec, l):
                    out = sigma_letterwise(el)
                    assert CrystalElement(out.spec, out.l, out.x) == out
                    assert sigma_letterwise_pow(el, spec.sigma_order) == el


def test_sigma_pow_memo_matches_plain_map():
    # the stored powers agree with repeated one-step maps, and a memo keyed
    # without the brace would hand a lower-brace element an upper image
    clear_tables()
    for fam in FAMILIES:
        for brace in ("upper", "lower"):
            spec = AlgebraSpec(fam, _MIN_RANK[fam], brace)
            order = spec.sigma_order
            for l in (1, 2, 3):
                els = enumerate_crystal(spec, l)
                for power in range(-order, 2 * order + 1):
                    for el in els:
                        want = el
                        for _ in range(power % order):
                            want = sigma_letterwise(want)
                        got = sigma_letterwise_pow(el, power)
                        assert got == want and got.spec == spec
                        if power % order == 0:
                            assert got is el
                    t = Tensor(tuple(els[:3]))
                    assert sigma_letterwise_pow(t, power) == Tensor(
                        tuple(sigma_letterwise_pow(f, power) for f in t.factors))
    clear_tables()


def test_sigma_intertwines_operators(a1_2):
    for el in enumerate_crystal(SPEC2, 2):
        for i in SPEC2.index_set:
            lhs = apply_f(a1_2, i, el)
            rhs = apply_f(a1_2, SPEC2.sigma_index(i), sigma_letterwise(el))
            if lhs is None:
                assert rhs is None
            else:
                assert sigma_letterwise(lhs) == rhs


def test_delta_chain(a1_3):
    # S_{i_k} walks the extreme element along the letter sequence, as pure e-powers
    for spec, bk in ((SPEC3, a1_3),):
        l = 3
        for k in range(-3 * spec.d, 3 * spec.d + 1):
            prev = delta(spec, l, spec.letter_at(k - 1))
            i = spec.index_at(k)
            nxt = delta(spec, l, spec.letter_at(k))
            assert phi(bk, i, prev) == 0
            assert weyl_s(bk, i, prev) == nxt
            assert e_max(bk, i, prev) == nxt


def test_e_max_chain_terminal(a1_3):
    td = SPEC3.translation_data()
    top = delta(SPEC3, 2, td.a_seq[SPEC3.d])
    for el in enumerate_crystal(SPEC3, 2):
        cur = el
        for i in td.i_seq:
            cur = e_max(a1_3, i, cur)
        assert cur == top


def test_t_map(a1_3):
    u = parse_element(SPEC3, "111223")
    assert t_def(a1_3, u) == (1, 2, 3)
    assert t_closed(u) == (1, 2, 3)
    assert t_def(a1_3, delta(SPEC3, 5, SPEC3.letter_at(0))) == (0, 0, 0)
    # offset version starts the color chain later
    assert t_def(a1_3, u, 3) == (0, 1, 2)


def test_t_injective_exhaustive(a1_3):
    seen = {}
    for el in enumerate_crystal(SPEC3, 4):
        tv = t_def(a1_3, el)
        assert tv == t_closed(el)
        assert tv not in seen
        seen[tv] = el


def test_t_failures_reports_each_law(a1_2):
    class PhiOneTooHigh:
        def __getattr__(self, name):
            return getattr(a1_2, name)

        def phi(self, i, el):
            return a1_2.phi(i, el) + (i == 1)

    assert list(t_failures(a1_2, enumerate_crystal(SPEC2, 3))) == []
    el = parse_element(SPEC2, "12")
    assert list(t_failures(a1_2, [el, el])) == [
        {"element": "12", "check": "injectivity", "collides": "12"}]
    bad = list(t_failures(PhiOneTooHigh(), [el]))
    assert bad == [{"element": "12", "check": "closed-form",
                    "expected": list(t_closed(el)), "got": bad[0]["got"]}]
    assert bad[0]["got"] != bad[0]["expected"]


def test_weight_preserved_by_ops(a1_3):
    for el in enumerate_crystal(SPEC3, 2):
        for i in SPEC3.index_set:
            for out in (apply_e(a1_3, i, el), apply_f(a1_3, i, el),
                        weyl_s(a1_3, i, el)):
                if out is not None:
                    assert out.l == el.l and sum(out.x) == el.l


