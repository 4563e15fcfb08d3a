"""Field arithmetic, trace, primitive prime divisors, coset indices."""

import pytest

from rank3pls.gfield import (SubfieldView, coset_index, field_make, is_prime,
                             is_primitive_prime_divisor, multiplicative_order,
                             trace_to_subfield, _CONWAY)


def test_field_make_examples():
    assert field_make(2, 1).omega == 1
    F16 = field_make(2, 4)
    assert multiplicative_order_of_omega(F16) == 15
    F81 = field_make(3, 4)
    assert F81.pow(F81.omega, 80) == 1
    assert F81.pow(F81.omega, 40) != 1


def multiplicative_order_of_omega(F):
    t = F.omega
    k = 1
    while t != 1:
        t = F.mul(t, F.omega)
        k += 1
    return k


def test_field_make_rejects_bad_params():
    with pytest.raises(ValueError):
        field_make(6, 1)
    with pytest.raises(ValueError):
        field_make(2, 0)
    with pytest.raises(ValueError):
        field_make(2, 25)  # over the 2^20 bound


def test_every_table_entry_constructs():
    for p, a in _CONWAY:
        F = field_make(p, a)
        assert F.q == p**a


@pytest.mark.parametrize("p,a", [(2, 4), (3, 2), (5, 2), (3, 4), (2, 8)])
def test_multiplicative_and_frobenius_orbits(p, a):
    F = field_make(p, a)
    for x in range(1, F.q):
        assert F.pow(x, F.q - 1) == 1
    for x in range(F.q):
        y = x
        for _ in range(a):
            y = F.frob(y)
        assert y == x


@pytest.mark.parametrize("p,a", [(3, 2), (2, 4), (5, 2)])
def test_field_elem_arithmetic(p, a):
    F = field_make(p, a)
    w = F.omega
    for x in range(1, F.q):
        assert F.mul(x, F.inv(x)) == 1
        assert F.pow(x, -1) == F.inv(x)
    # distributivity spot checks
    for x in range(6):
        for y in range(6):
            assert F.mul(F.add(x, y), w) == F.add(F.mul(x, w), F.mul(y, w))


def test_trace_examples():
    F16 = field_make(2, 4)
    v = SubfieldView(F16, 2)
    assert trace_to_subfield(v, 0) == 0
    kernel = [x for x in range(16) if trace_to_subfield(v, x) == 0]
    assert len(kernel) == 4
    assert sorted(kernel) == sorted(v.embed(x) for x in range(4))
    F9 = field_make(3, 2)
    v9 = SubfieldView(F9, 1)
    ker9 = {x for x in range(9) if trace_to_subfield(v9, x) == 0}
    w2 = F9.pow(F9.omega, 2)
    assert ker9 == {F9.mul(w2, v9.embed(c)) for c in range(3)}


@pytest.mark.parametrize("p,a,a0", [(2, 4, 2), (3, 2, 1), (2, 8, 4), (5, 2, 1)])
def test_trace_linear_surjective_fibers(p, a, a0):
    F = field_make(p, a)
    v = SubfieldView(F, a0)
    from collections import Counter
    fibers = Counter(trace_to_subfield(v, x) for x in range(F.q))
    sub = field_make(p, a0)
    assert set(fibers) == set(range(sub.q))
    assert set(fibers.values()) == {sub.q}
    # additivity
    for x in range(0, F.q, 7):
        for y in range(0, F.q, 11):
            s = sub.add(trace_to_subfield(v, x), trace_to_subfield(v, y))
            assert trace_to_subfield(v, F.add(x, y)) == s


def test_ppd_examples():
    assert is_primitive_prime_divisor(5, 2, 4)
    assert not is_primitive_prime_divisor(3, 7, 2)
    for p in (3, 5, 7, 11, 13):
        assert is_primitive_prime_divisor(2, p, 1)


def test_ppd_agrees_with_bruteforce():
    for r in range(3, 100):
        if not is_prime(r):
            continue
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if p % r == 0:
                continue
            order = multiplicative_order(p, r)
            assert is_primitive_prime_divisor(r, p, r - 1) == (order == r - 1)


def test_coset_index_examples():
    F16 = field_make(2, 4)
    assert coset_index(F16, 5, 1) == 0
    assert coset_index(F16, 5, F16.pow(F16.omega, 7)) == 2
    F9 = field_make(3, 2)
    assert coset_index(F9, 2, F9.pow(F9.omega, 3)) == 1
    with pytest.raises(ValueError):
        coset_index(F16, 5, 0)
    with pytest.raises(ValueError):
        coset_index(F16, 7, 1)


@pytest.mark.parametrize("p,a,r", [(2, 4, 5), (3, 2, 2), (5, 2, 3), (3, 4, 5)])
def test_coset_index_constant_on_cosets_injective_across(p, a, r):
    F = field_make(p, a)
    from collections import defaultdict
    cosets = defaultdict(set)
    for x in range(1, F.q):
        cosets[coset_index(F, r, x)].add(x)
    assert len(cosets) == r
    wr = F.pow(F.omega, r)
    for i, xs in cosets.items():
        for x in xs:
            assert coset_index(F, r, F.mul(x, wr)) == i
    assert sum(len(v) for v in cosets.values()) == F.q - 1


def test_subfield_view_embedding():
    F = field_make(2, 8)
    v = SubfieldView(F, 4)
    sub = field_make(2, 4)
    # embedding is a field homomorphism
    for x in range(0, 16, 3):
        for y in range(0, 16, 5):
            assert v.embed(sub.mul(x, y)) == F.mul(v.embed(x), v.embed(y))
            assert v.embed(sub.add(x, y)) == F.add(v.embed(x), v.embed(y))
    assert all(v.contains(v.embed(x)) for x in range(16))
    assert all(v.project(v.embed(x)) == x for x in range(16))
