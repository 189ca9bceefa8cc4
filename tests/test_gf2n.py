"""Field arithmetic and polynomial solvers."""

import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import bctlab
from bctlab import (
    DEFAULT_REDUCTION,
    FieldSpec,
    cubic_roots,
    find_omega,
    is_irreducible,
    make_field,
    parse_field,
    quartic_has_four_roots,
    quartic_roots,
    solve_artin_schreier,
    solve_quadratic,
)

from conftest import field_mul_oracle, gf2_polymod


# -- defaults and construction ----------------------------------------------------


def _lowest_weight_irreducible(n):
    # independent re-derivation: minimal weight, then smallest encoding
    for w in range(3, n + 2, 2):
        candidates = sorted(
            (1 << n) | 1 | sum(1 << m for m in mids)
            for mids in combinations(range(1, n), w - 2)
        )
        for p in candidates:
            for q in range(2, 1 << (n // 2 + 1)):
                if gf2_polymod(p, q) == 0:
                    break
            else:
                return p
    raise AssertionError(f"no irreducible of degree {n}")


def test_default_reductions_match_brute_force_derivation():
    for n in range(2, 17):
        assert DEFAULT_REDUCTION[n] == _lowest_weight_irreducible(n)


@pytest.mark.parametrize("poly, irreducible", [(0, False), (1, False), (2, True), (3, True)],
                         ids=["zero", "degree 0", "x", "x + 1"])
def test_is_irreducible_below_degree_two(poly, irreducible):
    assert is_irreducible(poly) is irreducible


def test_make_field_examples():
    assert make_field(3).reduction == 0xB
    with pytest.raises(ValueError):
        make_field(1)
    with pytest.raises(ValueError):
        make_field(17)
    assert is_irreducible(make_field(8).reduction)


def test_field_spec_rejects_bad_reductions():
    with pytest.raises(ValueError):
        FieldSpec(4, 0x15)  # x^4+x^2+1 = (x^2+x+1)^2, reducible
    with pytest.raises(ValueError):
        FieldSpec(4, 0x7)  # wrong degree
    with pytest.raises(ValueError):
        FieldSpec(4, 0x18)  # x^4+x^3, divisible by x


def test_alternate_irreducible_accepted():
    alt = FieldSpec(4, 0x19)  # x^4 + x^3 + 1
    assert alt != make_field(4)
    assert alt.mul(2, 8) == 0x9  # x * x^3 = x^4 = x^3 + 1


def test_label_round_trip():
    spec = make_field(6)
    assert spec.label() == "6:43"
    assert parse_field("6:43") == spec
    assert parse_field("3:b") == make_field(3)
    with pytest.raises(ValueError):
        parse_field("6")
    with pytest.raises(ValueError):
        parse_field("4:zz")


def test_default_fields_are_shared_and_other_reductions_are_not():
    for n in range(2, 17):
        assert make_field(n) is make_field(n)
        assert make_field(np.int64(n)) is make_field(n) is make_field(n=n)
    alt = parse_field("5:29")  # x^5 + x^3 + 1, irreducible
    assert alt is not make_field(5) and alt != make_field(5)
    assert parse_field("5:29") is not alt  # parse_field keeps no instance
    assert FieldSpec(5) is not make_field(5)


def test_shared_field_holds_python_ints():
    # the instance make_field keeps serves every later caller, whose JSON
    # writers print spec.n: a first call with a numpy integer must not leave
    # a numpy integer there. Checked in a fresh interpreter, where the call
    # with np.int64(7) is the one that builds the field
    script = (
        "import json, numpy as np; from bctlab import FieldSpec, make_field; "
        "first = make_field(np.int64(7)); spec = FieldSpec(np.int64(5), np.int64(0x25)); "
        "print(json.dumps([first.n, first.size, make_field(7).n, spec.n, spec.reduction]))"
    )
    src = str(Path(bctlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [7, 128, 7, 5, 0x25]


def test_shared_field_arrays_are_read_only():
    spec = make_field(6)
    log, exp = spec._tables()
    reps, sizes = spec._shift_orbits(9, True)  # U of order 9 and squaring
    for arr in (log, exp, reps, sizes, spec._as_pre):
        with pytest.raises(ValueError):
            arr[1] = 0
    assert spec._shift_orbits(9, True)[0] is reps  # computed once


def test_shift_orbits_call_tables_once_cold_or_warm(monkeypatch):
    # the count of _tables calls must not depend on whether a field's
    # orbits are kept already (the benchmark's traced runs repeat it exactly)
    spec, calls = FieldSpec(8), []
    tables = FieldSpec._tables

    def counted(self):
        calls.append(1)
        return tables(self)

    monkeypatch.setattr(FieldSpec, "_tables", counted)
    cold = spec._shift_orbits(17, False)
    assert len(calls) == 1
    assert spec._shift_orbits(17, False) is cold and len(calls) == 2


def test_artin_schreier_preimages_need_no_log_tables():
    # _as_pre, kept on a shared field, calls no _tables, so a first use and a
    # later one count the same _tables calls
    spec = FieldSpec(7)
    xs = np.arange(spec.size)
    pre = spec._as_pre
    assert spec._log is None
    solvable = pre < spec.size
    assert np.array_equal(spec.mul_vec(pre[solvable], pre[solvable]) ^ pre[solvable],
                          xs[solvable])
    assert solvable.sum() == spec.size // 2


# -- multiplication -----------------------------------------------------------------


def test_mul_identity_and_zero():
    spec = make_field(5)
    for x in range(spec.size):
        assert spec.mul(x, 1) == x
        assert spec.mul(x, 0) == 0


def test_mul_example_gf8():
    spec = make_field(3)
    assert spec.mul(0b010, 0b100) == 0b011  # x * x^2 = x^3 = x + 1
    assert spec.mul(0b010, 0b100) == field_mul_oracle(spec, 0b010, 0b100)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mul_matches_long_division_oracle_exhaustive(n):
    spec = make_field(n)
    for x in range(spec.size):
        for y in range(spec.size):
            assert spec.mul(x, y) == field_mul_oracle(spec, x, y)


def test_mul_matches_long_division_oracle_sampled(rng):
    for n in (8, 12, 16):
        spec = make_field(n)
        for _ in range(300):
            x, y = int(rng.integers(0, spec.size)), int(rng.integers(0, spec.size))
            assert spec.mul(x, y) == field_mul_oracle(spec, x, y)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_field_axioms_exhaustive(n):
    spec = make_field(n)
    N = spec.size
    xs = np.arange(N, dtype=np.int64)
    # commutativity on the full pair grid
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    assert np.array_equal(spec.mul_vec(X, Y), spec.mul_vec(Y, X))
    # associativity and distributivity on the full triple grid
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    assert np.array_equal(
        spec.mul_vec(spec.mul_vec(X, Y), Z), spec.mul_vec(X, spec.mul_vec(Y, Z))
    )
    assert np.array_equal(
        spec.mul_vec(X, Y ^ Z), spec.mul_vec(X, Y) ^ spec.mul_vec(X, Z)
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_vector_ops_match_scalar_exhaustive(n):
    spec = make_field(n)
    xs = np.arange(spec.size, dtype=np.int64)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    scalar = np.array(
        [[spec.mul(int(x), int(y)) for y in range(spec.size)] for x in range(spec.size)]
    )
    assert np.array_equal(spec.mul_vec(X, Y), scalar)
    nz = xs[1:]
    assert np.array_equal(spec.inv_vec(nz), np.array([spec.inv(int(x)) for x in nz]))
    assert np.array_equal(spec.trace_vec(xs), np.array([spec.trace(int(x)) for x in xs]))
    for e in (0, 1, 2, 3, spec.size - 2, spec.size - 1, 2 * spec.size + 5):
        assert np.array_equal(
            spec.pow_vec(xs, e), np.array([spec.pow(int(x), e) for x in xs])
        )


@pytest.mark.parametrize("n", range(2, 17))
def test_log_tables_match_scalar_loop(n):
    # exp[i] = g^i by one scalar mul per element, log its inverse
    spec = FieldSpec(n, DEFAULT_REDUCTION[n])
    g, x, ref = spec.primitive_element, 1, []
    for _ in range(spec.size - 1):
        ref.append(x)
        x = spec.mul(x, g)
    log, exp = spec._tables()
    assert exp.tolist() == ref
    assert log[0] == 0 and np.array_equal(log[exp], np.arange(spec.size - 1))


def test_primitive_element_is_the_least_generator():
    # the order of each g by repeated multiplication, never by the factors
    # of 2^n - 1 that element_order uses
    for n in range(2, 13):
        spec = make_field(n)
        for g in range(2, spec.size):
            x, k = g, 1
            while x != 1:
                x, k = spec.mul(x, g), k + 1
            if k == spec.size - 1:
                break
        assert spec.primitive_element == g, n


def test_inv_vec_refuses_zero():
    spec = make_field(5)
    with pytest.raises(ZeroDivisionError):
        spec.inv_vec([3, 0, 7])
    with pytest.raises(ZeroDivisionError):
        spec.inv_vec(0)


def test_mul_by_scalar_matches_mul():
    spec = make_field(7)
    xs = np.arange(spec.size, dtype=np.int64)
    for y in (0, 1, 2, 0x53, spec.size - 1):
        assert spec._mul_by(xs, y).tolist() == [spec.mul(int(x), y) for x in xs]


# -- inversion, powers, trace, order --------------------------------------------------


def test_inv_examples():
    spec = make_field(3)
    assert spec.inv(1) == 1
    # exhaustive-search oracle
    sought = [y for y in range(8) if spec.mul(0b010, y) == 1]
    assert sought == [0b101]
    assert spec.inv(0b010) == 0b101


@pytest.mark.parametrize("op,args", [
    (FieldSpec.mul, (-1, 3)),  # a negative factor never shifts down to 0
    (FieldSpec.mul, (3, -1)),
    (FieldSpec.mul, (32, 3)),
    (FieldSpec.mul, (3, 32)),
    (FieldSpec.pow, (-1, 0)),
    (FieldSpec.pow, (32, 0)),
    (FieldSpec.pow, (40, 3)),
    (FieldSpec.trace, (-1,)),
    (FieldSpec.trace, (32,)),
    (FieldSpec.inv, (-1,)),
    (FieldSpec.sqrt, (32,)),
    (FieldSpec.element_order, (-2,)),
    (solve_artin_schreier, (-1,)),  # a negative log-table index reads c = 31
    (solve_artin_schreier, (32,)),
    (solve_quadratic, (3, -1)),
    (solve_quadratic, (0, 32)),
    (cubic_roots, (-1, 1)),
    (cubic_roots, (1, -1)),
    (cubic_roots, (1, 32)),
    (quartic_has_four_roots, (-1, 1, 1)),
    (quartic_roots, (32, 1, 1)),  # a2 reaches the scan before the criterion
    (quartic_roots, (1, 1, -1)),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_scalar_operations_refuse_values_outside_the_field(op, args):
    # the message names the first value outside [0, 2^5)
    bad = next(v for v in args if not 0 <= v < 32)
    with pytest.raises(ValueError, match=rf"lie in \[0, 2\^n\), got {bad}$"):
        op(make_field(5), *args)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_inv_involution_and_product(n):
    spec = make_field(n)
    for x in range(1, spec.size):
        assert spec.mul(x, spec.inv(x)) == 1
        assert spec.inv(spec.inv(x)) == x
    with pytest.raises(ZeroDivisionError):
        spec.inv(0)


def test_pow_examples(rng):
    spec = make_field(5)
    for x in range(spec.size):
        assert spec.pow(x, 1) == x
    assert spec.pow(0, 0) == 1
    with pytest.raises(ValueError):
        spec.pow(3, -1)


def test_pow_lagrange_every_default_field(rng):
    for n in range(2, 17):
        spec = make_field(n)
        if n <= 8:
            xs = np.arange(1, spec.size, dtype=np.int64)
            assert (spec.pow_vec(xs, spec.size - 1) == 1).all()
        for _ in range(30):
            g = int(rng.integers(1, spec.size))
            assert spec.pow(g, spec.size - 1) == 1


def test_pow_matches_repeated_multiplication(rng):
    for n in (3, 6, 9, 13):
        spec = make_field(n)
        for _ in range(20):
            g = int(rng.integers(1, spec.size))
            e = int(rng.integers(0, 3 * spec.size))
            acc = 1
            for _ in range(e):
                acc = spec.mul(acc, g)
            assert spec.pow(g, e) == acc


def test_trace_basics():
    for n in range(2, 11):
        spec = make_field(n)
        assert spec.trace(0) == 0
        fibers = np.bincount(spec.trace_vec(np.arange(spec.size)), minlength=2)
        assert fibers[0] == fibers[1] == spec.size // 2


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_trace_linearity_exhaustive(n):
    spec = make_field(n)
    xs = np.arange(spec.size, dtype=np.int64)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    t = spec.trace_vec(xs)
    assert np.array_equal(spec.trace_vec(X ^ Y), t[X] ^ t[Y])


def test_element_order():
    spec = make_field(6)
    assert spec.element_order(1) == 1
    w = find_omega(spec)
    assert spec.element_order(w) == 3
    with pytest.raises(ZeroDivisionError):
        spec.element_order(0)
    for n in range(2, 11):
        s = make_field(n)
        for x in range(1, s.size):
            k = s.element_order(x)
            assert (s.size - 1) % k == 0
            assert s.pow(x, k) == 1
            # minimality versus every proper divisor
            assert all(s.pow(x, d) != 1 for d in range(1, k) if k % d == 0)


# -- omega ---------------------------------------------------------------------------


def test_find_omega():
    assert find_omega(make_field(2)) == 2
    for n in (2, 4, 6, 8, 10, 12):
        spec = make_field(n)
        w = find_omega(spec)
        assert spec.mul(w, w) ^ w == 1  # w^2 + w + 1 = 0
        assert spec.pow(w, 3) == 1
        # smallest by encoding, against an exhaustive scan
        scan = [x for x in range(1, spec.size) if spec.element_order(x) == 3]
        assert w == min(scan)
    with pytest.raises(ValueError):
        find_omega(make_field(5))


# -- solvers --------------------------------------------------------------------------


def test_artin_schreier_basics():
    spec = make_field(5)
    assert solve_artin_schreier(spec, 0) == {0, 1}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_artin_schreier_exhaustive(n):
    spec = make_field(n)
    solvable = 0
    for c in range(spec.size):
        sols = solve_artin_schreier(spec, c)
        assert len(sols) in (0, 2)
        assert (len(sols) == 0) == (spec.trace(c) == 1)
        for x in sols:
            assert spec.mul(x, x) ^ x == c
        solvable += bool(sols)
    assert solvable == spec.size // 2


def test_artin_schreier_random_large(rng):
    for n in (10, 12):
        spec = make_field(n)
        hits = 0
        while hits < 25:
            c = int(rng.integers(0, spec.size))
            if spec.trace(c):
                continue
            x0 = min(solve_artin_schreier(spec, c))
            assert spec.mul(x0, x0) ^ x0 == c
            hits += 1


def test_solve_quadratic_basics():
    spec = make_field(4)
    assert solve_quadratic(spec, 1, 0) == {0, 1}
    # a = 0: unique square root
    for b in range(spec.size):
        (r,) = solve_quadratic(spec, 0, b)
        assert spec.mul(r, r) == b


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_solve_quadratic_exhaustive(n):
    spec = make_field(n)
    for a in range(spec.size):
        for b in range(spec.size):
            roots = solve_quadratic(spec, a, b)
            scan = {
                x
                for x in range(spec.size)
                if spec.mul(x, x) ^ spec.mul(a, x) ^ b == 0
            }
            assert roots == scan
            if a != 0:
                crit = spec.trace(spec.mul(b, spec.inv(spec.mul(a, a))))
                assert len(roots) == (2 if crit == 0 else 0)


def test_solve_quadratic_random_large(rng):
    spec = make_field(10)
    for _ in range(50):
        a = int(rng.integers(0, spec.size))
        b = int(rng.integers(0, spec.size))
        for x in solve_quadratic(spec, a, b):
            assert spec.mul(x, x) ^ spec.mul(a, x) ^ b == 0


def test_cubic_roots_examples():
    spec = make_field(4)
    assert cubic_roots(spec, 0, 0) == {0}
    w = find_omega(spec)
    assert cubic_roots(spec, 0, 1) == {1, w, spec.mul(w, w)}  # x^3 + 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cubic_roots_exhaustive(n):
    spec = make_field(n)
    for a2 in range(spec.size):
        for a1 in range(spec.size):
            roots = cubic_roots(spec, a2, a1)
            scan = {
                x
                for x in range(spec.size)
                if spec.mul(spec.mul(x, x), x) ^ spec.mul(a2, x) ^ a1 == 0
            }
            assert roots == scan


def test_cubic_roots_random_large(rng):
    spec = make_field(11)
    for _ in range(40):
        a2 = int(rng.integers(0, spec.size))
        a1 = int(rng.integers(0, spec.size))
        for r in cubic_roots(spec, a2, a1):
            assert spec.mul(spec.mul(r, r), r) ^ spec.mul(a2, r) ^ a1 == 0


def test_quartic_precondition():
    spec = make_field(4)
    with pytest.raises(ValueError):
        quartic_roots(spec, 1, 0, 5)
    with pytest.raises(ValueError):
        quartic_roots(spec, 1, 5, 0)
    with pytest.raises(ValueError):
        quartic_has_four_roots(spec, 1, 0, 5)


def test_quartic_trace_form():
    # x^4 + x = c over GF(q^2) splits iff all of c, wc, w^2c have trace 0
    spec = make_field(6)
    w = find_omega(spec)
    wsq = spec.mul(w, w)
    four = sum(
        1
        for c in range(1, spec.size)
        if len(quartic_roots(spec, 0, 1, c)) == 4
    )
    trace_zero = sum(
        1
        for c in range(1, spec.size)
        if spec.trace(c) == 0
        and spec.trace(spec.mul(w, c)) == 0
        and spec.trace(spec.mul(wsq, c)) == 0
    )
    assert four == trace_zero > 0
    for c in range(1, spec.size):
        cond = (
            spec.trace(c) == 0
            and spec.trace(spec.mul(w, c)) == 0
            and spec.trace(spec.mul(wsq, c)) == 0
        )
        assert (len(quartic_roots(spec, 0, 1, c)) == 4) == cond


def test_quartic_roots_substitute_back(rng):
    spec = make_field(9)
    for _ in range(60):
        a2 = int(rng.integers(0, spec.size))
        a1 = int(rng.integers(1, spec.size))
        a0 = int(rng.integers(1, spec.size))
        for r in quartic_roots(spec, a2, a1, a0):
            r2 = spec.mul(r, r)
            val = spec.mul(r2, r2) ^ spec.mul(a2, r2) ^ spec.mul(a1, r) ^ a0
            assert val == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_quartic_criterion_exhaustive(n):
    # for every (a2, a1 != 0): the root count of x^4 + a2 x^2 + a1 x + a0 as
    # a0 sweeps the field is one bincount of the cubic part, and the
    # criterion must flag exactly the a0 with four roots
    spec = make_field(n)
    xs = np.arange(spec.size, dtype=np.int64)
    sq = spec.mul_vec(xs, xs)
    quart = spec.mul_vec(sq, sq)
    a0s = np.arange(1, spec.size, dtype=np.int64)
    for a2 in range(spec.size):
        part = quart ^ spec.mul_vec(np.full(spec.size, a2), sq)
        for a1 in range(1, spec.size):
            base = part ^ spec.mul_vec(np.full(spec.size, a1), xs)
            counts = np.bincount(base, minlength=spec.size)
            rs = cubic_roots(spec, a2, a1)
            if len(rs) != 3:
                predicted = np.zeros(spec.size - 1, dtype=bool)
            else:
                inv_a1sq = spec.inv(spec.mul(a1, a1))
                predicted = np.ones(spec.size - 1, dtype=bool)
                for r in rs:
                    coef = spec.mul(spec.mul(r, r), inv_a1sq)
                    traces = spec.trace_vec(spec.mul_vec(np.full(spec.size - 1, coef), a0s))
                    predicted &= traces == 0
            observed = counts[1:] == 4
            assert np.array_equal(predicted, observed), (a2, a1)
