"""Closed-form reference values and their internal consistency."""

import pytest

from sympgrass import formulas


def test_length_examples():
    assert formulas.length(2, 2, 2) == 15
    assert formulas.length(3, 3, 2) == 135
    assert formulas.length(3, 2, 2) == 315
    assert formulas.length(3, 2, 3) == 3640
    assert formulas.length(3, 3, 3) == 1120
    assert formulas.length(4, 2, 2) == 5355
    for n in range(1, 5):
        for q in (2, 3, 4, 5):
            assert formulas.length(n, 1, q) == (q ** (2 * n) - 1) // (q - 1)


def test_length_rejects_bad_args():
    with pytest.raises(ValueError):
        formulas.length(2, 3, 2)
    with pytest.raises(ValueError):
        formulas.length(2, 0, 2)


def test_dimension_examples():
    assert formulas.dimension(3, 3) == 14
    assert formulas.dimension(2, 2) == 5
    for n in range(1, 6):
        assert formulas.dimension(n, 1) == 2 * n


def test_dimension_line_closed_form():
    for n in range(2, 9):
        assert formulas.dimension(n, 2) == 2 * n**2 - n - 1


def test_dmin_line_examples():
    assert formulas.dmin_line(2, 2) == 6
    assert formulas.dmin_line(3, 2) == 120
    assert formulas.dmin_line(3, 3) == 2160
    assert formulas.dmin_line(2, 3) == 24
    with pytest.raises(ValueError):
        formulas.dmin_line(1, 2)


def test_w22_table_values():
    assert formulas.w22_table(2) == {0: 1, 6: 10, 8: 15, 10: 6}
    assert formulas.w22_table(3) == {0: 1, 24: 90, 27: 80, 30: 72}
    t5 = formulas.w22_table(5)
    assert set(t5) == {0, 120, 125, 130}


def test_w33_table_values():
    assert formulas.w33_table(2) == {0: 1, 48: 630, 64: 7695, 72: 7680, 80: 378}
    t3 = formulas.w33_table(3)
    assert sorted(w for w in t3 if w > 0) == [648, 729, 756, 810]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_table_sums(q):
    assert sum(formulas.w22_table(q).values()) == q**5
    assert sum(formulas.w33_table(q).values()) == q**14


def test_n1_eta_examples():
    assert formulas.n1_max(2, 2) == 6
    assert formulas.eta_max(2, 2) == 9
    assert formulas.n1_max(2, 3) == 8


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_length_minus_eta_is_dmin(n, q):
    assert formulas.length(n, 2, q) - formulas.eta_max(n, q) == formulas.dmin_line(n, q)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_line_identity_at_max(n, q):
    # plugging N1_max into the double count must give eta_max
    rhs = formulas.line_identity_rhs(n, q, formulas.n1_max(n, q))
    assert rhs == (q + 1) * formulas.eta_max(n, q)


def test_grassmann_bound_examples():
    assert formulas.grassmann_bound_line(2, 2) == 4
    assert formulas.grassmann_bound_line(2, 2) <= formulas.dmin_line(2, 2)
    assert formulas.grassmann_bound_line(3, 2) <= formulas.dmin_line(3, 2)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_grassmann_bound_below_dmin(n, q):
    assert formulas.grassmann_bound_line(n, q) <= formulas.dmin_line(n, q)
    exact = formulas.grassmann_bound_line_exact(n, q)
    assert formulas.grassmann_bound_line(n, q) == int(exact)


def test_pz_upper_examples():
    for q in (2, 3, 4, 5):
        assert formulas.pz_upper(2, q) == q**3
        assert formulas.pz_upper(2, q) > q**3 - q
        assert formulas.pz_upper(1, q) == q
        assert formulas.dmin_dps3(q) <= formulas.pz_upper(3, q)
    assert formulas.pz_upper(3, 2) == 64


def test_gaussian_binomial_examples():
    assert formulas.gaussian_binomial(2, 1, 2) == 3
    assert formulas.gaussian_binomial(4, 2, 2) == 35
    for m in range(0, 7):
        assert formulas.gaussian_binomial(m, 0, 3) == 1
    # symmetry and Pascal-style recurrence spot checks
    assert formulas.gaussian_binomial(7, 3, 3) == formulas.gaussian_binomial(7, 4, 3)


def test_code_params_proved_flags():
    p = formulas.code_params(3, 3, 2)
    assert (p.N, p.K, p.d_min) == (135, 14, 48)
    p = formulas.code_params(2, 2, 3)
    assert (p.N, p.K, p.d_min) == (40, 5, 24)
    p = formulas.code_params(4, 3, 2)
    assert p.d_min is None and not p.d_min_proved
    p = formulas.code_params(4, 2, 2)
    assert p.d_min == formulas.dmin_line(4, 2)


def test_simplex_table_for_k1():
    # W(n,1) is the simplex code: every nonzero word has weight q^(2n-1)
    for n in (1, 2, 3, 5):
        for q in (2, 3, 4, 7):
            table = formulas.known_table(n, 1, q)
            assert table == {0: 1, q ** (2 * n - 1): q ** (2 * n) - 1}
            assert sum(table.values()) == q ** formulas.dimension(n, 1)
            # first moment: each of the N columns is nonzero in (q-1)q^(K-1) words
            assert sum(w * c for w, c in table.items()) == \
                formulas.length(n, 1, q) * (q - 1) * q ** (2 * n - 1)
            p = formulas.code_params(n, 1, q)
            assert p.d_min == q ** (2 * n - 1) and p.d_min_proved
