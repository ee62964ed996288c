"""Code construction, weight sweeps, budget guard, file formats."""

import io

import numpy as np
import pytest

from sympgrass import formulas
from sympgrass.codes import (
    BudgetError,
    WeightEnumerator,
    build_code,
    codeword_from_form,
    min_distance,
    read_generator,
    weight_enumerator,
    write_generator,
)
from sympgrass.forms import (
    count_common_isotropic_lines,
    random_alternating_form,
    standard_symplectic,
    worst_case_theta,
)
from sympgrass.gf import GF
from sympgrass.linalg import rank

from oracles import oracle_weight_enumerator, oracle_weight_enumerator_gf2


@pytest.mark.parametrize(
    "n,k,q,N,K",
    [(2, 2, 2, 15, 5), (3, 3, 2, 135, 14), (3, 2, 2, 315, 14), (2, 2, 5, 156, 5)],
)
def test_build_code_parameters(n, k, q, N, K):
    code = build_code(n, k, GF(q))
    assert (code.N, code.K) == (N, K)
    assert (code.N, code.K) == (formulas.length(n, k, q), formulas.dimension(n, k))
    assert rank(code.field, code.generator) == K


def test_generator_rows_span_plucker_rows():
    # the generator row space equals the span of the coordinate functionals
    from sympgrass.grassmann import isotropic_stack, plucker_batch

    f = GF(2)
    code = build_code(2, 2, f)
    pl = plucker_batch(f, isotropic_stack(2, 2, f))
    stacked = np.concatenate([np.ascontiguousarray(pl.T), code.generator], axis=0)
    assert rank(f, stacked) == code.K


def test_w22_q2_against_oracle_and_table():
    f = GF(2)
    code = build_code(2, 2, f)
    we = weight_enumerator(code)
    rows = [[int(x) for x in row] for row in code.generator]
    assert we.distribution == oracle_weight_enumerator(2, rows)
    assert we.distribution == formulas.w22_table(2)
    assert we.distribution == {0: 1, 6: 10, 8: 15, 10: 6}


def test_w22_q3_against_oracle_and_table():
    f = GF(3)
    code = build_code(2, 2, f)
    we = weight_enumerator(code)
    rows = [[int(x) for x in row] for row in code.generator]
    assert we.distribution == oracle_weight_enumerator(3, rows)
    assert we.distribution == formulas.w22_table(3)
    assert we.nonzero_weights() == [24, 27, 30]


def test_packed_sweep_against_bitmask_oracle():
    # W(3,2) q=2 runs through the packed uint64 path; check it against an
    # integer-bitmask sweep written independently
    f = GF(2)
    code = build_code(3, 2, f)
    we = weight_enumerator(code)
    rows_as_ints = [
        sum(int(x) << j for j, x in enumerate(row)) for row in code.generator
    ]
    oracle = oracle_weight_enumerator_gf2(rows_as_ints, code.N)
    assert we.distribution == oracle
    assert we.d_min == 120


@pytest.mark.parametrize("n,k,q", [(2, 2, 2), (2, 2, 3), (3, 3, 2), (2, 2, 4)])
def test_method_agreement(n, k, q):
    code = build_code(n, k, GF(q))
    cw = weight_enumerator(code, method="codeword")
    hp = weight_enumerator(code, method="hyperplane")
    assert cw.distribution == hp.distribution


@pytest.mark.parametrize("n,k,q", [(2, 2, 3), (3, 3, 2), (2, 2, 4)])
def test_sum_and_scalar_rules(n, k, q):
    code = build_code(n, k, GF(q))
    we = weight_enumerator(code)
    assert we.total() == q**code.K
    for w, c in we.distribution.items():
        if w > 0:
            assert c % (q - 1) == 0
    assert max(we.distribution) <= code.N


def test_projective_system_rule_w22():
    # d_min equals N minus the largest hyperplane section; sections checked
    # directly against an independent numpy evaluation per functional
    f = GF(2)
    code = build_code(2, 2, f)
    max_section = 0
    gen = code.generator.astype(np.int64)
    for m in range(1, 2**code.K):
        msg = np.array([(m >> i) & 1 for i in range(code.K)], dtype=np.int64)
        cw = (msg @ gen) % 2
        max_section = max(max_section, int(np.count_nonzero(cw == 0)))
    assert min_distance(code) == code.N - max_section


def test_min_distance_early_exit():
    code = build_code(2, 2, GF(2))
    assert min_distance(code) == 6


def test_threads_do_not_change_distribution():
    code = build_code(3, 3, GF(2))
    one = weight_enumerator(code, threads=1)
    four = weight_enumerator(code, threads=4)
    assert one.distribution == four.distribution
    hp1 = weight_enumerator(code, method="hyperplane", threads=1)
    hp3 = weight_enumerator(code, method="hyperplane", threads=3)
    assert hp1.distribution == hp3.distribution


def test_budget_guard():
    code = build_code(4, 2, GF(2))  # 2^27 x 5355 is over the default budget
    with pytest.raises(BudgetError) as err:
        weight_enumerator(code)
    assert err.value.estimated_ops == 2**27 * 5355
    with pytest.raises(BudgetError):
        min_distance(code)
    # raising the budget explicitly admits the sweep (not run here)


def test_codeword_from_sigma_is_zero():
    f = GF(2)
    code = build_code(2, 2, f)
    sig = standard_symplectic(2, f)
    vals, weight = codeword_from_form(code, sig)
    assert weight == 0 and not vals.any()


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_codeword_from_worst_theta_weight(n, q):
    f = GF(q)
    code = build_code(n, 2, f)
    sig = standard_symplectic(n, f)
    th = worst_case_theta(sig)
    _, weight = codeword_from_form(code, th)
    assert weight == formulas.dmin_line(n, q)
    assert weight == code.N - count_common_isotropic_lines(sig, th)


def test_codeword_from_form_is_in_the_code():
    f = GF(3)
    code = build_code(2, 2, f)
    sig = standard_symplectic(2, f)
    rng = np.random.default_rng(4)
    for _ in range(5):
        theta = random_alternating_form(f, 4, rng)
        vals, weight = codeword_from_form(code, theta)
        assert weight == code.N - count_common_isotropic_lines(sig, theta)
        # reduces to zero against the generator's row space
        stacked = np.concatenate([code.generator, vals[None, :]], axis=0)
        assert rank(f, stacked) == code.K


def test_codeword_from_form_requires_line_code():
    code = build_code(2, 1, GF(2))
    sig = standard_symplectic(2, GF(2))
    with pytest.raises(ValueError):
        codeword_from_form(code, sig)


def test_generator_file_round_trip(tmp_path):
    code = build_code(2, 2, GF(3))
    path = tmp_path / "gen.txt"
    write_generator(path, code)
    text = path.read_text()
    assert text.splitlines()[0] == "3 5 40"
    back = read_generator(path)
    assert back.field == code.field
    assert (back.N, back.K) == (code.N, code.K)
    assert np.array_equal(back.generator, code.generator)


def test_read_generator_rejects_bad_header():
    with pytest.raises(ValueError):
        read_generator(io.StringIO("3 5\n"))


def test_weight_enumerator_dataclass_helpers():
    we = WeightEnumerator({0: 1, 3: 6, 5: 2})
    assert we.d_min == 3
    assert we.total() == 9
    assert we.nonzero_weights() == [3, 5]
