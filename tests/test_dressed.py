import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcavity import JCParams
from catcavity.dressed import dressed_annihilation, dressed_basis
from references import dressed_creation


def _fock_doublet(n, trunc):
    """Dressed doublet vectors (plus, minus) over the bare |m, s> basis."""
    dim = 2 * (trunc + 1)
    plus = np.zeros(dim)
    minus = np.zeros(dim)
    r = 1.0 / math.sqrt(2.0)
    plus[2 * (n + 1) + 1] = r   # |n+1, ->
    plus[2 * n] = r             # |n, +>
    minus[2 * (n + 1) + 1] = -r
    minus[2 * n] = r
    return plus, minus


def _rebuilt(column, trunc):
    """Bare vector of a dressed-basis column over the doublets 0..N-1."""
    out = np.zeros(2 * (trunc + 1))
    for n in range(trunc):
        p_out, m_out = _fock_doublet(n, trunc)
        out += column[1 + 2 * n] * p_out + column[2 + 2 * n] * m_out
    return out


def test_dressed_basis_columns_follow_documented_order():
    # |0, ->, then (psi_n^+, psi_n^-) at columns 1 + 2 n and 2 + 2 n, then
    # |N, +>, each column built here from the bare states
    for trunc in (1, 2, 3, 12):
        dim = 2 * (trunc + 1)
        expected = np.zeros((dim, dim))
        expected[1, 0] = 1.0
        for n in range(trunc):
            expected[:, 1 + 2 * n], expected[:, 2 + 2 * n] = _fock_doublet(
                n, trunc)
        expected[2 * trunc, dim - 1] = 1.0
        u, rabi = dressed_basis(trunc)
        assert np.array_equal(u, expected)
        assert np.array_equal(
            rabi, np.r_[0.0, np.repeat(np.sqrt(np.arange(1.0, trunc + 1)), 2)
                        * np.tile([1.0, -1.0], trunc), 0.0])


def test_annihilation_matches_fock_computation():
    trunc = 12
    a_f = np.diag(np.sqrt(np.arange(1.0, trunc + 1)), 1)
    a = np.kron(a_f, np.eye(2))
    a_d = dressed_annihilation(trunc)
    for n in range(1, trunc - 1):
        plus_in, minus_in = _fock_doublet(n, trunc)
        for col, vec in ((1 + 2 * n, a @ plus_in), (2 + 2 * n, a @ minus_in)):
            assert np.allclose(vec, _rebuilt(a_d[:, col], trunc), atol=1e-14)


def test_creation_matches_fock_computation():
    trunc = 12
    ad = np.kron(np.diag(np.sqrt(np.arange(1.0, trunc + 1)), 1), np.eye(2)).T
    c_d = dressed_creation(trunc)
    for n in range(trunc - 2):
        plus_in, minus_in = _fock_doublet(n, trunc)
        for col, vec in ((1 + 2 * n, ad @ plus_in), (2 + 2 * n, ad @ minus_in)):
            assert np.allclose(vec, _rebuilt(c_d[:, col], trunc), atol=1e-14)
    # the truncated a* is the transpose of the truncated a
    assert np.abs(c_d - dressed_annihilation(trunc).T).max() < 1e-15


def test_level_zero_annihilates_into_ground():
    a_d = dressed_annihilation(12)
    assert np.flatnonzero(a_d[:, 1]).tolist() == [0]
    assert a_d[0, 1] == pytest.approx(1.0 / math.sqrt(2.0))
    assert np.flatnonzero(a_d[:, 2]).tolist() == [0]
    assert a_d[0, 2] == pytest.approx(-1.0 / math.sqrt(2.0))


def test_ground_sector_ladder():
    assert not dressed_annihilation(12)[:, 0].any()
    c_d = dressed_creation(12)
    assert np.flatnonzero(c_d[:, 0]).tolist() == [1, 2]
    assert c_d[1, 0] == pytest.approx(1.0 / math.sqrt(2.0))
    assert c_d[2, 0] == pytest.approx(-1.0 / math.sqrt(2.0))


def test_annihilation_needs_one_doublet():
    with pytest.raises(ValueError):
        dressed_annihilation(0)


def test_number_operator_from_ladder_composition():
    # a* a |psi_n^s> = (n + 1/2) |psi_n^s> - (1/2) |psi_n^-s>
    trunc = 12
    number = dressed_creation(trunc) @ dressed_annihilation(trunc)
    for n in range(1, 10):
        for col, other in ((1 + 2 * n, 2 + 2 * n), (2 + 2 * n, 1 + 2 * n)):
            assert np.flatnonzero(number[:, col]).tolist() == sorted(
                [col, other])
            assert number[col, col] == pytest.approx(n + 0.5)
            assert number[other, col] == pytest.approx(-0.5)


def test_gamma_coefficient_identities():
    # for n >= 1 the squared coefficients of a psi_n^s are Gamma_{+/-, n},
    # whose sum is n + 1/2 and product 1/16
    a_d = dressed_annihilation(13)
    for n in range(1, 13):
        for col in (1 + 2 * n, 2 + 2 * n):
            squares = a_d[:, col][a_d[:, col] != 0.0] ** 2
            assert len(squares) == 2
            assert sum(squares) == pytest.approx(n + 0.5, rel=1e-12)
            assert squares[0] * squares[1] == pytest.approx(1.0 / 16.0,
                                                            rel=1e-12)


@given(n=st.integers(min_value=0, max_value=200))
@settings(max_examples=50, deadline=None)
def test_annihilation_coefficients_norm(n):
    # |a psi_n^s|^2 must equal n + 1/2 at resonance
    a_d = dressed_annihilation(201)
    for col in (1 + 2 * n, 2 + 2 * n):
        norm = (a_d[:, col] ** 2).sum()
        assert norm == pytest.approx(n + 0.5, rel=1e-12)


def test_jc_params_reject_non_finite():
    with pytest.raises(ValueError):
        JCParams(g=math.nan)
