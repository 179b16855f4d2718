import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcavity import (
    JCParams,
    UnsupportedRegimeError,
    apply_annihilation_dressed,
    oracle,
)
from catcavity.dressed import GROUND
from references import apply_creation_dressed


@pytest.fixture
def resonant_jc():
    return JCParams(g=5.0)


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


def test_annihilation_matches_fock_computation(resonant_jc):
    trunc = 12
    a_f = np.diag(np.sqrt(np.arange(1.0, trunc + 1)), 1)
    a = np.kron(a_f, np.eye(2))
    for n in range(1, trunc - 1):
        for branch in ("+", "-"):
            plus_in, minus_in = _fock_doublet(n, trunc)
            vec = a @ (plus_in if branch == "+" else minus_in)
            terms = apply_annihilation_dressed(resonant_jc, branch, n)
            rebuilt = np.zeros_like(vec)
            for term in terms:
                p_out, m_out = _fock_doublet(term.level, trunc)
                rebuilt += term.coefficient * (p_out if term.branch == "+" else m_out)
            assert np.allclose(vec, rebuilt, atol=1e-14)


def test_creation_matches_fock_computation(resonant_jc):
    trunc = 12
    ad = np.kron(np.diag(np.sqrt(np.arange(1.0, trunc + 1)), 1), np.eye(2)).T
    for n in range(trunc - 2):
        for branch in ("+", "-"):
            plus_in, minus_in = _fock_doublet(n, trunc)
            vec = ad @ (plus_in if branch == "+" else minus_in)
            terms = apply_creation_dressed(resonant_jc, branch, n)
            rebuilt = np.zeros_like(vec)
            for term in terms:
                p_out, m_out = _fock_doublet(term.level, trunc)
                rebuilt += term.coefficient * (p_out if term.branch == "+" else m_out)
            assert np.allclose(vec, rebuilt, atol=1e-14)


def test_level_zero_annihilates_into_ground(resonant_jc):
    terms = apply_annihilation_dressed(resonant_jc, "+", 0)
    assert len(terms) == 1
    assert terms[0].branch == GROUND
    assert terms[0].coefficient == pytest.approx(1.0 / math.sqrt(2.0))
    terms = apply_annihilation_dressed(resonant_jc, "-", 0)
    assert terms[0].coefficient == pytest.approx(-1.0 / math.sqrt(2.0))


def test_ground_sector_ladder(resonant_jc):
    assert apply_annihilation_dressed(resonant_jc, GROUND, -1) == []
    terms = apply_creation_dressed(resonant_jc, GROUND, -1)
    coeffs = {t.branch: t.coefficient for t in terms}
    assert coeffs["+"] == pytest.approx(1.0 / math.sqrt(2.0))
    assert coeffs["-"] == pytest.approx(-1.0 / math.sqrt(2.0))


def test_ladder_rejected_off_resonance():
    jc = JCParams(g=1.0, detuning=0.5)
    with pytest.raises(UnsupportedRegimeError):
        apply_annihilation_dressed(jc, "+", 2)
    rho = oracle.build_initial_state(np.eye(5)[0], 4)
    with pytest.raises(UnsupportedRegimeError):
        oracle.to_w_frame(rho, jc)


def test_number_operator_from_ladder_composition(resonant_jc):
    # a* a |psi_n^s> = (n + 1/2) |psi_n^s> - (1/2) |psi_n^-s>
    for n in range(1, 10):
        for branch in ("+", "-"):
            acc = {}
            for down in apply_annihilation_dressed(resonant_jc, branch, n):
                for up in apply_creation_dressed(resonant_jc, down.branch,
                                                down.level):
                    key = (up.branch, up.level)
                    acc[key] = acc.get(key, 0.0) + down.coefficient * up.coefficient
            other = "-" if branch == "+" else "+"
            assert acc[(branch, n)] == pytest.approx(n + 0.5)
            assert acc[(other, n)] == pytest.approx(-0.5)


def test_gamma_coefficient_identities(resonant_jc):
    # for n >= 1 the squared coefficients of a psi_n^s are Gamma_{+/-, n},
    # whose sum is n + 1/2 and product 1/16
    for n in range(1, 13):
        for branch in ("+", "-"):
            squares = [t.coefficient**2 for t in
                       apply_annihilation_dressed(resonant_jc, branch, n)]
            assert len(squares) == 2
            assert sum(squares) == pytest.approx(n + 0.5, rel=1e-12)
            assert squares[0] * squares[1] == pytest.approx(1.0 / 16.0,
                                                            rel=1e-12)


@given(n=st.integers(min_value=0, max_value=200))
@settings(max_examples=50, deadline=None)
def test_annihilation_coefficients_norm(n):
    # |a psi_n^s|^2 must equal n + 1/2 at resonance
    for branch in ("+", "-"):
        terms = apply_annihilation_dressed(JCParams(g=2.0), branch, n)
        norm = sum(t.coefficient**2 for t in terms)
        assert norm == pytest.approx(n + 0.5, rel=1e-12)


def test_jc_params_reject_non_finite():
    with pytest.raises(ValueError):
        JCParams(g=math.nan)
