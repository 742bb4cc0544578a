import concurrent.futures
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls_lab.hofstadter import (HofstadterError, _bloch_family, butterfly,
                                    harper_bloch_matrix, spectrum_at_flux,
                                    subband_cherns)

from oracles import diophantine_chern_labels, transfer_trace_edges


def test_zero_flux_interval():
    iv = spectrum_at_flux(Fraction(0, 1))
    assert iv.shape == (1, 2)
    assert abs(iv[0, 0] + 2.0) < 1e-12 and abs(iv[0, 1] - 2.0) < 1e-12


def test_half_flux_closed_form():
    # q = 2: branches are +-sqrt(cos^2 t1 + cos^2 t2), touching at zero
    fl = Fraction(1, 2)
    rng = np.random.default_rng(1)
    for _ in range(25):
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        ev = np.linalg.eigvalsh(harper_bloch_matrix(fl, t1, t2))
        val = np.sqrt(np.cos(t1) ** 2 + np.cos(t2) ** 2)
        assert abs(ev[0] + val) < 1e-12 and abs(ev[1] - val) < 1e-12
    iv = spectrum_at_flux(fl)
    assert abs(iv[0, 1]) < 1e-12 and abs(iv[1, 0]) < 1e-12  # touch at E = 0
    assert abs(iv[1, 1] - np.sqrt(2)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 11), st.integers(1, 11),
       st.floats(0, 6.28), st.floats(0, 6.28))
def test_bloch_matrix_hermitian(p, q, t1, t2):
    fl = Fraction(p, q)
    H = harper_bloch_matrix(fl, t1, t2)
    assert H.shape == (fl.denominator, fl.denominator)
    assert np.abs(H - H.conj().T).max() < 1e-12


def test_transfer_matrix_oracle_one_third():
    fl = Fraction(1, 3)
    direct = spectrum_at_flux(fl)
    oracle = transfer_trace_edges(fl)
    assert np.abs(direct - oracle).max() < 1e-6


def test_transfer_matrix_oracle_two_fifths():
    fl = Fraction(2, 5)
    direct = spectrum_at_flux(fl)
    oracle = transfer_trace_edges(fl)
    assert np.abs(direct - oracle).max() < 1e-6


def test_spectral_symmetries():
    bf = butterfly(8)
    for fr in bf:
        iv = np.sort(np.asarray([(lo, hi) for lo, hi, _ in bf[fr]]).ravel())
        # E <-> -E at every flux
        assert np.abs(iv + iv[::-1]).max() < 1e-10
        other = Fraction(1) - fr
        iv2 = np.sort(np.asarray([(lo, hi) for lo, hi, _ in bf[other]]).ravel())
        assert np.abs(iv - iv2).max() < 1e-10


def test_alpha_plus_one_periodicity():
    # the diagonal depends on alpha only mod 1
    fl = Fraction(1, 3)
    H1 = harper_bloch_matrix(fl, 0.3, 0.7)
    H2 = harper_bloch_matrix(Fraction(4, 3), 0.3, 0.7)
    assert np.abs(H1 - H2).max() < 1e-12


def test_subband_count_matches_q():
    bf = butterfly(10)
    for fr in bf:
        assert len(bf[fr]) == fr.denominator


def test_bandwidth_below_zero_flux_and_thouless_trend():
    bf = butterfly(6)
    width = {}
    for fr in bf:
        iv = np.asarray([(lo, hi) for lo, hi, _ in bf[fr]])
        width[fr] = float(np.sum(iv[:, 1] - iv[:, 0]))
    assert all(width[fr] < width[Fraction(0, 1)] - 0.5
               for fr in bf if fr not in (0, 1))
    # total bandwidth shrinks with the denominator along 1/q
    seq = [width[Fraction(1, q)] for q in (2, 3, 4, 5, 6)]
    assert all(a > b for a, b in zip(seq, seq[1:]))


@pytest.mark.parametrize("p,q", [(1, 3), (1, 5), (2, 5), (3, 7)])
def test_subband_chern_matches_diophantine(p, q):
    fl = Fraction(p, q)
    cs = subband_cherns(fl)
    assert cs == diophantine_chern_labels(fl)
    assert sum(cs) == 0


def test_zero_flux_chern():
    assert subband_cherns(Fraction(0, 1)) == [0]


def test_chern_gap_closure_raises():
    # even q: central subbands touch at E = 0
    with pytest.raises(HofstadterError):
        subband_cherns(Fraction(1, 2))


def test_butterfly_deterministic_and_chern_labels():
    b1 = butterfly(5, chern_labels=True)
    b2 = butterfly(5, chern_labels=True)
    assert b1 == b2
    labels = [c for _, _, c in b1[Fraction(1, 3)]]
    assert labels == [1, -2, 1]


def test_butterfly_chern_labels_solve_each_torus_once(monkeypatch):
    import peierls_lab.hofstadter as hof
    tori = []
    family = hof._bloch_family

    def counting(flux, n_theta, reduced=True):
        if not reduced:
            tori.append(flux)
        return family(flux, n_theta, reduced)

    monkeypatch.setattr(hof, "_bloch_family", counting)
    data = butterfly(5, chern_labels=True)
    assert len(tori) == len(data)
    monkeypatch.setattr(hof, "_bloch_family", family)
    for fr in data:
        labels = [c for _, _, c in data[fr]]
        try:
            expected = subband_cherns(fr)
        except HofstadterError:
            expected = [None] * fr.denominator  # touching subbands: no labels
        assert labels == expected, fr
    assert [c for _, _, c in data[Fraction(1, 2)]] == [None, None]


def test_butterfly_pool_runs_only_chern_tori(monkeypatch):
    serial = butterfly(6, chern_labels=True, n_workers=1)
    assert butterfly(6, chern_labels=True, n_workers=2) == serial

    def refuse(*args, **kwargs):
        raise AssertionError("pool constructed for edges only")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    edges = butterfly(6, n_workers=2)
    assert ([(fr, b[:2]) for fr in edges for b in edges[fr]]
            == [(fr, b[:2]) for fr in serial for b in serial[fr]])


def _reduced_fluxes(qs):
    return [Fraction(p, q) for q in qs for p in range(q + 1) if gcd(p, q) == 1]


def test_chambers_edges_match_transfer_matrix_oracle_odd_q():
    # even q closes the central gap at E = 0, where the oracle's root count
    # fails; those fluxes are covered by the random-angle containment test
    for fl in _reduced_fluxes(range(1, 12, 2)):
        dev = np.abs(spectrum_at_flux(fl) - transfer_trace_edges(fl)).max()
        assert dev < 1e-6, (fl, dev)


def test_random_angles_lie_inside_chambers_edges():
    rng = np.random.default_rng(7)
    for fl in _reduced_fluxes(range(1, 13)):
        t1, t2 = rng.uniform(0, 2 * np.pi, (2, 256))
        ev = np.linalg.eigvalsh(harper_bloch_matrix(fl, t1, t2))  # (256, q)
        iv = spectrum_at_flux(fl)
        assert ev.shape == (256, fl.denominator)
        assert np.all(ev >= iv[:, 0] - 1e-12), fl
        assert np.all(ev <= iv[:, 1] + 1e-12), fl


def test_dense_reduced_grid_agrees_with_chambers_edges():
    for fl in _reduced_fluxes(range(1, 9)):
        _, H = _bloch_family(fl, 64)
        ev = np.linalg.eigvalsh(H)
        dense = np.stack([ev.min(axis=(0, 1)), ev.max(axis=(0, 1))], axis=-1)
        assert np.abs(dense - spectrum_at_flux(fl)).max() < 1e-12, fl


def test_butterfly_table_holds_each_reduced_flux_once():
    for q_max, labelled in ((1, False), (6, False), (5, True)):
        table = butterfly(q_max, chern_labels=labelled)
        # exactly the reduced p/q, each once, ascending
        assert list(table) == sorted(_reduced_fluxes(range(1, q_max + 1)))
        for fr, bands in table.items():
            assert len(bands) == fr.denominator
            assert all(lo <= hi for lo, hi, _ in bands)
            if not labelled:
                assert all(c is None for _, _, c in bands)
    assert Fraction(1, 7) not in butterfly(6)
    # an unreduced flux is its reduced value: 2/4 is the two-band flux 1/2
    assert np.array_equal(spectrum_at_flux(Fraction(2, 4)),
                          spectrum_at_flux(Fraction(1, 2)))


@pytest.mark.parametrize("q_max", [0, -3])
def test_butterfly_rejects_empty_sweep(q_max):
    with pytest.raises(HofstadterError, match="q_max"):
        butterfly(q_max)

