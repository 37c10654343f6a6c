"""Property tests of the MINRES exit contracts (Liu & Roosta, "MINRES: from
negative curvature detection to monotonicity properties", SIAM J. Optim.
32(4), 2022) on random diagonal spectra of mixed sign, reached through the
``shift`` argument, and of the truncation property the self-checks rely on:
a solve stopped at its own exit iteration returns the same outcome."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from minresls.minres import NPC, SOL, minres_npc  # noqa: E402


@st.composite
def mixed_system(draw):
    """(eigenvalues, shift, b, tol, b_hits_negative): at least one
    eigenvalue of each sign, magnitudes in [0.1, 10] so that rounding has a
    known scale. The eigenvalues are those of A + shift*I, where A is the
    diagonal matrix handed to MINRES with the shift. Half the draws zero b on
    the negative eigenvalues; MINRES then never leaves the positive
    eigenspace and must return SOL."""
    n = draw(st.integers(2, 30))
    mags = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    signs = np.array(draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n)))
    neg, pos = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    signs[neg] = -1.0
    signs[pos] = 1.0
    lam = mags * signs
    shift = draw(st.one_of(st.sampled_from((0.0, 1e-12)), st.floats(-1.0, 1.0)))
    b = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    hits_negative = draw(st.booleans())
    if not hits_negative:
        b[lam < 0.0] = 0.0
    if not np.linalg.norm(b) > 1e-3:
        b[pos] = 1.0
    tol = draw(st.sampled_from((0.0, 1e-10, 1e-4, 0.5)))
    return lam, shift, b, tol, hits_negative


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(mixed_system())
def test_exit_contracts(system):
    lam, shift, b, tol, hits_negative = system
    A = np.diag(lam - shift)
    out = minres_npc(A, b, tol, 4 * b.size, shift=shift)
    # the dense A + shift*I, whose diagonal is lam up to rounding
    lam = np.diag(A + shift * np.eye(b.size))
    d = out.direction
    bnorm = float(np.linalg.norm(b))
    scale = float(np.abs(lam).max())
    # the same solve stopped at its own exit iteration returns the same outcome
    again = minres_npc(A, b, tol, out.inner_iters, shift=shift)
    assert (again.flag, again.inner_iters) == (out.flag, out.inner_iters)
    assert (again.curvature, again.residual_norm) == (out.curvature, out.residual_norm)
    assert np.array_equal(again.direction, d)
    assert np.array_equal(again.residual, out.residual)
    if not hits_negative:
        assert out.flag == SOL
    if out.flag == SOL:
        # the recursively updated residual is the true residual b - A d
        gap = float(np.linalg.norm(out.residual - (b - lam * d)))
        assert gap <= 1e-12 * (bnorm + scale * float(np.linalg.norm(d)))
    elif out.flag == NPC:
        # a certificate: non-positive curvature, descent for -b, norm ||b||
        d_sq = float(d @ d)
        assert float(d @ (lam * d)) <= 1e-12 * scale * d_sq
        assert float(d @ b) > 0.0
        assert abs(np.sqrt(d_sq) - bnorm) <= 1e-13 * bnorm
