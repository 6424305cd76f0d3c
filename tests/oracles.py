"""Slow reference implementations used to pin expected values.

Everything here is written with explicit index loops or a different library
routine than the implementation under test, so agreement is meaningful.
"""

import numpy as np


def kron_loops(a, b):
    """Tensor product computed entry by entry, first factor slow."""
    a = np.asarray(a)
    b = np.asarray(b)
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = a[i, j] * b[k, l]
    return out


def ptrace_env_loops(x, d_s, d_e):
    """Environment partial trace by explicit index summation."""
    x = np.asarray(x)
    out = np.zeros((d_s, d_s), dtype=complex)
    for i in range(d_s):
        for j in range(d_s):
            acc = 0.0 + 0.0j
            for k in range(d_e):
                acc += x[i * d_e + k, j * d_e + k]
            out[i, j] = acc
    return out


def conjugate_loops(u, x):
    """U X U^dag via two explicit matrix multiplications with index loops."""
    u = np.asarray(u)
    x = np.asarray(x)
    n = u.shape[0]
    tmp = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            tmp[i, j] = sum(u[i, a] * x[a, j] for a in range(n))
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(tmp[i, a] * np.conj(u[j, a]) for a in range(n))
    return out


def kernel_by_accumulation(span, u_t, rank_t, r):
    """Kernel basis summed over the span one element at a time.

    Element k is sum_i u_t[i, rank_t + k] span[i] over the first r span
    elements, where u_t is the left factor of the SVD of the span's
    partial-trace coordinates and rank_t the rank of that image.
    """
    span = np.asarray(span)
    kernel = np.zeros((r - rank_t,) + span.shape[1:], dtype=complex)
    for i in range(r):
        kernel += u_t[i, rank_t:r, None, None] * span[i]
    return kernel


def trace_norm_svd(x):
    """Trace norm via singular values; independent of the eigvalsh route."""
    return float(np.linalg.svd(np.asarray(x), compute_uv=False).sum())


def choi_by_application(apply_fn, d):
    """Choi matrix assembled by feeding every |j><k| through the map."""
    out = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[j, k] = 1.0
            out[j * d : (j + 1) * d, k * d : (k + 1) * d] = apply_fn(e)
    return out


def random_unitary(d, rng):
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
