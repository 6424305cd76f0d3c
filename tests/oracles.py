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


def pairwise_by_loops(members, u, dims, tols):
    """The pairwise check over every pair i < j in turn, each state evolved by index loops.

    Returns the violations of the pairs whose marginals agree within
    ``tols.rank``, in (i, j) row-major order, and members[i] - members[j] for
    the first pair that reaches the largest of them (None without pairs).
    """
    members = [np.asarray(m) for m in members]
    red = [ptrace_env_loops(m, dims.d_s, dims.d_e) for m in members]
    out = [ptrace_env_loops(conjugate_loops(u, m), dims.d_s, dims.d_e) for m in members]
    violations, witness = [], None
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if np.abs(red[i] - red[j]).max() <= tols.rank:
                v = np.abs(out[i] - out[j]).max()
                if not violations or v > max(violations):
                    witness = members[i] - members[j]
                violations.append(v)
    return np.array(violations), witness


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


def kernel_test_by_basis(members, u, dims, tol_rank):
    """The kernel test through an orthonormal kernel basis instead of the member residuals.

    Spans the members from the SVD of their unit-normalized coordinates,
    splits the span along the partial trace with a second SVD, builds the
    kernel basis from both (:func:`kernel_by_accumulation`), and evolves each
    kernel element.  Returns the evolved marginals' max-norms and the kernel
    stack.
    """
    from rdl.operators import basis_coords, from_basis_coords

    members = np.asarray(members)
    rows = basis_coords(members, dims.joint).real
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    _, svals, vt = np.linalg.svd(rows, full_matrices=False)
    r = int(np.sum(svals > tol_rank))
    span = from_basis_coords(vt[:r], dims.joint)
    t = basis_coords(np.array([ptrace_env_loops(e, dims.d_s, dims.d_e) for e in span]), dims.d_s)
    u_t, svals_t, _ = np.linalg.svd(t.real, full_matrices=True)
    rank_t = int(np.sum(svals_t > tol_rank))
    kernel = kernel_by_accumulation(span, u_t, rank_t, r)
    viol = [np.abs(ptrace_env_loops(u @ y @ u.conj().T, dims.d_s, dims.d_e)).max() for y in kernel]
    return np.array(viol), kernel


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


def hull_by_trials(members, u, dims, seed, trials, tol_rank):
    """The hull check one trial at a time, each state mixed and evolved by index loops.

    The fit P comes from an SVD of the members' marginal coordinates R, each
    row divided by its norm taken with a loop, truncated to the singular
    values above ``tol_rank``.  For each trial in turn one generator draws
    exponential weights a, normalized, then a normal z; c = z - (z R) P,
    eps is the least a_i / (-c_i) over c_i < 0, and the states a M and
    (a + eps c) M are evolved one at a time.  Returns the violation and the
    step eps c M of every trial.
    """
    from rdl.operators import basis_coords

    members = [np.asarray(m) for m in members]
    n = len(members)
    marginals = np.array([ptrace_env_loops(m, dims.d_s, dims.d_e) for m in members])
    rows = basis_coords(marginals, dims.d_s).real
    inv = np.array([1 / np.sqrt(sum(x * x for x in row)) for row in rows])
    left, svals, vt = np.linalg.svd(rows * inv[:, None], full_matrices=False)
    r = int(np.sum(svals > tol_rank))
    fit = vt[:r].T @ np.diag(1 / svals[:r]) @ left[:, :r].T @ np.diag(inv)
    rng = np.random.default_rng(seed)
    violations, steps = [], []
    for _ in range(trials):
        weights = rng.exponential(size=n)
        weights /= weights.sum()
        z = rng.normal(size=n)
        coeffs = z - (z @ rows) @ fit
        eps = np.inf
        for a, c in zip(weights, coeffs):
            if c < 0:
                eps = min(eps, a / -c)
        before = sum(a * m for a, m in zip(weights, members))
        after = sum((a + eps * c) * m for a, c, m in zip(weights, coeffs, members))
        out = [ptrace_env_loops(conjugate_loops(u, x), dims.d_s, dims.d_e) for x in (after, before)]
        violations.append(np.abs(out[0] - out[1]).max())
        steps.append(after - before)
    return np.array(violations), steps


def assemble_two_qubit_by_kron(params, tol):
    """A two-qubit state summed from its product-Pauli terms, each built by ``np.kron``.

    The terms are added to the identity in the order I (x) I, then for each
    axis i: s_i (x) I, I (x) s_i, s_i (x) s_1..3; the sum is divided by 4 and
    validated by ``require_density``.
    """
    from rdl.operators import PAULIS, require_density

    eye = np.eye(2)
    rho = np.eye(4, dtype=complex)
    for i in range(3):
        rho += params.alpha[i] * np.kron(PAULIS[i], eye)
        rho += params.beta[i] * np.kron(eye, PAULIS[i])
        for j in range(3):
            rho += params.gamma[i, j] * np.kron(PAULIS[i], PAULIS[j])
    rho /= 4.0
    return require_density(rho, tol, "assembled two-qubit state")


def pauli_coefficients_by_kron(rho):
    """alpha, beta and gamma of a 4x4 matrix, each one trace against an ``np.kron`` product."""
    from rdl.operators import PAULIS

    eye = np.eye(2)
    alpha = np.array([np.trace(np.kron(p, eye) @ rho).real for p in PAULIS])
    beta = np.array([np.trace(np.kron(eye, p) @ rho).real for p in PAULIS])
    gamma = np.array([[np.trace(np.kron(p, q) @ rho).real for q in PAULIS] for p in PAULIS])
    return alpha, beta, gamma


def validate_members_one_by_one(members, dims, tol):
    """A state family's members validated one at a time, each fully before the next.

    Raises what the first bad member raises: DimensionError for a wrong shape,
    else whatever ``require_density`` raises for it.
    """
    from rdl.errors import DimensionError
    from rdl.operators import require_density

    for idx, m in enumerate(members):
        m = np.asarray(m, dtype=complex)
        if m.shape != (dims.joint, dims.joint):
            raise DimensionError(
                f"member {idx} has shape {m.shape}, expected ({dims.joint}, {dims.joint})"
            )
        require_density(m, tol, f"member {idx}")


def unit_rows_one_by_one(ops, d):
    """Unit-normalized real coordinates of the operators, each row's norm one ``np.linalg.norm`` call."""
    from rdl.operators import basis_coords

    rows = basis_coords(np.asarray(ops, dtype=complex), d).real
    return np.array([c / np.linalg.norm(c) for c in rows])


def span_dim_by_svd(ops, d, tol_rank):
    """Span rank counted from every singular value of the unit coordinate rows above ``tol_rank``."""
    rows = unit_rows_one_by_one(ops, d)
    return int(np.sum(np.linalg.svd(rows, compute_uv=False) > tol_rank))
