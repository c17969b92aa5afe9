"""Independent computation routes used to pin expected values in the tests.

Nothing in this module goes through the package's linear-algebra helpers.
Matrix products and tensor products are explicit Python loops over nested
lists, eigenvalues come from characteristic polynomials instead of a
Hermitian eigensolver, and entropies are scalar ``math.log2`` sums.  The
redundancy is the point: a bug shared between the package and these
routes would have to be introduced twice, independently.

The list routes take only ``numpy.roots`` from numpy, to solve the
characteristic polynomial; everything feeding it is hand-rolled.  The
channel route at the end (``choi``, ``report_from_channel``) is plain
numpy arrays and ``numpy.linalg.eigvalsh``: it reads a whole report off
the attack's Choi matrix, by formulas the package does not use.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# plain-list linear algebra


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    out = [[0j] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = 0j
            for t in range(k):
                s += a[i][t] * b[t][j]
            out[i][j] = s
    return out


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def dagger(a):
    n, m = len(a), len(a[0])
    return [[a[j][i].conjugate() for j in range(n)] for i in range(m)]


def vec_kron(u, v):
    return [x * y for x in u for y in v]


def mat_kron(a, b):
    n, m = len(a), len(a[0])
    p, q = len(b), len(b[0])
    out = [[0j] * (m * q) for _ in range(n * p)]
    for i in range(n):
        for j in range(m):
            for k in range(p):
                for l in range(q):
                    out[i * p + k][j * q + l] = a[i][j] * b[k][l]
    return out


def outer(u, v):
    return [[x * y.conjugate() for y in v] for x in u]


def identity(n):
    return [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


# ---------------------------------------------------------------------------
# spectra via characteristic polynomial (Faddeev-LeVerrier), dim <= 4


def char_poly_coeffs(a):
    """Coefficients [1, c1, ..., cn] of det(lambda*I - A)."""
    n = len(a)
    coeffs = [1.0 + 0j]
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -trace(m) / k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    return coeffs


def eigvals_via_charpoly(a):
    """Real eigenvalues of a Hermitian matrix, descending, via np.roots."""
    roots = np.roots(np.asarray(char_poly_coeffs(a)))
    assert max(abs(r.imag) for r in roots) < 1e-7, "non-real root for Hermitian input"
    return sorted((float(r.real) for r in roots), reverse=True)


def entropy_from_spectrum(lams):
    s = 0.0
    for lam in lams:
        # root-finding error near zero can reach ~1e-8 for quartics
        assert lam > -1e-6, f"spectrum oracle got eigenvalue {lam}"
        if lam > 1e-12:
            s -= lam * math.log2(lam)
    return s


def entropy_via_charpoly(a):
    return entropy_from_spectrum(eigvals_via_charpoly(a))


def binary_entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


# ---------------------------------------------------------------------------
# the two-qubit probe built from its eight outer-product terms

_TERMS = (
    ((0, 0), (0, 0), +1),
    ((1, 0), (0, 0), +1),
    ((0, 1), (0, 1), +1),
    ((1, 1), (0, 1), +1),
    ((0, 0), (1, 0), -1),
    ((1, 0), (1, 0), +1),
    ((0, 1), (1, 1), -1),
    ((1, 1), (1, 1), +1),
)


def probe_unitary():
    """4x4 coupling assembled term by term, scaled by sqrt(1/2)."""
    basis = {(i, j): vec_kron([1.0 if t == i else 0.0 for t in range(2)],
                              [1.0 if a == j else 0.0 for a in range(2)])
             for i in range(2) for j in range(2)}
    u = [[0j] * 4 for _ in range(4)]
    w = math.sqrt(0.5)
    for ket, bra, sign in _TERMS:
        term = outer(basis[ket], basis[bra])
        for r in range(4):
            for c in range(4):
                u[r][c] += sign * w * term[r][c]
    return u


def probe_ancilla():
    w = math.sqrt(0.5)
    return [w + 0j, w + 0j]


def rotation_quarter():
    """sqrt(1/2) * [[1, -1], [1, 1]], the travel-only factor of the probe."""
    w = math.sqrt(0.5)
    return [[w + 0j, -w + 0j], [w + 0j, w + 0j]]


def attacked_state(travel, chi, unitary):
    return mat_vec(unitary, vec_kron(travel, chi))


def dephased_mixture_entropy(psi, ancilla_dim):
    """Entropy of (|psi><psi| + Zt|psi><psi|Zt)/2 with Zt on the travel qubit.

    An equal mixture of two pure states has rank at most 2 and eigenvalues
    (1 +- |<psi|phi>|)/2, so only the overlap magnitude is needed.
    """
    overlap = 0j
    for k, amp in enumerate(psi):
        z = 1.0 - 2.0 * ((k // ancilla_dim) % 2)
        overlap += amp.conjugate() * z * amp
    ov = abs(overlap)
    return entropy_from_spectrum([(1.0 + ov) / 2.0, (1.0 - ov) / 2.0])


def binomial_sigma(p, n):
    return math.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# every report field from the channel's Choi matrix J


def choi(w):
    """J = Σ_ij |i><j| ⊗ N(|i><j|) (input ⊗ output) of N(X) = Tr_anc(W X W†),
    for an (n, 2) isometry W from the travel qubit into travel⊗ancilla."""
    m = w.shape[0] // 2
    v = w.reshape(2, m, 2).transpose(2, 0, 1).reshape(4, m)  # v[(i, t), a] = <t, a|W|i>
    return v @ v.conj().T


def _channel(j, x):
    """N(X) = Σ_ij X_ij N(|i><j|) for a 2×2 input X."""
    return np.einsum("ij,itjs->ts", x, j.reshape(2, 2, 2, 2))


def _entropy(a):
    lams = np.linalg.eigvalsh(a)
    lams = lams[lams > 1e-300]
    return float(-(lams * np.log2(lams)).sum())


def report_from_channel(j, config):
    """The six report fields of an attack with Choi matrix ``j``.

    Simplified mode, |b> sent: ρ_t = N(|b><b|), d = 1 - <b|ρ_t|b>,
    i0a = S(ρ_t) (the attacked state is pure), i0t = S(Σ p_k E_k ρ_t E_k†),
    and i0c = S(G) for the Gram matrix G_lk = √(p_l p_k) Tr(E_l† E_k ρ_t) of
    the pure members, so holevo_c = i0c.  Bell mode, pair (|01> + |10>)/√2:
    d = ½(<0|N(|1><1|)|0> + <1|N(|0><0|)|1>), i0a = S(J/2),
    i0t = S(Σ p_k E_k N(I/2) E_k†), and i0c = S(M) for the 2K×2K matrix
    M_(l,h'),(k,h) = ½ √(p_l p_k) Tr(E_l† E_k N(|1-h><1-h'|)); every member
    has composite entropy 1 and travel entropy S(N(I/2)).  The Holevo
    bounds are clamped at 0, as a report clamps them.
    """
    ops = np.array([op.entries for op in config.encoding_ops])
    p = np.array(config.priors)
    k = len(ops)

    def traces(x):  # the K×K matrix √(p_l p_k) Tr(E_l† E_k X)
        return np.sqrt(np.outer(p, p)) * np.einsum("lst,ksu,ut->lk", ops.conj(), ops, x)

    if config.mode == "simplified":
        b = config.bob_initial.amplitudes
        travel_in = _channel(j, np.outer(b, b.conj()))
        d = 1.0 - np.vdot(b, travel_in @ b).real
        s_member_t, s_member_c = _entropy(travel_in), 0.0
        i0a = s_member_t
        gram = traces(travel_in)
    else:
        e = np.eye(2)
        d = 0.5 * (_channel(j, np.outer(e[1], e[1]))[0, 0] + _channel(j, np.outer(e[0], e[0]))[1, 1]).real
        travel_in = _channel(j, e / 2)
        s_member_t, s_member_c = _entropy(travel_in), 1.0
        i0a = _entropy(j / 2)
        gram = np.zeros((k, 2, k, 2), dtype=complex)
        for h in range(2):
            for h2 in range(2):
                gram[:, h2, :, h] = 0.5 * traces(_channel(j, np.outer(e[1 - h], e[1 - h2])))
        gram = gram.reshape(2 * k, 2 * k)
    i0t = _entropy(np.einsum("k,kts,su,kvu->tv", p, ops, travel_in, ops.conj()))
    i0c = _entropy(gram)
    return {
        "d": min(max(float(d), 0.0), 1.0),
        "i0t": i0t,
        "i0a": i0a,
        "i0c": i0c,
        "holevo_t": max(0.0, i0t - s_member_t),
        "holevo_c": max(0.0, i0c - s_member_c),
    }


# frozen scalars, each double-checked against the routes above at test time
BINARY_ENTROPY_011 = 0.499915958164528
ENTROPY_DIAG_09_01 = 0.4689955935892812
