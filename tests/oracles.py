"""Independent reference implementations used only by the tests.

These deliberately avoid the library's vectorized code paths: the effective
matrix oracle is a literal per-cell enumeration of the delay-Doppler
input-output relation (with the wrap phase the library's chip-domain form
never writes out), the block and permutation helpers spell out the paper's
block structure of that matrix, the path statistic is a dense direct
computation, the Gram band oracle scatters one path pair at a time, the
linear-estimator oracle works from the SVD of the dense matrix, the OAMP
denoiser oracle weighs all four constellation points by a softmax, the hard
decision oracle takes the nearest of the four by their distances, the ODDM
modulator and matched filter build every symbol's pulse train sample by
sample from its defining formula, and the AWGN reference is the closed-form
Q-function bit error rate for Gray 4-QAM.  The pulse
orthogonality matrix checks the paper's near-orthogonality of the pulse
train by direct shifted inner products.
"""

import numpy as np
from scipy.special import erfc


def brute_force_effective_matrix(paths, M, N):
    """Dense MN x MN matrix from the per-cell input-output map.

    Each path (h, l, k) sends source symbol S(m - l, (n - k) mod N) to
    receiver cell (m, n) with accumulated phase exp(j*2*pi*k*(m - l)/(M*N));
    when m - l < 0 the source wraps to delay m - l + M and picks up the
    extra factor exp(-j*2*pi*n_src/N).
    """
    H = np.zeros((M * N, M * N), dtype=complex)
    for (h, l, k) in paths:
        for m in range(M):
            for n in range(N):
                m_src = m - l
                n_src = (n - k) % N
                phase = np.exp(2j * np.pi * k * (m - l) / (M * N))
                if m_src >= 0:
                    val = h * phase
                else:
                    m_src += M
                    val = h * phase * np.exp(-2j * np.pi * n_src / N)
                H[m * N + n, m_src * N + n_src] += val
    return H


def dense_channel(H):
    """Oracle matrix of an object with per-path ``gains``, ``l``, ``k`` and a ``config``."""
    return brute_force_effective_matrix(list(zip(H.gains, H.l, H.k)), H.config.M, H.config.N)


def cyclic_permutation(N):
    """Forward cyclic shift: (C x)[n] = x[(n-1) mod N]; C^N = I."""
    if N < 1:
        raise ValueError("N must be >= 1")
    C = np.zeros((N, N))
    idx = np.arange(N)
    C[idx, (idx - 1) % N] = 1.0
    return C


def phase_rotation(N):
    """Unitary diagonal diag(1, e^{-j2pi/N}, ..., e^{-j2pi(N-1)/N})."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return np.diag(np.exp(-2j * np.pi * np.arange(N) / N))


def build_block(G, l, m, config):
    """N x N Doppler-coupling block for delay offset l at block row m.

    Sums the Doppler rows of the gain matrix G, each contributing its cyclic
    Doppler shift weighted by the accumulated phase exp(j*2*pi*k*(m-l)/(MN)).
    Negative Doppler uses the transposed (inverse) cyclic shift.
    """
    G = np.asarray(G)
    rows, L = G.shape
    if rows % 2 != 1:
        raise ValueError("G must have an odd number of Doppler rows (2*L1+1)")
    L1 = (rows - 1) // 2
    if not 0 <= l < L:
        raise ValueError(f"delay offset l={l} outside [0, {L})")
    if not 0 <= m < config.M:
        raise ValueError(f"block row m={m} outside [0, {config.M})")
    N = config.N
    C = cyclic_permutation(N)
    A = np.zeros((N, N), dtype=complex)
    for k in range(-L1, L1 + 1):
        g = G[k + L1, l]
        if g == 0:
            continue
        Ck = np.linalg.matrix_power(C if k >= 0 else C.T, abs(k))
        A += g * np.exp(2j * np.pi * k * (m - l) / (config.M * config.N)) * Ck
    return A


def path_objective(p, y, s_known, hypotheses, gains, config):
    """Useful-signal-minus-interference statistic for path p's current cell.

    Q_p = |s^H H_p^H y| / (s^H H_p^H H_p s) is the matched-filter term; the
    interference term collects the other paths' correlations weighted by
    their current gains (its real part, so the statistic is real).
    """
    u = [brute_force_effective_matrix([(1.0, l, k)], config.M, config.N) @ s_known
         for l, k in hypotheses]
    denom = float(np.vdot(u[p], u[p]).real)
    b_p = np.vdot(u[p], y)
    q_term = abs(b_p) / denom
    i_term = 0.0
    for q, (uq, h) in enumerate(zip(u, gains)):
        if q == p:
            continue
        i_term += (h * np.vdot(u[p], uq) * np.conj(b_p)).real
    return q_term - i_term / denom


def gram_band(H):
    """Lower band storage of T = H_t H_t^H in the interleaved chip order (0, MN-1, 1, MN-2, ...).

    The literal pair loop: onto a zero diagonal, every path pair (p, r) in turn
    scatters its product h_p D_p Pi^{l_p - l_r} (h_r D_r)^H with ``np.add.at``;
    chip-order entry (q, c) lands on band row pos[q] - pos[c] of column pos[c]
    when that row is not negative, pos[q] being chip q's interleaved position.
    """
    n = H.config.mn
    perm = np.empty(n, dtype=np.int64)
    perm[0::2] = np.arange((n + 1) // 2)
    perm[1::2] = n - 1 - np.arange(n // 2)
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(n)
    q = np.arange(n)
    bands, cols, vals = [np.zeros(n, np.int64)], [q], [np.zeros(n, complex)]
    w = H.weights
    for p in range(H.P):
        for r in range(H.P):
            c = (q - H.l[p] + H.l[r]) % n
            j = pos[c]
            keep = pos >= j
            bands.append(pos[keep] - j[keep])
            cols.append(j[keep])
            vals.append(w[p, keep] * np.conj(w[r, c[keep]]))
    bands = np.concatenate(bands)
    ab = np.zeros((bands.max() + 1, n), dtype=complex)
    np.add.at(ab, (bands, np.concatenate(cols)), np.concatenate(vals))
    return ab


def dense_le(H, r, xis):
    """[(x, eps) for xi in xis] of the linear estimator from the dense MN x MN channel matrix H.

    x = H^H (H H^H + xi I)^{-1} r and eps = Tr(H^H (H H^H + xi I)^{-1} H) / MN
    from the singular value decomposition H = U diag(sv) V^H, taken once for
    every xi: x = V diag(sv / (sv^2 + xi)) U^H r and eps = mean(sv^2 / (sv^2 + xi)).
    H H^H is never formed, so small eigenvalues keep their relative accuracy;
    a direct solve of the formed H H^H + xi I is off by about 2e-10 relative
    at xi = 1e-6 on a channel whose smallest eigenvalue is 1e-14.
    """
    U, sv, Vh = np.linalg.svd(H)
    lam = sv ** 2
    r_u = U.conj().T @ r
    return [(Vh.conj().T @ (sv * r_u / (lam + xi)), float(np.mean(lam / (lam + xi))))
            for xi in xis]


def softmax_nle(r_t, v_le_sq, var_floor):
    """The OAMP denoiser's five outputs, its posterior taken as a softmax over the 4 points.

    Each component's weights over (+-1 +- j) / sqrt(2) are exp(-|r - x|^2 / v) with
    v = max(v_le_sq, var_floor), shifted by their maximum exponent before
    normalizing.  The posterior mean and variance are the weighted sums; the
    recentring and the non-contracting rule follow the detector's docstring.
    """
    points = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2.0)
    v = max(v_le_sq, var_floor)
    expo = -np.abs(r_t[:, None] - points[None, :]) ** 2 / v
    expo -= expo.max(axis=1, keepdims=True)
    w = np.exp(expo)
    w /= w.sum(axis=1, keepdims=True)
    post_mean = w @ points
    post_var = np.maximum(w @ (np.abs(points) ** 2) - np.abs(post_mean) ** 2, 0.0)
    v_post = max(float(post_var.mean()), var_floor)
    if v_post >= v * (1.0 - 1e-12):
        return post_mean, v_post, post_mean, post_var, True
    c = v / (v - v_post)
    s_next = c * (post_mean - (v_post / v) * r_t)
    v_next = max(1.0 / (1.0 / v_post - 1.0 / v), var_floor)
    return s_next, v_next, post_mean, post_var, False


def nearest_point_demap(symbols):
    """Bits of the nearest Gray 4-QAM point to each symbol, by the full distance table.

    The points (+-1 +- j) / sqrt(2) carry the labels 00, 01, 11, 10 in the order
    +1+j, -1+j, -1-j, +1-j, and of tied points the first wins.  The distances round
    when a component is within about 1e-16 |s|^2 of an axis.
    """
    points = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2.0)
    labels = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)
    symbols = np.asarray(symbols, dtype=complex).reshape(-1)
    d2 = np.abs(symbols[:, None] - points[None, :]) ** 2
    return labels[d2.argmin(axis=1)].reshape(-1)


def _oddm_symbol_trains(a, config, t):
    """Per delay slot m, the (N, t.size) rows u_{m,n}(t), n = 0..N-1.

    u_{m,n}(t) = sum_{n_hat} a(t - m*osf - n_hat*M*osf) * e^{j2pi n (t - m*osf)/(MN*osf)}
    with a(tau) the prototype sample at offset tau (zero outside |tau| <= Q*osf).
    The carrier is read from a table of the MN*osf roots of unity at the exact
    integer exponent n*(t - m*osf) mod MN*osf.
    """
    M, N, osf = config.M, config.N, config.oversampling
    qos = (a.size - 1) // 2
    n = np.arange(N)[:, None]
    roots = np.exp(2j * np.pi * np.arange(M * N * osf) / (M * N * osf))
    for m in range(M):
        train = np.zeros(t.size)
        for n_hat in range(N):
            tau = t - m * osf - n_hat * M * osf
            inside = np.abs(tau) <= qos
            train[inside] += a[tau[inside] + qos]
        yield m, train * roots[(n * (t - m * osf)) % (M * N * osf)]


def oddm_modulate_literal(S, a, config, cyclic_prefix_chips=0):
    """(samples, first sample index) of sum_{m,n} S(m, n) u_{m,n}(t), sample by sample.

    The stream covers t in [-cp*osf - Q*osf, MN*osf + Q*osf); a cyclic prefix
    of cp chips adds the frame's copy delayed by -MN*osf on t < Q*osf, so the
    prefix carries the frame tail.
    """
    osf, qos = config.oversampling, (a.size - 1) // 2
    L = config.M * config.N * osf
    start = -cyclic_prefix_chips * osf - qos
    t = np.arange(start, L + qos)
    x = np.zeros(t.size, dtype=complex)
    for m, u in _oddm_symbol_trains(a, config, t):
        x += S[m] @ u
    if cyclic_prefix_chips:
        head = t[t < qos]
        for m, u in _oddm_symbol_trains(a, config, head + L):
            x[:head.size] += S[m] @ u
    return x, start


def oddm_demodulate_literal(samples, start, a, config):
    """Y(m, n) = sum_t x(t) * conj(u_{m,n}(t)) over the stream's samples from index `start`."""
    t = start + np.arange(samples.size)
    Y = np.empty((config.M, config.N), dtype=complex)
    for m, u in _oddm_symbol_trains(a, config, t):
        Y[m] = u.conj() @ samples
    return Y


def pulse_orthogonality_matrix(a, config, m_range, n_range):
    """|<u, u shifted by m bins and n Doppler bins>| for the requested ranges.

    Entry (0, 0) is the train energy (1 for a normalized pulse); off-peak
    entries bound the self-interference left by pulse truncation.
    """
    M, N, osf = config.M, config.N, config.oversampling
    m_range = np.asarray(list(m_range), dtype=int)
    n_range = np.asarray(list(n_range), dtype=int)
    if np.any(np.abs(m_range) >= M) or np.any(np.abs(n_range) > N):
        raise ValueError("shift ranges exceed the grid")
    qos = (a.size - 1) // 2
    L = M * N * osf
    u = np.zeros(L + 2 * qos)
    for n_hat in range(N):
        start = n_hat * M * osf
        u[start:start + a.size] += a
    t = np.arange(-qos, L + qos)
    out = np.empty((m_range.size, n_range.size))
    for i, m in enumerate(m_range):
        shift = m * osf
        u_shift = np.zeros_like(u)
        if shift >= 0:
            u_shift[shift:] = u[:u.size - shift]
        else:
            u_shift[:shift] = u[-shift:]
        w = u * u_shift
        phase = np.exp(-2j * np.pi * np.outer(n_range, t - shift) / (N * M * osf))
        out[i, :] = np.abs(phase @ w)
    return out


def qpsk_awgn_ber(snr_db):
    """Gray 4-QAM bit error rate in AWGN at symbol SNR Es/N0 = 10^(snr/10)."""
    snr = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    return 0.5 * erfc(np.sqrt(snr / 2.0))


def count_bit_errors(tx_bits, rx_bits):
    tx = np.asarray(tx_bits).reshape(-1)
    rx = np.asarray(rx_bits).reshape(-1)
    assert tx.size == rx.size
    return int(np.sum(tx != rx))
