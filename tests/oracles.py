"""Independent reference implementations used only by the tests.

These deliberately avoid the library's vectorized code paths: the effective
matrix oracle is a literal per-cell enumeration of the delay-Doppler
input-output relation, the linear-estimator oracle is a dense direct solve
with an explicit trace, and the AWGN reference is the closed-form Q-function
bit error rate for Gray 4-QAM.
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


def dense_le(H, r, xi):
    """(z, eps) of the linear estimator from the dense MN x MN channel matrix H.

    z = (H H^H + xi I)^{-1} r by a direct solve and
    eps = Tr(H^H (H H^H + xi I)^{-1} H) / MN from the explicit trace.
    """
    n = H.shape[0]
    A = H @ H.conj().T + xi * np.eye(n)
    z = np.linalg.solve(A, r)
    eps = np.trace(H.conj().T @ np.linalg.solve(A, H)).real / n
    return z, eps


def qpsk_awgn_ber(snr_db):
    """Gray 4-QAM bit error rate in AWGN at symbol SNR Es/N0 = 10^(snr/10)."""
    snr = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    return 0.5 * erfc(np.sqrt(snr / 2.0))


def count_bit_errors(tx_bits, rx_bits):
    tx = np.asarray(tx_bits).reshape(-1)
    rx = np.asarray(rx_bits).reshape(-1)
    assert tx.size == rx.size
    return int(np.sum(tx != rx))
