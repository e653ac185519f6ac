"""Independent references the benchmark checks the program's outputs against.

- Published levels E_0..E_3 of g x^2 + x^(2N) for N = 4..7 at the paper's
  nine couplings. Six printed entries are misprints: there the value below
  is the consensus of three independent recomputations (float64 series,
  the same series at 40 digits, Richardson-extrapolated Numerov shooting),
  which agree with each other to ~2e-8.
- Every other oscillator level comes from the Numerov shooting oracle with
  Richardson extrapolation, which shares no code with the series engine.
- F(E) itself is re-summed from the recurrences with mpmath, sharing no
  code with the package.
- The solvable wells have closed-form levels.
"""

import math

G_VALUES = (-20.0, -10.0, -1.0, -0.1, 0.0, 0.1, 1.0, 10.0, 20.0)

LEVEL_TOL = 1e-6

TABLE = {
    4: {
        -20.0: (-15.62781592, -15.60343038, -1.99756805, 0.04909259),
        -10.0: (-3.89894214, -3.32541335, 3.26415045, 8.82212629),
        -1.0: (0.93527862, 4.11346827, 9.49008984, 16.49163253),
        -0.1: (1.19798114, 4.69299658, 10.16968229, 17.25807961),
        0.0: (1.22582011, 4.75587441, 10.24494698, 17.34308797),
        0.1: (1.25340643, 4.81845727, 10.32015025, 17.42806187),
        1.0: (1.49101990, 5.36877806, 10.99373734, 18.19110002),
        10.0: (3.21296474, 9.86889192, 17.20002166, 25.52311499),
        20.0: (4.48741520, 13.54543209, 22.89430780, 32.78247104),
    },
    5: {
        -20.0: (-11.56630147, -11.45854677, 0.56494700, 4.90729085),
        -10.0: (-2.83782675, -1.83075483, 4.90946147, 11.94279256),
        -1.0: (1.03205834, 4.51533389, 10.48697985, 18.45464482),
        -0.1: (1.27308185, 5.04058836, 11.08762465, 19.11537634),
        0.0: (1.29884370, 5.09787653, 11.15431820, 19.18880956),
        0.1: (1.32441224, 5.15495387, 11.22099452, 19.26224408),
        1.0: (1.54626351, 5.65933772, 11.81996788, 19.92310357),
        10.0: (3.21711708, 9.93229322, 17.51589563, 26.43450876),
        20.0: (4.48623513, 13.55329264, 22.99231828, 33.19354764),
    },
    6: {
        -20.0: (-9.36607177, -9.13010587, 2.01035459, 7.97554684),
        -10.0: (-2.24187409, -0.87004433, 6.12159677, 14.16512836),
        -1.0: (1.11369983, 4.84470202, 11.28130698, 19.99987959),
        -0.1: (1.33949907, 5.33347217, 11.83181276, 20.59539382),
        0.0: (1.36376149, 5.38694202, 11.89300908, 20.66163760),
        0.1: (1.38786579, 5.44024556, 11.95420520, 20.72789495),
        1.0: (1.59799050, 5.91264617, 12.50470842, 21.32474109),
        10.0: (3.22441873, 10.00630419, 17.83164730, 27.27876498),
        20.0: (4.48680192, 13.57082013, 23.11371663, 33.63281210),
    },
    7: {
        -20.0: (-7.97489149, -7.59026706, 3.05916112, 10.19269195),
        -10.0: (-1.84740624, -0.17159144, 7.07320094, 15.87259291),
        -1.0: (1.18393765, 5.12329191, 11.93911991, 21.26204013),
        -0.1: (1.39832030, 5.58552094, 12.45475050, 21.81341553),
        0.0: (1.42143888, 5.63618503, 12.51210199, 21.87477520),
        0.1: (1.44442247, 5.68671175, 12.56946066, 21.93615283),
        1.0: (1.64542730, 6.13534277, 13.08581400, 22.48930458),
        10.0: (3.23335919, 10.08415888, 18.13465608, 28.04433038),
        20.0: (4.48835326, 13.59428939, 23.24781210, 34.07417453),
    },
}


def potential_minimum(g, N):
    """min over x of g x^2 + x^(2N)."""
    if g >= 0:
        return 0.0
    t = (-g / N) ** (1.0 / (N - 1))
    return g * t * (1.0 - 1.0 / N)


class LevelReference:
    """Reference energy of the j-th lowest level (parities merged: in one
    dimension levels alternate even, odd, even, ...), memoised per run so
    the oracle runs once per distinct level."""

    def __init__(self):
        self._cache = {}

    def __call__(self, N, g, j):
        key = (N, float(g), j)
        if key not in self._cache:
            row = TABLE.get(N, {}).get(float(g))
            if row is not None and j < len(row):
                self._cache[key] = row[j]
            else:
                from anharmonic.numerov import EvenPolynomial, richardson_eigenvalue

                ordinal, parity = divmod(j, 2)
                pot = EvenPolynomial.oscillator(float(g), N)
                self._cache[key] = richardson_eigenvalue(pot, ordinal, parity)[0]
        return self._cache[key]


def pt_level(kappa, lam, n):
    return (kappa + lam + 2 * n) ** 2


def mpt_levels(lam, parity_mu):
    """Positive kappa/alpha levels of one branch, largest first."""
    x = lam - 1.0 if parity_mu == 0.0 else lam - 2.0
    out = []
    while x > 0.0:
        out.append(x)
        x -= 2.0
    return out


def morse_levels(goa):
    """Textbook beta/alpha levels, largest first; the zeros of the
    finite-boundary quantization function sit within ~1e-5 of them at
    y0 ~ 30, far inside MORSE_TOL."""
    out = []
    n = 0
    while goa - n - 0.5 > 0.0:
        out.append(goa - n - 0.5)
        n += 1
    return out


MORSE_TOL = 1e-3


def quantization_mp(N, nu, g, energy, n, m_max, dps=40):
    """F(E) at free index n and its term scale, summed with mpmath over
    m < m_max from the recurrences

        (i+nu)(i+nu-1) b_i = -E b_{i-2} + g b_{i-4} + 2(i - N/2 - 1 + nu) b_{i-N-1}
        -2m h_m = (m - N/2)(m - N/2 - 1) h_{m-N-1} + E h_{m-N+1} - g h_{m-N+3}
        gamma_k = sum_m (-2m - k - nu + mu) b_{m+k} h_m,   mu = -N/2
        F = sum_L Gamma(n+1+delta_L) ((N+1)/2)^(L/(N+1)) gamma_{k_L}

    with delta_L = (nu + mu + L)/(N+1) and k_L = n(N+1) + 1 + L.
    """
    import mpmath as mp

    with mp.workdps(dps):
        E = mp.mpf(energy)
        G = mp.mpf(g)
        half = mp.mpf(N) / 2
        k_max = n * (N + 1) + 1 + N
        count = m_max + k_max + 1
        b = [mp.mpf(0)] * count
        b[0] = mp.mpf(1)
        for i in range(2, count):
            s = -E * b[i - 2]
            if i >= 4:
                s += G * b[i - 4]
            if i >= N + 1:
                s += 2 * (i - half - 1 + nu) * b[i - N - 1]
            b[i] = s / ((i + nu) * (i + nu - 1))
        h = [mp.mpf(0)] * m_max
        h[0] = mp.mpf(1)
        for m in range(1, m_max):
            s = mp.mpf(0)
            if m - N - 1 >= 0:
                s += (m - half) * (m - half - 1) * h[m - N - 1]
            if m - N + 1 >= 0:
                s += E * h[m - N + 1]
            if m - N + 3 >= 0:
                s -= G * h[m - N + 3]
            h[m] = s / (-2 * m)
        terms = []
        for L in range(N + 1):
            k = n * (N + 1) + 1 + L
            gam = mp.fsum(
                (-2 * m - k - nu - half) * b[m + k] * h[m]
                for m in range(m_max)
                if h[m] != 0
            )
            delta = (nu - half + L) / (N + 1)
            weight = (mp.mpf(N + 1) / 2) ** (mp.mpf(L) / (N + 1))
            terms.append(mp.gamma(n + 1 + delta) * weight * gam)
        return float(mp.fsum(terms)), float(max(abs(t) for t in terms))


F_REL_TOL = 1e-8


def check_quantization(N, nu, g, energy, ev, resum):
    """None if the evaluation ev is converged and describes the requested
    point and, when resum is set, matches the mpmath re-summation within
    F_REL_TOL of the term scale; else a one-line reason."""
    if not (math.isfinite(ev.value) and ev.converged and ev.ratio_ok is not False):
        return f"unconverged or non-finite F ({ev.value!r}, ratio_ok={ev.ratio_ok})"
    if ev.energy != energy or len(ev.gamma_values) != N + 1:
        return "evaluation does not describe the requested point"
    if not resum:
        return None
    # terms_used counts steps on the support lattice of spacing d; the
    # program stopped on negligible terms, so a short margin covers the tail
    d = N + 1
    if energy != 0.0:
        d = math.gcd(d, 2)
    if g != 0.0:
        d = math.gcd(d, 4)
    m_max = d * (max(ev.terms_used) + 32)
    value, scale = quantization_mp(N, nu, g, energy, ev.n_index, m_max)
    if abs(ev.value - value) > F_REL_TOL * scale:
        return f"F={ev.value!r} but the mpmath re-summation gives {value!r} (scale {scale:.3e})"
    return None
