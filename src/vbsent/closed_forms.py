"""Closed-form entanglement quantities of the decorated spin-1 chain.

Every function here evaluates an analytic expression; nothing diagonalizes
a matrix.  Lengths count bulk spin-1 sites and the single decay parameter
is z(L) = (-1/3)^L, computed as an exact integer ratio converted to float
once so large L cannot accumulate pow() error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import SpectrumReport, spectrum_report

# channel sign vector s_mu; mu=2 is the singlet channel, the rest triplet
CHANNEL_SIGNS = (-1, -1, 3, -1)

# multiplicities of (p1 root, p2 roots x2, p3 roots x3) in the 16-dim spectrum
DISJOINT_MULTIPLICITIES = (5, 1, 1, 3, 3, 3)

LOG2 = math.log(2.0)

P_DEGENERATE_TOL = 1e-14
ARCCOS_CLAMP_TOL = 1e-12


# 3^-L rounds to zero in binary64 from here on
UNDERFLOW_LENGTH = 679


def decay_parameter(length: int) -> float:
    """z(L) = (-1/3)^L via one integer-over-integer division.

    Past the underflow length the result is the signed zero of (-1)^L,
    returned at once instead of after an exact L-digit power.
    """
    length = int(length)
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    sign = -1 if length % 2 else 1
    if length >= UNDERFLOW_LENGTH:
        return sign * 0.0
    return sign / 3**length


def _xlogx(value: float) -> float:
    return 0.0 if value <= 0.0 else value * math.log(value)


@dataclass(frozen=True)
class ChannelWeights:
    """Per-channel weights w_mu(L) = (1 + s_mu z)/4 of a length-L block."""

    length: int
    z: float
    weights: tuple[float, float, float, float]

    @classmethod
    def from_length(cls, length: int) -> "ChannelWeights":
        if length < 1:
            raise ValueError(f"block length must be >= 1, got {length}")
        z = decay_parameter(length)
        w = tuple((1.0 + s * z) / 4.0 for s in CHANNEL_SIGNS)
        return cls(int(length), z, w)

    # the singlet weight vanishes exactly at L=1: 3*(1/3) rounds to 1.0
    @property
    def singlet(self) -> float:
        return self.weights[2]

    @property
    def triplet(self) -> float:
        return self.weights[0]


@dataclass(frozen=True)
class PairWeights:
    """Products of the two blocks' singlet/triplet weights."""

    x1: float
    x2: float
    lam00: float
    lam10: float
    lam11: float

    @classmethod
    def from_lengths(cls, L1: int, L2: int) -> "PairWeights":
        a = ChannelWeights.from_length(L1)
        b = ChannelWeights.from_length(L2)
        return cls(
            x1=a.z,
            x2=b.z,
            lam00=a.singlet * b.singlet,
            lam10=a.singlet * b.triplet + b.singlet * a.triplet,
            lam11=a.triplet * b.triplet,
        )


@dataclass(frozen=True)
class LinearCoefficients:
    """Monic linear factor y + b."""

    b: float

    @property
    def root(self) -> float:
        return -self.b


@dataclass(frozen=True)
class QuadraticCoefficients:
    """Monic quadratic y^2 + b y + c with real roots."""

    b: float
    c: float

    def roots(self) -> tuple[float, float]:
        disc = self.b * self.b - 4.0 * self.c
        if disc < 0.0:
            if disc < -1e-14:
                raise ValueError(f"quadratic has complex roots (disc={disc:.3e})")
            disc = 0.0
        s = math.sqrt(disc)
        # Citardauq-style pairing avoids cancellation in the small root
        if self.b >= 0.0:
            r1 = (-self.b - s) / 2.0
        else:
            r1 = (-self.b + s) / 2.0
        r2 = self.c / r1 if r1 != 0.0 else (-self.b - r1)
        return (r1, r2) if r1 <= r2 else (r2, r1)

    def evaluate(self, y: float) -> float:
        return (y + self.b) * y + self.c


@dataclass(frozen=True)
class CubicCoefficients:
    """Monic cubic y^3 + b y^2 + c y + d and its depressed form."""

    b: float
    c: float
    d: float

    @property
    def p(self) -> float:
        return (3.0 * self.c - self.b * self.b) / 3.0

    @property
    def q(self) -> float:
        b, c, d = self.b, self.c, self.d
        return (2.0 * b**3 - 9.0 * b * c + 27.0 * d) / 27.0

    def evaluate(self, y: float) -> float:
        return ((y + self.b) * y + self.c) * y + self.d


def _arccos_clamped(value: float) -> float:
    if value > 1.0:
        if value > 1.0 + ARCCOS_CLAMP_TOL:
            raise ValueError(f"arccos argument {value!r} out of range")
        value = 1.0
    elif value < -1.0:
        if value < -1.0 - ARCCOS_CLAMP_TOL:
            raise ValueError(f"arccos argument {value!r} out of range")
        value = -1.0
    return math.acos(value)


def cubic_roots_trig(coeffs: CubicCoefficients) -> tuple[float, float, float]:
    """All three real roots, ascending, by the trigonometric method.

    Requires p <= 0 (three real roots).  |p| <= 1e-14 is treated as the
    triple root -b/3; p > 1e-14 is rejected since the density-matrix
    cubics handled here never develop complex roots.
    """
    if coeffs.d == 0.0:
        # vanished singlet channels zero the constant term exactly; split
        # off the exact root instead of asking the trig form to find a
        # double root it can only approach linearly
        quad = QuadraticCoefficients(coeffs.b, coeffs.c).roots()
        return tuple(sorted((0.0,) + quad))
    p, q = coeffs.p, coeffs.q
    if p > P_DEGENERATE_TOL:
        raise ValueError(f"cubic has complex roots (p={p:.3e} > 0)")
    shift = -coeffs.b / 3.0
    if abs(p) <= P_DEGENERATE_TOL:
        return (shift, shift, shift)
    magnitude = 2.0 * math.sqrt(-p / 3.0)
    theta = _arccos_clamped(1.5 * (q / p) * math.sqrt(-3.0 / p))
    roots = sorted(
        _newton_polish(coeffs, magnitude * math.cos((theta - 2.0 * math.pi * k) / 3.0) + shift)
        for k in range(3)
    )
    return tuple(roots)


def _newton_polish(coeffs: CubicCoefficients, root: float, steps: int = 2) -> float:
    """Tighten a trig-method root; the arccos route loses ~1e-10 when two
    roots nearly coincide and the polish restores full precision."""
    for _ in range(steps):
        value = coeffs.evaluate(root)
        slope = 3.0 * root * root + 2.0 * coeffs.b * root + coeffs.c
        if slope == 0.0:
            break
        step = value / slope
        root -= step
        if abs(step) <= 1e-16 * max(1.0, abs(root)):
            break
    return root


def cubic_min_root_sine(coeffs: CubicCoefficients) -> float:
    """Smallest real root via the sine-offset form of the trig method.

    -2 sqrt(-p/3) sin(arccos(arg)/3 + pi/6) - b/3; identical guards as
    cubic_roots_trig.
    """
    if coeffs.d == 0.0:
        return cubic_roots_trig(coeffs)[0]
    p, q = coeffs.p, coeffs.q
    if p > P_DEGENERATE_TOL:
        raise ValueError(f"cubic has complex roots (p={p:.3e} > 0)")
    shift = -coeffs.b / 3.0
    if abs(p) <= P_DEGENERATE_TOL:
        return shift
    theta = _arccos_clamped(1.5 * (q / p) * math.sqrt(-3.0 / p))
    root = -2.0 * math.sqrt(-p / 3.0) * math.sin(theta / 3.0 + math.pi / 6.0) + shift
    return _newton_polish(coeffs, root)


def pure_block_spectrum(length: int) -> SpectrumReport:
    """Reduced-density spectrum of one block of a pure chain: singlet + 3 triplet."""
    w = ChannelWeights.from_length(length)
    return spectrum_report([w.singlet, w.triplet, w.triplet, w.triplet])


def pure_block_entanglement_xi(length: int) -> tuple[float, float]:
    """(xi_singlet, xi_triplet) = (ln(4/(1+3z)), ln(4/(1-z))).

    At length 1 the singlet weight vanishes exactly and its level sits at
    +inf.
    """
    z = decay_parameter(length)
    singlet = 1.0 + 3.0 * z
    xi_s = math.inf if singlet == 0.0 else math.log(4.0 / singlet)
    return xi_s, math.log(4.0 / (1.0 - z))


def pure_pt_spectrum(length: int) -> SpectrumReport:
    """Partial-transpose spectrum across a single cut at block length L >= 1.

    Multiset {t x6, -t x3, +sqrt(st) x3, -sqrt(st) x3, s x1}; negativity
    3(t + sqrt(st)).
    """
    if length < 1:
        raise ValueError(f"block length must be >= 1, got {length}")
    w = ChannelWeights.from_length(length)
    s, t = w.singlet, w.triplet
    cross = math.sqrt(s * t)
    values = [t] * 6 + [-t] * 3 + [cross] * 3 + [-cross] * 3 + [s]
    return spectrum_report(values)


def bipartition_L0_pt_spectrum() -> SpectrumReport:
    """Cut through a single bond: PT spectrum {1/2 x3, -1/2}, negativity 1/2."""
    return spectrum_report([0.5, 0.5, 0.5, -0.5])


def _check_disjoint_lengths(L1: int, L: int, L2: int) -> None:
    if L1 < 1 or L2 < 1:
        raise ValueError(f"block lengths must be >= 1, got ({L1}, {L2})")
    if L < 1:
        raise ValueError(f"separation must be >= 1 for disjoint blocks, got {L}")


def _char_polys_from_weights(
    pw: PairWeights, z: float
) -> tuple[LinearCoefficients, QuadraticCoefficients, CubicCoefficients]:
    l00, l10, l11 = pw.lam00, pw.lam10, pw.lam11
    p1 = LinearCoefficients(b=-(1.0 - z) * l11)
    p2 = QuadraticCoefficients(
        b=-(l00 + (1.0 + 2.0 * z) * l11),
        c=(1.0 - z) * (1.0 + 3.0 * z) * l00 * l11,
    )
    p3 = CubicCoefficients(
        b=-(l10 + l11 * (1.0 + z)),
        c=((1.0 + z) * l00 + (1.0 + 2.0 * z) * l10) * (1.0 - z) * l11,
        d=-((1.0 - z) ** 2) * (1.0 + 3.0 * z) * l00 * l11**2,
    )
    return p1, p2, p3


def disjoint_char_polys(
    L1: int, L: int, L2: int
) -> tuple[LinearCoefficients, QuadraticCoefficients, CubicCoefficients]:
    """Characteristic factors p(Y) = p1^5 p2 p3^3 of the two-block operator."""
    _check_disjoint_lengths(L1, L, L2)
    pw = PairWeights.from_lengths(L1, L2)
    return _char_polys_from_weights(pw, decay_parameter(L))


def _spectrum_from_polys(p1, p2, p3) -> list[float]:
    values = [p1.root] * 5
    for r in p2.roots():
        values.append(r)
    for r in cubic_roots_trig(p3):
        values.extend([r] * 3)
    return values


def disjoint_spectrum(L1: int, L: int, L2: int) -> SpectrumReport:
    """All 16 eigenvalues of the two-block operator at separation L >= 1."""
    values = _spectrum_from_polys(*disjoint_char_polys(L1, L, L2))
    return spectrum_report(values)


@dataclass(frozen=True)
class AsymptoticSpectrum:
    """Large-length 16-eigenvalue model around the maximally mixed point.

    eigenvalues/xi/xi_linear share one fixed order: the 11-fold value,
    the 3-fold value, then the + and - members of the split pair.  xi is
    the exact -ln(eigenvalue); xi_linear is the quoted linearized display,
    which is tangent to xi only along single-parameter directions (its
    split-pair entries carry the radical with coefficient 1, not the
    factor 2 a strict first-order expansion of the pair produces).
    """

    eigenvalues: tuple[float, ...]
    xi: tuple[float, ...]
    xi_linear: tuple[float, ...]

    def report(self) -> SpectrumReport:
        return spectrum_report(self.eigenvalues)


def asymptotic_disjoint_spectrum(x1: float, x2: float, z: float) -> AsymptoticSpectrum:
    """16-eigenvalue model: 11 low, 3 high, one radical-split pair.

    A level the model puts at or below 0 (the high triplet at gap 1 with
    long blocks, where t -> -1/3) has xi = +inf.
    """
    for name, v in (("x1", x1), ("x2", x2), ("z", z)):
        if abs(v) > 1.0 / 3.0 + 1e-15:
            raise ValueError(f"|{name}| must be <= 1/3, got {v!r}")
    t = x1 + x2 + z
    radical = math.sqrt(z * z + (x1 + x2) * (x1 + x2 - z))
    low = (1.0 - t) / 16.0
    high = (1.0 + 3.0 * t) / 16.0
    plus = (1.0 + t) / 16.0 + radical / 8.0
    minus = (1.0 + t) / 16.0 - radical / 8.0
    eigenvalues = (low,) * 11 + (high,) * 3 + (plus, minus)
    xi = tuple(math.inf if v <= 0.0 else -math.log(v) for v in eigenvalues)
    four_ln2 = 4.0 * LOG2
    xi_linear = (
        (four_ln2 + t,) * 11
        + (four_ln2 - 3.0 * t,) * 3
        + (four_ln2 - t - radical, four_ln2 - t + radical)
    )
    return AsymptoticSpectrum(eigenvalues, xi, xi_linear)


def _check_pair_lengths(L1: int, L2: int) -> None:
    if L1 < 1 or L2 < 1:
        raise ValueError(f"block lengths must be >= 1, got ({L1}, {L2})")


def adjacent_pt_char_polys(
    L1: int, L2: int
) -> tuple[LinearCoefficients, QuadraticCoefficients, CubicCoefficients]:
    """PT characteristic factors for touching blocks: the z=-1 polynomials."""
    _check_pair_lengths(L1, L2)
    pw = PairWeights.from_lengths(L1, L2)
    return _char_polys_from_weights(pw, -1.0)


def adjacent_pt_spectrum(L1: int, L2: int) -> SpectrumReport:
    """All 16 PT eigenvalues for touching blocks (4 of them negative)."""
    values = _spectrum_from_polys(*adjacent_pt_char_polys(L1, L2))
    return spectrum_report(values)


@dataclass(frozen=True)
class AdjacentNegativity:
    y1: float
    y2: float
    negativity: float
    log_negativity: float


def adjacent_pt_negativity(L1: int, L2: int) -> AdjacentNegativity:
    """Negative PT eigenvalues y1 (x1) and y2 (x3) for touching blocks.

    y1 in closed quadratic form, y2 from the sine-form cubic root; the
    negativity is -(y1 + 3 y2) and the logarithmic negativity
    log2(1 - 2(y1 + 3 y2)).
    """
    _check_pair_lengths(L1, L2)
    pw = PairWeights.from_lengths(L1, L2)
    l00, l11 = pw.lam00, pw.lam11
    y1 = 0.5 * (
        l00 - l11 - math.sqrt(l00 * l00 + 14.0 * l00 * l11 + l11 * l11)
    )
    _, _, p3 = _char_polys_from_weights(pw, -1.0)
    y2 = cubic_min_root_sine(p3)
    total = y1 + 3.0 * y2
    return AdjacentNegativity(
        y1=y1,
        y2=y2,
        negativity=-total,
        log_negativity=math.log2(1.0 - 2.0 * total),
    )


def adjacent_negativity_equal(length: int) -> float:
    """Equal-blocks negativity N(l) as a single radical expression.

    The second radical carries coefficient 3/2, pinned by the x->0 limit
    (N -> 1/2) and by N(1) = 1/9; the coefficient 3/4 fails both.
    """
    if length < 1:
        raise ValueError(f"block length must be >= 1, got {length}")
    x = decay_parameter(length)
    inner = math.sqrt(1.0 + 4.0 * x + 2.0 * x**2 - 4.0 * x**3 + 13.0 * x**4)
    outer = math.sqrt((1.0 + 3.0 * x) * (1.0 - x) ** 3)
    return -0.25 * (x + x * x - 0.5 * inner - 1.5 * outer)


def adjacent_negativity_asymptote(L1: int, L2: int) -> float:
    """Large-length trend 1/2 - (3/4)(x1^2 + x2^2)."""
    x1 = decay_parameter(L1)
    x2 = decay_parameter(L2)
    return 0.5 - 0.75 * (x1 * x1 + x2 * x2)


def mutual_information(z: float) -> float:
    """I(z) = (3/4)(1-z)ln(1-z) + (1/4)(1+3z)ln(1+3z), with 0 ln 0 = 0."""
    return 0.75 * _xlogx(1.0 - z) + 0.25 * _xlogx(1.0 + 3.0 * z)


def joint_entropy(z: float) -> float:
    """S[A,B](z) for two infinite blocks; satisfies I = 4 ln 2 - S[A,B]."""
    s = 2.0 * LOG2
    u, v = 1.0 - z, 1.0 + 3.0 * z
    if u > 0.0:
        s -= 0.75 * u * math.log(u / 4.0)
    if v > 0.0:
        s -= 0.25 * v * math.log(v / 4.0)
    return s
