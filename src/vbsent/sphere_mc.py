"""Monte Carlo checks of the classical-spinor representation.

Ground-state overlaps of the chain can be written as integrals over one
unit vector per site, omega = (s cos(phi), s sin(phi), c) with
c = cos(theta) and s = sin(theta), with one factor (1 - omega_i .
omega_j) per bond.  A block's mode overlaps add a bilinear form in
(1, omega) of its first and last sites, the spinor products written
through phi phi^dagger = (I + n . sigma)/2.  The estimators below sample
those integrals with a deterministic, seedable generator; they exist to
validate sign conventions, not to compete with the closed forms.

An estimate reads the angles cos(theta) and phi of one default_rng(seed)
stream in one fixed order (every cos(theta), then every phi), the stream
``SphereConfig.sample`` draws whole.  It evaluates them in row blocks of
``ROW_BLOCK`` samples, draws each block's angles only when it evaluates the
block, and reduces each block's values to their sum and centred sum of
squares as soon as they are evaluated, so no estimate holds the angles or
the values of more than one block per thread: its memory is those block
temporaries plus 16 B per block, whatever the sample count.  A bond takes
one cosine, omega_i . omega_j = s_i s_j cos(phi_i - phi_j) + c_i c_j, and
an overlap's end-site form one or two sines or cosines of phi_f +- phi_l
or of phi_f and phi_l; no spinor and no complex number is formed.  Every
value comes from its own sample by the same floating-point operations
however the rows are blocked, and the mean and standard error combine the
per-block sums in block order, so a seed gives the same estimate bit for
bit.

The row blocks are spread over the CPUs the process may use: the calling
thread and up to ``CPUS - 1`` more take blocks one at a time from a shared
counter; each draws the blocks it takes from its own generator, advanced
to the block's place in the stream, and writes only those blocks' entries
of the per-block sums.  Which thread evaluates a block changes no operation
on it, and the sums are combined after every thread has joined, so an
estimate is bitwise independent of the worker count.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .closed_forms import CHANNEL_SIGNS, ChannelWeights, decay_parameter

MIN_SAMPLES = 1000
# the most samples x sites one estimate draws: it bounds an estimate's run
# time, as its memory does not grow with the samples
MAX_SAMPLE_SITES = 10**8
# an estimate's defaults, read by the estimators and by the CLI's mc parser
SAMPLES = 100_000
SEED = 0
# an estimate passes within this many standard errors of its target: the
# bound of the mc subcommand, of verify's Monte Carlo rows and of
# SignDiscrimination
SIGMA_BOUND = 4.0
# samples evaluated together: the temporaries are a few (ROW_BLOCK, sites)
# arrays, small enough to stay in cache, whatever the sample count
ROW_BLOCK = 4096
# CPUs this process may run on: the most threads an estimate evaluates on
if hasattr(os, "sched_getaffinity"):
    CPUS = len(os.sched_getaffinity(0))
else:
    CPUS = os.cpu_count() or 1


# The stream: an estimate over samples x sites draws every cos(theta), row
# after row, and then every phi from one generator, one output each.  Row
# block `rows` takes its cos(theta) from offset rows.start * sites and its
# phi from offset samples * sites + rows.start * sites.
def _draw_rows(
    rng: np.random.Generator, at: int, rows: slice, samples: int, sites: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """cos(theta) and phi of `rows`, and the stream offset after them.

    rng's stream stands at offset `at`.  Drawing every row from offset 0,
    as ``SphereConfig.sample`` does, advances nothing, so it works on any
    generator.
    """
    shape = (rows.stop - rows.start, sites)
    _advance(rng, rows.start * sites - at)
    cos_theta = rng.uniform(-1.0, 1.0, size=shape)
    _advance(rng, (samples - shape[0]) * sites)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=shape)
    return cos_theta, phi, (samples + rows.stop) * sites


def _advance(rng: np.random.Generator, steps: int) -> None:
    # advance takes steps modulo the period, so a negative step goes back
    if steps:
        rng.bit_generator.advance(steps)


def _sin_theta(cos_theta: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 - cos_theta * cos_theta)


def _end_sine(cos_theta: np.ndarray) -> np.ndarray:
    """sin(theta) as sqrt((1 - c)(1 + c)): within 2.5 u of exact, even near the poles."""
    return np.sqrt((1.0 - cos_theta) * (1.0 + cos_theta))


@dataclass(frozen=True)
class SphereConfig:
    """A batch of uniform unit-sphere samples, shape (samples, sites).

    Only the angles are stored; ``omega``, ``u`` and ``v`` are built from
    them on each access.  (u, v) = (cos(theta/2), e^(-i phi) sin(theta/2))
    is the textbook spinor e^(i phi/2) cos(theta/2), e^(-i phi/2)
    sin(theta/2) times e^(-i phi/2), a per-site phase that no overlap
    reads.  The estimators draw the same angles block by block and never
    build a SphereConfig.
    """

    cos_theta: np.ndarray
    phi: np.ndarray

    @classmethod
    def sample(cls, rng: np.random.Generator, samples: int, sites: int) -> "SphereConfig":
        cos_theta, phi, _ = _draw_rows(rng, 0, slice(0, samples), samples, sites)
        return cls(cos_theta, phi)

    @property
    def omega(self) -> np.ndarray:
        sin_theta = _sin_theta(self.cos_theta)
        x, y = sin_theta * np.cos(self.phi), sin_theta * np.sin(self.phi)
        return np.stack([x, y, self.cos_theta], axis=-1)

    @property
    def u(self) -> np.ndarray:
        return np.sqrt((1.0 + self.cos_theta) / 2.0)

    @property
    def v(self) -> np.ndarray:
        return np.sqrt((1.0 - self.cos_theta) / 2.0) * np.exp(-1j * self.phi)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    standard_error: float
    samples: int
    seed: int

    def sigmas_from(self, target: float) -> float:
        """Distance to target in standard errors; exact hits give 0.0."""
        gap = abs(self.mean - target)
        if self.standard_error == 0.0:
            return 0.0 if gap == 0.0 else math.inf
        return gap / self.standard_error


def check_samples(samples: int, sites: int) -> int:
    """Raise the ValueError an estimate over `sites` sites would; return the samples."""
    samples = int(samples)
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if samples * sites > MAX_SAMPLE_SITES:
        budget = f"the budget of {MAX_SAMPLE_SITES} sample-sites per estimate"
        raise ValueError(f"{samples} samples of {sites} sites exceed {budget}")
    return samples


def check_seed(seed: int) -> int:
    """Raise the ValueError for a negative seed, which default_rng rejects; return it."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def check_norm_args(n_bulk: int, samples: int, ring: bool = False) -> int:
    """Raise the ValueError ``estimate_vbs_norm`` would; return the samples."""
    if n_bulk < 1:
        raise ValueError(f"need at least one bulk site, got {n_bulk}")
    if ring and n_bulk < 2:
        raise ValueError("a ring needs at least two sites")
    return check_samples(samples, n_bulk if ring else n_bulk + 2)


def check_overlap_args(mu: int, nu: int, length: int, samples: int) -> int:
    """Raise the ValueError ``estimate_block_overlap`` would; return the samples."""
    for idx in (mu, nu):
        if idx not in (0, 1, 2, 3):
            raise ValueError(f"mode index must be 0..3, got {idx}")
    if length < 1:
        raise ValueError(f"block length must be >= 1, got {length}")
    return check_samples(samples, length)


def _evaluate_blocks(
    samples: int, sites: int, seed: int, evaluate
) -> tuple[np.ndarray, np.ndarray]:
    """Each row block's sum and centred sum of squares of ``evaluate(cos_theta, phi)``.

    Entry b of the two arrays is row block b's sum of values x and its sum
    of (x - m_b)^2 about its own mean m_b; no array of all the values is
    formed.  The blocks run on up to ``CPUS`` threads.  The angles are those
    ``SphereConfig.sample(default_rng(seed), samples, sites)`` draws, bit
    for bit, but no thread holds more than its block's: each draws the
    blocks it takes from its own ``default_rng(seed)``, advanced to the
    block's place in the stream, and reduces a block's values before it
    takes the next.  The calling thread works too, so a single block starts
    no thread.  Every thread is joined before this returns or raises, and
    the first error a block raised is raised here: no sums return with a
    block unwritten.  Blocks run at once on several threads, so
    ``evaluate`` must call no function that perfbench traces: its span
    tracer keeps a single stack of open spans.
    """
    blocks = (samples + ROW_BLOCK - 1) // ROW_BLOCK
    sums, squares = np.empty(blocks), np.empty(blocks)
    pending = iter(range(blocks))
    lock = threading.Lock()
    stop = threading.Event()
    errors = []

    def work():
        try:
            rng = np.random.default_rng(seed)
            at = 0
            while not stop.is_set():
                with lock:
                    index = next(pending, None)
                if index is None:
                    return
                start = index * ROW_BLOCK
                rows = slice(start, min(start + ROW_BLOCK, samples))
                cos_theta, phi, at = _draw_rows(rng, at, rows, samples, sites)
                values = evaluate(cos_theta, phi)
                sums[index] = total = np.sum(values)
                centred = values - total / len(values)
                squares[index] = np.sum(centred * centred)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for _ in range(min(CPUS, blocks) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        # a thread that failed to start ends the other workers too
        stop.set()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return sums, squares


def _bond_product(cos_theta: np.ndarray, phi: np.ndarray, ring: bool) -> np.ndarray:
    """Product over bonds (i, i+1), and (last, 0) on a ring, of 1 - omega_i . omega_j.

    omega_i . omega_j = s_i s_j cos(phi_i - phi_j) + c_i c_j with
    c = cos(theta) and s = sin(theta): one cosine per bond.
    """
    sites = phi.shape[1]
    pairs = [(i, i + 1) for i in range(sites - 1)]
    if ring:
        pairs.append((sites - 1, 0))
    if not pairs:
        return np.ones(phi.shape[0])
    sin_theta = _sin_theta(cos_theta)
    weight = None
    for i, j in pairs:
        sines = sin_theta[:, i] * sin_theta[:, j]
        dot = sines * np.cos(phi[:, i] - phi[:, j]) + cos_theta[:, i] * cos_theta[:, j]
        weight = 1.0 - dot if weight is None else weight * (1.0 - dot)
    return weight


def _finish(sums: np.ndarray, squares: np.ndarray, samples: int, seed: int) -> McEstimate:
    """The mean and standard error of all values, from ``_evaluate_blocks``' per-block sums.

    The blocks combine in block order, after every worker has joined, by
    the pairwise update of Chan, Golub & LeVeque (1979): mean = sum of the
    sums / n, and the centred sum of squares of all values is M2 = sum of
    the blocks' own plus sum of n_b (m_b - mean)^2, with m_b block b's
    mean.  SE = sqrt(M2 / (n - 1)) / sqrt(n).  Values that are all exactly
    0 give exactly 0.0 and 0.0.
    """
    counts = np.minimum(ROW_BLOCK, samples - ROW_BLOCK * np.arange(len(sums)))
    mean = float(np.sum(sums) / samples)
    offsets = sums / counts - mean
    m2 = float(np.sum(squares) + np.sum(counts * (offsets * offsets)))
    se = math.sqrt(m2 / (samples - 1)) / math.sqrt(samples)
    return McEstimate(mean=mean, standard_error=se, samples=samples, seed=seed)


def estimate_vbs_norm(
    n_bulk: int, samples: int = SAMPLES, seed: int = SEED, ring: bool = False
) -> McEstimate:
    """Sample the squared ground-state norm of a chain or ring.

    Open: N bulk sites plus the two end spin-1/2's give N+2 vectors and
    N+1 bond factors; the integral is exactly 1.  Ring: N vectors, N
    cyclic bond factors, integral 1 + 3(-1/3)^N.
    """
    samples = check_norm_args(n_bulk, samples, ring)
    sites = n_bulk if ring else n_bulk + 2
    sums, squares = _evaluate_blocks(
        samples, sites, check_seed(seed),
        lambda cos_theta, phi: _bond_product(cos_theta, phi, ring),
    )
    return _finish(sums, squares, samples, seed)


def vbs_norm_target(n_bulk: int, ring: bool = False) -> float:
    return 1.0 + 3.0 * decay_parameter(n_bulk) if ring else 1.0


def _end_form(mu: int, nu: int, cos_theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """F_mu_nu of the block's first and last sites, symmetric in (mu, nu).

    T_mu = phi_f^a (sigma_mu)_ab phi_l^b, with sigma_mu =
    ``pauli_algebra.SIGMA[mu]`` and the spinor phi = (u, v) of
    ``SphereConfig`` at each end.  Through phi phi^dagger = (I + n .
    sigma)/2, with n = (x, -y, z) for this spinor, 2 Re(conj(T_mu) T_nu) =
    F_mu_nu is a bilinear form in (1, omega_f) and (1, omega_l) with
    signed unit entries:

        F_00 = 1 + c_f c_l + s_f s_l cos(phi_f + phi_l)
        F_33 = 1 + c_f c_l - s_f s_l cos(phi_f + phi_l)
        F_11 = 1 - c_f c_l + s_f s_l cos(phi_f - phi_l)
        F_22 = 1 - c_f c_l - s_f s_l cos(phi_f - phi_l) = 1 - omega_f . omega_l
        F_03 = s_f s_l sin(phi_f + phi_l)     F_12 = s_f s_l sin(phi_f - phi_l)
        F_01 = -(y_f c_l + c_f y_l)           F_23 = y_f c_l - c_f y_l
        F_02 = x_f c_l - c_f x_l              F_13 = x_f c_l + c_f x_l

    The tests derive the table from SIGMA.  The ends take s =
    sqrt((1 - c)(1 + c)), within 2.5 u of exact (u = 2^-53) even near the
    poles, where the bonds' sqrt(1 - c^2) can lose half its digits.  A
    single site is both ends: there s_f s_l is written 1 - c c, so F_22 =
    (1 - c c) - (1 - c c) cos(0), F_02, F_12 and F_23 are exactly 0 per
    sample, and the singlet's zero carries no round-off that a
    zero-variance estimate would mistake for statistical evidence.
    """
    mu, nu = sorted((mu, nu))
    single = cos_theta.shape[1] == 1
    c_f, c_l, phi_f, phi_l = cos_theta[:, 0], cos_theta[:, -1], phi[:, 0], phi[:, -1]
    if mu == nu or (mu, nu) in ((0, 3), (1, 2)):
        sines = 1.0 - c_f * c_l if single else _end_sine(c_f) * _end_sine(c_l)
        angle = phi_f + phi_l if mu in (0, 3) else phi_f - phi_l
        if mu != nu:
            return sines * np.sin(angle)
        cc = c_f * c_l
        kernel = 1.0 + cc if mu in (0, 3) else 1.0 - cc
        cross = sines * np.cos(angle)
        return kernel + cross if mu in (0, 1) else kernel - cross
    # one end's x or y against the other's z
    trig = np.sin if (mu, nu) in ((0, 1), (2, 3)) else np.cos
    w_f = _end_sine(c_f) * trig(phi_f)
    w_l = w_f if single else _end_sine(c_l) * trig(phi_l)
    first, last = w_f * c_l, c_f * w_l
    if (mu, nu) == (0, 1):
        return -(first + last)
    return first + last if (mu, nu) == (1, 3) else first - last


def estimate_block_overlap(
    mu: int, nu: int, length: int, samples: int = SAMPLES, seed: int = SEED
) -> McEstimate:
    """Sample the mode overlap <A_mu|A_nu> of one block of the given length.

    Estimator: (1/2) Re(conj(T_mu) T_nu) = (1/4) F_mu_nu, the end sites'
    bilinear form (see ``_end_form``), times the product over the block's
    internal bonds; converges to (1/4)(1 + s_mu (-1/3)^L) for mu = nu and
    to 0 otherwise.  The overall 1/2 normalizes the spinor-pair measure:
    it is pinned by the exactly integrable case E|T_0|^2 = 2/3 at L = 1,
    whose weight must come out as 1/3.  The estimate reads only the end
    sites' unit vectors and the bonds: no spinor is formed.
    """
    samples = check_overlap_args(mu, nu, length, samples)

    def evaluate(cos_theta, phi):
        weight = _bond_product(cos_theta, phi, ring=False)
        return 0.25 * _end_form(mu, nu, cos_theta, phi) * weight

    sums, squares = _evaluate_blocks(samples, length, check_seed(seed), evaluate)
    return _finish(sums, squares, samples, seed)


def block_overlap_target(mu: int, nu: int, length: int) -> float:
    """<A_mu|A_nu> of a block: the closed-form channel weight on the diagonal."""
    if mu != nu:
        return 0.0
    return ChannelWeights.from_length(length).weights[mu]


@dataclass(frozen=True)
class SignDiscrimination:
    """Test at SIGMA_BOUND separating the two printed signs of the channel weight."""

    estimate: McEstimate
    plus_target: float
    minus_target: float
    sigmas_from_plus: float
    sigmas_from_minus: float

    @property
    def rejects_minus(self) -> bool:
        return self.sigmas_from_minus > SIGMA_BOUND and self.sigmas_from_plus <= SIGMA_BOUND


def sign_discrimination(samples: int = SAMPLES, seed: int = SEED) -> SignDiscrimination:
    """Compare the overlap estimate against (1 +- s_mu z)/4.

    It is taken in the singlet channel mu = 2 at L = 1, the point that
    separates the candidates maximally: the plus convention predicts
    exactly 0 while the minus convention predicts 1/2, and the estimator
    is identically zero per sample there, so the minus reading fails at
    infinite significance.
    """
    mu, length = 2, 1
    est = estimate_block_overlap(mu, mu, length, samples=samples, seed=seed)
    plus = ChannelWeights.from_length(length).weights[mu]
    # the rejected reading, written out: the package has no formula for it
    minus = 0.25 * (1.0 - CHANNEL_SIGNS[mu] * decay_parameter(length))
    return SignDiscrimination(
        estimate=est,
        plus_target=plus,
        minus_target=minus,
        sigmas_from_plus=est.sigmas_from(plus),
        sigmas_from_minus=est.sigmas_from(minus),
    )
