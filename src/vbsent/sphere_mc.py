"""Monte Carlo checks of the classical-spinor representation.

Ground-state overlaps of the chain can be written as integrals over one
unit vector per site, with one factor (1 - omega_i . omega_j) per bond
and per-site spinors u = e^(i phi/2) cos(theta/2), v = e^(-i phi/2)
sin(theta/2).  The estimators below sample those integrals with a
deterministic, seedable generator; they exist to validate sign
conventions, not to compete with the closed forms.

An estimate keeps only the angles it draws, cos(theta) and phi, from one
generator in one fixed order (every cos(theta), then every phi).  It
evaluates them in row blocks of ``ROW_BLOCK`` samples into one array of
per-sample values: each site's direction is formed once, and spinors only
at the two end sites of an overlap's spin block.  Every value comes from
its own sample by the same floating-point operations as an evaluation of
the whole arrays at once (the bond dot product adds x, y, then z, as a sum
over a stacked component axis does), and the mean and standard error
reduce the one array of values, so a seed gives the same estimate bit for
bit however the rows are blocked.

The row blocks are spread over the CPUs the process may use: the calling
thread and up to ``CPUS - 1`` more take blocks one at a time from a shared
counter, and each writes only its own blocks' slice of the values.  Which
thread evaluates a block changes no operation on it, so an estimate is
bitwise independent of the worker count.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .closed_forms import CHANNEL_SIGNS, ChannelWeights, decay_parameter
from .pauli_algebra import SIGMA

MIN_SAMPLES = 1000
# the most samples x sites one estimate draws, at 16 B of angles each (1.6 GB)
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


def _directions(cos_theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cartesian components (x, y, z) of the unit vectors."""
    sin_theta = np.sqrt(1.0 - cos_theta * cos_theta)
    return sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta


def _spinors(cos_theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = e^(i phi/2) cos(theta/2) and v = e^(-i phi/2) sin(theta/2)."""
    phase = np.exp(0.5j * phi)
    u = phase * np.sqrt((1.0 + cos_theta) / 2.0)
    v = np.conj(phase) * np.sqrt((1.0 - cos_theta) / 2.0)
    return u, v


@dataclass(frozen=True)
class SphereConfig:
    """A batch of uniform unit-sphere samples, shape (samples, sites).

    Only the angles are stored; ``omega``, ``u`` and ``v`` are built from
    them on each access.
    """

    cos_theta: np.ndarray
    phi: np.ndarray

    @classmethod
    def sample(cls, rng: np.random.Generator, samples: int, sites: int) -> "SphereConfig":
        z = rng.uniform(-1.0, 1.0, size=(samples, sites))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=(samples, sites))
        return cls(z, phi)

    @property
    def omega(self) -> np.ndarray:
        return np.stack(_directions(self.cos_theta, self.phi), axis=-1)

    @property
    def u(self) -> np.ndarray:
        return _spinors(self.cos_theta, self.phi)[0]

    @property
    def v(self) -> np.ndarray:
        return _spinors(self.cos_theta, self.phi)[1]


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


def _row_blocks(samples: int) -> list[slice]:
    """Slices of at most ``ROW_BLOCK`` consecutive samples, in order."""
    return [slice(start, start + ROW_BLOCK) for start in range(0, samples, ROW_BLOCK)]


def _evaluate_blocks(samples: int, evaluate) -> np.ndarray:
    """Per-sample values, ``evaluate(rows)`` for each row block, on up to ``CPUS`` threads.

    The calling thread works too, so a single block starts no thread.  Every
    thread is joined before this returns or raises, and the first error a
    block raised is raised here: no values return with a block unwritten.
    Blocks run at once on several threads, so ``evaluate`` must call no
    function that perfbench traces: its span tracer keeps a single stack of
    open spans.
    """
    values = np.empty(samples)
    blocks = _row_blocks(samples)
    pending = iter(blocks)
    lock = threading.Lock()
    stop = threading.Event()
    errors = []

    def work():
        try:
            while not stop.is_set():
                with lock:
                    rows = next(pending, None)
                if rows is None:
                    return
                values[rows] = evaluate(rows)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for _ in range(min(CPUS, len(blocks)) - 1):
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
    return values


def _bond_product(cos_theta: np.ndarray, phi: np.ndarray, ring: bool) -> np.ndarray:
    sites = phi.shape[1]
    pairs = [(i, i + 1) for i in range(sites - 1)]
    if ring:
        pairs.append((sites - 1, 0))
    weight = np.ones(phi.shape[0])
    if not pairs:
        return weight
    x, y, z = _directions(cos_theta, phi)
    for i, j in pairs:
        # x + y first, then z: the order np.sum takes a stacked omega's axis in
        dot = x[:, i] * x[:, j] + y[:, i] * y[:, j] + z[:, i] * z[:, j]
        weight = weight * (1.0 - dot)
    return weight


def _finish(values: np.ndarray, samples: int, seed: int) -> McEstimate:
    # np.mean reduces contiguous arrays pairwise, so the result does not
    # depend on any chunked aggregation order
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(samples))
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
    rng = np.random.default_rng(check_seed(seed))
    sites = n_bulk if ring else n_bulk + 2
    config = SphereConfig.sample(rng, samples, sites)
    values = _evaluate_blocks(
        samples, lambda rows: _bond_product(config.cos_theta[rows], config.phi[rows], ring)
    )
    return _finish(values, samples, seed)


def vbs_norm_target(n_bulk: int, ring: bool = False) -> float:
    return 1.0 + 3.0 * decay_parameter(n_bulk) if ring else 1.0


def _mode_amplitude(first: tuple, last: tuple, mu: int) -> np.ndarray:
    """T_mu = phi_first^a (sigma_mu)_ab phi_last^b with phi = (u, v)."""
    uf, vf = first
    ul, vl = last
    s = SIGMA[mu]
    # form the spinor products before weighting by the matrix entries, and
    # write the (1, 0) product as ul * vf: on a single-site block the two
    # cross products then run over identical operands in identical order, so
    # the antisymmetric mode cancels bitwise (complex multiplication is not
    # bitwise commutative under FMA) instead of leaving roundoff that a
    # zero-variance estimate would mistake for statistical evidence
    return (
        s[0, 0] * (uf * ul)
        + s[0, 1] * (uf * vl)
        + s[1, 0] * (ul * vf)
        + s[1, 1] * (vf * vl)
    )


def estimate_block_overlap(
    mu: int, nu: int, length: int, samples: int = SAMPLES, seed: int = SEED
) -> McEstimate:
    """Sample the mode overlap <A_mu|A_nu> of one block of the given length.

    Estimator: (1/2) Re(conj(T_mu) T_nu) times the product over the
    block's internal bonds; converges to (1/4)(1 + s_mu (-1/3)^L) for
    mu = nu and to 0 otherwise.  The overall 1/2 normalizes the
    spinor-pair measure: it is pinned by the exactly integrable case
    E|T_0|^2 = 2/3 at L = 1, whose weight must come out as 1/3.
    """
    samples = check_overlap_args(mu, nu, length, samples)
    rng = np.random.default_rng(check_seed(seed))
    config = SphereConfig.sample(rng, samples, length)

    def evaluate(rows):
        cos_theta, phi = config.cos_theta[rows], config.phi[rows]
        weight = _bond_product(cos_theta, phi, ring=False)
        first = _spinors(cos_theta[:, 0], phi[:, 0])
        # a single site is both ends: the same arrays keep the singlet's
        # bitwise cancellation in _mode_amplitude
        last = first if length == 1 else _spinors(cos_theta[:, -1], phi[:, -1])
        t_mu = _mode_amplitude(first, last, mu)
        t_nu = t_mu if nu == mu else _mode_amplitude(first, last, nu)
        return 0.5 * np.real(np.conj(t_mu) * t_nu) * weight

    return _finish(_evaluate_blocks(samples, evaluate), samples, seed)


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
