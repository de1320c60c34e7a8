"""Statistics extracted from run records.

Covers the observables of the critical market state: the deflation rate,
the avalanches of the activity signal, log-binned distributions with
least-squares exponent fits (plus a discrete MLE on the sample's own
support), loser-jump distance statistics with the two-branch power-law
fit, and the size/duration scaling relation.

The mean-field branching-process size exponent tau_S = 3/2 is kept as a
reference constant for comparison; the market model is expected to
deviate from it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import FitDomainError, StatisticsWarning

MFBP_TAU_S = 1.5
# the fewest avalanche events that threshold_scan fits and gamma_st takes by
# default, and below which avalanche-stats warns
MIN_EVENTS = 1000
_INT32_MAX = np.iinfo(np.int32).max


# ----------------------------------------------------------------------
# deflation

def _linregress(x, y):
    """Least-squares line through (x, y): (slope, intercept, rvalue, stderr).

    Follows scipy.stats.linregress (scipy 1.17) step for step, so the four
    results are bit-equal to its fields; only the p-value is left out.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if np.amax(x) == np.amin(x) and len(x) > 1:
        raise ValueError("Cannot calculate a linear regression "
                         "if all x values are identical")
    n = len(x)
    xmean = np.mean(x, None)
    ymean = np.mean(y, None)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.asarray(np.nan if ssxym == 0 else 0.0)[()]
    else:
        r = ssxym / np.sqrt(ssxm * ssym)
        if r > 1.0:
            r = 1.0
        elif r < -1.0:
            r = -1.0
    slope = ssxym / ssxm
    intercept = ymean - slope * xmean
    stderr = 0.0 if n == 2 else np.sqrt((1 - r ** 2) * ssym / ssxm / (n - 2))
    return slope, intercept, r, stderr


def fit_decay_rate(series, renorm_flags=None):
    """Exponential decay rate of a one-signed series: the least-squares
    slope of log|series| against time, reported as k > 0 for decaying
    input.

    renorm_flags marks the steps where the series was rescaled (a run's
    renormalisations, where the mean price jumps back to about 1).  If any
    is set, the fit is the slope that the stretches from one flag to the
    next share: the least-squares slope of the points' offsets from their
    stretch's means.  A stretch of one point holds no slope and is left out.
    """
    s = np.asarray(series, dtype=np.float64)
    rescaled = renorm_flags is not None and np.any(renorm_flags)
    parts = [s]
    if rescaled:
        parts = [part for part in np.split(s, np.flatnonzero(renorm_flags)) if part.size > 1]
        s = np.concatenate(parts) if parts else s[:0]
    if not (np.all(s > 0.0) or np.all(s < 0.0)):
        raise FitDomainError("series changes sign")
    if s.size < 3:
        raise FitDomainError("too few points for a decay fit")
    if not rescaled:
        return -float(_linregress(np.arange(s.size), np.log(np.abs(s)))[0])
    moved = offsets = 0.0
    for part in parts:
        t, y = np.arange(part.size), np.log(np.abs(part))
        t = t - t.mean()
        moved += t @ (y - y.mean())
        offsets += t @ t
    return -float(moved / offsets)


def predicted_decay_rate(n_agents, eta_max):
    """Leading-order deflation rate: <eta> / [N (1 - <eta>)] with
    <eta> = eta_max / 2 for the uniform cut draw."""
    eta_mean = 0.5 * eta_max
    return eta_mean / (n_agents * (1.0 - eta_mean))


# ----------------------------------------------------------------------
# avalanches

class AvalancheEvent(NamedTuple):
    size: int
    duration: int


def extract_avalanches(y):
    """Maximal nonzero segments of the activity signal.

    Size is the summed activity over the segment, duration its length.
    Partial segments touching either end of the signal are discarded.
    """
    avalanches = Avalanches()
    avalanches.add(np.asarray(y))
    return _events(*avalanches.arrays())


def _events(sizes, durations):
    """AvalancheEvents from arrays of sizes and durations."""
    return [AvalancheEvent(s, t) for s, t in zip(sizes.tolist(), durations.tolist())]


class Avalanches:
    """The avalanches of n_signals activity signals read in consecutive
    chunks of steps, as extract_avalanches finds them in each whole signal.

    Each signal carries its open segment across chunk edges: its size, its
    duration, and whether it began inside the window.  The segment open at
    the window's first step began before it, so it is discarded, as is the
    one still open at the end.  Only the closed segments are kept, which
    arrays() returns as int64 arrays, and the zero steps are counted; the
    signals are counts (>= 0).
    """

    def __init__(self, n_signals=1):
        self.steps = 0
        self._zeros = [0] * n_signals
        # per signal: whether the last step read was active, and the open
        # segment's start inside the window, size and duration; before the
        # first step a segment begun outside the window is open
        self._open = [(True, False, 0, 0)] * n_signals
        self._sizes = [[] for _ in range(n_signals)]
        self._durations = [[] for _ in range(n_signals)]

    def add(self, rows):
        """Read the next len(rows) steps: an array of (steps, n_signals)
        counts, or of (steps,) for one signal."""
        m = len(rows)
        if m == 0:
            return
        rows = rows.reshape(m, -1)
        self.steps += m
        for k in range(len(self._open)):
            self._read(k, rows[:, k])

    def _read(self, k, y):
        """Read signal k's next steps y (not empty)."""
        active = y > 0
        m = len(y)
        self._zeros[k] += m - int(np.count_nonzero(active))
        # the chunk's segments, active and quiet in turn, and the active ones
        bounds = np.concatenate(([0], np.flatnonzero(active[1:] != active[:-1]) + 1, [m]))
        first = 0 if active[0] else 1
        starts, ends = bounds[first:-1:2], bounds[first + 1::2]
        csum = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(y, dtype=np.int64, out=csum[1:])
        sizes, durations = csum[ends] - csum[starts], ends - starts
        was_active, inside, size, duration = self._open[k]
        if was_active and active[0]:  # the first segment continues the open one
            sizes[0] += size
            durations[0] += duration
        else:
            if was_active and inside:  # the open segment ended at the last step
                self._sizes[k].append(np.array([size]))
                self._durations[k].append(np.array([duration]))
            inside = True
        # inside: whether the first segment began inside the window
        if active[-1]:  # the last segment stays open
            self._open[k] = (True, inside or len(sizes) > 1,
                             int(sizes[-1]), int(durations[-1]))
            sizes, durations = sizes[:-1], durations[:-1]
        else:
            self._open[k] = (False, True, 0, 0)
        if not inside and sizes.size:
            sizes, durations = sizes[1:], durations[1:]
        if sizes.size:
            # kept as int32 while they fit (no duration exceeds its size),
            # which halves them until arrays()
            dtype = np.int32 if sizes.max() <= _INT32_MAX else np.int64
            self._sizes[k].append(sizes.astype(dtype))
            self._durations[k].append(durations.astype(dtype))

    def arrays(self, k=0):
        """Signal k's closed avalanches: (sizes, durations), two int64
        arrays in the order they ended."""
        for parts in (self._sizes[k], self._durations[k]):
            # one int64 array in place of the parts, so none is held twice
            parts[:] = [np.concatenate(parts or [np.zeros(0, dtype=np.int64)], dtype=np.int64)]
        return self._sizes[k][0], self._durations[k][0]

    def zero_fraction(self, k=0):
        """The fraction of the steps read where signal k is 0."""
        return self._zeros[k] / self.steps


# ----------------------------------------------------------------------
# log binning and power-law fits

@dataclass
class BinnedDistribution:
    """Log-binned density: bin r covers the integers [2^r, 2^(r+1) - 1],
    its representative x is the average of the two bounds, and the density
    is count / (number of values * width)."""
    bin_lo: np.ndarray
    bin_hi: np.ndarray
    x: np.ndarray
    density: np.ndarray
    counts: np.ndarray

    @property
    def widths(self):
        return self.bin_hi - self.bin_lo + 1


def log_bin(values):
    """Bin positive integers into doubling bins [2^r, 2^(r+1) - 1]."""
    v = np.asarray(values)
    if v.size == 0:
        raise FitDomainError("nothing to bin")
    if np.any(v < 1):
        raise FitDomainError("log binning needs values >= 1")
    n_bins = int(np.floor(np.log2(v.max()))) + 1
    edges = 2 ** np.arange(n_bins + 1)
    counts, _ = np.histogram(v, bins=edges)
    lo = edges[:-1]
    hi = edges[1:] - 1
    widths = (hi - lo + 1).astype(np.float64)
    density = counts / (int(v.size) * widths)
    x = (lo + hi) / 2.0
    return BinnedDistribution(bin_lo=lo, bin_hi=hi, x=x, density=density, counts=counts)


@dataclass
class PowerLawFit:
    """Least-squares exponent tau of P(x) ~ x^(-tau) on log-binned data."""
    exponent: float
    stderr: float
    fit_range: tuple
    n_points: int
    r_squared: float


def fit_power_law(dist, fit_range=(10.0, 1000.0), min_points=3):
    """Fit log density against log x over bins whose representative x lies
    in fit_range.  The exponent is reported positive for decaying data."""
    lo, hi = fit_range
    sel = (dist.x >= lo) & (dist.x <= hi) & (dist.density > 0.0)
    n = int(np.count_nonzero(sel))
    if n < min_points:
        raise FitDomainError(
            f"need at least {min_points} nonzero bins in [{lo:g}, {hi:g}], found {n}")
    lx = np.log(dist.x[sel])
    ly = np.log(dist.density[sel])
    slope, _, rvalue, stderr = _linregress(lx, ly)
    return PowerLawFit(exponent=-float(slope),
                       stderr=float(stderr) if np.isfinite(stderr) else 0.0,
                       fit_range=(float(lo), float(hi)), n_points=n,
                       r_squared=float(rvalue) ** 2)


def fit_power_law_mle(values, x_min=1):
    """Discrete ML exponent of P(x) ~ x^(-alpha) on the integers
    [x_min, max(values)], with its stderr: (alpha, stderr).

    The sample maximum is the ML estimate of the support's upper end, and
    the finite support admits alpha <= 1.  Bisection solves E_alpha[ln x] =
    mean(ln x) with one pass over the support per step; the stderr is the
    observed information, 1/sqrt(n Var_alpha[ln x]).  Reference exponents
    use the least-squares fit; this is its cross-check.
    """
    v = np.asarray(values, dtype=np.float64)
    v = v[v >= x_min]
    if v.size < 10:
        raise FitDomainError("too few samples for an MLE fit")
    ln_x, mean_log = np.log(np.arange(x_min, v.max() + 1)), np.mean(np.log(v))

    def law(a):  # x^-a normalised over the support
        w = np.exp(-a * (ln_x - ln_x[0 if a > 0 else -1]))
        return w / w.sum()

    lo, hi = -20.0, 20.0
    if not law(lo) @ ln_x > mean_log > law(hi) @ ln_x:
        raise FitDomainError(f"no likelihood root for the exponent in [{lo:g}, {hi:g}]")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if law(mid) @ ln_x > mean_log else (lo, mid)
    p = law(lo)
    return float(lo), float((v.size * (p @ (ln_x - p @ ln_x) ** 2)) ** -0.5)


def sample_discrete_power_law(tau, n_samples, rng, x_min=1, x_max=10 ** 6):
    """Inverse-transform samples from P(x) ~ x^(-tau) on [x_min, x_max]."""
    xs = np.arange(x_min, x_max + 1, dtype=np.float64)
    cdf = np.cumsum(xs ** -tau)
    cdf /= cdf[-1]
    u = np.random.default_rng(rng).random(n_samples)
    return x_min + np.searchsorted(cdf, u)


# ----------------------------------------------------------------------
# avalanche exponents and critical-threshold location

# the duration cutoff sits well below the size cutoff (S grows like
# T^gamma with gamma ~ 1.4), so durations get their own default window
DEFAULT_SIZE_RANGE = (10.0, 1000.0)
DEFAULT_DURATION_RANGE = (10.0, 100.0)


@dataclass
class AvalancheExponents:
    sizes: BinnedDistribution
    durations: BinnedDistribution
    tau_s: Optional[PowerLawFit]
    tau_t: Optional[PowerLawFit]
    gamma: Optional[GammaFit]
    n_events: int
    errors: dict  # "tau_s", "tau_t" or "gamma" -> why that fit is None
    relation_residual: Optional[float] = None
    relation_stderr: Optional[float] = None


def avalanche_exponents(events, size_range=DEFAULT_SIZE_RANGE,
                        duration_range=DEFAULT_DURATION_RANGE):
    """Log-binned size and duration distributions of nonempty avalanche
    events, their exponents, gamma and the scaling relation.  The event
    count gates no fit: a fit that fails is None, with its FitDomainError
    message in errors, and the relation is set only when all three fit."""
    errors = {}

    def attempt(name, fit, *args, **kwargs):
        try:
            return fit(*args, **kwargs)
        except FitDomainError as exc:
            errors[name] = str(exc)

    sizes = log_bin(np.array([e.size for e in events]))
    durations = log_bin(np.array([e.duration for e in events]))
    out = AvalancheExponents(
        sizes=sizes, durations=durations,
        tau_s=attempt("tau_s", fit_power_law, sizes, size_range),
        tau_t=attempt("tau_t", fit_power_law, durations, duration_range),
        gamma=attempt("gamma", gamma_st, events, min_events=0),
        n_events=len(events), errors=errors)
    if not errors:
        out.relation_residual, out.relation_stderr = scaling_relation_residual(
            out.tau_s, out.tau_t, out.gamma)
    return out


def track_activity(sim, thresholds):
    """Step a Simulation from its current step to completion, counting
    agents below each rescaled-profit threshold at every step (pre-cut,
    post-renormalization state, matching the activity column of
    RunRecord; counted in the step loop, see Simulation._advance).
    Returns a (steps, n_thresholds) int32 array, (steps, 0) for no
    thresholds.
    """
    thr = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
    return sim._advance(sim.config.total_steps - sim.t, thr)[4]


# the critical threshold sits at a topology-dependent depth, but always at
# the scale of a single price cut's profit shift, <eta> = eta_max/2; this
# grid brackets the critical point on every topology studied
THRESHOLD_GRID_UNITS = (0.75, 0.82, 0.88, 0.94, 1.0, 1.06, 1.13, 1.2)


@dataclass
class ThresholdScanEntry:
    f0: float
    n_events: int
    zero_fraction: float
    tau_s: Optional[PowerLawFit]
    note: str = ""


@dataclass
class ThresholdScan:
    """A threshold scan's entries and its pick, best (an index into the
    grid, or None), with each threshold's avalanches: sizes[k] and
    durations[k] are int64 arrays."""
    entries: list
    best: Optional[int]
    sizes: list
    durations: list

    @property
    def best_entry(self):
        return None if self.best is None else self.entries[self.best]

    def events(self, k):
        """Threshold k's avalanches as AvalancheEvents."""
        return _events(self.sizes[k], self.durations[k])


def threshold_scan(net, wts, config, f0_grid=None, engine="incremental",
                   size_range=DEFAULT_SIZE_RANGE, min_events=MIN_EVENTS):
    """Locate the critical activity threshold.

    Runs once, tracking activity on a grid of thresholds after the
    transient, then picks the threshold whose avalanche-size distribution
    is closest to a pure power law (highest R^2 of the least-squares fit)
    among thresholds with enough events and a quiescent fraction.  Below
    the critical point the distribution bends steep and short; above it,
    quiescence disappears.

    The scan folds over Simulation.blocks: the transient's blocks are
    dropped, and each tracked block's activity is read into one
    Avalanches and then dropped, so the memory follows the avalanches,
    not the steps.
    """
    from .dynamics import Simulation

    if f0_grid is None:
        f0_grid = -0.5 * config.eta_max * np.asarray(THRESHOLD_GRID_UNITS)
    f0_grid = np.asarray(f0_grid, dtype=np.float64)
    sim = Simulation(net, wts, config, engine=engine)
    for _ in sim.blocks(config.transient_steps):
        pass
    avalanches = Avalanches(len(f0_grid))
    # unpacked, so that only a block's activity is held while it is read
    for _, _, _, _, _, rows in sim.blocks(config.total_steps, f0_grid):
        avalanches.add(rows)
        del rows  # before the next block is made
    # free the engine and its update plan before the per-threshold analysis
    del sim
    entries, sizes, durations = [], [], []
    for k, f0 in enumerate(f0_grid):
        size, duration = avalanches.arrays(k)
        sizes.append(size)
        durations.append(duration)
        entry = ThresholdScanEntry(
            f0=float(f0), n_events=len(size),
            zero_fraction=avalanches.zero_fraction(k), tau_s=None)
        if len(size) < min_events:
            entry.note = "too few events"
        elif entry.zero_fraction < 1e-3:
            entry.note = "no quiescence"
        else:
            try:
                entry.tau_s = fit_power_law(log_bin(size), size_range)
            except FitDomainError as exc:
                entry.note = str(exc)
        entries.append(entry)
    eligible = [k for k, e in enumerate(entries) if e.tau_s is not None]
    best = max(eligible, key=lambda k: entries[k].tau_s.r_squared, default=None)
    return ThresholdScan(entries=entries, best=best, sizes=sizes, durations=durations)


# ----------------------------------------------------------------------
# loser-jump statistics

@dataclass
class JumpStats:
    """Distances between consecutive losers and their two-branch fits.

    The distance law has a short branch P(xi) ~ xi^(-pi1) for xi <= L/2 and
    a reflected branch P(xi) ~ |L - xi|^(-pi2) beyond, the latter produced
    by unwrapped distances of near-boundary pairs.
    """
    distances: np.ndarray
    mode: str
    metric: str
    cumulative_x: np.ndarray
    cumulative_f: np.ndarray
    pi1: Optional[PowerLawFit]
    pi2: Optional[PowerLawFit]

    @property
    def n_jumps(self):
        return len(self.distances)


def _fit_branch(samples, half):
    """Log-binned density fit of one distance branch on [1, L/2].
    Distances are rounded to integers first, which merges the
    near-degenerate lattice norms and smooths the annulus-count
    oscillations.  Bins truncated by the branch support (hi beyond L/2)
    are excluded, since their density estimate misses part of the bin."""
    v = np.rint(samples).astype(np.int64)
    v = v[v >= 1]
    if v.size == 0:
        raise FitDomainError("no samples in the branch")
    dist = log_bin(v)
    complete = dist.bin_hi <= half
    if not complete.any():
        raise FitDomainError("no complete bins within the branch support")
    return fit_power_law(dist, (1.0, float(dist.x[complete][-1])))


def jump_distances(record, mode="raw", metric="norm"):
    """Distances between consecutive loser positions (post-transient)."""
    pos = record.post(record.positions).astype(np.float64)
    if pos.ndim == 1:
        pos = pos[:, None]
    ext = np.asarray(record.extents, dtype=np.float64)
    d = np.abs(np.diff(pos, axis=0))
    if mode == "min_image":
        d = np.minimum(d, ext - d)
    elif mode != "raw":
        raise ValueError(f"unknown distance mode {mode!r}")
    if metric == "norm":
        return np.sqrt(np.sum(d * d, axis=1))
    if metric == "component":
        return d[:, 0]
    raise ValueError(f"unknown distance metric {metric!r}")


def loser_jump_stats(record, mode="raw", metric="norm"):
    """Jump-distance distribution with the two-branch power-law fit.

    pi1 is fitted on distances xi in [1, L/2]; pi2 on u = |L - xi| for the
    samples with xi > L/2.  Zero jumps (repeated loser) are excluded from
    the fits.  Fit failures leave the corresponding fit as None, and fewer
    than 1 000 jumps raise a StatisticsWarning.
    """
    xi = jump_distances(record, mode=mode, metric=metric)
    if xi.size < 1000:
        warnings.warn(f"only {xi.size} jumps, statistics will be poor",
                      StatisticsWarning, stacklevel=2)
    L = float(record.extents[0])
    cum_x, counts = np.unique(xi, return_counts=True)
    cum_f = np.cumsum(counts) / xi.size

    half = L / 2.0
    near = xi[(xi >= 1.0) & (xi <= half)]
    far = np.abs(L - xi[xi > half])
    far = far[far >= 1.0]

    pi1 = pi2 = None
    try:
        pi1 = _fit_branch(near, half)
    except FitDomainError:
        pass
    try:
        pi2 = _fit_branch(far, half)
    except FitDomainError:
        pass
    return JumpStats(distances=xi, mode=mode, metric=metric,
                     cumulative_x=cum_x, cumulative_f=cum_f, pi1=pi1, pi2=pi2)


# ----------------------------------------------------------------------
# size/duration scaling

@dataclass
class GammaFit:
    gamma: float
    stderr: float
    n_events: int
    n_points: int


def gamma_st(events, min_events=MIN_EVENTS):
    """Exponent of <S> ~ T^gamma from the mean sizes of the durations seen
    at least 3 times."""
    if len(events) < min_events:
        raise FitDomainError(f"need at least {min_events} events, got {len(events)}")
    S = np.asarray([e.size for e in events], dtype=np.float64)
    T = np.asarray([e.duration for e in events], dtype=np.float64)
    ts, inverse, counts = np.unique(T, return_inverse=True, return_counts=True)
    mean_s = np.bincount(inverse, weights=S) / counts
    sel = counts >= 3
    if np.count_nonzero(sel) < 3:
        raise FitDomainError("too few populated duration bins")
    slope, _, _, stderr = _linregress(np.log(ts[sel]), np.log(mean_s[sel]))
    return GammaFit(gamma=float(slope),
                    stderr=float(stderr) if np.isfinite(stderr) else 0.0,
                    n_events=len(events), n_points=int(np.count_nonzero(sel)))


def scaling_relation_residual(tau_s, tau_t, gamma_fit):
    """Residual of tau_S = 1 + (tau_T - 1)/gamma and its propagated error.

    Accepts the PowerLawFit objects for sizes and durations plus a
    GammaFit; returns (residual, combined standard error).
    """
    g = gamma_fit.gamma
    resid = abs(tau_s.exponent - 1.0 - (tau_t.exponent - 1.0) / g)
    combined = np.sqrt(
        tau_s.stderr ** 2
        + (tau_t.stderr / g) ** 2
        + ((tau_t.exponent - 1.0) * gamma_fit.stderr / g ** 2) ** 2)
    return float(resid), float(combined)


# ----------------------------------------------------------------------
# threshold calibration

def stationary_profit_quantile(sim, q, n_snapshots=200):
    """Quantile of the stationary rescaled per-agent profit distribution.

    Steps the given fresh Simulation from the transient on, sampling the
    rescaled profit vector on a regular post-transient stride below
    total_steps, and stops at the last sample's step.  Used to resolve
    quantile-specified activity thresholds; deterministic for a fixed
    config.
    """
    cfg = sim.config
    span = cfg.total_steps - cfg.transient_steps
    steps = range(cfg.transient_steps, cfg.total_steps, max(1, span // n_snapshots))
    eng = sim.engine
    # one row per sample, taken whole by the quantile
    samples = np.empty((len(steps), eng.n))
    for row, t in zip(samples, steps):
        for _ in sim.blocks(t):  # to the profits and mean price step t sees
            pass
        np.divide(eng.profit, eng.psum / eng.n, out=row)
    return float(np.quantile(samples.reshape(-1), q, overwrite_input=True))
