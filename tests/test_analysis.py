import dataclasses
import tracemalloc

import numpy as np
import pytest

import socmarket as sm
from socmarket import analysis
from socmarket.analysis import _linregress
from socmarket.errors import FitDomainError, StatisticsWarning


class TestDecayRate:
    def test_exact_exponential(self):
        t = np.arange(20000)
        series = np.exp(-1e-4 * t)
        assert sm.fit_decay_rate(series) == pytest.approx(1e-4, abs=1e-6)

    def test_negative_series(self):
        t = np.arange(5000)
        series = -3.0 * np.exp(-2e-4 * t)
        assert sm.fit_decay_rate(series) == pytest.approx(2e-4, abs=1e-6)

    def test_sign_change_rejected(self):
        series = np.concatenate([np.ones(100), -np.ones(100)])
        with pytest.raises(FitDomainError):
            sm.fit_decay_rate(series)

    def test_renormalised_stretches_share_a_slope(self):
        # the series jumps back to 1 at each flagged step; without the
        # flags one line through it reads a rate far too low
        series = np.exp(-1e-2 * np.arange(300))
        flags = np.zeros(300, dtype=bool)
        flags[[0, 100, 101, 250]] = True
        for k in (100, 101, 250):
            series[k:] /= series[k]
        assert sm.fit_decay_rate(series) < 2e-3
        assert sm.fit_decay_rate(series, renorm_flags=flags) == pytest.approx(1e-2)
        # one stretch: the shared slope is the line's
        assert sm.fit_decay_rate(series[:100], renorm_flags=flags[:100]) == (
            pytest.approx(sm.fit_decay_rate(series[:100]), rel=1e-12))

    def test_renormalised_stretches_too_short(self):
        flags = np.ones(4, dtype=bool)
        with pytest.raises(FitDomainError):
            sm.fit_decay_rate(np.ones(4), renorm_flags=flags)

    def test_prediction_formula(self):
        # <eta>/[N(1-<eta>)] at eta_max=1%, N=100
        assert sm.predicted_decay_rate(100, 0.01) == pytest.approx(
            0.005 / (100 * 0.995))
        assert sm.predicted_decay_rate(200, 0.01) == pytest.approx(
            sm.predicted_decay_rate(100, 0.01) / 2)


class TestExtractAvalanches:
    def test_worked_example(self):
        ev = sm.extract_avalanches([0, 2, 3, 1, 0, 0, 1, 0])
        assert ev == [sm.AvalancheEvent(6, 3), sm.AvalancheEvent(1, 1)]

    def test_all_zero(self):
        assert sm.extract_avalanches(np.zeros(100, dtype=int)) == []

    def test_unterminated_segments_discarded(self):
        assert sm.extract_avalanches([1, 1, 0, 2, 0, 3]) == [sm.AvalancheEvent(2, 1)]
        assert sm.extract_avalanches([5, 5, 5]) == []

    def test_partition_identity(self, rng):
        # every unit of activity lands either in an event or in a
        # discarded boundary segment
        for _ in range(30):
            y = (rng.random(size=rng.integers(5, 400)) < 0.4) * rng.integers(
                1, 5, size=1)[0]
            y = y.astype(int)
            ev = sm.extract_avalanches(y)
            total = sum(e.size for e in ev)
            active = np.flatnonzero(y)
            discarded = 0
            if active.size:
                zeros = np.flatnonzero(y == 0)
                if y[0] != 0:
                    first_zero = zeros[0] if zeros.size else len(y)
                    discarded += y[:first_zero].sum()
                if y[-1] != 0 and (zeros.size == 0 or zeros[-1] != len(y) - 1):
                    last_zero = zeros[-1] if zeros.size else -1
                    if last_zero < len(y) - 1 and not (y[0] != 0 and zeros.size == 0):
                        discarded += y[last_zero + 1:].sum()
            assert total + discarded == y.sum()

    def test_size_bounds_duration(self, rng):
        y = rng.integers(0, 3, size=2000)
        for e in sm.extract_avalanches(y):
            assert e.size >= e.duration >= 1


def whole_signal_arrays(y):
    """The avalanches of the whole signal y, found in one numpy pass: the
    reference the chunked Avalanches must match."""
    y = np.asarray(y)
    if y.size == 0:
        return np.zeros((2, 0), dtype=np.int64)
    active = y > 0
    flips = np.diff(active.astype(np.int8))
    starts = np.flatnonzero(flips == 1) + 1
    ends = np.flatnonzero(flips == -1) + 1
    if active[0] and ends.size:
        ends = ends[1:]  # leading segment has no observed start
    if active[-1] and starts.size:
        starts = starts[:-1]  # trailing segment has no observed end
    n = min(starts.size, ends.size)
    starts, ends = starts[:n], ends[:n]
    csum = np.concatenate([[0], np.cumsum(y, dtype=np.int64)])
    return csum[ends] - csum[starts], (ends - starts).astype(np.int64)


def read_in_chunks(rows, chunk):
    """An Avalanches fed rows (steps, K) chunk steps at a time."""
    rows = np.asarray(rows)
    avalanches = analysis.Avalanches(1 if rows.ndim == 1 else rows.shape[1])
    for i in range(0, len(rows), chunk):
        avalanches.add(rows[i:i + chunk])
    return avalanches


def assert_matches_whole_signal(avalanches, rows):
    """Each signal's sizes, durations and zero fraction are the whole
    signal's, bit for bit."""
    rows = np.asarray(rows).reshape(len(rows), -1)
    assert avalanches.steps == len(rows)
    for k in range(rows.shape[1]):
        sizes, durations = avalanches.arrays(k)
        want_sizes, want_durations = whole_signal_arrays(rows[:, k])
        assert sizes.dtype == durations.dtype == np.int64
        assert sizes.tolist() == want_sizes.tolist()
        assert durations.tolist() == want_durations.tolist()
        if len(rows):
            assert avalanches.zero_fraction(k) == np.mean(rows[:, k] == 0)


def bursty_signal(rng, steps, k, mean_quiet, mean_active):
    """(steps, k) int32 counts: quiet and active stretches of geometric
    lengths, an active step counting 1 to 9."""
    out = np.zeros((steps, k), dtype=np.int32)
    for col in out.T:
        t, active = 0, bool(rng.random() < 0.5)
        while t < steps:
            n = int(rng.geometric(1.0 / (mean_active if active else mean_quiet)))
            if active:
                col[t:t + n] = rng.integers(1, 10, size=len(col[t:t + n]))
            t, active = t + n, not active
    return out


class TestAvalanches:
    @pytest.mark.parametrize("chunk", [1, 2, 7, 8192, 30001])
    def test_chunk_sizes(self, rng, chunk):
        # 30001 is longer than the run, which is then one chunk
        steps = 20000 if chunk >= 7 else 3000
        rows = bursty_signal(rng, steps, 3, 4.0, 6.0)
        rows[:, 2] = (rng.random(steps) < 0.5) * rng.integers(1, 4, size=steps)
        assert_matches_whole_signal(read_in_chunks(rows, chunk), rows)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_avalanches_spanning_chunks(self, rng, chunk):
        rows = bursty_signal(rng, 6000, 2, 30.0, 300.0)
        avalanches = read_in_chunks(rows, chunk)
        assert_matches_whole_signal(avalanches, rows)
        # some avalanche spans at least three chunk edges
        assert max(avalanches.arrays(k)[1].max() for k in range(2)) > 3 * chunk

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 9, 10])
    def test_active_at_the_window_start_and_end(self, chunk):
        y = np.array([3, 1, 0, 2, 2, 0, 0, 4, 1], dtype=np.int32)
        avalanches = read_in_chunks(y, chunk)
        assert [a.tolist() for a in avalanches.arrays()] == [[4], [2]]
        assert_matches_whole_signal(avalanches, y)
        # active throughout but for one quiet step: two partial segments
        y = np.array([2, 2, 2, 0, 5, 5], dtype=np.int32)
        assert [a.tolist() for a in read_in_chunks(y, chunk).arrays()] == [[], []]

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_all_zero_and_all_active(self, chunk):
        rows = np.zeros((700, 2), dtype=np.int32)
        rows[:, 1] = 3
        avalanches = read_in_chunks(rows, chunk)
        assert_matches_whole_signal(avalanches, rows)
        assert [avalanches.zero_fraction(k) for k in (0, 1)] == [1.0, 0.0]
        assert [len(avalanches.arrays(k)[0]) for k in (0, 1)] == [0, 0]

    def test_no_steps(self):
        avalanches = analysis.Avalanches(2)
        avalanches.add(np.zeros((0, 2), dtype=np.int32))
        assert avalanches.steps == 0
        assert [a.tolist() for a in avalanches.arrays(1)] == [[], []]

    def test_zero_fraction_is_the_mean(self, rng):
        # lengths whose fractions do not round exactly
        for steps in (3, 7, 49, 1001, 8193, 30011):
            rows = (rng.random((steps, 2)) < [0.3, 0.9]) * np.int32(2)
            for chunk in (5, 8192):
                avalanches = read_in_chunks(rows, chunk)
                for k in (0, 1):
                    assert avalanches.zero_fraction(k) == float(np.mean(rows[:, k] == 0))

    def test_arrays_twice(self, rng):
        rows = bursty_signal(rng, 2000, 1, 5.0, 5.0)
        avalanches = read_in_chunks(rows, 100)
        first = [a.copy() for a in avalanches.arrays()]
        assert all(np.array_equal(a, b) for a, b in zip(first, avalanches.arrays()))

    def test_sizes_past_int32_are_kept(self):
        # one avalanche whose size does not fit an int32
        y = np.array([0, 2 ** 31 - 1, 2 ** 31 - 1, 0, 1, 0], dtype=np.int64)
        avalanches = read_in_chunks(y, 2)
        assert [a.tolist() for a in avalanches.arrays()] == [[2 ** 32 - 2, 1], [2, 1]]


class TestLogBin:
    def test_worked_example(self):
        d = sm.log_bin([1, 2, 2, 3, 5])
        assert d.bin_lo.tolist() == [1, 2, 4]
        assert d.bin_hi.tolist() == [1, 3, 7]
        assert d.counts.tolist() == [1, 3, 1]
        assert d.density == pytest.approx([1 / 5, 3 / 10, 1 / 20])
        assert d.x.tolist() == [1.0, 2.5, 5.5]

    def test_single_value(self):
        d = sm.log_bin([9, 9, 9])
        assert d.counts[-1] == 3
        assert d.density[-1] == pytest.approx(1 / 8)

    def test_normalization(self, rng):
        for _ in range(20):
            v = rng.integers(1, 10000, size=rng.integers(1, 500))
            d = sm.log_bin(v)
            assert np.sum(d.density * d.widths) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_empty_and_zero(self):
        with pytest.raises(FitDomainError):
            sm.log_bin([])
        with pytest.raises(FitDomainError):
            sm.log_bin([0, 1, 2])


class TestFitPowerLaw:
    def test_two_point_slope(self):
        d = sm.BinnedDistribution(
            bin_lo=np.array([1, 8]), bin_hi=np.array([1, 15]),
            x=np.array([1.0, 10.0]), density=np.array([1.0, 0.1]),
            counts=np.array([1, 1]))
        fit = sm.fit_power_law(d, (1, 10), min_points=2)
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)

    def test_requires_three_bins_by_default(self):
        d = sm.log_bin([1, 2, 3])
        with pytest.raises(FitDomainError):
            sm.fit_power_law(d, (1, 3))

    def test_fit_carries_its_range(self):
        rng = np.random.default_rng(0)
        v = sm.sample_discrete_power_law(1.5, 30000, rng)
        d = sm.log_bin(v)
        a = sm.fit_power_law(d, (1, 100))
        b = sm.fit_power_law(d, (10, 1000))
        assert a.fit_range == (1.0, 100.0)
        assert b.fit_range == (10.0, 1000.0)
        assert a.exponent != b.exponent  # range changes are visible, not silent

    @pytest.mark.parametrize("tau", [1.3, 1.5, 2.0])
    def test_recovers_synthetic_exponent(self, tau):
        rng = np.random.default_rng(int(tau * 100))
        v = sm.sample_discrete_power_law(tau, 100_000, rng)
        fit = sm.fit_power_law(sm.log_bin(v), (10, 1000))
        assert fit.exponent == pytest.approx(tau, abs=0.05)

    def test_mle_cross_check(self):
        rng = np.random.default_rng(7)
        v = sm.sample_discrete_power_law(1.8, 50_000, rng)
        alpha, stderr = sm.fit_power_law_mle(v)
        assert alpha == pytest.approx(1.8, abs=0.02)
        assert 0 < stderr < 0.05

    @pytest.mark.parametrize("x_min", [1, 2, 5])
    def test_mle_recovers_exponent_above_x_min(self, x_min):
        # the score equation pairs E_tau[log x] over [x_min, max] with the
        # mean of log x, not of log(x / x_min)
        v = sm.sample_discrete_power_law(2.5, 200_000, np.random.default_rng(11),
                                         x_min=x_min)
        alpha, stderr = sm.fit_power_law_mle(v, x_min=x_min)
        assert abs(alpha - 2.5) < 3 * stderr

    def test_mle_without_root_is_a_fit_domain_error(self):
        # all mass at x_min: a one-point support leaves the exponent free
        with pytest.raises(FitDomainError):
            sm.fit_power_law_mle(np.ones(50))

    @pytest.mark.parametrize("tau", [0.5, 1.0, 1.6, 2.2, 2.6])
    def test_mle_recovers_exponent_on_a_short_support(self, tau):
        # the loser-walk branches live on [1, L/2]: the fit must hold for a
        # nearly flat law (tau <= 1) cut short at 50
        v = sm.sample_discrete_power_law(tau, 100_000, np.random.default_rng(int(tau * 10)),
                                         x_max=50)
        alpha, stderr = sm.fit_power_law_mle(v)
        assert alpha == pytest.approx(tau, abs=0.05)
        assert 0 < stderr < 0.01

    def test_mle_fits_the_samplers_truncation(self):
        # the default sampler stops at 10^6; a law fitted as untruncated
        # reads 1.318 on this sample
        v = sm.sample_discrete_power_law(1.3, 100_000, np.random.default_rng(13))
        alpha, _ = sm.fit_power_law_mle(v)
        assert alpha == pytest.approx(1.3, abs=0.01)

    def test_sampler_deterministic(self):
        a = sm.sample_discrete_power_law(1.5, 100, np.random.default_rng(3))
        b = sm.sample_discrete_power_law(1.5, 100, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestLineFit:
    @staticmethod
    def _fields(res):
        return [repr(v) for v in res]

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_bit_equal_to_scipy_linregress(self, n):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(n)
        for k in range(200):
            x = np.arange(n) if k % 3 == 0 else rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            if k % 5 == 0:
                y = np.full(n, rng.normal())  # constant y: rvalue is nan
            else:
                y = rng.normal(size=n) + rng.normal() * x
            ref = stats.linregress(x, y)
            with np.errstate(all="ignore"):
                mine = _linregress(x, y)
            assert self._fields(mine) == self._fields(
                (ref.slope, ref.intercept, ref.rvalue, ref.stderr))

    def test_rejects_constant_x(self):
        with pytest.raises(ValueError):
            _linregress([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def _record_from_positions(ids, extents, kind="corner_rt", transient=0):
    n = int(np.prod(extents))
    ids = np.asarray(ids, dtype=np.int64)
    T = len(ids)
    return sm.RunRecord(
        n_agents=n, extents=tuple(extents), transient_steps=transient,
        loser_index=ids, min_profit=np.zeros(T), mean_price=np.ones(T),
        renorm_flags=np.zeros(T, dtype=bool), kind=kind)


def _reference_jump_stats(record, mode, metric):
    """loser_jump_stats computed per jump, as before the jumps were counted
    by displacement: every jump's distance, np.unique over them, and each
    branch fitted on its samples.  (cumulative_x, cumulative_f, n_jumps,
    pi1, pi2)."""
    pos = record.post(record.positions).astype(np.float64)
    if pos.ndim == 1:
        pos = pos[:, None]
    ext = np.asarray(record.extents, dtype=np.float64)
    d = np.abs(np.diff(pos, axis=0))
    if mode == "min_image":
        d = np.minimum(d, ext - d)
    xi = np.sqrt(np.sum(d * d, axis=1)) if metric == "norm" else d[:, 0]
    cum_x, counts = np.unique(xi, return_counts=True)
    L = float(record.extents[0])
    half = L / 2.0

    def fit_branch(samples):
        v = np.rint(samples).astype(np.int64)
        v = v[v >= 1]
        if v.size == 0:
            return None
        dist = sm.log_bin(v)
        complete = dist.bin_hi <= half
        if not complete.any():
            return None
        try:
            return sm.fit_power_law(dist, (1.0, float(dist.x[complete][-1])))
        except FitDomainError:
            return None

    far = np.abs(L - xi[xi > half])
    return (cum_x, np.cumsum(counts) / xi.size, xi.size,
            fit_branch(xi[(xi >= 1.0) & (xi <= half)]), fit_branch(far[far >= 1.0]))


def _heavy_walk(rng, extents, n):
    """n loser ids on a periodic line or lattice whose steps along each
    axis are rounded Pareto draws of either sign: many zero and short
    jumps, and some that wrap."""
    dim = len(extents)
    steps = np.rint(rng.pareto(1.0, size=(n, dim))).astype(np.int64)
    pos = np.cumsum(steps * rng.choice([-1, 1], size=(n, dim)), axis=0) % extents[0]
    return pos[:, 0] if dim == 1 else pos[:, 0] + extents[0] * pos[:, 1]


class TestJumpDistances:
    # agent id = x + y*L on the lattices, so (x, y) is x + 10*y here
    pytestmark = pytest.mark.filterwarnings("ignore::socmarket.errors.StatisticsWarning")

    def test_1d_raw_and_min_image(self):
        rec = _record_from_positions([1, 9], (10,), kind="ring")
        raw = sm.loser_jump_stats(rec, mode="raw")
        assert raw.cumulative_x.tolist() == [8.0] and raw.counts.tolist() == [1]
        assert sm.loser_jump_stats(rec, mode="min_image").cumulative_x.tolist() == [2.0]

    def test_2d_norm(self):
        rec = _record_from_positions([3, 0, 55], (10, 10))
        stats = sm.loser_jump_stats(rec)
        assert stats.cumulative_x.tolist() == [3.0, pytest.approx(np.sqrt(50))]
        assert stats.counts.tolist() == [1, 1]

    def test_component_metric(self):
        rec = _record_from_positions([30, 64, 30, 31], (10, 10))
        stats = sm.loser_jump_stats(rec, metric="component")
        assert stats.cumulative_x.tolist() == [1.0, 4.0]
        assert stats.counts.tolist() == [1, 2]

    def test_symmetry(self, rng):
        for _ in range(50):
            L = int(rng.integers(4, 20))
            ids = rng.integers(0, L * L, size=20)
            for mode in ("raw", "min_image"):
                forth = sm.loser_jump_stats(_record_from_positions(ids, (L, L)), mode=mode)
                back = sm.loser_jump_stats(_record_from_positions(ids[::-1], (L, L)),
                                           mode=mode)
                assert np.array_equal(forth.cumulative_x, back.cumulative_x)
                assert np.array_equal(forth.counts, back.counts)

    @pytest.mark.parametrize("kw", [dict(mode="wrapped"), dict(metric="max")])
    def test_unknown_mode_or_metric(self, kw):
        rec = _record_from_positions([0, 3], (10, 10))
        with pytest.raises(ValueError):
            sm.loser_jump_stats(rec, **kw)


class TestJumpStats:
    def test_fixed_loser_gives_zero_distances(self):
        rec = _record_from_positions(np.full(5000, 7), (10, 10))
        stats = sm.loser_jump_stats(rec)
        assert stats.cumulative_x.tolist() == [0.0]
        assert stats.counts.tolist() == [4999]
        assert stats.pi1 is None and stats.pi2 is None  # nothing at xi >= 1

    def test_known_power_law_walk(self, rng):
        # synthesize loser positions whose x-jumps follow xi^-2 on a ring
        L = 64
        probs = np.arange(1, L // 2 + 1, dtype=float) ** -2.0
        probs /= probs.sum()
        steps = rng.choice(np.arange(1, L // 2 + 1), p=probs, size=100_000)
        pos = np.cumsum(np.concatenate([[0], steps])) % L
        rec = _record_from_positions(pos, (L,), kind="ring")
        stats = sm.loser_jump_stats(rec, metric="component")
        # wrapped walk measured raw: both branches present
        assert stats.pi1 is not None
        assert stats.pi1.exponent == pytest.approx(2.0, abs=0.25)

    def test_warns_on_few_jumps(self):
        rec = _record_from_positions(np.arange(50) % 9, (3, 3))
        with pytest.warns(StatisticsWarning):
            sm.loser_jump_stats(rec)

    def test_cumulative_is_a_cdf(self, rng):
        ids = rng.integers(0, 81, size=5000)
        rec = _record_from_positions(ids, (9, 9))
        stats = sm.loser_jump_stats(rec)
        f = stats.cumulative_f
        assert np.all(np.diff(f) >= 0)
        assert f[-1] == pytest.approx(1.0)

    def test_modes_and_metrics_plumb_through(self, rng):
        ids = rng.integers(0, 100, size=3000)
        rec = _record_from_positions(ids, (10, 10))
        for mode in ("raw", "min_image"):
            for metric in ("norm", "component"):
                stats = sm.loser_jump_stats(rec, mode=mode, metric=metric)
                assert stats.n_jumps == 2999
                if mode == "min_image":
                    assert stats.cumulative_x.max() <= np.sqrt(50) + 1e-9

    @pytest.mark.filterwarnings("ignore::socmarket.errors.StatisticsWarning")
    @pytest.mark.parametrize("chunk", [1, 7, 8192])
    def test_counting_matches_the_per_jump_reference(self, rng, monkeypatch, chunk):
        # chunk edges fall inside the window, which the transient ends
        # inside; it also holds 0 and 1 jumps, and a loser that never moves
        monkeypatch.setattr(sm.Simulation, "CHUNK", chunk)
        records = [_record_from_positions(_heavy_walk(rng, (64,), 6000), (64,), "ring", 900),
                   _record_from_positions(_heavy_walk(rng, (101,), 3000), (101,), "er", 1200),
                   _record_from_positions(_heavy_walk(rng, (32, 32), 8000), (32, 32), "corner_rt",
                                          300),
                   _record_from_positions(_heavy_walk(rng, (15, 15), 4000), (15, 15), "corner_ft",
                                          77),
                   _record_from_positions(np.full(300, 7), (10, 10), transient=20),
                   _record_from_positions([3, 5, 8], (10, 10), transient=2),
                   _record_from_positions([3, 5, 8], (10, 10), transient=1),
                   _record_from_positions([3, 5, 8], (10, 10), transient=3)]
        records.append(dataclasses.replace(records[1], start_step=500))
        fitted = 0
        for rec in records:
            for mode in ("raw", "min_image"):
                for metric in ("norm", "component"):
                    stats = sm.loser_jump_stats(rec, mode=mode, metric=metric)
                    cum_x, cum_f, n_jumps, pi1, pi2 = _reference_jump_stats(rec, mode, metric)
                    assert np.array_equal(stats.cumulative_x, cum_x)
                    assert np.array_equal(stats.cumulative_f, cum_f)
                    assert stats.n_jumps == n_jumps
                    assert (repr(stats.pi1), repr(stats.pi2)) == (repr(pi1), repr(pi2))
                    fitted += (pi1 is not None) + (pi2 is not None)
        assert fitted >= 20  # the fits are compared, not only their absence


class TestGammaSt:
    def test_quadratic_relation(self):
        events = [sm.AvalancheEvent(t * t, t) for t in range(1, 40)
                  for _ in range(40)]
        fit = sm.gamma_st(events, min_events=100)
        assert fit.gamma == pytest.approx(2.0, abs=1e-9)

    def test_identity_relation_closes_the_scaling_law(self):
        events = [sm.AvalancheEvent(t, t) for t in range(1, 40)
                  for _ in range(40)]
        g = sm.gamma_st(events, min_events=100)
        assert g.gamma == pytest.approx(1.0, abs=1e-9)
        tau = sm.PowerLawFit(exponent=1.4, stderr=0.02, fit_range=(1, 100),
                             n_points=5, r_squared=0.99)
        resid, comb = sm.scaling_relation_residual(tau, tau, g)
        assert resid == pytest.approx(0.0, abs=1e-9)
        assert comb > 0

    def test_too_few_events(self):
        with pytest.raises(FitDomainError):
            sm.gamma_st([sm.AvalancheEvent(2, 1)] * 10)


class TestAvalancheExponents:
    def test_self_consistent_synthetic_chain(self):
        # durations from a tau_T = 2 power law with S = T^2 exactly gives
        # tau_S = 1.5 and gamma = 2; the relation then closes by construction
        rng = np.random.default_rng(12)
        T = sm.sample_discrete_power_law(2.0, 200_000, rng, x_max=10_000)
        events = [sm.AvalancheEvent(int(t) ** 2, int(t)) for t in T]
        out = sm.avalanche_exponents(events, size_range=(10, 10434 ** 2),
                                     duration_range=(10, 1000))
        assert out.gamma.gamma == pytest.approx(2.0, abs=1e-6)
        assert out.tau_t.exponent == pytest.approx(2.0, abs=0.06)
        assert out.tau_s.exponent == pytest.approx(1.5, abs=0.04)
        assert out.relation_residual <= 2 * out.relation_stderr + 0.02

    def test_few_events_are_fitted(self):
        # the event count gates no fit: 300 events with populated bins give
        # all three exponents and the relation
        rng = np.random.default_rng(5)
        T = sm.sample_discrete_power_law(2.0, 300, rng, x_max=1000)
        events = [sm.AvalancheEvent(int(t) ** 2, int(t)) for t in T]
        out = sm.avalanche_exponents(events, size_range=(1, 10 ** 6),
                                     duration_range=(1, 1000))
        assert out.n_events == 300 and out.errors == {}
        assert out.tau_s and out.tau_t and out.gamma.gamma == pytest.approx(2.0)
        assert out.relation_residual is not None and out.relation_stderr > 0

    def test_failed_fit_is_none_with_its_message(self):
        # no duration or size reaches the default windows, while four
        # durations seen five times each still give gamma
        events = [sm.AvalancheEvent(t, t) for t in range(1, 5) for _ in range(5)]
        out = sm.avalanche_exponents(events)
        assert out.tau_s is None and out.tau_t is None
        assert out.gamma.gamma == pytest.approx(1.0)
        assert out.errors == {
            "tau_s": "need at least 3 nonzero bins in [10, 1000], found 0",
            "tau_t": "need at least 3 nonzero bins in [10, 100], found 0"}
        assert out.relation_residual is None and out.relation_stderr is None
        assert list(out.sizes.counts) == [5, 10, 5]


class TestThresholdScan:
    def test_scan_is_deterministic_and_structured(self):
        net = sm.build_ring(16)
        wts = sm.assign_weights_fixed(net, 0.4)
        cfg = sm.SimConfig(total_steps=4000, transient_steps=500, seed=13)
        a = sm.threshold_scan(net, wts, cfg, min_events=50)
        b = sm.threshold_scan(net, wts, cfg, min_events=50)
        assert [e.f0 for e in a.entries] == [e.f0 for e in b.entries]
        assert [e.n_events for e in a.entries] == [e.n_events for e in b.entries]
        grid = [e.f0 for e in a.entries]
        rows = sm.track_activity(sm.Simulation(net, wts, cfg), grid)[cfg.transient_steps:]
        assert rows.shape == (3500, 8)
        for k in range(8):
            sizes, durations = whole_signal_arrays(rows[:, k])
            for scan in (a, b):
                assert np.array_equal(scan.sizes[k], sizes)
                assert np.array_equal(scan.durations[k], durations)

    @pytest.mark.parametrize("engine", sm.dynamics.ENGINES)
    def test_scan_chunks_match_one_pass(self, monkeypatch, engine):
        # a grid with NaN, -inf, +inf and a repeated threshold, tracked in
        # 700-step chunks, which end inside the engine's 1024-step blocks
        net = sm.build_corner_lattice(8, "rt")
        wts = sm.assign_weights_fixed(net, 0.25)
        cfg = sm.SimConfig(total_steps=3300, transient_steps=450, seed=5)
        grid = [np.nan, -0.004, -np.inf, -0.005, -0.004, np.inf, 0.0]
        monkeypatch.setattr(sm.Simulation, "CHUNK", 700)
        scan = sm.threshold_scan(net, wts, cfg, f0_grid=grid, engine=engine, min_events=5)
        full = sm.track_activity(sm.Simulation(net, wts, cfg, engine=engine), grid)
        rows = full[cfg.transient_steps:]
        assert rows[:, 3].any() and not rows[:, 3].all()
        for k, entry in enumerate(scan.entries):
            sizes, durations = whole_signal_arrays(rows[:, k])
            assert scan.sizes[k].tolist() == sizes.tolist()
            assert scan.durations[k].tolist() == durations.tolist()
            assert entry.n_events == len(sizes)
            assert entry.zero_fraction == np.mean(rows[:, k] == 0)
            assert scan.events(k) == sm.extract_avalanches(rows[:, k])

    def test_scan_without_activity_matches_the_default(self, monkeypatch):
        net = sm.build_corner_lattice(16, "rt")
        wts = sm.assign_weights_fixed(net, 0.25)
        cfg = sm.SimConfig(total_steps=40000, transient_steps=2000, seed=3)
        default = sm.threshold_scan(net, wts, cfg, size_range=(2, 400), min_events=100)
        monkeypatch.setattr(sm.Simulation, "CHUNK", 3000)
        lean = sm.threshold_scan(net, wts, cfg, size_range=(2, 400), min_events=100)
        assert lean.entries == default.entries
        assert lean.best == default.best is not None
        grid = [e.f0 for e in default.entries]
        rows = sm.track_activity(sm.Simulation(net, wts, cfg), grid)[cfg.transient_steps:]
        for k in range(len(default.entries)):
            assert np.array_equal(lean.sizes[k], default.sizes[k])
            assert np.array_equal(lean.durations[k], default.durations[k])
            sizes, durations = whole_signal_arrays(rows[:, k])
            assert np.array_equal(default.sizes[k], sizes)
            assert np.array_equal(default.durations[k], durations)

    def test_scan_memory_follows_the_events(self):
        # the scan no longer holds the (steps, 8) int32 activity: its peak
        # stays under a quarter of that array
        net = sm.build_corner_lattice(32, "rt")
        wts = sm.assign_weights_fixed(net, 0.25)
        cfg = sm.SimConfig(total_steps=200_000, transient_steps=20_000, seed=11)
        sm.Simulation(net, wts, cfg)  # build and load the kernel outside the trace
        tracemalloc.start()
        try:
            scan = sm.threshold_scan(net, wts, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        activity_bytes = (cfg.total_steps - cfg.transient_steps) * 8 * 4
        assert peak < activity_bytes / 4
        # the events themselves are most of it
        assert sum(e.n_events for e in scan.entries) > 50_000

    @pytest.mark.parametrize("transient,total,n_snapshots", [
        (0, 500, 200), (0, 300, 7), (50, 400, 200), (37, 1000, 3), (9000, 9300, 20)])
    def test_quantile_samples_the_stepwise_steps(self, transient, total, n_snapshots):
        # reference: sample the state each step t in {transient + k * stride}
        # below total sees, stepping one day at a time
        net = sm.build_ring(20)
        wts = sm.assign_weights_fixed(net, 0.4)
        cfg = sm.SimConfig(total_steps=total, transient_steps=transient, seed=4)
        stride = max(1, (total - transient) // n_snapshots)
        ref = sm.Simulation(net, wts, cfg)
        eng = ref.engine
        samples = []
        for t in range(total):
            if t >= transient and (t - transient) % stride == 0:
                samples.append(eng.profit / (eng.psum / eng.n))
                last, last_p = t, eng.p.copy()
            ref.step()
        assert len(samples) == len(range(transient, total, stride))
        sim = sm.Simulation(net, wts, cfg)
        q = sm.stationary_profit_quantile(sim, 0.1, n_snapshots=n_snapshots)
        assert q == float(np.quantile(np.concatenate(samples), 0.1))
        # it stops at the last sample's step
        assert sim.t == last
        assert np.array_equal(sim.engine.p, last_p)

    def test_quantile_is_the_concatenated_samples_quantile(self):
        # the preallocated samples give the same double as concatenating
        # one array per sample, on 200 samples of 1 024 profits
        net = sm.build_corner_lattice(32, "rt")
        wts = sm.assign_weights_fixed(net, 0.25)
        cfg = sm.SimConfig(total_steps=22000, transient_steps=2000, seed=11)
        ref = sm.Simulation(net, wts, cfg)
        eng = ref.engine
        samples = []
        for t in range(cfg.transient_steps, cfg.total_steps, 100):
            for _ in ref.blocks(t):
                pass
            samples.append(eng.profit / (eng.psum / eng.n))
        assert len(samples) == 200
        for q in (0.001, 0.01, 0.1, 0.5, 0.99):
            got = sm.stationary_profit_quantile(sm.Simulation(net, wts, cfg), q)
            assert got == float(np.quantile(np.concatenate(samples), q))

    def test_quantile_without_transient_samples_step_zero(self):
        # one snapshot, at step 0: the initial state
        net = sm.build_ring(20)
        wts = sm.assign_weights_fixed(net, 0.4)
        cfg = sm.SimConfig(total_steps=200, transient_steps=0, seed=4)
        eng = sm.Simulation(net, wts, cfg).engine
        expect = float(np.quantile(eng.profit / (eng.psum / eng.n), 0.5))
        sim = sm.Simulation(net, wts, cfg)
        assert sm.stationary_profit_quantile(sim, 0.5, n_snapshots=1) == expect
        # and stops there, without stepping through the run
        assert sim.t == 0
        assert np.array_equal(sim.engine.p, eng.p)

    def test_quantile_threshold_is_plausible(self):
        net = sm.build_ring(20)
        wts = sm.assign_weights_fixed(net, 0.4)
        cfg = sm.SimConfig(total_steps=3000, transient_steps=500, seed=4)
        sim = sm.Simulation(net, wts, cfg)
        q10 = sm.stationary_profit_quantile(sim, 0.10)
        sim = sm.Simulation(net, wts, cfg)
        q01 = sm.stationary_profit_quantile(sim, 0.01)
        assert q01 < q10 < 0.0
        # tracked activity at the 10% threshold should count about 10%
        sim = sm.Simulation(net, wts, cfg)
        counts = sm.track_activity(sim, [q10])[cfg.transient_steps:]
        assert counts.mean() / net.n_agents == pytest.approx(0.10, abs=0.04)
