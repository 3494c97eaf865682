//! The benchmark's own arithmetic: percentiles, open-loop timing, failure
//! accounting and the max-rate search. Everything here is pure, so the
//! unit tests at the bottom pin the rules the reported numbers rest on.

/// Samples a reported percentile must leave beyond it. A p99 over fewer
/// than 1000 samples would be set by its last one or two values.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank_index(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let i = rank_index(sorted.len(), q);
    (sorted.len() - 1 - i >= MIN_TAIL_SAMPLES || q <= 0.5).then(|| sorted[i])
}

/// Each consecutive window's `q`-quantile, over windows of `window`
/// samples in measurement order (a trailing partial window dropped). A
/// window too small to leave [`MIN_TAIL_SAMPLES`] beyond its quantile
/// yields nothing.
#[must_use]
pub fn window_quantiles(samples: &[f64], window: usize, q: f64) -> Vec<f64> {
    samples
        .chunks_exact(window)
        .filter_map(|w| {
            let mut w = w.to_vec();
            sort(&mut w);
            percentile(&w, q)
        })
        .collect()
}

/// The median of the per-window p99s ([`window_quantiles`]): a burst of
/// host noise inflates the windows it falls in, not the result. `None`
/// when no whole window supports a p99.
#[must_use]
pub fn windowed_p99(samples: &[f64], window: usize) -> Option<f64> {
    let p99s = window_quantiles(samples, window, 0.99);
    (!p99s.is_empty()).then(|| median(&p99s))
}

/// The best (least) per-window `q`-quantile: the latency of the window the
/// host disturbed least. Noise on a shared host only adds latency, so the
/// best window repeats run to run where the whole-phase quantile follows
/// the host's load. `None` when no whole window supports the quantile.
#[must_use]
pub fn best_window_quantile(samples: &[f64], window: usize, q: f64) -> Option<f64> {
    window_quantiles(samples, window, q)
        .into_iter()
        .min_by(f64::total_cmp)
}

/// The most completions in any whole `window_ns` window of `[0, span_ns)`,
/// as a rate per second. Completion times are nanoseconds since the phase
/// began; those at or after `span_ns` (the drain) are ignored.
#[must_use]
pub fn peak_rate(done_ns: impl IntoIterator<Item = u64>, span_ns: u64, window_ns: u64) -> f64 {
    let windows = (span_ns / window_ns) as usize;
    let mut counts = vec![0u64; windows];
    for t in done_ns {
        if let Some(c) = counts.get_mut((t / window_ns) as usize) {
            *c += 1;
        }
    }
    counts.into_iter().max().unwrap_or(0) as f64 * 1e9 / window_ns as f64
}

/// Median of unsorted values (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts latencies ascending; `INFINITY` (a failed request) sorts last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// How one open-loop request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Answered with a schedule (or a baseline disposition) that passed
    /// client-side verification.
    Ok,
    /// Shed by the admission queue.
    Shed,
    /// Refused with another typed error (overload, malformed, ...).
    Refused,
    /// The response failed client-side verification.
    Unverified,
}

/// The timing log of one open-loop phase. Times are nanoseconds since the
/// phase's epoch. Request `i` is due at `i * 1e9 / rate`: latency counts
/// from that due time, not from when the generator got round to sending
/// it, so a stall anywhere inflates every request queued behind it.
#[derive(Debug, Clone)]
pub struct OpenLoopLog {
    rate: f64,
    sent: Vec<u64>,
    done: Vec<Option<(u64, Fate)>>,
}

impl OpenLoopLog {
    /// A log for `n` requests offered at `rate` per second, or as the
    /// window allows when `rate` is infinite (closed loop).
    #[must_use]
    pub fn new(rate: f64, n: usize) -> Self {
        OpenLoopLog {
            rate,
            sent: vec![0; n],
            done: vec![None; n],
        }
    }

    /// Requests in the phase.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sent.len()
    }

    /// Keeps only the first `n` requests (a closed-loop phase sizes its
    /// log for the most it could send).
    pub fn truncate(&mut self, n: usize) {
        self.sent.truncate(n);
        self.done.truncate(n);
    }

    /// When request `i` is due. A closed-loop log (infinite rate) has
    /// each request due when it was sent.
    #[must_use]
    pub fn due_ns(&self, i: usize) -> u64 {
        if self.rate.is_infinite() {
            self.sent[i]
        } else {
            (i as f64 * 1e9 / self.rate) as u64
        }
    }

    /// Records that request `i` left the generator at `t`.
    pub fn sent(&mut self, i: usize, t: u64) {
        self.sent[i] = t;
    }

    /// Records request `i`'s end.
    pub fn done(&mut self, i: usize, t: u64, fate: Fate) {
        self.done[i] = Some((t, fate));
    }

    /// Per-request latency from the due time, in microseconds; a request
    /// that failed or never ended counts as `INFINITY`, i.e. it misses any
    /// latency limit.
    #[must_use]
    pub fn latencies_us(&self) -> Vec<f64> {
        (0..self.len())
            .map(|i| match self.done[i] {
                Some((t, Fate::Ok)) => t.saturating_sub(self.due_ns(i)) as f64 / 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// How late the generator sent each request, in microseconds.
    #[must_use]
    pub fn lateness_us(&self) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.sent[i].saturating_sub(self.due_ns(i)) as f64 / 1e3)
            .collect()
    }

    /// Completion times of the requests that ended [`Fate::Ok`].
    pub fn ok_done_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.done.iter().filter_map(|d| match d {
            Some((t, Fate::Ok)) => Some(*t),
            _ => None,
        })
    }

    /// Requests that did not end [`Fate::Ok`], including any never
    /// answered.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.done
            .iter()
            .filter(|d| !matches!(d, Some((_, Fate::Ok))))
            .count()
    }

    /// Requests still unanswered at time `t` among those sent by then.
    #[must_use]
    pub fn outstanding_at(&self, t: u64) -> usize {
        (0..self.len())
            .filter(|&i| self.sent[i] <= t && self.due_ns(i) <= t)
            .filter(|&i| self.done[i].is_none_or(|(d, _)| d > t))
            .count()
    }
}

/// Verdict on one offered rate for the max-rate search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// p99 latency from the due time, microseconds (`INFINITY` when more
    /// than 1% of requests failed).
    pub p99_us: f64,
    /// Failed requests (shed, refused, unverified or lost).
    pub failures: usize,
    /// Requests still outstanding when the last one was due.
    pub backlog: usize,
}

impl Probe {
    /// Judges one phase's log against the latency limit. The backlog
    /// grows when more requests are outstanding at the end of sending than
    /// the rate can retire within the limit (Little's law).
    #[must_use]
    pub fn judge(log: &OpenLoopLog, limit_us: f64) -> (Self, bool) {
        let mut lat = log.latencies_us();
        sort(&mut lat);
        let p99_us = percentile(&lat, 0.99).unwrap_or(f64::INFINITY);
        let last_due = log.due_ns(log.len().saturating_sub(1));
        let probe = Probe {
            p99_us,
            failures: log.failures(),
            backlog: log.outstanding_at(last_due),
        };
        let allowed = (log.rate * limit_us / 1e6).ceil() as usize;
        let pass = probe.failures == 0 && probe.p99_us < limit_us && probe.backlog <= allowed;
        (probe, pass)
    }
}

/// Finds the highest rate that passes `probe`, by doubling from `start`
/// until a rate fails and then bisecting (geometrically) between the
/// highest pass and the lowest failure until they are within `resolution`
/// (a ratio above 1). Rates above `ceiling` are not tried. A rate is only
/// ever probed strictly between the best pass and the lowest failure seen
/// so far, so the answer is never above a rate that failed, even when a
/// noisy probe is not monotone. `None` when even `floor` fails.
pub fn search_max_rate(
    start: f64,
    floor: f64,
    ceiling: f64,
    resolution: f64,
    mut probe: impl FnMut(f64) -> bool,
) -> Option<f64> {
    let mut best: Option<f64> = None;
    let mut lowest_fail = f64::INFINITY;
    let mut rate = start.clamp(floor, ceiling);
    loop {
        if probe(rate) {
            best = Some(rate);
        } else {
            lowest_fail = rate;
        }
        let next = match best {
            None if rate <= floor => return None,
            None => (rate / 2.0).max(floor),
            Some(b) if lowest_fail.is_infinite() => {
                if b >= ceiling {
                    return best;
                }
                (b * 2.0).min(ceiling)
            }
            Some(b) => {
                if lowest_fail / b <= resolution {
                    return best;
                }
                (b * lowest_fail).sqrt()
            }
        };
        rate = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.99), None, "p99 of 999 has 9 beyond");
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&sorted, 0.99).expect("1000 samples support p99");
        let beyond = sorted.iter().filter(|&&v| v > p99).count();
        assert_eq!(beyond, MIN_TAIL_SAMPLES);
        assert_eq!(percentile(&sorted, 0.5), Some(500.0));
        // Every accepted percentile, at any size, leaves ≥10 beyond.
        for n in 1..3000usize {
            let sorted: Vec<f64> = (0..n).map(|v| v as f64).collect();
            for q in [0.9, 0.95, 0.99, 0.999] {
                if let Some(p) = percentile(&sorted, q) {
                    assert!(sorted.iter().filter(|&&v| v > p).count() >= MIN_TAIL_SAMPLES);
                }
            }
        }
    }

    #[test]
    fn windowed_p99_resists_one_bad_window() {
        // Five windows of 1000; one holds a 50-sample stall.
        let mut v: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        v[2000..2050].iter_mut().for_each(|x| *x = 1e6);
        assert_eq!(windowed_p99(&v, 1000), Some(989.0));
        assert_eq!(windowed_p99(&v[..999], 999), None, "999 leave 9 beyond p99");
        assert_eq!(
            windowed_p99(&v[..1500], 1000),
            Some(989.0),
            "partial window dropped"
        );
    }

    #[test]
    fn best_window_skips_a_disturbed_window() {
        // Three windows of 100: the middle one runs 10x slower.
        let v: Vec<f64> = (0..300)
            .map(|i| f64::from(i % 100) * if (100..200).contains(&i) { 10.0 } else { 1.0 })
            .collect();
        assert_eq!(best_window_quantile(&v, 100, 0.5), Some(49.0));
        assert_eq!(best_window_quantile(&v, 100, 0.9), Some(89.0));
        assert_eq!(best_window_quantile(&v, 100, 0.99), None, "1 beyond p99");
    }

    #[test]
    fn peak_rate_takes_the_busiest_whole_window() {
        // 1 s of 100 completions, then 1 s of 300; the 2.5 s span has two
        // whole windows and the drain after it does not count.
        let done = (0..100u64)
            .map(|i| i * 10_000_000)
            .chain((0..300u64).map(|i| 1_000_000_000 + i * 3_000_000))
            .chain([2_600_000_000]);
        assert_eq!(peak_rate(done, 2_500_000_000, 1_000_000_000), 300.0);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // 1000 rps: request i is due at i ms. The generator stalls for
        // 5 ms before request 5, then sends 5..10 in a burst; the server
        // answers each 100 µs after it is sent.
        let mut log = OpenLoopLog::new(1000.0, 10);
        for i in 0..10 {
            let sent = if i < 5 { log.due_ns(i) } else { 10_000_000 };
            log.sent(i, sent);
            log.done(i, sent + 100_000, Fate::Ok);
        }
        let lat = log.latencies_us();
        for (i, &l) in lat.iter().enumerate().take(5) {
            assert_eq!(l, 100.0, "on-time request {i}");
        }
        // Request 5 was due at 5 ms and answered at 10.1 ms.
        assert_eq!(lat[5], 5100.0);
        assert!(
            lat[5..].iter().all(|&l| l > 1000.0),
            "the stall inflates later requests"
        );
        assert_eq!(log.lateness_us()[9], 1000.0);
    }

    #[test]
    fn shed_and_refused_requests_count_as_failures() {
        let mut log = OpenLoopLog::new(1000.0, 4);
        for i in 0..4 {
            log.sent(i, log.due_ns(i));
        }
        log.done(0, 50_000, Fate::Ok);
        log.done(1, 1_050_000, Fate::Shed);
        log.done(2, 2_050_000, Fate::Refused);
        // Request 3 never answers.
        assert_eq!(log.failures(), 3);
        let lat = log.latencies_us();
        assert!(lat[0].is_finite());
        assert!(
            lat[1..].iter().all(|l| l.is_infinite()),
            "failures miss any limit"
        );
        let (_, pass) = Probe::judge(&log, f64::MAX);
        assert!(!pass, "a phase with failures never meets the limit");
    }

    #[test]
    fn max_rate_search_never_reports_above_a_failed_rate() {
        // A monotone server: everything up to 30k passes.
        let mut failed = Vec::new();
        let got = search_max_rate(16_000.0, 1_000.0, 1e6, 1.02, |r| {
            let ok = r <= 30_000.0;
            if !ok {
                failed.push(r);
            }
            ok
        });
        let got = got.expect("16k passes");
        assert!(got <= 30_000.0 && got > 30_000.0 / 1.02);
        // A noisy one: pass/fail at random. Whatever it reports must stay
        // below every rate that failed.
        for seed in 0..200u64 {
            let mut rng = veal::ir::rng::Rng64::new(seed);
            let mut failed: Vec<f64> = Vec::new();
            let got = search_max_rate(16_000.0, 1_000.0, 1e6, 1.05, |r| {
                let ok = rng.gen_bool(0.6);
                if !ok {
                    failed.push(r);
                }
                ok
            });
            if let Some(got) = got {
                assert!(
                    failed.iter().all(|&f| got < f),
                    "seed {seed}: {got} vs {failed:?}"
                );
            }
        }
        // Nothing passes: no rate is reported.
        assert_eq!(
            search_max_rate(16_000.0, 1_000.0, 1e6, 1.05, |_| false),
            None
        );
    }

    #[test]
    fn growing_backlog_fails_the_probe() {
        // 1000 rps over 100 requests, each answered 50 ms after sending:
        // 50 are outstanding when the last is due, far above the 10 that a
        // 10 ms limit allows at this rate.
        let mut log = OpenLoopLog::new(1000.0, 100);
        for i in 0..100 {
            let t = log.due_ns(i);
            log.sent(i, t);
            log.done(i, t + 50_000_000, Fate::Ok);
        }
        let (probe, pass) = Probe::judge(&log, 10_000.0);
        assert!(probe.backlog > 10 && !pass);
    }
}
