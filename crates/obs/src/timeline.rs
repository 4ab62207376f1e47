//! Convergence timelines: fixed sim-time windows, a handful of
//! channels per window, and a renderer.
//!
//! A [`TimelineRecorder`] is the raw accumulator — `channels` parallel
//! `u64` values per window, where a window is `[k*window_us,
//! (k+1)*window_us)` of *simulator virtual time* (the crate's
//! sim-time-only tracing rule: wall-clock never appears here).
//! Channels are either counted into ([`TimelineRecorder::add`]) or
//! sampled ([`TimelineRecorder::set`], last write wins — used for
//! queue depth, which the engine samples at points that do not depend
//! on its shard count: whenever a sim-time instant fully drains).
//!
//! Recorders are per-owner (the simulator keeps one, each router keeps
//! one) and merge by channel-wise addition, so per-router recorders
//! fold to the same view wherever the routers ran. The
//! merged channels are then assembled into a [`ConvergenceTimeline`] —
//! the operator-facing table of events/sec, queue depth, RIB churn and
//! verify-cache traffic per window. As everywhere in the workspace,
//! `verify_cache_hits` is the one shard-count-dependent column;
//! comparisons across shard counts go through
//! [`ConvergenceTimeline::zero_cache_hits`].

use std::collections::BTreeMap;
use std::fmt::Write;

/// Simulator channel: events processed (counted).
pub const SIM_EVENTS: usize = 0;
/// Simulator channel: payload deliveries (counted).
pub const SIM_DELIVERED: usize = 1;
/// Simulator channel: pending-event queue depth (sampled, last wins).
pub const SIM_QUEUE_DEPTH: usize = 2;
/// Number of simulator channels.
pub const SIM_CHANNELS: usize = 3;

/// Router channel: best-route changes, i.e. RIB churn (counted).
pub const RT_RIB_CHURN: usize = 0;
/// Router channel: attestation verifications requested (counted).
pub const RT_VERIFY_CALLS: usize = 1;
/// Router channel: verifications answered by the cache (counted).
/// Engine-dependent — see the carve-out in the module docs.
pub const RT_VERIFY_HITS: usize = 2;
/// Router channel: withdraws flooded to neighbors (counted) — the
/// churn channel: fault-driven teardowns and workload withdrawals both
/// land here, making withdraw storms visible per window.
pub const RT_WITHDRAWS: usize = 3;
/// Number of router channels.
pub const RT_CHANNELS: usize = 4;

/// SMC channel: private-verification requests flushed (counted).
/// These channels feed the *verifier-owned* recorder (one per
/// `PrivateVerifier`), kept deliberately separate from the simulator
/// and router recorders so enabling private verification never changes
/// the channel layout — or the bytes — of the e15 timeline.
pub const SMC_REQUESTS: usize = 0;
/// SMC channel: batches executed (counted).
pub const SMC_BATCHES: usize = 1;
/// SMC channel: lane slots provisioned across those batches (counted;
/// batches × lane capacity) — [`SMC_REQUESTS`]` / `[`SMC_LANES`] is
/// the per-window batch occupancy.
pub const SMC_LANES: usize = 2;
/// SMC channel: communication rounds charged to the cost model
/// (counted; rounds are shared across a batch's lanes — the win
/// bit-slicing buys).
pub const SMC_ROUNDS: usize = 3;
/// Number of SMC channels.
pub const SMC_CHANNELS: usize = 4;

/// Per-window accumulator. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineRecorder {
    window_us: u64,
    channels: usize,
    cells: BTreeMap<u64, Vec<u64>>,
}

impl TimelineRecorder {
    /// A recorder with `channels` channels and `window_us`-wide
    /// windows of sim-time.
    ///
    /// # Panics
    /// If `window_us` or `channels` is zero.
    pub fn new(window_us: u64, channels: usize) -> TimelineRecorder {
        assert!(window_us > 0, "timeline window must be positive");
        assert!(channels > 0, "timeline needs at least one channel");
        TimelineRecorder { window_us, channels, cells: BTreeMap::new() }
    }

    fn cell(&mut self, t_us: u64) -> &mut Vec<u64> {
        let start = t_us - t_us % self.window_us;
        let channels = self.channels;
        self.cells.entry(start).or_insert_with(|| vec![0; channels])
    }

    /// Adds `n` to channel `ch` in the window containing sim-time
    /// `t_us`.
    pub fn add(&mut self, t_us: u64, ch: usize, n: u64) {
        self.cell(t_us)[ch] += n;
    }

    /// Samples channel `ch` in the window containing `t_us` (last
    /// write wins). Use for level-style channels like queue depth.
    pub fn set(&mut self, t_us: u64, ch: usize, v: u64) {
        self.cell(t_us)[ch] = v;
    }

    /// Channel-wise addition of `other` into `self`.
    ///
    /// # Panics
    /// If window widths or channel counts differ.
    pub fn merge(&mut self, other: &TimelineRecorder) {
        assert_eq!(self.window_us, other.window_us, "merging recorders with different windows");
        assert_eq!(self.channels, other.channels, "merging recorders with different channels");
        for (&start, vals) in &other.cells {
            let channels = self.channels;
            let cell = self.cells.entry(start).or_insert_with(|| vec![0; channels]);
            for (c, v) in cell.iter_mut().zip(vals) {
                *c += v;
            }
        }
    }

    /// Window width in sim-time microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Number of channels per window.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The raw cells: window start (µs) → per-channel values.
    pub fn cells(&self) -> &BTreeMap<u64, Vec<u64>> {
        &self.cells
    }

    /// Rebuilds a recorder from checkpointed state, the inverse of
    /// reading [`window_us`](Self::window_us),
    /// [`channels`](Self::channels) and [`cells`](Self::cells).
    ///
    /// # Panics
    /// Under the same conditions as [`new`](Self::new), or when a cell
    /// disagrees with `channels` — checkpoint codecs must validate
    /// shapes before constructing (their integrity layer rejects
    /// corrupt bytes first).
    pub fn from_cells(
        window_us: u64,
        channels: usize,
        cells: BTreeMap<u64, Vec<u64>>,
    ) -> TimelineRecorder {
        assert!(window_us > 0, "timeline window must be positive");
        assert!(channels > 0, "timeline needs at least one channel");
        for cell in cells.values() {
            assert_eq!(cell.len(), channels, "cell width disagrees with channel count");
        }
        TimelineRecorder { window_us, channels, cells }
    }
}

/// One rendered timeline window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineWindow {
    /// Window start, sim-time microseconds.
    pub start_us: u64,
    /// Simulator events processed in the window.
    pub events: u64,
    /// Payload deliveries in the window.
    pub delivered: u64,
    /// Queue depth when the window's last sim-instant drained.
    pub queue_depth: u64,
    /// Best-route changes (RIB churn) across all routers.
    pub rib_churn: u64,
    /// Attestation verifications requested.
    pub verify_calls: u64,
    /// Verifications served from cache (shard-count-dependent;
    /// excluded from cross-shard-count comparisons).
    pub verify_cache_hits: u64,
    /// Withdraws flooded to neighbors across all routers.
    pub withdraws: u64,
}

/// The operator-facing convergence timeline: sim/router channels
/// joined per window, in ascending window order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvergenceTimeline {
    /// Window width, sim-time microseconds.
    pub window_us: u64,
    /// The windows, ascending by `start_us`. Windows with no activity
    /// on any channel are absent, not zero-filled.
    pub windows: Vec<TimelineWindow>,
}

impl ConvergenceTimeline {
    /// Joins a simulator recorder ([`SIM_CHANNELS`]) and the merged
    /// router recorder ([`RT_CHANNELS`]) into one timeline.
    ///
    /// # Panics
    /// If the recorders disagree on window width or were built with
    /// the wrong channel counts.
    pub fn assemble(sim: &TimelineRecorder, routers: &TimelineRecorder) -> ConvergenceTimeline {
        assert_eq!(sim.window_us, routers.window_us, "sim/router timeline windows differ");
        assert_eq!(sim.channels, SIM_CHANNELS, "sim recorder has wrong channel count");
        assert_eq!(routers.channels, RT_CHANNELS, "router recorder has wrong channel count");
        let mut by_start: BTreeMap<u64, TimelineWindow> = BTreeMap::new();
        for (&start, v) in &sim.cells {
            let w = by_start
                .entry(start)
                .or_insert(TimelineWindow { start_us: start, ..Default::default() });
            w.events = v[SIM_EVENTS];
            w.delivered = v[SIM_DELIVERED];
            w.queue_depth = v[SIM_QUEUE_DEPTH];
        }
        for (&start, v) in &routers.cells {
            let w = by_start
                .entry(start)
                .or_insert(TimelineWindow { start_us: start, ..Default::default() });
            w.rib_churn = v[RT_RIB_CHURN];
            w.verify_calls = v[RT_VERIFY_CALLS];
            w.verify_cache_hits = v[RT_VERIFY_HITS];
            w.withdraws = v[RT_WITHDRAWS];
        }
        ConvergenceTimeline { window_us: sim.window_us, windows: by_start.into_values().collect() }
    }

    /// The carve-out projection: a copy with `verify_cache_hits`
    /// zeroed in every window, suitable for byte-identity assertions
    /// between shard counts.
    pub fn zero_cache_hits(&self) -> ConvergenceTimeline {
        let mut t = self.clone();
        for w in &mut t.windows {
            w.verify_cache_hits = 0;
        }
        t
    }

    /// Events per *sim-time* second in `w` — a deterministic rate,
    /// unlike wall-clock events/sec.
    pub fn events_per_sim_sec(&self, w: &TimelineWindow) -> u64 {
        w.events * 1_000_000 / self.window_us
    }

    /// Renders the timeline as a fixed-width table. The `hit%` column
    /// derives from the carve-out channel and is the only column that
    /// may differ between shard counts.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{:>10}  {:>8}  {:>10}  {:>7}  {:>9}  {:>9}  {:>8}  {:>5}",
            "window(ms)",
            "events",
            "ev/simsec",
            "queue",
            "rib-churn",
            "withdraws",
            "verifies",
            "hit%"
        )
        .expect("write to String cannot fail");
        for w in &self.windows {
            let hit_pct = match (w.verify_cache_hits * 100).checked_div(w.verify_calls) {
                None => "-".to_string(),
                Some(pct) => pct.to_string(),
            };
            writeln!(
                out,
                "{:>10}  {:>8}  {:>10}  {:>7}  {:>9}  {:>9}  {:>8}  {:>5}",
                w.start_us / 1000,
                w.events,
                self.events_per_sim_sec(w),
                w.queue_depth,
                w.rib_churn,
                w.withdraws,
                w.verify_calls,
                hit_pct
            )
            .expect("write to String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_bucket_by_sim_time() {
        let mut r = TimelineRecorder::new(1000, SIM_CHANNELS);
        r.add(0, SIM_EVENTS, 1);
        r.add(999, SIM_EVENTS, 1);
        r.add(1000, SIM_EVENTS, 1);
        assert_eq!(r.cells().get(&0).unwrap()[SIM_EVENTS], 2);
        assert_eq!(r.cells().get(&1000).unwrap()[SIM_EVENTS], 1);
    }

    #[test]
    fn set_is_last_write_wins() {
        let mut r = TimelineRecorder::new(1000, SIM_CHANNELS);
        r.set(10, SIM_QUEUE_DEPTH, 5);
        r.set(20, SIM_QUEUE_DEPTH, 3);
        assert_eq!(r.cells().get(&0).unwrap()[SIM_QUEUE_DEPTH], 3);
    }

    #[test]
    fn merge_is_channel_wise_addition() {
        let mut a = TimelineRecorder::new(1000, RT_CHANNELS);
        let mut b = TimelineRecorder::new(1000, RT_CHANNELS);
        a.add(100, RT_RIB_CHURN, 2);
        b.add(150, RT_RIB_CHURN, 3);
        b.add(2500, RT_VERIFY_CALLS, 1);
        a.merge(&b);
        assert_eq!(a.cells().get(&0).unwrap()[RT_RIB_CHURN], 5);
        assert_eq!(a.cells().get(&2000).unwrap()[RT_VERIFY_CALLS], 1);
    }

    #[test]
    fn assemble_joins_sim_and_router_channels() {
        let mut sim = TimelineRecorder::new(1000, SIM_CHANNELS);
        sim.add(100, SIM_EVENTS, 4);
        sim.set(100, SIM_QUEUE_DEPTH, 2);
        let mut rt = TimelineRecorder::new(1000, RT_CHANNELS);
        rt.add(100, RT_RIB_CHURN, 1);
        rt.add(1500, RT_VERIFY_CALLS, 2);
        rt.add(1500, RT_VERIFY_HITS, 1);
        let t = ConvergenceTimeline::assemble(&sim, &rt);
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.windows[0].events, 4);
        assert_eq!(t.windows[0].queue_depth, 2);
        assert_eq!(t.windows[0].rib_churn, 1);
        assert_eq!(t.windows[1].verify_calls, 2);
        assert_eq!(t.zero_cache_hits().windows[1].verify_cache_hits, 0);
        assert_eq!(t.events_per_sim_sec(&t.windows[0]), 4000);
        // The table renders without panicking and mentions the data.
        assert!(t.render_table().contains("rib-churn"));
    }
}
