//! Rolling-window aggregation for long-lived processes.
//!
//! The one-shot [`crate::Counter`]/[`crate::Histogram`] statics
//! accumulate since [`crate::Recording::start`] — the right shape for a
//! batch run, useless for a daemon three days in, where "p99 since
//! boot" hides the regression that started an hour ago. The types here
//! aggregate over a **bucket ring**: a fixed number of slots, each
//! covering one wall-clock interval, rotated lazily as time advances.
//! A snapshot sums the live slots, so rates and quantiles always
//! describe the most recent `slots × slot_ns` of activity.
//!
//! Design points:
//!
//! * **Explicit clocks.** Every mutating call takes `now_ns` (the
//!   caller's monotonic clock — the daemon passes nanoseconds since its
//!   epoch). Nothing here reads a clock, which is what makes rotation
//!   property-testable across arbitrary time jumps.
//! * **Slot alignment is global.** A slot covers
//!   `[k·slot_ns, (k+1)·slot_ns)` for integer `k`, so two windows fed
//!   the same clock agree on slot boundaries and snapshots quantize
//!   identically no matter when the window was created.
//! * **Mergeable snapshots.** [`WindowSnapshot`] is a plain
//!   count/sum/bucket-vector; merging is element-wise addition
//!   (associative and commutative, property-tested), so per-verb
//!   windows roll up into an all-verbs view without re-observing
//!   anything.
//! * **Time never runs backwards.** A `now_ns` earlier than the newest
//!   slot clamps into that slot rather than rotating backwards, so a
//!   non-monotonic caller clock degrades accuracy, not correctness.
//!
//! These are plain owned values (no atomics, no registry): a daemon
//! holds them behind its own lock and they work with or without a live
//! [`crate::Recording`].

use crate::metrics::{bucket_bounds, bucket_index, HIST_BUCKETS};

/// Shape of a rolling window: `slots` intervals of `slot_ns` each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Ring length — how many intervals the window retains.
    pub slots: usize,
    /// Width of one interval in nanoseconds.
    pub slot_ns: u64,
}

impl WindowSpec {
    /// The last minute at one-second resolution.
    pub const MINUTE: WindowSpec = WindowSpec {
        slots: 60,
        slot_ns: 1_000_000_000,
    };

    /// The last fifteen minutes at thirty-second resolution.
    pub const QUARTER_HOUR: WindowSpec = WindowSpec {
        slots: 30,
        slot_ns: 30_000_000_000,
    };

    /// A window of `slots` intervals of `slot_ns` nanoseconds each.
    /// Both must be nonzero.
    pub const fn new(slots: usize, slot_ns: u64) -> WindowSpec {
        assert!(slots > 0 && slot_ns > 0, "degenerate window spec");
        WindowSpec { slots, slot_ns }
    }

    /// Total span the window covers, in nanoseconds.
    pub const fn span_ns(&self) -> u64 {
        self.slots as u64 * self.slot_ns
    }
}

/// The shared ring: slot storage plus lazy rotation. `head` is the slot
/// holding the newest interval; `head_slot` is that interval's global
/// index (`now / slot_ns`), `None` until the first touch.
#[derive(Clone, Debug)]
struct Ring<T> {
    spec: WindowSpec,
    slots: Vec<T>,
    head: usize,
    head_slot: Option<u64>,
}

impl<T> Ring<T> {
    fn new(spec: WindowSpec, make: impl Fn() -> T) -> Ring<T> {
        Ring {
            spec,
            slots: (0..spec.slots).map(|_| make()).collect(),
            head: 0,
            head_slot: None,
        }
    }

    /// Advances the ring so `head` covers the interval containing
    /// `now_ns`, resetting every interval skipped over. Backward time
    /// clamps into the current head interval.
    fn rotate(&mut self, now_ns: u64, reset: impl Fn(&mut T)) {
        let k = now_ns / self.spec.slot_ns;
        let Some(head_slot) = self.head_slot else {
            self.head_slot = Some(k);
            return;
        };
        if k <= head_slot {
            return;
        }
        let advance = k - head_slot;
        if advance >= self.spec.slots as u64 {
            // The whole window aged out while nothing was recorded.
            for slot in &mut self.slots {
                reset(slot);
            }
        } else {
            for _ in 0..advance {
                self.head = (self.head + 1) % self.spec.slots;
                reset(&mut self.slots[self.head]);
            }
        }
        self.head_slot = Some(k);
    }
}

/// A monotone counter with a rolling-window view: total since creation
/// plus the count landed in the last [`WindowSpec::span_ns`].
#[derive(Clone, Debug)]
pub struct WindowedCounter {
    ring: Ring<u64>,
    total: u64,
}

/// A [`WindowedCounter`] reading: the since-creation total and the
/// recent-window count it was taken with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterWindow {
    /// Count since the counter was created.
    pub total: u64,
    /// Count landed within the window ending at the snapshot's `now_ns`.
    pub in_window: u64,
    /// The window span the `in_window` count covers, in nanoseconds.
    pub window_ns: u64,
}

impl CounterWindow {
    /// The windowed count as a per-second rate.
    pub fn rate_per_sec(&self) -> f64 {
        self.in_window as f64 / (self.window_ns as f64 / 1e9)
    }
}

impl WindowedCounter {
    /// An empty counter over `spec`.
    pub fn new(spec: WindowSpec) -> WindowedCounter {
        WindowedCounter {
            ring: Ring::new(spec, || 0),
            total: 0,
        }
    }

    /// Adds `n` at time `now_ns`.
    pub fn add(&mut self, now_ns: u64, n: u64) {
        self.ring.rotate(now_ns, |s| *s = 0);
        self.ring.slots[self.ring.head] += n;
        self.total += n;
    }

    /// The reading as of `now_ns` (rotates first, so slots older than
    /// the window no longer count).
    pub fn snapshot(&mut self, now_ns: u64) -> CounterWindow {
        self.ring.rotate(now_ns, |s| *s = 0);
        CounterWindow {
            total: self.total,
            in_window: self.ring.slots.iter().sum(),
            window_ns: self.ring.spec.span_ns(),
        }
    }
}

/// One histogram interval: observation count, value sum, and the same
/// IEEE-exponent bucket layout as [`crate::Histogram`].
#[derive(Clone, Debug)]
struct HistSlot {
    count: u64,
    sum: f64,
    buckets: Vec<u64>,
}

impl HistSlot {
    fn empty() -> HistSlot {
        HistSlot {
            count: 0,
            sum: 0.0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    fn reset(&mut self) {
        self.count = 0;
        self.sum = 0.0;
        self.buckets.fill(0);
    }
}

/// A log-scale histogram over a rolling window, bucketed exactly like
/// [`crate::Histogram`] (IEEE-754 exponent bits, see
/// [`crate::bucket_index`]).
#[derive(Clone, Debug)]
pub struct WindowedHistogram {
    ring: Ring<HistSlot>,
    total_count: u64,
    total_sum: f64,
}

impl WindowedHistogram {
    /// An empty histogram over `spec`.
    pub fn new(spec: WindowSpec) -> WindowedHistogram {
        WindowedHistogram {
            ring: Ring::new(spec, HistSlot::empty),
            total_count: 0,
            total_sum: 0.0,
        }
    }

    /// Records one observation at time `now_ns`.
    pub fn record(&mut self, now_ns: u64, v: f64) {
        self.ring.rotate(now_ns, HistSlot::reset);
        let slot = &mut self.ring.slots[self.ring.head];
        slot.count += 1;
        slot.sum += v;
        slot.buckets[bucket_index(v)] += 1;
        self.total_count += 1;
        self.total_sum += v;
    }

    /// Observations since creation (not windowed).
    pub fn total_count(&self) -> u64 {
        self.total_count
    }

    /// Sum of all observations since creation (not windowed).
    pub fn total_sum(&self) -> f64 {
        self.total_sum
    }

    /// The window's contents as of `now_ns`, as a mergeable snapshot.
    pub fn snapshot(&mut self, now_ns: u64) -> WindowSnapshot {
        self.ring.rotate(now_ns, HistSlot::reset);
        let mut out = WindowSnapshot::empty();
        for slot in &self.ring.slots {
            out.count += slot.count;
            out.sum += slot.sum;
            for (acc, n) in out.buckets.iter_mut().zip(&slot.buckets) {
                *acc += n;
            }
        }
        out
    }
}

/// A windowed histogram reading: plain counts, so merging two snapshots
/// is element-wise addition — associative and commutative, which is
/// what lets per-verb windows roll up into aggregate views.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSnapshot {
    /// Observations in the window.
    pub count: u64,
    /// Sum of observed values in the window.
    pub sum: f64,
    /// Per-bucket observation counts ([`HIST_BUCKETS`] entries; decode
    /// ranges with [`bucket_bounds`]).
    pub buckets: Vec<u64>,
}

impl WindowSnapshot {
    /// A snapshot with nothing in it.
    pub fn empty() -> WindowSnapshot {
        WindowSnapshot {
            count: 0,
            sum: 0.0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Adds one observation — a snapshot kept by hand doubles as a
    /// lifetime histogram in the same buckets as the windows.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.buckets[bucket_index(v)] += 1;
    }

    /// Adds `other`'s contents into `self` (element-wise).
    pub fn merge(&mut self, other: &WindowSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (acc, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *acc += n;
        }
    }

    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate (`q` in `[0, 1]`), or 0 when
    /// empty. The estimate is the geometric midpoint of the bucket the
    /// rank lands in, so it is accurate to the power-of-two bucket
    /// width — the right trade for latency monitoring, where "p99 ≈
    /// 1.4 ms" answers the question and exact order statistics would
    /// mean retaining every sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return if i == 0 {
                    hi // underflow bucket: report its upper edge
                } else if i == HIST_BUCKETS - 1 {
                    lo // overflow bucket: report its lower edge
                } else {
                    (lo * hi).sqrt()
                };
            }
        }
        0.0
    }
}
