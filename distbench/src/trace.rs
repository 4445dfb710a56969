//! The traced run's span recorder and the arithmetic over its spans.
//!
//! A span is recorded around every call the benchmark makes into a
//! layer's public API (see `wrap.rs` and `workloads.rs`). Spans carry a
//! name, start, end, the index of the span that caused them and a group
//! id shared by every span of one `run_round` or one cluster. They are
//! kept in memory and analysed when the run ends; nothing is written while
//! the measured work runs.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::alloc;

/// The API points the traced run wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// `Topology::complete`.
    TopologyBuild,
    /// `RoundSim::new`.
    SimNew,
    /// `RoundSim::run_round`.
    Round,
    /// `Instance::partition`.
    Partition,
    /// `Instance::merge_set`.
    MergeSet,
    /// `run_cluster_with_faults`.
    Cluster,
    /// `Transport::send`.
    Send,
    /// `Transport::recv_timeout`.
    Recv,
    /// `frame::decode_frame`, called by the benchmark on every sent frame.
    FrameDecode,
}

impl Name {
    /// The span's printed name.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::TopologyBuild => "net.topology.build",
            Name::SimNew => "gossip.sim_new",
            Name::Round => "gossip.run_round",
            Name::Partition => "core.partition",
            Name::MergeSet => "core.merge_set",
            Name::Cluster => "runtime.cluster",
            Name::Send => "runtime.transport.send",
            Name::Recv => "runtime.transport.recv_timeout",
            Name::FrameDecode => "runtime.frame.decode",
        }
    }
}

/// `parent` of a span that nothing caused.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which API point.
    pub name: Name,
    /// Shared by the spans of one `run_round` or one cluster.
    pub group: u32,
    /// Index of the causing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Allocations made on the span's thread while it was the innermost
    /// open span there.
    pub self_allocs: u64,
    /// A per-name quantity: the input length for `Partition`, 1 for a
    /// `Recv` that returned no frame; 0 otherwise.
    pub tag: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Open {
    idx: u32,
    allocs_at_open: u64,
    child_allocs: u64,
}

static SPANS: Mutex<Vec<(u32, Span)>> = Mutex::new(Vec::new());
static NEXT: AtomicU32 = AtomicU32::new(0);
static GROUP: AtomicU32 = AtomicU32::new(0);
static ROOT: AtomicU32 = AtomicU32::new(NO_PARENT);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts a new group: spans opened from now on share a fresh id.
pub fn new_group() {
    GROUP.fetch_add(1, Ordering::SeqCst);
}

/// Sets the parent of spans opened on threads with no open span (the
/// peer threads of a cluster); [`NO_PARENT`] clears it.
pub fn set_root(idx: u32) {
    ROOT.store(idx, Ordering::SeqCst);
}

/// An open span; recorded when dropped.
pub struct Guard {
    idx: u32,
    name: Name,
    group: u32,
    parent: u32,
    start_ns: u64,
    tag: u32,
}

impl Guard {
    /// The span's index in [`take`]'s result.
    pub fn index(&self) -> u32 {
        self.idx
    }

    /// Sets the span's [`Span::tag`].
    pub fn tag(&mut self, tag: u32) {
        self.tag = tag;
    }
}

/// Opens a span on the calling thread.
pub fn span(name: Name) -> Guard {
    let (idx, parent) = alloc::uncounted(|| {
        let idx = NEXT.fetch_add(1, Ordering::SeqCst);
        let parent = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack
                .last()
                .map_or_else(|| ROOT.load(Ordering::SeqCst), |o| o.idx);
            stack.push(Open {
                idx,
                allocs_at_open: alloc::thread_allocs(),
                child_allocs: 0,
            });
            parent
        });
        (idx, parent)
    });
    Guard {
        idx,
        name,
        group: GROUP.load(Ordering::SeqCst),
        parent,
        start_ns: now_ns(),
        tag: 0,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        alloc::uncounted(|| {
            let self_allocs = STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let open = stack
                    .pop()
                    .expect("span closed on a thread that did not open it");
                assert_eq!(open.idx, self.idx, "spans must close in LIFO order");
                let inclusive = alloc::thread_allocs() - open.allocs_at_open;
                if let Some(parent) = stack.last_mut() {
                    parent.child_allocs += inclusive;
                }
                inclusive - open.child_allocs
            });
            let span = Span {
                name: self.name,
                group: self.group,
                parent: self.parent,
                start_ns: self.start_ns,
                end_ns,
                self_allocs,
                tag: self.tag,
            };
            SPANS
                .lock()
                .expect("span buffer poisoned")
                .push((self.idx, span));
        });
    }
}

/// Runs `f` under a span named `name`.
pub fn within<T>(name: Name, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Removes and returns every recorded span, ordered so that a span's
/// `parent` is its position in the result. Call only when no span is
/// open.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"));
    assert_eq!(
        NEXT.swap(0, Ordering::SeqCst) as usize,
        spans.len(),
        "a span is still open"
    );
    // Spans are pushed when they close but numbered when they open.
    spans.sort_unstable_by_key(|&(idx, _)| idx);
    spans.into_iter().map(|(_, s)| s).collect()
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// its interval that its direct children cover. Children may nest, touch
/// or overlap (peer threads under one cluster span); covered time is
/// counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, &mut kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// The `p`-th percentile of ascending `sorted` by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples,
/// `⌈p·n/100⌉`, in integers (`p` to a tenth) so that `p = 99, n = 1000`
/// gives exactly 990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Percentiles the benchmark may report as a tail, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Whether `n` samples leave at least ten beyond the `p`-th percentile.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= 10
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| tail_supported(n, p))
}

/// The median of `values` (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The mean of `values` without their lowest and highest fifth (the
/// count to drop rounds down, so fewer than five values keep them all).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "trimmed mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 5;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: Name::Round,
            group: 0,
            parent,
            start_ns,
            end_ns,
            self_allocs: 0,
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // 0: [0,100) ⊃ 1: [10,50) ⊃ 2: [20,30); 0 also ⊃ 3: [60,70).
        let spans = [
            sp(NO_PARENT, 0, 100),
            sp(0, 10, 50),
            sp(1, 20, 30),
            sp(0, 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 10, 10]);
    }

    #[test]
    fn self_time_with_adjacent_children() {
        // Children [10,20) and [20,35) touch; together they cover 25 ns.
        let spans = [sp(NO_PARENT, 0, 40), sp(0, 10, 20), sp(0, 20, 35)];
        assert_eq!(self_times(&spans), vec![15, 10, 15]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips() {
        // Peer threads under one cluster span: [5,30) and [20,60) overlap,
        // and the second runs past the parent's end at 50.
        let spans = [sp(NO_PARENT, 0, 50), sp(0, 5, 30), sp(0, 20, 60)];
        assert_eq!(self_times(&spans), vec![5, 25, 40]);
    }

    #[test]
    fn self_times_sum_to_the_root_duration_for_disjoint_children() {
        let spans = [
            sp(NO_PARENT, 0, 1000),
            sp(0, 100, 300),
            sp(1, 150, 160),
            sp(0, 300, 900),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_each_outer_fifth() {
        assert_eq!(trimmed_mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(trimmed_mean(&[100.0, 1.0, 2.0, 3.0, 0.0]), 2.0);
        let ten = [9.0, 50.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, -40.0];
        assert_eq!(
            trimmed_mean(&ten),
            (2.0 + 3.0 + 4.0 + 5.0 + 6.0 + 7.0) / 6.0
        );
    }

    #[test]
    fn recorder_links_parents_and_attributes_allocations() {
        let outer = span(Name::Round);
        let outer_idx = outer.index();
        {
            let mut inner = span(Name::Partition);
            inner.tag(7);
        }
        drop(outer);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[outer_idx as usize].name, Name::Round);
        let inner = spans.iter().find(|s| s.name == Name::Partition).unwrap();
        assert_eq!(inner.parent, outer_idx);
        assert_eq!(inner.tag, 7);
        assert!(inner.start_ns >= spans[0].start_ns && inner.end_ns <= spans[0].end_ns);
    }
}
