//! The pool's `pool.queue_depth` histogram samples the owner's deque
//! once per refill that takes work — never an idle worker's empty
//! deque. Alone in its test binary: the histogram is process-global, so
//! a concurrent pool run from another test would add samples.

use awe_batch::pool::run_indexed;
use awe_obs::Recording;

#[test]
fn queue_depth_samples_equal_refills() {
    let rec = Recording::start().expect("no other recording in this binary");
    // Front-loaded cost: the workers that finish early idle (and spin)
    // while the first chunk's owner is still busy.
    let (results, stats) = run_indexed(96, 4, |i, _w| {
        let spins: u64 = if i < 8 { 400_000 } else { 100 };
        (0..spins).fold(i as u64, |a, b| a ^ b.wrapping_mul(31))
    });
    let profile = rec.finish();
    assert_eq!(results.len(), 96);

    let (count, sum) = profile
        .histograms
        .iter()
        .find(|h| h.name == "pool.queue_depth")
        .map_or((0, 0.0), |h| (h.count, h.sum));
    assert_eq!(count, stats.refills as u64, "{stats:?}");
    // Every sample saw at least the job it took.
    assert!(sum >= count as f64, "sum {sum} over {count} samples");
    if stats.threads > 1 {
        assert!(stats.refills > 0, "{stats:?}");
    }
}
