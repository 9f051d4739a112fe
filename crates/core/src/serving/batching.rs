//! Shape-bucketed continuous batching.
//!
//! In batched mode a worker is released as soon as a request's program is
//! compiled ("ready"); the compiled request then enters the *shape
//! bucket* keyed by its canonical shape hash
//! ([`request_shape_key`](crate::serving::request_shape_key)). A bucket
//! opens when its first member arrives and flushes when either
//!
//! * the bounded batch-forming delay [`BatchingOptions::window_ns`]
//!   elapses from the open instant, or
//! * the bucket reaches [`BatchingOptions::max_batch`] members,
//!
//! whichever comes first. Flushed buckets go to the co-launch planner
//! ([`crate::serving::colaunch`]), which packs their members into device
//! waves. Bucket formation is a pure function of the ready-event stream,
//! so the batched timeline stays deterministic.

/// Continuous-batching policy. Present on
/// [`ServingOptions::batching`](crate::serving::ServingOptions::batching)
/// iff batching is enabled; the solo path is untouched otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchingOptions {
    /// Bounded batch-forming delay: a bucket flushes at most this many
    /// virtual nanoseconds after it opened, even if it is not full.
    pub window_ns: f64,
    /// Bucket capacity: a bucket flushes immediately on reaching this
    /// many members. Must be at least 1.
    pub max_batch: usize,
}

impl BatchingOptions {
    /// A policy with the given window and capacity.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or `window_ns` is negative/NaN.
    pub fn new(window_ns: f64, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "a batch must admit at least one member");
        assert!(
            window_ns >= 0.0,
            "the batch-forming window cannot be negative"
        );
        Self {
            window_ns,
            max_batch,
        }
    }
}

impl Default for BatchingOptions {
    /// 50 µs of batch-forming delay, at most 8 requests per bucket —
    /// small next to the millisecond-scale device times of the serving
    /// workloads, large enough to merge genuine bursts.
    fn default() -> Self {
        Self {
            window_ns: 50_000.0,
            max_batch: 8,
        }
    }
}

/// One compiled request waiting to be batched.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadyEvent {
    /// Index into the dispatcher's pending-execution table.
    pub(crate) pending: usize,
    /// Request id (total tiebreak for identical ready times).
    pub(crate) id: usize,
    /// Virtual instant the request's compile finished.
    pub(crate) ready_ns: f64,
    /// Shape-bucket key.
    pub(crate) shape_key: u64,
}

/// A flushed bucket: identically-shaped members handed to the co-launch
/// planner at one virtual instant.
#[derive(Debug, Clone)]
pub(crate) struct BucketFlush {
    /// Virtual instant the bucket flushed (its earliest dispatch time).
    pub(crate) flush_ns: f64,
    /// Member indices into the pending-execution table, in ready order.
    pub(crate) members: Vec<usize>,
}

/// Groups ready events into bucket flushes. `events` must be sorted by
/// `(ready_ns, id)`; the returned flushes are sorted by
/// `(flush_ns, first member id)` so the dispatcher can assign devices in
/// flush order deterministically.
pub(crate) fn form_batches(events: &[ReadyEvent], options: BatchingOptions) -> Vec<BucketFlush> {
    debug_assert!(
        events
            .windows(2)
            .all(|w| (w[0].ready_ns, w[0].id) <= (w[1].ready_ns, w[1].id)),
        "ready events must be sorted by (ready_ns, id)"
    );
    struct Open {
        open_ns: f64,
        members: Vec<usize>,
    }
    let mut open: Vec<(u64, Open)> = Vec::new();
    let mut flushes: Vec<BucketFlush> = Vec::new();
    let mut flush = |bucket: Open, at: f64| {
        flushes.push(BucketFlush {
            flush_ns: at,
            members: bucket.members,
        });
    };
    for event in events {
        // Time has advanced to this event: any bucket whose window closed
        // at or before now flushes first (at its own close instant).
        let mut i = 0;
        while i < open.len() {
            let close = open[i].1.open_ns + options.window_ns;
            if close <= event.ready_ns && !(close == event.ready_ns && open[i].0 == event.shape_key)
            {
                let (_, bucket) = open.remove(i);
                flush(bucket, close);
            } else {
                i += 1;
            }
        }
        let slot = open.iter_mut().find(|(key, _)| *key == event.shape_key);
        match slot {
            Some((_, bucket)) => bucket.members.push(event.pending),
            None => open.push((
                event.shape_key,
                Open {
                    open_ns: event.ready_ns,
                    members: vec![event.pending],
                },
            )),
        }
        if let Some(at) = open
            .iter()
            .position(|(key, b)| *key == event.shape_key && b.members.len() >= options.max_batch)
        {
            let (_, bucket) = open.remove(at);
            flush(bucket, event.ready_ns);
        }
    }
    // The stream is closed: remaining buckets wait out their window.
    for (_, bucket) in open {
        let close = bucket.open_ns + options.window_ns;
        flush(bucket, close);
    }
    flushes.sort_by(|a, b| {
        f64::total_cmp(&a.flush_ns, &b.flush_ns).then(a.members.first().cmp(&b.members.first()))
    });
    flushes
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn ev(pending: usize, ready_ns: f64, shape_key: u64) -> ReadyEvent {
        ReadyEvent {
            pending,
            id: pending,
            ready_ns,
            shape_key,
        }
    }

    #[test]
    fn window_bounds_batch_forming_delay() {
        let options = BatchingOptions::new(100.0, 8);
        let events = vec![ev(0, 0.0, 7), ev(1, 50.0, 7), ev(2, 300.0, 7)];
        let flushes = form_batches(&events, options);
        assert_eq!(flushes.len(), 2);
        // First bucket opened at 0, closed at 100 with two members.
        assert_eq!(flushes[0].members, vec![0, 1]);
        assert_eq!(flushes[0].flush_ns, 100.0);
        // The straggler opens a fresh bucket and waits out its window.
        assert_eq!(flushes[1].members, vec![2]);
        assert_eq!(flushes[1].flush_ns, 400.0);
    }

    #[test]
    fn full_bucket_flushes_immediately() {
        let options = BatchingOptions::new(1e9, 2);
        let events = vec![ev(0, 0.0, 7), ev(1, 1.0, 7), ev(2, 2.0, 7)];
        let flushes = form_batches(&events, options);
        assert_eq!(flushes.len(), 2);
        assert_eq!(flushes[0].members, vec![0, 1]);
        assert_eq!(flushes[0].flush_ns, 1.0, "full at the second member");
        assert_eq!(flushes[1].members, vec![2]);
    }

    #[test]
    fn shapes_never_share_a_bucket() {
        let options = BatchingOptions::new(100.0, 8);
        let events = vec![ev(0, 0.0, 7), ev(1, 1.0, 8), ev(2, 2.0, 7)];
        let flushes = form_batches(&events, options);
        assert_eq!(flushes.len(), 2);
        let of_seven = flushes.iter().find(|f| f.members[0] == 0).unwrap();
        assert_eq!(of_seven.members, vec![0, 2]);
        let of_eight = flushes.iter().find(|f| f.members[0] == 1).unwrap();
        assert_eq!(of_eight.members, vec![1]);
    }

    #[test]
    fn flushes_are_sorted_and_deterministic() {
        let options = BatchingOptions::new(10.0, 8);
        let events = vec![ev(0, 0.0, 1), ev(1, 2.0, 2), ev(2, 4.0, 3)];
        let a = form_batches(&events, options);
        let b = form_batches(&events, options);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.flush_ns, y.flush_ns);
        }
        assert!(a.windows(2).all(|w| w[0].flush_ns <= w[1].flush_ns));
    }

    #[test]
    fn zero_window_degenerates_to_per_request_flushes() {
        let options = BatchingOptions::new(0.0, 8);
        let events = vec![ev(0, 0.0, 7), ev(1, 5.0, 7)];
        let flushes = form_batches(&events, options);
        assert_eq!(flushes.len(), 2);
        assert!(flushes.iter().all(|f| f.members.len() == 1));
    }
}
