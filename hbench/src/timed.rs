//! A pass-through agent wrapper that times the wrapped agent's ticks.
//!
//! The compiled kernel's stage timers stop before the agent ticks, so the
//! traced run wraps every agent to measure the traffic and CPU layers
//! directly instead of inferring them from a remainder.

use hornet_net::codec::{Dec, Enc};
use hornet_net::{Cycle, NodeAgent, NodeIo};
use rand_chacha::ChaCha12Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Wraps an agent; adds the wall time of each of its ticks to a shared
/// nanosecond counter. Behaviour is otherwise the wrapped agent's own.
pub struct TimedAgent {
    inner: Box<dyn NodeAgent>,
    tick_ns: Arc<AtomicU64>,
}

impl TimedAgent {
    /// Wraps `inner`, accumulating its tick time into `tick_ns`.
    pub fn new(inner: Box<dyn NodeAgent>, tick_ns: Arc<AtomicU64>) -> Self {
        Self { inner, tick_ns }
    }
}

impl NodeAgent for TimedAgent {
    fn tick(&mut self, io: &mut dyn NodeIo, rng: &mut ChaCha12Rng) {
        let start = Instant::now();
        self.inner.tick(io, rng);
        // A statistic only: it publishes no other data.
        self.tick_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_event(now)
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn snapshot(&self, e: &mut Enc) {
        self.inner.snapshot(e);
    }

    fn restore(&mut self, d: &mut Dec) -> std::io::Result<()> {
        self.inner.restore(d)
    }
}
