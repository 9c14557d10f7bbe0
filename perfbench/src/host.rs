//! Host-speed reference.
//!
//! The benchmark runs on a few vCPUs of a shared host. Other tenants'
//! load moves every timing of the same code by 10–30 % over minutes, in
//! slow swings that no run length averages away. To tell the program's
//! speed from the host's, each run also times a fixed reference kernel
//! at safe points of its throughput span — between graph builds, or
//! between throughput windows — never inside a timed span. The kernel
//! does not call the program under test, so a change to the program
//! cannot move it:
//!
//! - a cache-resident, branchy part: xorshift-keyed updates of a
//!   4 096-key `BTreeMap`;
//! - a memory-bound part: independent random reads over a 32 MiB table,
//!   beyond the reach of the L2 cache and the TLB.
//!
//! The host factor of a timed span is the median kernel time over the
//! samples taken during it, divided by [`NOMINAL_S`], the kernel's median
//! on the reference host. `throughput_pps` is reported at the reference
//! host's speed: the measured rate times the factor. A program that gets
//! 10 % slower reads 10 % slower whatever the factor; a host that gets
//! slower slows the kernel and the program together and leaves the
//! adjusted figure in place.

use crate::stats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The kernel's median time on the reference host (2-vCPU Intel Xeon VM),
/// in seconds.
pub const NOMINAL_S: f64 = 0.009;
/// Size of the memory-bound part's table, which is resident for the whole
/// run and is left out of `peak_rss_mb`.
pub const TABLE_MIB: f64 = 32.0;
const TABLE_WORDS: usize = (TABLE_MIB as usize) << 17;
const MAP_UPDATES: usize = 50_000;
const TABLE_READS: usize = 250_000;
/// Least time between two samples taken by [`HostRef::tick`].
const INTERVAL: Duration = Duration::from_millis(200);

pub struct HostRef {
    table: Vec<u64>,
    x: u64,
    last: Instant,
    samples: Vec<f64>,
}

impl HostRef {
    /// Builds and touches the table, then takes a first sample.
    pub fn new() -> Self {
        let table = (0..TABLE_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut h = HostRef {
            table,
            x: 0x2545_F491_4F6C_DD1D,
            last: Instant::now(),
            samples: Vec::new(),
        };
        h.sample();
        h
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Time one run of the kernel.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut map = BTreeMap::new();
        for i in 0..MAP_UPDATES as u64 {
            let k = self.next() & 4095;
            map.insert(k, i);
        }
        let mut acc = map.len() as u64;
        for _ in 0..TABLE_READS {
            let i = self.next() as usize & (TABLE_WORDS - 1);
            acc = acc.wrapping_add(self.table[i]);
        }
        std::hint::black_box(acc);
        self.samples.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// Take a sample if [`INTERVAL`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// Number of samples taken so far: mark the start of a span with it.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// Median time of the samples taken since `mark`, over [`NOMINAL_S`]:
    /// above 1 while the host runs slower than the reference host.
    pub fn factor_since(&self, mark: usize) -> f64 {
        stats::median(&self.samples[mark.min(self.samples.len())..]).unwrap_or(NOMINAL_S)
            / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span's factor is the median of its own samples only.
    #[test]
    fn factor_covers_the_marked_span() {
        let mut h = HostRef::new();
        h.samples = vec![NOMINAL_S * 5.0, NOMINAL_S, NOMINAL_S * 3.0, NOMINAL_S * 2.0];
        assert_eq!(h.factor_since(1), 2.0);
        assert_eq!(h.factor_since(0), 2.5);
        assert_eq!(h.factor_since(9), 1.0);
        let mark = h.mark();
        h.sample();
        assert_eq!(h.mark(), mark + 1);
        assert!(h.factor_since(mark) > 0.0);
    }
}
