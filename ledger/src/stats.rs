//! Small numeric helpers: order statistics, geometric means, a seeded
//! generator, a stable digest, and the process's peak heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs`, linearly interpolated between
/// order statistics. `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The geometric mean of `xs` (`NaN` when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// splitmix64: the seeded generator behind every workload input the
/// benchmark itself draws (request streams, problem sizes).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// A seeded permutation of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i + 1);
            items.swap(i, j);
        }
    }
}

/// FNV-1a over a sequence of records: the digest that lets two runs (or
/// two commits) compare their exact-count records at a glance.
pub fn digest<'a>(records: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        for b in r.bytes().chain([b'\n']) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The benchmark's global allocator: the system allocator, counting the
/// bytes live on the heap and their peak. Peak heap stands in for peak
/// resident memory, which glibc's per-thread arenas make vary by a third
/// between identical runs of the threaded `serve-mix` workload.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    fn grew(by: usize) {
        let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        if now > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// statistics that no allocation depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Calibration seconds of the reference host: [`HostClock`] scales every
/// time to what it would read on a host where [`calibrate`] takes this
/// long (about its median on the 2-vCPU host the seed readings come from).
const REF_CALIBRATION_S: f64 = 500e-6;

/// Seconds of one run of the calibration work: a fixed, seeded mix of
/// hash-table inserts and probes, allocation and sorting — the kind of
/// work saturation does — that no crate of the repository touches, so
/// its time moves only with the speed of the host.
fn calibrate() -> f64 {
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;
    let start = Instant::now();
    let mut rng = Rng::new(0x5EED);
    let mut table: HashMap<u64, Vec<u32>, BuildHasherDefault<Fnv>> = HashMap::default();
    for i in 0..(1u32 << 12) {
        table.entry(rng.next_u64() & 0xFFFF).or_default().push(i);
    }
    let mut hits = 0usize;
    for _ in 0..(1u32 << 14) {
        hits += table.get(&(rng.next_u64() & 0xFFFF)).map_or(0, Vec::len);
    }
    let mut keys: Vec<u64> = table
        .keys()
        .map(|k| k.wrapping_mul(hits as u64 | 1))
        .collect();
    keys.sort_unstable();
    std::hint::black_box(&keys);
    start.elapsed().as_secs_f64()
}

/// The host's current speed, as calibration seconds: the fastest of two
/// runs, since interference only ever adds time.
fn host_speed() -> f64 {
    calibrate().min(calibrate())
}

/// A stopwatch that scales to the reference host. The shared host's speed
/// drifts by up to 1.6× within seconds; an operation is timed between two
/// calibrations, and its time is scaled by `REF_CALIBRATION_S` over their
/// mean, which cancels the drift that both see.
pub struct HostClock {
    before: f64,
}

impl HostClock {
    pub fn new() -> HostClock {
        HostClock {
            before: host_speed(),
        }
    }

    /// Run `f`; its result and its time in reference seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let raw = start.elapsed().as_secs_f64();
        let after = host_speed();
        let scaled = raw * REF_CALIBRATION_S / ((self.before + after) / 2.0);
        self.before = after;
        (r, scaled)
    }
}

/// FNV-1a as a `Hasher`: fixed keys, so the calibration's table layout
/// is the same in every process.
#[derive(Default)]
struct Fnv(u64);

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Start a new peak: from now on the peak counts from the bytes live now.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak bytes live on the heap so far, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<usize> = (0..16).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }
}
