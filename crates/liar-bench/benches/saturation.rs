//! How much the parallel search phase helps: search-phase time of the
//! same saturation at 1, 2 and 4 threads, with the solutions checked
//! equal. (Tables II–III and fig. 4 come from the `tables` and `figures`
//! binaries.)
//!
//! Run with `cargo bench --bench saturation`. A plain `main` (no
//! criterion; the workspace builds offline).

use liar_bench::harness;
use liar_core::{Liar, Target};
use liar_kernels::Kernel;

const SAMPLES: usize = 3;

/// Serial vs. parallel e-matching: the same saturation run at 1/2/4
/// threads, comparing total *search-phase* time (the part
/// [`Liar::with_threads`] parallelizes) and checking the solutions agree.
fn bench_parallel_search() {
    println!("\n== parallel_search (polybench kernels, search-phase time) ==");
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host hardware threads: {hw} (speedups need >1 to materialize)");
    for kernel in [Kernel::Gemv, Kernel::Atax, Kernel::Mvt] {
        let expr = kernel.expr(kernel.search_size());
        let pipeline = |threads: usize| {
            Liar::new(Target::Blas)
                .with_iter_limit(harness::step_limit(kernel))
                .with_node_limit(150_000)
                .with_match_limit(30_000)
                .with_threads(threads)
        };
        let serial_report = pipeline(1).optimize(&expr);
        let mut serial_search = None;
        for threads in [1usize, 2, 4] {
            // Median of the *measured search-phase* durations (one warm-up
            // run, then SAMPLES timed runs), not wall time.
            pipeline(threads).optimize(&expr);
            let mut searches: Vec<_> = (0..SAMPLES)
                .map(|_| {
                    let report = pipeline(threads).optimize(&expr);
                    // Hard determinism check while we're here.
                    assert_eq!(
                        report.best().solution_summary(),
                        serial_report.best().solution_summary(),
                        "{kernel}: parallel solution diverged"
                    );
                    report.total_search_time()
                })
                .collect();
            searches.sort();
            let search = searches[searches.len() / 2];
            let speedup = match serial_search {
                None => {
                    serial_search = Some(search);
                    1.0
                }
                Some(base) => base.as_secs_f64() / search.as_secs_f64(),
            };
            println!(
                "{:<40} search median {:>10.3?}   speedup {:>5.2}x",
                format!("search/{}/{}t", kernel.name(), threads),
                search,
                speedup
            );
        }
    }
}

fn main() {
    bench_parallel_search();
}
