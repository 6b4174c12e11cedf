//! The closed-loop cell driver.
//!
//! A workload is a matrix of cells run in passes; pass `p` is the matrix
//! again under another campaign seed. Worker threads pull the next cell
//! when their current one finishes — across pass boundaries too, so no
//! worker idles at the end of a pass — and a new pass is only begun while
//! the stop rule allows it. Every run therefore measures whole passes.
//!
//! A pass hands its cells out in [`dispatch_order`], not in matrix order:
//! matrices group cells of one kind (one defense, one machine) together, and
//! a run of short cells then samples the host's speed over one short window
//! only, which makes their latency percentiles swing from run to run.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::Interval;

/// When the loop stops beginning new passes.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Begin passes while less than this much time has passed since the
    /// first cell started (at least one pass always runs).
    After(Duration),
    /// Run exactly this many passes.
    Passes(usize),
}

/// One cell the loop ran.
#[derive(Debug)]
pub struct CellRun<R> {
    /// Pass index.
    pub pass: usize,
    /// Index of the cell in the matrix's canonical order.
    pub cell: usize,
    /// Worker thread that ran it.
    pub worker: usize,
    /// Host interval of the cell call, from the loop's origin.
    pub span: Interval,
    /// What the cell returned.
    pub out: R,
}

/// Everything a loop measured.
#[derive(Debug)]
pub struct LoopRun<R> {
    /// Host time from the origin until the first cell was handed out.
    pub setup: Duration,
    /// Host time from the first cell's start to the last cell's end.
    pub wall: Duration,
    /// Whole passes run.
    pub passes: usize,
    /// Every cell run, sorted by (pass, cell).
    pub cells: Vec<CellRun<R>>,
}

struct Dispatch {
    next: usize,
    done: bool,
    first: Option<Instant>,
}

/// A fixed interleaving of `n` cells: slot `i` runs cell `i × stride mod n`,
/// with the smallest stride above `√n` that is coprime with `n`, so each
/// stretch of a pass mixes cells from every group of the matrix.
pub fn dispatch_order(n: usize) -> Vec<usize> {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut stride = (n as f64).sqrt() as usize + 1;
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    (0..n).map(|i| i * stride % n).collect()
}

/// Runs cells of a `cells_per_pass`-cell matrix on `workers` threads until
/// `stop`. `run(pass, cell, worker)` runs one cell; the loop times each
/// call. `origin` is when the caller began setting the workload up, so
/// [`LoopRun::setup`] covers that and starting the workers.
pub fn closed_loop<R, F>(
    origin: Instant,
    workers: usize,
    cells_per_pass: usize,
    stop: Stop,
    run: F,
) -> LoopRun<R>
where
    R: Send,
    F: Fn(usize, usize, usize) -> R + Sync,
{
    assert!(cells_per_pass > 0, "a workload has at least one cell");
    let order = dispatch_order(cells_per_pass);
    let dispatch = Mutex::new(Dispatch {
        next: 0,
        done: false,
        first: None,
    });
    let take = || -> Option<usize> {
        let mut d = dispatch
            .lock()
            .expect("dispatch lock poisoned by a worker panic");
        let now = Instant::now();
        let first = *d.first.get_or_insert(now);
        if d.done {
            return None;
        }
        let index = d.next;
        if index.is_multiple_of(cells_per_pass) {
            let pass = index / cells_per_pass;
            let stopped = match stop {
                Stop::After(limit) => pass > 0 && now - first >= limit,
                Stop::Passes(passes) => pass >= passes,
            };
            if stopped {
                d.done = true;
                return None;
            }
        }
        d.next += 1;
        Some(index)
    };

    let mut cells: Vec<CellRun<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let take = &take;
                let run = &run;
                let order = &order;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    while let Some(index) = take() {
                        let (pass, cell) = (index / cells_per_pass, order[index % cells_per_pass]);
                        let start = origin.elapsed();
                        let out = run(pass, cell, worker);
                        let end = origin.elapsed();
                        local.push(CellRun {
                            pass,
                            cell,
                            worker,
                            span: Interval { start, end },
                            out,
                        });
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    cells.sort_by_key(|c| (c.pass, c.cell));

    let first = dispatch
        .into_inner()
        .expect("dispatch lock poisoned by a worker panic")
        .first
        .expect("every worker asks for a cell at least once");
    let wall = match (
        cells.iter().map(|c| c.span.start).min(),
        cells.iter().map(|c| c.span.end).max(),
    ) {
        (Some(start), Some(end)) => end - start,
        _ => Duration::ZERO,
    };
    LoopRun {
        setup: first - origin,
        wall,
        passes: cells.len() / cells_per_pass,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_pass_count_runs_every_cell_of_every_pass_once() {
        let run = closed_loop(Instant::now(), 2, 5, Stop::Passes(3), |p, c, _| (p, c));
        assert_eq!(run.passes, 3);
        assert_eq!(run.cells.len(), 15);
        for (i, cell) in run.cells.iter().enumerate() {
            assert_eq!((cell.pass, cell.cell), (i / 5, i % 5));
            assert_eq!(cell.out, (cell.pass, cell.cell));
            assert!(cell.worker < 2);
        }
    }

    #[test]
    fn dispatch_order_is_a_permutation_that_interleaves_groups() {
        for n in 1..64 {
            let mut order = dispatch_order(n);
            order.sort_unstable();
            assert_eq!(order, (0..n).collect::<Vec<_>>());
        }
        // Five defenses × six cells: the first five slots hit five groups.
        let groups: std::collections::HashSet<usize> =
            dispatch_order(30)[..5].iter().map(|c| c / 6).collect();
        assert_eq!(groups.len(), 5);
        assert_eq!(dispatch_order(6), vec![0, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn zero_passes_measure_setup_only() {
        let run = closed_loop(Instant::now(), 2, 5, Stop::Passes(0), |_, _, _| ());
        assert!(run.cells.is_empty());
        assert_eq!(run.wall, Duration::ZERO);
    }

    #[test]
    fn timed_loop_runs_whole_passes_and_at_least_one() {
        let run = closed_loop(
            Instant::now(),
            2,
            3,
            Stop::After(Duration::ZERO),
            |_, _, _| (),
        );
        assert_eq!(run.passes, 1);
        assert_eq!(run.cells.len(), 3);
        let run = closed_loop(
            Instant::now(),
            2,
            4,
            Stop::After(Duration::from_millis(20)),
            |_, _, _| std::thread::sleep(Duration::from_millis(2)),
        );
        assert!(run.passes >= 2);
        assert_eq!(run.cells.len(), run.passes * 4);
    }
}
