//! Order statistics and the fixed-size-window throughput estimator.

use std::time::Instant;

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an ascending-sorted,
/// non-empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `values` (which must hold no NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured sample"));
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// One full window of operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Units (samples, requests) per second over the window.
    pub rate: f64,
    /// Steal ticks per second the guest kernel counted during the window:
    /// time the hypervisor ran something else while a vCPU of this guest
    /// was runnable. Zero on a quiet or bare-metal host.
    pub steal: f64,
}

/// Splits a stream of operations into windows of a fixed operation count
/// and records each full window's rate and steal. A trailing partial
/// window is dropped.
pub struct Windows {
    ops_per_window: usize,
    units_per_op: usize,
    ops_in_window: usize,
    mark: (Instant, u64),
    pub done: Vec<Window>,
}

impl Windows {
    /// Starts the first window now.
    pub fn start(ops_per_window: usize, units_per_op: usize) -> Self {
        assert!(ops_per_window >= 1);
        Windows {
            ops_per_window,
            units_per_op,
            ops_in_window: 0,
            mark: (Instant::now(), steal_ticks()),
            done: Vec::new(),
        }
    }

    /// Records one finished operation.
    pub fn tick(&mut self) {
        self.ops_in_window += 1;
        if self.ops_in_window == self.ops_per_window {
            let now = (Instant::now(), steal_ticks());
            let units = (self.ops_per_window * self.units_per_op) as f64;
            let secs = (now.0 - self.mark.0).as_secs_f64();
            self.done.push(Window {
                rate: units / secs,
                steal: (now.1 - self.mark.1) as f64 / secs,
            });
            self.mark = now;
            self.ops_in_window = 0;
        }
    }
}

/// Steal ticks (1/100 s) summed over this guest's vCPUs since boot; 0
/// where the kernel does not say.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The run's throughput: the median rate over the quietest third of the
/// windows, ranked by steal (ties kept, so on a host that never steals
/// this is the plain median of all windows).
///
/// On a shared host interference comes in spells of seconds, so
/// `work / elapsed` of a whole run inherits every spell and even the plain
/// window median moves when more than half of a run is disturbed. Windows
/// are chosen by the kernel's own count of stolen time, never by their
/// rate, so the choice cannot flatter the code under test.
pub fn quiet_median(windows: &[Window]) -> f64 {
    assert!(!windows.is_empty(), "no full window");
    let steals = sorted(&windows.iter().map(|w| w.steal).collect::<Vec<_>>());
    let cutoff = steals[(windows.len() - 1) / 3];
    let quiet: Vec<f64> = windows
        .iter()
        .filter(|w| w.steal <= cutoff)
        .map(|w| w.rate)
        .collect();
    median(&quiet)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile_sorted(&s, 0.0), 10.0);
        assert_eq!(quantile_sorted(&s, 1.0), 50.0);
        assert_eq!(quantile_sorted(&s, 0.25), 20.0);
        assert!((quantile_sorted(&s, 0.9) - 46.0).abs() < 1e-12);
    }

    #[test]
    fn windows_drop_the_trailing_partial_window() {
        let mut w = Windows::start(3, 4);
        for _ in 0..8 {
            w.tick();
        }
        assert_eq!(w.done.len(), 2, "8 ops = two windows of 3 + 2 left over");
        assert!(w.done.iter().all(|x| x.rate.is_finite() && x.rate > 0.0));
    }

    fn win(rate: f64, steal: f64) -> Window {
        Window { rate, steal }
    }

    #[test]
    fn quiet_median_is_the_plain_median_when_nothing_is_stolen() {
        let odd = [win(3.0, 0.0), win(1.0, 0.0), win(2.0, 0.0)];
        assert_eq!(quiet_median(&odd), 2.0);
        let even = [win(4.0, 0.0), win(1.0, 0.0), win(3.0, 0.0), win(2.0, 0.0)];
        assert_eq!(quiet_median(&even), 2.5);
        assert_eq!(
            quiet_median(&[win(7.5, 9.0)]),
            7.5,
            "one window is its own median"
        );
    }

    #[test]
    fn quiet_median_pools_repetitions_and_ignores_disturbed_windows() {
        // Three repetitions pooled: two thirds of the windows ran while the
        // hypervisor stole time and are slow; the quiet third decides.
        let pooled: Vec<Window> = [
            [win(100.0, 0.0); 4],
            [win(55.0, 12.0); 4],
            [win(60.0, 7.0); 4],
        ]
        .concat();
        assert_eq!(quiet_median(&pooled), 100.0);
        // Selection is by steal, not by rate: a slow quiet window counts.
        let honest = [win(40.0, 0.0), win(90.0, 5.0), win(95.0, 6.0)];
        assert_eq!(quiet_median(&honest), 40.0);
    }
}
