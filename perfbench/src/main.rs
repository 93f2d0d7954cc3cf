//! The corrfade benchmark: one closed-loop workload per invocation.
//!
//! ```text
//! perfbench --workload <fig4a_stream|network_epoch|serve_unix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload and prints its end-to-end metrics;
//! `--trace 1` runs the traced variant and prints the per-layer metrics.
//! Both check the outputs. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0 only
//! when every check passed. See `perfbench/README.md`.

mod fig4a;
mod layered;
mod meta;
mod network;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("block_p50_ms", "ms"),
    ("block_p90_ms", "ms"),
    ("epoch_p50_ms", "ms"),
    ("epoch_p90_ms", "ms"),
    ("first_block_p50_ms", "ms"),
    ("first_block_p90_ms", "ms"),
    ("resume_first_block_p50_ms", "ms"),
    ("resume_first_block_p90_ms", "ms"),
];

/// Per-layer metrics: every traced run reports all of them, 0 for a layer
/// that is not on the workload's path.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.op_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("other.self_ms", "ms"),
    ("keystream.self_ms", "ms"),
    ("keystream.u64_per_op", "count"),
    ("keystream.ns_per_u64", "ns"),
    ("polar.self_ms", "ms"),
    ("polar.accept_ratio", "ratio"),
    ("spectrum.self_ms", "ms"),
    ("spectrum.useful_ratio", "ratio"),
    ("fused.self_ms", "ms"),
    ("fused.flop_per_op", "flop.computed"),
    ("fused.bytes_per_op", "byte.computed"),
    ("fused.gflop_s", "GFLOP/s"),
    ("envelope.self_ms", "ms"),
    ("fused_f32.self_ms", "ms"),
    ("f32.block_ms", "ms"),
    ("runtime.pooled_ms", "ms"),
    ("runtime.sequential_ms", "ms"),
    ("runtime.speedup", "x"),
    ("netsim.metrics_ms", "ms"),
    ("factor_cache.hits", "count"),
    ("factor_cache.misses", "count"),
    ("factor_cache.hit_ratio", "ratio"),
    ("wire_encode.self_ms", "ms"),
    ("wire_decode.self_ms", "ms"),
    ("wire.bytes_per_block", "byte"),
    ("session.subscribe_ms", "ms"),
    ("resume.skip_ms", "ms"),
    ("socket.remainder_ms", "ms"),
    ("server.blocks_sent", "count"),
    ("server.resumed_sessions", "count"),
    ("server.error_frames", "count"),
];

/// What one invocation measures.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Pool workers or connections the workload used.
    pub workers: usize,
    failures: Vec<String>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message.into());
        }
    }

    /// Records a failed check that is not an operation of its own.
    pub fn fail_check(&mut self, message: impl Into<String>) {
        self.fail(message);
        self.attempted += 1;
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Folds another thread's counts and failures into this outcome.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
    }
}

/// A fixed count of probes spread evenly over a run: probe `k` falls due
/// once `k / count` of the run has elapsed, so the probes sample the
/// machine's state across the whole run. The probes are timed apart from
/// the steady loop they interrupt, whose metrics exclude them.
pub struct ProbeSchedule {
    count: u64,
    done: u64,
    seconds: Duration,
}

impl ProbeSchedule {
    pub fn new(count: u64, seconds: Duration) -> Self {
        Self {
            count,
            done: 0,
            seconds,
        }
    }

    /// The index of the probe due at `elapsed`, if one is.
    pub fn due(&mut self, elapsed: Duration) -> Option<u64> {
        let at = self.seconds.mul_f64(self.done as f64 / self.count as f64);
        (self.done < self.count && elapsed >= at).then(|| {
            self.done += 1;
            self.done - 1
        })
    }

    /// Whether every probe has run.
    pub fn finished(&self) -> bool {
        self.done == self.count
    }
}

/// Load threads a workload may use: at most two, never more than the cores.
pub fn load_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <fig4a_stream|network_epoch|serve_unix> \
         --seed <u64> --seconds <n> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, RunConfig) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let config = RunConfig {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    };
    (workload, config)
}

fn main() {
    let (workload, config) = parse_args();
    let outcome = match workload.as_str() {
        "fig4a_stream" => fig4a::run(&config),
        "network_epoch" => network::run(&config),
        "serve_unix" => serve::run(&config),
        _ => usage(),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(2);
        }
    };

    let wanted = if config.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if config.trace => 0.0,
            None => {
                outcome.fail_check(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() || (!config.trace && value <= 0.0) {
            outcome.fail_check(format!(
                "metric {name} = {value} is not a positive finite number"
            ));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<28} {value:>16.6} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            meta::json_str(name),
            meta::json_str(unit)
        ));
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<28} {:>16.6} frac ({} of {})",
        "failed_frac", failed_frac, outcome.failed, outcome.attempted
    );
    for f in &outcome.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    println!(
        "{}",
        meta::json(&workload, config.seed, config.trace, outcome.workers)
    );
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
