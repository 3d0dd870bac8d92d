//! The repository's benchmark: one command per workload, printing every
//! end-to-end metric (untraced pass) or every per-layer metric (traced
//! pass) as the last line of stdout. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <root-nested|tree-uct|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference
//! ```

mod http;
mod layers;
mod root_nested;
mod serve_mixed;
mod stats;
mod trace;
mod tree_uct;

use serde::Value;
use stats::Sheet;
use std::process::ExitCode;
use trace::Tracer;

/// The end-to-end metrics every workload reports, with their units, in
/// `BENCHMARK.json` order. Each workload defines them for its own
/// operation (see the README's metric table).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_w1", "1/s"),
    ("throughput_w2", "1/s"),
    ("score_mean", "score"),
];

/// The workload-specific end-to-end figures (`ok_ratio` is derived
/// from the pass's attempted/failed tally).
#[derive(Debug, Clone, Copy, Default)]
pub struct E2e {
    pub setup_s: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub throughput_w1: f64,
    pub throughput_w2: f64,
    pub score_mean: f64,
}

/// Outcome of one workload pass.
#[derive(Default)]
pub struct Pass {
    pub e2e: E2e,
    /// Outputs checked: searches, session steps, HTTP replies, jobs.
    pub attempted: u64,
    /// One line per failed output (correctness miss, error reply,
    /// timeout). Any entry fails the run.
    pub failures: Vec<String>,
    /// Per-layer metrics; filled only on a traced pass.
    pub layers: Sheet,
}

impl Pass {
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    fn e2e_values(&self) -> [f64; 7] {
        let e = &self.e2e;
        [
            e.setup_s,
            self.ok_ratio(),
            e.p50_ms,
            e.tail_ms,
            e.throughput_w1,
            e.throughput_w2,
            e.score_mean,
        ]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RootNested,
    TreeUct,
    ServeMixed,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload::RootNested,
    Workload::TreeUct,
    Workload::ServeMixed,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::RootNested => "root-nested",
            Workload::TreeUct => "tree-uct",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    fn run(self, seed: u64, seconds: u64, tracer: &Tracer) -> Pass {
        match self {
            Workload::RootNested => root_nested::run(seed, seconds, tracer),
            Workload::TreeUct => tree_uct::run(seed, seconds, tracer),
            Workload::ServeMixed => serve_mixed::run(seed, seconds, tracer),
        }
    }
}

/// The end-to-end metrics whose traced values a traced run reports
/// beside the per-layer metrics (`traced.<metric>`, for the requested
/// workload), so the tracing overhead is their gap to the untraced
/// runs' values.
pub const TRACED_E2E: [&str; 4] = ["p50_ms", "tail_ms", "throughput_w1", "throughput_w2"];

/// In a traced run, the workloads other than the requested one run on
/// this share of `--seconds`: enough for their layers' metrics.
const SIDE_PASS_DIVISOR: u64 = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <root-nested|tree-uct|serve-mixed> --seed <n> \
     --seconds <1..=600> --trace <0|1>\n       perfbench --write-reference"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds must be 1..=600")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit this checkout was built from, read from `.git` when the
/// checkout is a git working tree.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout)".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("{r} (packed)")),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Traced runs cover every layer by running all three workloads: the
/// requested one first at full size, then the other two (their order
/// alternating with the seed's parity) on a quarter of the window.
fn traced_order(first: Workload, seed: u64) -> Vec<Workload> {
    let mut order = vec![first];
    order.extend(WORKLOADS.into_iter().filter(|&w| w != first));
    if seed % 2 == 1 {
        order[1..].reverse();
    }
    order
}

fn trace_path(workload: Workload, seed: u64) -> std::path::PathBuf {
    // Next to the build output, which the checkout already ignores.
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| {
            p.parent()
                .and_then(|d| d.parent())
                .map(|d| d.join("perfbench-traces"))
        })
        .unwrap_or_else(|| "perfbench-traces".into());
    dir.join(format!("{}-seed{seed}.json", workload.name()))
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_string(), Value::F64(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--write-reference"] {
        return match root_nested::write_reference() {
            Ok(path) => {
                eprintln!("wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let order = if args.trace {
        traced_order(args.workload, args.seed)
    } else {
        vec![args.workload]
    };
    let info = Value::Object(vec![
        (
            "workload".to_string(),
            Value::Str(args.workload.name().to_string()),
        ),
        ("seed".to_string(), Value::U64(args.seed)),
        ("seconds".to_string(), Value::U64(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        (
            "order".to_string(),
            Value::Array(
                order
                    .iter()
                    .map(|w| Value::Str(w.name().to_string()))
                    .collect(),
            ),
        ),
        (
            "nproc".to_string(),
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("git_rev".to_string(), Value::Str(git_rev())),
        ("rustc".to_string(), Value::Str(rustc_version())),
        (
            "metrics_enabled".to_string(),
            Value::Bool(nmcs_core::metrics::metrics_enabled()),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&Value::Object(vec![("run".to_string(), info)])).expect("info")
    );

    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut metrics: Vec<(String, Value)> = Vec::new();
    if args.trace {
        let mut sheet = Sheet::default();
        for &w in &order {
            let tracer = Tracer::new(true);
            let seconds = if w == args.workload {
                args.seconds
            } else {
                (args.seconds / SIDE_PASS_DIVISOR).max(1)
            };
            let pass = w.run(args.seed, seconds, &tracer);
            let path = trace_path(w, args.seed);
            if let Err(e) = tracer.write(&path) {
                failures.push(format!("{}: writing {}: {e}", w.name(), path.display()));
            }
            if w == args.workload {
                let values = pass.e2e_values();
                for name in TRACED_E2E {
                    let i = END_TO_END
                        .iter()
                        .position(|(n, _)| *n == name)
                        .expect("e2e name");
                    sheet.put(format!("traced.{name}"), values[i], END_TO_END[i].1);
                }
            }
            attempted += pass.attempted;
            failures.extend(
                pass.failures
                    .into_iter()
                    .map(|f| format!("{}: {f}", w.name())),
            );
            sheet.extend(pass.layers);
        }
        let expected = layers::per_layer_names();
        let got: Vec<String> = sheet.0.keys().cloned().collect();
        if got != expected {
            eprintln!("perfbench: per-layer metric set drifted:\n got {got:?}\n want {expected:?}");
            return ExitCode::FAILURE;
        }
        for (name, (value, unit)) in sheet.0 {
            metrics.push((name, metric_value(value, unit)));
        }
    } else {
        let pass = args
            .workload
            .run(args.seed, args.seconds, &Tracer::new(false));
        for ((name, unit), value) in END_TO_END.iter().zip(pass.e2e_values()) {
            metrics.push((name.to_string(), metric_value(value, unit)));
        }
        attempted = pass.attempted;
        failures = pass.failures;
    }

    for (name, v) in &metrics {
        if let Some(Value::F64(x)) = v.get_field("value") {
            if !x.is_finite() {
                failures.push(format!("metric {name} is not finite"));
            }
        }
    }
    for f in failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    let correct = failures.is_empty();
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted.max(1))),
        ("failed".to_string(), Value::U64(failures.len() as u64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("result line"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `BENCHMARK.json` beside this package, parsed.
    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(rows)) = v.get_field(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        rows.iter()
            .map(|r| match (r.get_field("name"), r.get_field("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("malformed {key} row {r:?}"),
            })
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let bench = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&bench, "end_to_end"), e2e);
        let mut declared: Vec<String> = names(&bench, "per_layer")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        declared.sort();
        assert_eq!(declared, layers::per_layer_names());
        let Some(Value::Array(workloads)) = bench.get_field("workloads") else {
            panic!("BENCHMARK.json lacks workloads");
        };
        let declared: Vec<&Value> = workloads
            .iter()
            .filter_map(|w| w.get_field("name"))
            .collect();
        let ours: Vec<Value> = WORKLOADS
            .iter()
            .map(|w| Value::Str(w.name().to_string()))
            .collect();
        assert_eq!(declared, ours.iter().collect::<Vec<_>>());
    }

    #[test]
    fn traced_order_covers_every_workload_and_rotates() {
        for w in WORKLOADS {
            for seed in 0..4 {
                let order = traced_order(w, seed);
                assert_eq!(order[0], w);
                let mut sorted: Vec<&str> = order.iter().map(|w| w.name()).collect();
                sorted.sort();
                assert_eq!(sorted, ["root-nested", "serve-mixed", "tree-uct"]);
            }
            assert_ne!(traced_order(w, 0), traced_order(w, 1));
        }
    }

    #[test]
    fn args_are_strict() {
        let ok = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(ok("--workload tree-uct --seed 3 --seconds 10 --trace 1").is_ok());
        assert!(ok("--workload tree-uct --seed 3 --seconds 10 --trace 2").is_err());
        assert!(ok("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(ok("--workload tree-uct --seed 3 --seconds 0 --trace 0").is_err());
        assert!(ok("--workload tree-uct --seed 3 --trace 0").is_err());
    }
}
