//! `perfbench` — the MKSE stack priced end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <fleet_point|scan_batch|ingest_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny] [--out <dir>]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) runs half of the same load untraced and half with every
//! layer wrapper recording, prints the per-layer metrics and writes the spans
//! to `<out>/spans-<workload>-<seed>.jsonl`. Every run prints its full record
//! (facts, sample counts, checks, every per-layer metric) as one JSON line,
//! then the result as the last line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See `README.md` next to this crate.

mod common;
mod fleet;
mod ingest;
mod json;
mod layers;
mod metrics;
mod scan_batch;
mod stats;
mod trace;

use common::{Outcome, RunConfig};
use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["fleet_point", "scan_batch", "ingest_mixed"];

struct Args {
    workload: String,
    config: RunConfig,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value("--seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--tiny" => tiny = true,
            "--out" => out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tiny,
        },
        out,
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.config;
    let outcome: Outcome = match args.workload.as_str() {
        "fleet_point" => fleet::run(cfg),
        "scan_batch" => scan_batch::run(cfg),
        _ => ingest::run(cfg),
    };

    // The result carries exactly the catalogued metrics of this mode; a
    // missing one is a bug in this program.
    let mut result_metrics = Json::obj();
    let mut all_layers = Json::obj();
    if cfg.trace {
        // A ratio over an empty base (no batcher flush, say) is not measured.
        let measured = |v: &Option<f64>| v.filter(|v| v.is_finite());
        for (name, value) in &outcome.layers {
            let v = measured(value).map_or(Json::Null, Json::Num);
            all_layers.set(
                name,
                Json::obj()
                    .with("value", v)
                    .with("unit", metrics::layer_unit(name)),
            );
        }
        for (name, unit) in metrics::PER_LAYER {
            let value = outcome
                .layers
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, v)| measured(v))
                .unwrap_or_else(|| panic!("{} did not measure {name}", args.workload));
            result_metrics.set(name, metric(value, unit));
        }
    } else {
        for (name, unit) in metrics::END_TO_END {
            let value = outcome
                .end_to_end
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{} did not measure {name}", args.workload));
            result_metrics.set(name, metric(value, unit));
        }
    }

    let correct = outcome.failed == 0 && outcome.checks_ok;
    let mut e2e = Json::obj();
    for (name, unit) in metrics::END_TO_END
        .iter()
        .chain(metrics::END_TO_END_RECORD_ONLY)
    {
        let value = outcome
            .end_to_end
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| *v)
            .map_or(Json::Null, Json::Num);
        e2e.set(name, Json::obj().with("value", value).with("unit", *unit));
    }
    let mut record = outcome
        .record
        .with("workload", args.workload.as_str())
        .with("seed", cfg.seed)
        .with("seconds", cfg.seconds)
        .with("trace", cfg.trace)
        .with("tiny", cfg.tiny)
        .with("host_cores", stats::host_cores())
        .with("simd", stats::simd_features())
        .with(
            "commit",
            std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        )
        .with("checks_ok", outcome.checks_ok)
        .with(
            "failed_ratio",
            stats::ratio(outcome.failed as f64, outcome.attempted as f64),
        )
        .with(
            if cfg.trace {
                "end_to_end_untraced_half"
            } else {
                "end_to_end"
            },
            e2e,
        );
    if cfg.trace {
        record.set("layers", all_layers);
        std::fs::create_dir_all(&args.out).ok();
        let path = args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, cfg.seed));
        match trace::write_spans(&path, &outcome.spans) {
            Ok(()) => record.set("spans_file", path.display().to_string()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        record.set("spans_recorded", outcome.spans.len());
    }
    println!("{}", Json::obj().with("record", record));
    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", outcome.attempted)
            .with("failed", outcome.failed)
            .with("metrics", result_metrics)
    );
    ExitCode::SUCCESS
}
