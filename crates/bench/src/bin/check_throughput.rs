//! CI gate for the `sim-throughput` benchmark.
//!
//! ```text
//! check_throughput BASELINE.json FRESH.json [--tolerance 0.30]
//! ```
//!
//! Compares every cell and capture key of `FRESH` against the committed
//! `BASELINE`, exiting nonzero if any compared number regressed by more
//! than the tolerance (default 30%, absorbing runner-to-runner noise).
//! Per cell the gate compares the replay, batched-drain and
//! streamed-pair (`convoy`) MIPS; per emulation key it compares the
//! trace-capture MIPS, so a capture-tier regression — block-compiled
//! keys silently degrading to the interpreter — fails CI even though
//! the figures themselves stay byte-identical. A number gates only when
//! both reports carry it. Schemas `probranch-throughput/8` and `/9` are
//! accepted (`/9` only drops the fused-engine fields, which are not
//! gated). Skips entirely — exit 0 with a notice — when the baseline
//! file is missing, a schema is unknown, or the two reports were
//! measured at different scales.
//!
//! Both files use the line-oriented layout of
//! `probranch_bench::throughput::ThroughputReport::to_json` (one cell
//! object per line), which this checker parses with plain string
//! scanning so it needs no JSON dependency.

use std::collections::BTreeMap;
use std::process::ExitCode;

const KNOWN_SCHEMAS: [&str; 2] = ["probranch-throughput/8", "probranch-throughput/9"];

/// Extracts the raw text of `"key":<value>` from a single line, value
/// ending at `,` or `}`.
fn raw_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"').to_string())
}

/// `"key": "value"` on a whole-report line (schema/scale headers).
fn header_field(text: &str, key: &str) -> Option<String> {
    text.lines().find_map(|l| {
        let l = l.trim();
        l.strip_prefix(&format!("\"{key}\": \""))
            .and_then(|r| r.strip_suffix("\","))
            .map(str::to_string)
    })
}

/// Per-cell measurements, each present when the report carries it.
struct CellMips {
    replay: Option<f64>,
    convoy: Option<f64>,
    batched: Option<f64>,
}

/// One emulation key's capture throughput, with the tier tag kept for
/// the regression message.
struct CaptureMips {
    mips: f64,
    tier: Option<String>,
}

/// Parses `(header scale, cell key → MIPS)` from a report. Capture-
/// overhead lines (no `predictor` field) land in the second map,
/// keyed `workload|pbs`, when they carry a `capture_mips` field.
#[allow(clippy::type_complexity)]
fn parse(
    text: &str,
) -> (
    Option<String>,
    BTreeMap<String, CellMips>,
    BTreeMap<String, CaptureMips>,
) {
    let mut cells = BTreeMap::new();
    let mut captures = BTreeMap::new();
    let number = |line: &str, key: &str| raw_field(line, key).and_then(|v| v.parse::<f64>().ok());
    for line in text.lines().filter(|l| l.contains("\"workload\"")) {
        let (Some(w), Some(pbs)) = (raw_field(line, "workload"), raw_field(line, "pbs")) else {
            continue;
        };
        match raw_field(line, "predictor") {
            Some(p) => {
                cells.insert(
                    format!("{w}|{p}|{pbs}"),
                    CellMips {
                        replay: number(line, "replay_mips"),
                        convoy: number(line, "convoy_mips"),
                        batched: number(line, "batched_mips"),
                    },
                );
            }
            None => {
                if let Some(mips) = number(line, "capture_mips") {
                    captures.insert(
                        format!("{w}|{pbs}"),
                        CaptureMips {
                            mips,
                            tier: raw_field(line, "capture_tier"),
                        },
                    );
                }
            }
        }
    }
    (header_field(text, "scale"), cells, captures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, fresh_path) = match (args.first(), args.get(1)) {
        (Some(b), Some(f)) => (b.clone(), f.clone()),
        _ => {
            eprintln!("usage: check_throughput BASELINE.json FRESH.json [--tolerance 0.30]");
            return ExitCode::from(2);
        }
    };
    let tolerance: f64 = match args.iter().position(|a| a == "--tolerance") {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(t) => t,
            None => {
                eprintln!("--tolerance needs a fractional value, e.g. 0.30");
                return ExitCode::from(2);
            }
        },
        None => 0.30,
    };

    let Ok(baseline_text) = std::fs::read_to_string(&baseline_path) else {
        println!("check_throughput: no baseline at {baseline_path}; skipping regression check");
        return ExitCode::SUCCESS;
    };
    let fresh_text = match std::fs::read_to_string(&fresh_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check_throughput: cannot read fresh report {fresh_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    for (name, text) in [("baseline", &baseline_text), ("fresh", &fresh_text)] {
        match header_field(text, "schema").as_deref() {
            Some(s) if KNOWN_SCHEMAS.contains(&s) => {}
            other => {
                println!(
                    "check_throughput: {name} schema {other:?} is not one of {KNOWN_SCHEMAS:?}; skipping"
                );
                return ExitCode::SUCCESS;
            }
        }
    }

    let (base_scale, baseline, base_captures) = parse(&baseline_text);
    let (fresh_scale, fresh, fresh_captures) = parse(&fresh_text);
    if base_scale != fresh_scale {
        println!("check_throughput: scale mismatch ({base_scale:?} vs {fresh_scale:?}); skipping");
        return ExitCode::SUCCESS;
    }
    if baseline.is_empty() {
        println!("check_throughput: baseline has no cells; skipping");
        return ExitCode::SUCCESS;
    }

    let mut failures = 0usize;
    let mut compared = 0usize;
    let mut gated = 0usize;
    for (key, base) in &baseline {
        let Some(fresh_cell) = fresh.get(key) else {
            eprintln!("REGRESSION {key}: cell missing from fresh report");
            failures += 1;
            continue;
        };
        compared += 1;
        for (what, base_v, fresh_v) in [
            ("replay", base.replay, fresh_cell.replay),
            ("convoy", base.convoy, fresh_cell.convoy),
            ("batched", base.batched, fresh_cell.batched),
        ] {
            let (Some(base_v), Some(fresh_v)) = (base_v, fresh_v) else {
                continue;
            };
            gated += 1;
            let floor = base_v * (1.0 - tolerance);
            if fresh_v < floor {
                eprintln!(
                    "REGRESSION {key} ({what}): {fresh_v:.2} MIPS < {floor:.2} (baseline {base_v:.2}, tolerance {:.0}%)",
                    tolerance * 100.0
                );
                failures += 1;
            }
        }
    }
    let mut capture_compared = 0usize;
    for (key, base) in &base_captures {
        let Some(fresh_cap) = fresh_captures.get(key) else {
            continue;
        };
        capture_compared += 1;
        let floor = base.mips * (1.0 - tolerance);
        if fresh_cap.mips < floor {
            let tier = |t: &Option<String>| t.clone().unwrap_or_else(|| "?".into());
            eprintln!(
                "REGRESSION {key} (capture, tier {} vs baseline {}): {:.2} MIPS < {floor:.2} (baseline {:.2}, tolerance {:.0}%)",
                tier(&fresh_cap.tier),
                tier(&base.tier),
                fresh_cap.mips,
                base.mips,
                tolerance * 100.0
            );
            failures += 1;
        }
    }
    println!(
        "check_throughput: {compared} cells compared ({gated} replay/convoy/batched, +{capture_compared} capture comparisons), {failures} regressions (tolerance {:.0}%)",
        tolerance * 100.0
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
