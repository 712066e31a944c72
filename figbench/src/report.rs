//! Turns the passes of one invocation into the result line: the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).

use std::collections::BTreeMap;

use crate::spans::{covered_ns, self_secs, Span};
use crate::{PassOut, Runs};

/// Median of `values`, or 0 for none.
fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The reference walk's time on the host speed the end-to-end times are
/// scaled to. A time scaled by `NOMINAL_REF_S / measured walk` is what the
/// work would take had the host run the walk in `NOMINAL_REF_S`.
const NOMINAL_REF_S: f64 = 0.005;

/// A pass's section time scaled to the nominal host speed: each section
/// by the mean of the reference walks just before and just after it.
fn scaled_wall(pass: &PassOut) -> f64 {
    pass.sections
        .iter()
        .zip(pass.refs.windows(2))
        .map(|((_, secs, _), r)| secs * NOMINAL_REF_S / ((r[0] + r[1]) / 2.0))
        .sum()
}

/// `NOMINAL_REF_S` over the pass's median reference walk.
fn speed(pass: &PassOut) -> f64 {
    ratio(NOMINAL_REF_S, median(&pass.refs))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn spans_of<'a>(spans: &'a [Span], layer: &'static str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.layer == layer)
}

/// One pass's per-layer figures from its spans.
fn layer_figures(pass: &PassOut) -> BTreeMap<String, f64> {
    let spans = &pass.spans;
    let mut m = BTreeMap::new();
    let of = |layer: &'static str| spans_of(spans, layer);
    let self_sum = |layer: &'static str| of(layer).map(|s| self_secs(s, spans)).sum::<f64>();
    let work = |layer: &'static str| of(layer).map(|s| s.work as f64).sum::<f64>();
    let count = |layer: &'static str| of(layer).count() as f64;
    for layer in [
        "capture",
        "replay",
        "pair",
        "functional",
        "streams",
        "battery",
    ] {
        m.insert(format!("{layer}.self_s"), self_sum(layer));
        m.insert(format!("{layer}.n"), count(layer));
        m.insert(format!("{layer}.work"), work(layer));
    }

    // Per-cell replay times: the median and the highest percentile
    // with at least ten cells beyond it.
    let mut cells: Vec<f64> = of("replay").map(|s| s.secs() * 1e3).collect();
    cells.sort_by(f64::total_cmp);
    let n = cells.len();
    m.insert("replay.cell_p50_ms".into(), median(&cells));
    let (tail, pct) = if n > 10 {
        (cells[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (0.0, 0.0)
    };
    m.insert("replay.cell_tail_ms".into(), tail);
    m.insert("replay.cell_tail_pct".into(), pct);

    // Store calls per trace key: the call that captured (or, with no
    // capture, the first to start) served the key; its self time is a
    // persist (`write_s`) after a capture, else a disk load
    // (`load_s`). Every other call on the key found it pooled or
    // waited for the serving call.
    let mut by_key: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in of("store") {
        by_key.entry(s.key).or_default().push(s);
    }
    let captured = |s: &Span| {
        spans
            .iter()
            .any(|c| c.parent == Some(s.id) && c.layer == "capture")
    };
    let (mut write, mut load, mut wait) = (0.0, 0.0, 0.0);
    for calls in by_key.values() {
        let owner = calls
            .iter()
            .find(|s| captured(s))
            .or_else(|| calls.iter().min_by_key(|s| s.start))
            .expect("a key has calls");
        for s in calls {
            if s.id != owner.id {
                wait += s.secs();
            } else if captured(s) {
                write += self_secs(s, spans);
            } else {
                load += self_secs(s, spans);
            }
        }
    }
    m.insert("store.write_s".into(), write);
    m.insert("store.load_s".into(), load);
    m.insert("store.wait_s".into(), wait);

    for s in of("section") {
        m.insert(
            format!("covered.{}", s.label),
            covered_ns(s, spans) as f64 * 1e-9,
        );
    }
    m
}

/// Median across passes of one figure.
fn med(passes: &[BTreeMap<String, f64>], key: &str) -> f64 {
    median(
        &passes
            .iter()
            .map(|m| m.get(key).copied().unwrap_or(0.0))
            .collect::<Vec<_>>(),
    )
}

fn untraced_count(runs: &Runs, key: &str) -> f64 {
    median(
        &runs
            .untraced
            .iter()
            .map(|p| p.counts.get(key).copied().unwrap_or(f64::NAN))
            .collect::<Vec<_>>(),
    )
}

fn section_secs(passes: &[PassOut], section: &str) -> f64 {
    median(
        &passes
            .iter()
            .filter_map(|p| {
                p.sections
                    .iter()
                    .find(|(s, _, _)| s == section)
                    .map(|(_, t, _)| *t)
            })
            .collect::<Vec<_>>(),
    )
}

fn per_layer(runs: &Runs) -> Vec<(String, f64, &'static str)> {
    let layers: Vec<BTreeMap<String, f64>> = runs.traced.iter().map(layer_figures).collect();
    let l = |key: &str| med(&layers, key);
    let c = |key: &str| untraced_count(runs, key);
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push((name.to_string(), value, unit));

    // A section the workload does not run has no times and no spans,
    // so its figures read 0.
    for section in probranch_serve::SECTIONS {
        put(
            &format!("section.{section}_s"),
            section_secs(&runs.untraced, section),
            "s",
        );
    }

    let mips =
        |layer: &str| ratio(l(&format!("{layer}.work")), l(&format!("{layer}.self_s"))) / 1e6;
    put("capture.self_s", l("capture.self_s"), "s");
    put("capture.keys", l("capture.n"), "count");
    put("capture.insts", l("capture.work"), "count");
    put("capture.mips", mips("capture"), "MIPS");
    put("replay.self_s", l("replay.self_s"), "s");
    put("replay.cells", l("replay.n"), "count");
    put("replay.insts", l("replay.work"), "count");
    put("replay.mips", mips("replay"), "MIPS");
    put("replay.cell_p50_ms", l("replay.cell_p50_ms"), "ms");
    put("replay.cell_tail_ms", l("replay.cell_tail_ms"), "ms");
    put("replay.cell_tail_pct", l("replay.cell_tail_pct"), "%");
    put("pair.self_s", l("pair.self_s"), "s");
    put("pair.keys", l("pair.n"), "count");
    put("pair.insts", l("pair.work"), "count");
    put("pair.mips", mips("pair"), "MIPS");

    put("store.write_s", l("store.write_s"), "s");
    put("store.load_s", l("store.load_s"), "s");
    put("store.wait_s", l("store.wait_s"), "s");
    let (captures, loads, hits) = (c("store.captures"), c("store.disk_loads"), c("store.hits"));
    put("store.captures", captures, "count");
    put("store.disk_loads", loads, "count");
    put("store.hits", hits, "count");
    put(
        "store.hit_ratio",
        ratio(hits, hits + captures + loads),
        "ratio",
    );
    put("store.grid_hits", c("store.grid_hits"), "count");
    put(
        "store.peak_mib",
        c("store.peak_bytes") / f64::from(1 << 20),
        "MiB",
    );
    put("store.dir_mib", median(&runs.dir_mib), "MiB");

    put("functional.self_s", l("functional.self_s"), "s");
    put("functional.runs", l("functional.n"), "count");
    put("functional.insts", l("functional.work"), "count");
    put("battery.self_s", l("battery.self_s"), "s");
    put("battery.runs", l("battery.n"), "count");
    put("battery.values", l("battery.work"), "count");
    put("streams.self_s", l("streams.self_s"), "s");

    for name in [
        "supervise.retried",
        "supervise.degraded",
        "supervise.over_deadline",
        "store.stale_rejected",
        "store.quarantined",
        "store.io_retries",
        "store.write_failures",
    ] {
        put(name, c(name), "count");
    }
    let (attempted, failed) = section_calls(runs);
    put(
        "sections_failed",
        ratio(failed as f64, attempted as f64),
        "share",
    );

    let untraced_wall = median(&runs.untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    put("wall_raw_s", untraced_wall, "s");
    put(
        "host.ref_ms",
        median(
            &runs
                .untraced
                .iter()
                .map(|p| median(&p.refs) * 1e3)
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    let traced_wall = median(&runs.traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    put("trace.overhead_s", traced_wall - untraced_wall, "s");
    for section in probranch_serve::SECTIONS {
        let unattributed = section_secs(&runs.untraced, section) - l(&format!("covered.{section}"));
        put(
            &format!("trace.unattributed.{section}_s"),
            unattributed,
            "s",
        );
    }
    out
}

/// Times are scaled to the nominal host speed by the pass's own
/// reference walks. A fill counts its set-up and its section calls.
fn end_to_end(runs: &Runs) -> Vec<(String, f64, &'static str)> {
    let ready: Vec<f64> = runs.setups.iter().map(|p| p.ready_s * speed(p)).collect();
    let fills: Vec<f64> = runs
        .fills
        .iter()
        .map(|p| p.ready_s * speed(p) + scaled_wall(p))
        .collect();
    let setup = median(&fills) + median(&runs.mkdirs) + median(&ready);
    vec![
        (
            "wall_s".into(),
            median(&runs.untraced.iter().map(scaled_wall).collect::<Vec<_>>()),
            "s",
        ),
        ("setup_s".into(), setup, "s"),
        (
            "peak_rss_mib".into(),
            median(&runs.untraced.iter().map(|p| p.rss_mib).collect::<Vec<_>>()),
            "MiB",
        ),
    ]
}

/// Section calls made by untraced passes (fills included), and how
/// many raised an error or returned bytes other than expected.
fn section_calls(runs: &Runs) -> (usize, usize) {
    let sections = runs
        .fills
        .iter()
        .chain(&runs.untraced)
        .flat_map(|p| &p.sections);
    sections.fold((0, 0), |(n, f), (_, _, ok)| (n + 1, f + usize::from(!ok)))
}

/// The result line.
pub fn json(runs: &Runs, trace: bool) -> String {
    let metrics = if trace {
        per_layer(runs)
    } else {
        end_to_end(runs)
    };
    let (attempted, failed) = section_calls(runs);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        runs.problems.is_empty() && failed == 0,
        body.join(", ")
    )
}
