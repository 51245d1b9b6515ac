//! Serving-load report plumbing for `cargo run -p xtask -- serving-report`.
//!
//! Parses the line-oriented output of the `retina_serve bench` harness
//! (`serving <scenario> pps <f64> p50 <dur> p99 <dur> (<n> requests)`)
//! and renders `BENCH_serving.json`: a committed before/after record of
//! prediction-server throughput and tail latency. The first run seeds
//! the `baseline` section; later runs preserve it and refresh
//! `current`. `--check` compares a fresh run against the committed
//! `current` numbers and fails on a throughput drop or a p99 blow-up
//! beyond tolerance.

use crate::bench::parse_duration_ns;

/// One load-scenario measurement. Latencies are normalized to
/// nanoseconds; throughput is predictions per second.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingEntry {
    /// Scenario id, e.g. `serve/static_w2`.
    pub name: String,
    /// Completed predictions per second over the timed window.
    pub pps: f64,
    /// Median submit-to-resolve latency, in ns.
    pub p50_ns: f64,
    /// 99th-percentile submit-to-resolve latency, in ns.
    pub p99_ns: f64,
    /// Requests completed in the timed window.
    pub requests: u64,
}

/// Extract every `serving ...` line from a harness run. Non-matching
/// lines (cargo chatter, progress notes) are skipped.
pub fn parse_serving_lines(out: &str) -> Vec<ServingEntry> {
    let mut entries = Vec::new();
    for line in out.lines() {
        let Some(rest) = line.strip_prefix("serving ") else {
            continue;
        };
        let Some(pps_pos) = rest.find(" pps ") else {
            continue;
        };
        let name = rest[..pps_pos].trim().to_string();
        let tail = &rest[pps_pos + " pps ".len()..];
        let Some(p50_pos) = tail.find(" p50 ") else {
            continue;
        };
        let Some(pps) = tail[..p50_pos].trim().parse::<f64>().ok() else {
            continue;
        };
        let after_p50 = &tail[p50_pos + " p50 ".len()..];
        let Some(p99_pos) = after_p50.find(" p99 ") else {
            continue;
        };
        let Some(p50_ns) = parse_duration_ns(&after_p50[..p99_pos]) else {
            continue;
        };
        let after_p99 = &after_p50[p99_pos + " p99 ".len()..];
        let Some(par) = after_p99.find('(') else {
            continue;
        };
        let Some(p99_ns) = parse_duration_ns(&after_p99[..par]) else {
            continue;
        };
        let requests = after_p99[par + 1..]
            .trim_end()
            .trim_end_matches(')')
            .trim_end_matches("requests")
            .trim()
            .parse()
            .unwrap_or(0);
        entries.push(ServingEntry {
            name,
            pps,
            p50_ns,
            p99_ns,
            requests,
        });
    }
    entries
}

/// Pull a named entry section (`baseline` / `current`) out of a
/// previously rendered `BENCH_serving.json`. Only understands the exact
/// shape [`render_json`] writes.
pub fn parse_section(json: &str, title: &str) -> Vec<ServingEntry> {
    let needle = format!("\"{title}\": {{");
    let Some(start) = json.find(&needle) else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    for line in json[start..].lines().skip(1) {
        let line = line.trim();
        if line == "}" || line == "}," {
            break;
        }
        let Some(entry) = parse_entry_line(line) else {
            continue;
        };
        entries.push(entry);
    }
    entries
}

/// Compare a fresh run against committed numbers. A scenario regresses
/// when its throughput drops more than `pps_tolerance` (e.g. `0.15` =
/// −15%) or its p99 latency rises more than `p99_tolerance`. Scenarios
/// present on only one side are skipped — adding or retiring a load
/// shape is not a regression.
pub fn regressions(
    committed: &[ServingEntry],
    fresh: &[ServingEntry],
    pps_tolerance: f64,
    p99_tolerance: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    for f in fresh {
        let Some(c) = committed.iter().find(|c| c.name == f.name) else {
            continue;
        };
        if c.pps > 0.0 && f.pps < c.pps * (1.0 - pps_tolerance) {
            out.push(format!(
                "{}: throughput {:.0} pps vs committed {:.0} pps ({:+.1}%, tolerance -{:.0}%)",
                f.name,
                f.pps,
                c.pps,
                (f.pps / c.pps - 1.0) * 100.0,
                pps_tolerance * 100.0
            ));
        }
        if c.p99_ns > 0.0 && f.p99_ns > c.p99_ns * (1.0 + p99_tolerance) {
            out.push(format!(
                "{}: p99 {:.3}ms vs committed {:.3}ms (+{:.1}%, tolerance {:.0}%)",
                f.name,
                f.p99_ns / 1e6,
                c.p99_ns / 1e6,
                (f.p99_ns / c.p99_ns - 1.0) * 100.0,
                p99_tolerance * 100.0
            ));
        }
    }
    out
}

fn parse_entry_line(line: &str) -> Option<ServingEntry> {
    // `"name": { "pps": 1200.5, "p50_ns": 80000, "p99_ns": 410000, "requests": 4000 },`
    let rest = line.strip_prefix('"')?;
    let name_end = rest.find('"')?;
    let name = rest[..name_end].to_string();
    let pps = field(rest, "\"pps\": ")?;
    let p50_ns = field(rest, "\"p50_ns\": ")?;
    let p99_ns = field(rest, "\"p99_ns\": ")?;
    let requests = field(rest, "\"requests\": ")? as u64;
    Some(ServingEntry {
        name,
        pps,
        p50_ns,
        p99_ns,
        requests,
    })
}

fn field(line: &str, key: &str) -> Option<f64> {
    let at = line.find(key)? + key.len();
    let tail = &line[at..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Render the committed report: recorded baseline, the fresh run, and a
/// per-scenario throughput ratio (current / baseline) where names
/// overlap.
pub fn render_json(baseline: &[ServingEntry], current: &[ServingEntry]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"cargo run --release -p bench --bin retina_serve -- bench\",\n");
    out.push_str("  \"unit\": \"pps = predictions/second, latencies in nanoseconds\",\n");
    render_section(&mut out, "baseline", baseline);
    out.push_str(",\n");
    render_section(&mut out, "current", current);
    out.push_str(",\n  \"throughput_vs_baseline\": {\n");
    let mut pairs = Vec::new();
    for cur in current {
        if let Some(base) = baseline.iter().find(|b| b.name == cur.name) {
            if base.pps > 0.0 && base.p99_ns > 0.0 {
                pairs.push(format!(
                    "    \"{}\": {{ \"pps\": {:.2}, \"p99\": {:.2} }}",
                    cur.name,
                    cur.pps / base.pps,
                    cur.p99_ns / base.p99_ns
                ));
            }
        }
    }
    out.push_str(&pairs.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

fn render_section(out: &mut String, title: &str, entries: &[ServingEntry]) {
    out.push_str(&format!("  \"{title}\": {{\n"));
    let lines: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "    \"{}\": {{ \"pps\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"requests\": {} }}",
                e.name, e.pps, e.p50_ns, e.p99_ns, e.requests
            )
        })
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  }");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_lines_parse_the_harness_report_format() {
        let out = "   Compiling bench v0.1.0\n\
                   starting warmup...\n\
                   serving serve/static_w2          pps 14212.7  \
                   p50 312.4µs  p99 1.21ms  (4000 requests)\n\
                   serving serve/dynamic_w4         pps 881.05  \
                   p50 3.853832ms  p99 11.2ms  (800 requests)\n\
                   random noise line\n";
        let entries = parse_serving_lines(out);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "serve/static_w2");
        assert_eq!(entries[0].pps, 14212.7);
        assert_eq!(entries[0].p50_ns, 312400.0);
        assert_eq!(entries[0].p99_ns, 1.21e6);
        assert_eq!(entries[0].requests, 4000);
        assert_eq!(entries[1].p50_ns, 3853832.0);
    }

    #[test]
    fn sections_survive_a_render_parse_round_trip() {
        let baseline = vec![ServingEntry {
            name: "serve/static_w2".into(),
            pps: 10000.0,
            p50_ns: 400000.0,
            p99_ns: 2000000.0,
            requests: 4000,
        }];
        let current = vec![ServingEntry {
            name: "serve/static_w2".into(),
            pps: 12000.0,
            p50_ns: 350000.0,
            p99_ns: 1500000.0,
            requests: 4000,
        }];
        let json = render_json(&baseline, &current);
        assert_eq!(parse_section(&json, "baseline"), baseline);
        assert_eq!(parse_section(&json, "current"), current);
        assert!(parse_section(&json, "nonexistent").is_empty());
        // 1.2× throughput shows up in the summary.
        assert!(json.contains("\"pps\": 1.20"));
    }

    #[test]
    fn throughput_drop_and_p99_rise_both_regress() {
        let entry = |name: &str, pps: f64, p99: f64| ServingEntry {
            name: name.into(),
            pps,
            p50_ns: p99 / 4.0,
            p99_ns: p99,
            requests: 1000,
        };
        let committed = vec![
            entry("ok", 1000.0, 1e6),
            entry("slow", 1000.0, 1e6),
            entry("spiky", 1000.0, 1e6),
            entry("retired", 1000.0, 1e6),
        ];
        let fresh = vec![
            entry("ok", 900.0, 1.2e6),     // within both tolerances
            entry("slow", 700.0, 1e6),     // −30% throughput
            entry("spiky", 1000.0, 1.5e6), // +50% p99
            entry("new", 1.0, 9e9),        // no committed row — skipped
        ];
        let regs = regressions(&committed, &fresh, 0.15, 0.25);
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert!(regs[0].starts_with("slow:"), "{regs:?}");
        assert!(regs[0].contains("-30.0%"));
        assert!(regs[1].starts_with("spiky:"), "{regs:?}");
        assert!(regs[1].contains("+50.0%"));
    }

    #[test]
    fn zero_committed_numbers_never_divide() {
        let z = ServingEntry {
            name: "z".into(),
            pps: 0.0,
            p50_ns: 0.0,
            p99_ns: 0.0,
            requests: 0,
        };
        let f = ServingEntry {
            name: "z".into(),
            pps: 5.0,
            p50_ns: 1.0,
            p99_ns: 1.0,
            requests: 1,
        };
        assert!(regressions(&[z.clone()], &[f], 0.15, 0.25).is_empty());
        // Rendering a summary against a zero baseline skips the pair.
        let json = render_json(&[z.clone()], &[z]);
        assert!(json.contains("\"throughput_vs_baseline\": {\n\n  }"));
    }
}
