//! Printing one run, and folding many runs into medians, quartiles and
//! the A/A comparison.

use crate::run::Outcome;
use crate::spec::{Better, Spec, END_TO_END};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result object the driver reads: the last line of a run's output.
pub fn result_json<N: AsRef<str>, U: AsRef<str>>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (N, f64, U)>,
) -> String {
    let metrics: Vec<String> = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                name.as_ref(),
                json_number(value),
                unit.as_ref()
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Everything a run prints: notes, one `metric` line per metric, the
/// digests, and the result object last.
pub fn print_run(spec: &Spec, seed: u64, seconds: u64, trace: bool, out: &Outcome) {
    println!(
        "# workload={} seed={seed} seconds={seconds} trace={}",
        spec.name,
        u8::from(trace)
    );
    println!("# why: {}", spec.why);
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("metric {} {} {}", m.name, json_number(m.value), m.unit);
    }
    let [data, ticks, stmts, sched, bodies] = out.digests;
    println!(
        "digest data={data:016x} ticks={ticks:016x} statements={stmts:016x} schedule={sched:016x} bodies={bodies:016x}"
    );
    println!(
        "{}",
        result_json(
            out.correct,
            out.attempted,
            out.failed,
            out.metrics.iter().map(|m| (m.name, m.value, m.unit))
        )
    );
}

/// What the parent keeps of a child's output.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
    pub checks: Vec<String>,
}

/// Read a child's output back. `None` when it ends without a result.
pub fn parse_run(stdout: &str) -> Option<Parsed> {
    let mut p = Parsed::default();
    for line in stdout.lines() {
        let mut w = line.split_whitespace();
        match w.next() {
            Some("metric") => {
                let (name, value, unit) = (w.next()?, w.next()?.parse().ok()?, w.next()?);
                p.metrics.push((name.to_string(), value, unit.to_string()));
            }
            Some("check" | "VIOLATION" | "digest") => p.checks.push(line.to_string()),
            _ => {}
        }
    }
    let last = stdout.lines().last()?;
    let field = |key: &str| {
        let rest = &last[last.find(key)? + key.len()..];
        Some(
            rest.trim_start_matches([':', ' '])
                .split([',', '}'])
                .next()?
                .trim()
                .to_string(),
        )
    };
    p.correct = field("\"correct\"")? == "true";
    p.attempted = field("\"attempted\"")?.parse().ok()?;
    p.failed = field("\"failed\"")?.parse().ok()?;
    Some(p)
}

/// Runs of one workload, folded per metric.
#[derive(Debug, Default)]
pub struct Folded {
    pub runs: usize,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (unit, one value per run), in first-seen order.
    pub order: Vec<String>,
    pub values: BTreeMap<String, (String, Vec<f64>)>,
}

impl Folded {
    pub fn new() -> Folded {
        Folded {
            correct: true,
            ..Folded::default()
        }
    }

    pub fn add(&mut self, run: &Parsed) {
        self.runs += 1;
        self.correct &= run.correct;
        self.attempted += run.attempted;
        self.failed += run.failed;
        for (name, value, unit) in &run.metrics {
            if !self.values.contains_key(name) {
                self.order.push(name.clone());
            }
            self.values
                .entry(name.clone())
                .or_insert_with(|| (unit.clone(), Vec::new()))
                .1
                .push(*value);
        }
    }

    /// Medians as the metrics of one result object.
    pub fn medians(&self) -> Vec<(String, f64, String)> {
        self.order
            .iter()
            .map(|n| {
                let (unit, v) = &self.values[n];
                (n.clone(), median(v), unit.clone())
            })
            .collect()
    }

    /// `name unit median q1 q3 n spread [bound]` per metric.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!(
            "== {workload}: {} run(s), attempted {}, failed {}, correct {}\n{:<28} {:>6} {:>14} {:>14} {:>14} {:>3} {:>8} {:>6}\n",
            self.runs, self.attempted, self.failed, self.correct, "metric", "unit", "median", "q1", "q3", "n", "spread", "bound"
        );
        for name in &self.order {
            let (unit, v) = &self.values[name];
            let (q1, q3) = quartiles(v);
            let bound = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .map_or(String::new(), |m| format!("{:.2}", m.bound));
            let _ = writeln!(
                out,
                "{name:<28} {unit:>6} {:>14.6} {q1:>14.6} {q3:>14.6} {:>3} {:>8.4} {bound:>6}",
                median(v),
                v.len(),
                spread(v)
            );
        }
        out
    }
}

/// The A/A table (markdown): per workload and end-to-end metric, the
/// medians of two sets of runs of the same code on the same seeds, the
/// gap between them as a share of the first, and each set's own spread,
/// next to the metric's bound. Returns the table and the breach count.
pub fn aa_table(sets: &[(String, Folded, Folded)]) -> (String, usize) {
    let mut out = String::from(
        "| workload | metric | unit | median A | median B | gap | spread A | spread B | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut breaches = 0;
    for (workload, a, b) in sets {
        for m in &END_TO_END {
            let (Some((unit, va)), Some((_, vb))) = (a.values.get(m.name), b.values.get(m.name))
            else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let (sa, sb) = (spread(va), spread(vb));
            // setup_s is held to the median gap only, as the driver does.
            let wide = m.name != "setup_s" && sa.max(sb) > m.bound;
            let verdict = if worse.abs() > m.bound {
                breaches += 1;
                "BREACH (gap)"
            } else if wide {
                breaches += 1;
                "BREACH (spread)"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "| {workload} | {} | {unit} | {ma:.6} | {mb:.6} | {:+.4} | {sa:.4} | {sb:.4} | {:.2} | {verdict} |",
                m.name, worse, m.bound
            );
        }
    }
    (out, breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_printed_run_parses_back() {
        let metrics = [
            crate::run::Metric {
                name: "build_s",
                value: 0.4212345,
                unit: "s",
            },
            crate::run::Metric {
                name: "query_qps",
                value: 5123.25,
                unit: "1/s",
            },
        ];
        let text = format!(
            "phase build 1.0 s\nmetric build_s 0.4212345 s\nmetric query_qps 5123.25 1/s\ncheck x\n{}\n",
            result_json(true, 1000, 0, metrics.iter().map(|m| (m.name, m.value, m.unit)))
        );
        let p = parse_run(&text).expect("parses");
        assert!(p.correct && p.attempted == 1000 && p.failed == 0);
        assert_eq!(
            p.metrics[1],
            ("query_qps".to_string(), 5123.25, "1/s".to_string())
        );
        assert!(parse_run("phase build 1.0 s\n").is_none());
        let mut f = Folded::new();
        f.add(&p);
        f.add(&p);
        assert_eq!(
            f.medians()[0],
            ("build_s".to_string(), 0.4212345, "s".to_string())
        );
        let (table, breaches) = aa_table(&[("w".into(), f, {
            let mut g = Folded::new();
            g.add(&p);
            g
        })]);
        assert!(table.contains("| w | build_s | s |") && breaches == 0);
    }
}
