//! Experiment driver: prints every paper table and writes CSVs.
//!
//! ```text
//! cargo run --release -p dualgraph-bench --bin experiments -- \
//!     [--quick] [--table NAME] [--csv DIR | --no-csv] [--report md|json PATH]
//! ```
//!
//! `NAME` is a csv-name prefix (e.g. `thm12`); omit for all experiments.
//!
//! Report mode (rides along with the table runner):
//!
//! * `--report md|json PATH` — renders the selected experiments into one
//!   deterministic report document (no timestamps, no timings): two runs
//!   at the same revision produce byte-identical files.
//!
//! Bench mode (no tables):
//!
//! * `--bench SERIES[,SERIES…]|all [PATH]` — measures the named
//!   [`dualgraph_bench::SERIES`] into one `BENCH_engine.json` document of
//!   records ([`dualgraph_bench::record`]) at `PATH` (default
//!   `BENCH_engine.json`);
//! * `--bench-compare BASELINE` — gates a fresh measurement against
//!   `BASELINE` ([`dualgraph_bench::compare`]), exiting 1 on a failed check
//!   and 2 on an unreadable or foreign-schema baseline. With `--bench`, the
//!   baseline is read first and one measurement is written and gated
//!   against the baseline's records of the measured series; alone, it
//!   measures the baseline's series and writes nothing.
//!
//! Observability modes (no tables, no JSON document):
//!
//! * `--trace-jsonl PATH` — runs the reliability stream workload traced
//!   into a [`dualgraph_sim::JsonlSink`] and writes the JSONL capture to
//!   `PATH` (refusing to write a capture without the `trace-v1` header);
//! * `--trace-check PATH` — validates that `PATH` starts with the
//!   `trace-v1` schema header, exiting 1 on a missing or foreign header;
//! * `--trace-diff` — replays the chatter workload on the optimized and
//!   reference engines and diffs their event streams, exiting 1 at the
//!   first diverging event (the healthy outcome is silence);
//! * `--trace-diff-mutated` — same, with a perturbed adversary seed on
//!   the reference side standing in for a buggy engine: the harness must
//!   localize the divergence (exits 1 if it fails to).

use std::path::PathBuf;

use dualgraph_bench::engine_bench;
use dualgraph_bench::experiments;
use dualgraph_bench::workloads::Scale;

/// `--bench` / `--bench-compare` mode: read the baseline, measure, write,
/// then gate. Exits the process.
fn bench_mode(
    series: Option<Vec<&'static str>>,
    path: Option<PathBuf>,
    baseline: Option<PathBuf>,
) -> ! {
    use dualgraph_bench::{compare, record};
    let mut baseline = baseline.map(|path| {
        let read = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| record::read(&text));
        read.unwrap_or_else(|e| {
            eprintln!("bench-compare: {}: {e}", path.display());
            std::process::exit(2);
        })
    });
    if let (Some(series), Some(baseline)) = (&series, baseline.as_mut()) {
        // Series left out of `--bench` go ungated; with every series
        // measured, a baseline record of an unknown one still fails.
        if series.len() < dualgraph_bench::SERIES.len() {
            baseline
                .records
                .retain(|r| series.contains(&r.series.as_str()));
        }
    }
    let series = series.unwrap_or_else(|| {
        let records = baseline.as_ref().map_or(&[][..], |b| &b.records[..]);
        dualgraph_bench::SERIES
            .into_iter()
            .filter(|s| records.iter().any(|r| r.series == *s))
            .collect()
    });
    let doc = dualgraph_bench::bench(&series);
    if let Some(path) = path {
        if let Err(e) = std::fs::write(&path, record::emit(&doc)) {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {} ({} records)", path.display(), doc.records.len());
    }
    let Some(baseline) = baseline else {
        std::process::exit(0);
    };
    let checks = compare::compare(&baseline.records, &doc.records);
    for c in &checks {
        let status = if c.passed { "ok" } else { "FAIL" };
        println!("bench-compare: {}: {} {status}", c.record, c.detail);
    }
    let failed = checks.iter().filter(|c| !c.passed).count();
    let verdict = if failed > 0 { "FAIL" } else { "ok" };
    println!(
        "bench-compare: {verdict} — {failed} of {} checks failed over {} records",
        checks.len(),
        doc.records.len()
    );
    std::process::exit(i32::from(failed > 0));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut filter: Option<String> = None;
    let mut csv_dir: Option<PathBuf> = Some(PathBuf::from("results"));
    let mut bench_series: Option<Vec<&'static str>> = None;
    let mut bench_path: Option<PathBuf> = None;
    let mut trace_jsonl: Option<PathBuf> = None;
    let mut trace_check: Option<PathBuf> = None;
    let mut trace_diff_mode: Option<bool> = None; // Some(mutated?)
    let mut report_mode: Option<(String, PathBuf)> = None;
    let mut bench_compare: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::Quick,
            "--table" => {
                i += 1;
                filter = Some(args.get(i).expect("--table needs a name").clone());
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(PathBuf::from(args.get(i).expect("--csv needs a dir")));
            }
            "--no-csv" => csv_dir = None,
            "--trace-jsonl" => {
                i += 1;
                trace_jsonl = Some(PathBuf::from(
                    args.get(i).expect("--trace-jsonl needs a path"),
                ));
            }
            "--trace-check" => {
                i += 1;
                trace_check = Some(PathBuf::from(
                    args.get(i).expect("--trace-check needs a path"),
                ));
            }
            "--report" => {
                i += 1;
                let format = args
                    .get(i)
                    .expect("--report needs a format (md|json)")
                    .clone();
                assert!(
                    format == "md" || format == "json",
                    "--report format must be md or json, got {format:?}"
                );
                i += 1;
                let path = PathBuf::from(args.get(i).expect("--report needs a path"));
                report_mode = Some((format, path));
            }
            "--bench-compare" => {
                i += 1;
                bench_compare = Some(PathBuf::from(
                    args.get(i).expect("--bench-compare needs a baseline path"),
                ));
            }
            "--trace-diff" => trace_diff_mode = Some(false),
            "--trace-diff-mutated" => trace_diff_mode = Some(true),
            "--bench" => {
                i += 1;
                let list = args.get(i).expect("--bench needs SERIES[,SERIES…] or all");
                if let Some(bad) = list
                    .split(',')
                    .find(|n| list != "all" && !dualgraph_bench::SERIES.contains(n))
                {
                    eprintln!(
                        "unknown bench series {bad:?}; expected all or some of {}",
                        dualgraph_bench::SERIES.join(",")
                    );
                    std::process::exit(2);
                }
                bench_series = Some(
                    dualgraph_bench::SERIES
                        .into_iter()
                        .filter(|s| list == "all" || list.split(',').any(|n| n == *s))
                        .collect(),
                );
                let explicit = args.get(i + 1).filter(|a| !a.starts_with("--"));
                bench_path = Some(PathBuf::from(
                    explicit.map_or("BENCH_engine.json", String::as_str),
                ));
                if explicit.is_some() {
                    i += 1;
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: experiments [--quick] [--table NAME] [--csv DIR | --no-csv] \
                     [--report md|json PATH] [--bench SERIES[,SERIES…]|all [PATH]] \
                     [--bench-compare BASELINE.json] [--trace-jsonl PATH] \
                     [--trace-check PATH] [--trace-diff] [--trace-diff-mutated]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(path) = trace_jsonl {
        let capture = dualgraph_bench::trace_bench::capture_stream_jsonl(65, 16);
        dualgraph_sim::check_trace_schema(&capture)
            .expect("fresh capture must carry the trace-v1 schema header");
        if let Err(e) = std::fs::write(&path, &capture) {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} ({} events)",
            path.display(),
            capture.lines().count().saturating_sub(1)
        );
        return;
    }

    if let Some(path) = trace_check {
        let doc = match std::fs::read_to_string(&path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("error: failed to read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        match dualgraph_sim::check_trace_schema(&doc) {
            Ok(()) => {
                println!(
                    "trace-check: {} ok ({}, {} event lines)",
                    path.display(),
                    dualgraph_sim::TRACE_SCHEMA,
                    doc.lines().count().saturating_sub(1)
                );
            }
            Err(e) => {
                eprintln!("trace-check: {} REJECTED — {e}", path.display());
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(mutated) = trace_diff_mode {
        let net = engine_bench::workload_network(65);
        let d = if mutated {
            dualgraph_bench::trace_bench::trace_diff_mutated(&net, 7, 200)
        } else {
            dualgraph_bench::trace_bench::trace_diff(&net, 7, 200)
        };
        println!(
            "trace-diff: n=65 rounds=200 optimized_events={} reference_events={}",
            d.optimized.len(),
            d.reference.len()
        );
        match (d.divergence, mutated) {
            (None, false) => println!("trace-diff: engines agree event-for-event"),
            (Some(div), false) => {
                println!("trace-diff: DIVERGED — {div}");
                std::process::exit(1);
            }
            (Some(div), true) => println!("trace-diff: mutation localized — {div}"),
            (None, true) => {
                println!("trace-diff: mutation NOT localized (streams identical)");
                std::process::exit(1);
            }
        }
        return;
    }

    if bench_series.is_some() || bench_compare.is_some() {
        bench_mode(bench_series, bench_path, bench_compare);
    }

    let selected: Vec<_> = experiments::all()
        .into_iter()
        .filter(|(name, _)| {
            filter
                .as_deref()
                .is_none_or(|f| name.starts_with(f) || name.contains(f))
        })
        .collect();
    if selected.is_empty() {
        eprintln!("no experiment matches the filter");
        std::process::exit(2);
    }
    println!(
        "dualgraph experiments — scale: {:?}, {} experiment(s)\n",
        scale,
        selected.len()
    );
    let mut collected: Vec<(&str, dualgraph_bench::report::Table)> = Vec::new();
    for (name, runner) in selected {
        let start = std::time::Instant::now();
        let table = runner(scale);
        table.print();
        println!("   [{name} took {:.1?}]\n", start.elapsed());
        if let Some(dir) = &csv_dir {
            if let Err(e) = table.write_csv(dir, name) {
                eprintln!("warning: failed to write {name}.csv: {e}");
            }
        }
        if report_mode.is_some() {
            collected.push((name, table));
        }
    }
    if let Some((format, path)) = report_mode {
        // Timings are printed above but never enter tables, so the report
        // is a deterministic function of the experiment results.
        let rendered = match format.as_str() {
            "md" => dualgraph_bench::report::render_markdown_report(&collected),
            _ => dualgraph_bench::report::render_json_report(&collected),
        };
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} ({format}, {} experiments)",
            path.display(),
            collected.len()
        );
    }
}
