//! The one record shape of `BENCH_engine.json`, the one timing loop every
//! record is measured with, and the document's emitter and reader.
//!
//! A [`BenchRecord`] is one workload cell: its identity (`series`,
//! `workload`, `n`, optional `k`, and the timed `rounds`), its arms'
//! per-sample ns/round, the `base` arm every ratio is taken against
//! (`arm / base`), exact outcome fields, and optional per-arm limits on
//! that ratio. The document adds `schema`, `cores` and `peak_rss_kb`.
//!
//! Every arm is a closure that builds its workload and returns one timed
//! [`Sample`]. `measure` runs each arm once as an unrecorded warm-up,
//! then takes [`SAMPLES`] passes over every arm of every record, passes
//! outermost: one record's samples are spread across the whole run, so a
//! host slowdown of about a second lands in at most one of them. An arm's
//! figure is the min of its samples; the document also stores their
//! quartiles. Every sample of an arm must repeat its outcome, and arms that
//! report the same outcome field — arms running one workload — must agree.

use std::time::Instant;

use dualgraph_sim::BroadcastOutcome;

use crate::compare::{parse_json, JsonValue};

/// Timed samples per arm.
pub const SAMPLES: usize = 5;

/// Outcome fields, name → exact value, in emission order.
pub type Outcome = Vec<(String, JsonValue)>;

/// One outcome field.
pub(crate) fn field(name: &str, value: impl Into<JsonValue>) -> (String, JsonValue) {
    (name.to_string(), value.into())
}

/// The executor outcome every executor-based arm reports, read from
/// `outcome()` after its timed window.
pub(crate) fn executor_outcome(outcome: &BroadcastOutcome) -> Outcome {
    vec![
        field("completion_round", outcome.completion_round),
        field("sends", outcome.sends),
        field("physical_collisions", outcome.physical_collisions),
    ]
}

/// Peak resident-set size in kilobytes (`VmHWM` from `/proc/self/status`);
/// `None` off Linux or if the field is missing.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One timed sample of an arm.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Nanoseconds per timed round, to 0.1 ns so the emitted figure reads
    /// back exactly.
    pub ns_per_round: f64,
    /// Outcome fields of the sampled run.
    pub outcome: Outcome,
}

impl Sample {
    /// Times `rounds` calls of `step` — the one clock every bench sample
    /// reads — into a sample without outcome fields.
    pub(crate) fn time(rounds: u64, mut step: impl FnMut()) -> Self {
        let start = Instant::now();
        for _ in 0..rounds {
            step();
        }
        let ns = start.elapsed().as_nanos() as f64 / rounds.max(1) as f64;
        Sample {
            ns_per_round: (ns * 10.0).round() / 10.0,
            outcome: Vec::new(),
        }
    }

    /// The sample with `outcome` as its outcome fields.
    pub(crate) fn with(self, outcome: Outcome) -> Self {
        Sample { outcome, ..self }
    }
}

/// One arm of a record.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmRecord {
    /// Arm name, unique within its record.
    pub name: String,
    /// Per-sample ns/round, in pass order.
    pub ns_per_round: Vec<f64>,
    /// Largest `arm / base` figure ratio the arm may reach, if limited.
    pub limit: Option<f64>,
}

impl ArmRecord {
    /// The arm's figure: the min of its samples.
    pub fn figure(&self) -> f64 {
        self.ns_per_round
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// The samples' quartiles `[q1, median, q3]` by nearest rank.
    pub fn quartiles(&self) -> [f64; 3] {
        let mut sorted = self.ns_per_round.clone();
        sorted.sort_by(f64::total_cmp);
        let last = sorted.len().saturating_sub(1) as f64;
        [0.25, 0.5, 0.75].map(|q| {
            sorted
                .get((q * last).round() as usize)
                .copied()
                .unwrap_or(f64::NAN)
        })
    }
}

/// One measured workload cell of `BENCH_engine.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// The series (one of [`crate::SERIES`]).
    pub series: String,
    /// Workload name within the series.
    pub workload: String,
    /// Network size.
    pub n: u64,
    /// Concurrent payloads, for stream workloads.
    pub k: Option<u64>,
    /// Rounds each sample times.
    pub rounds: u64,
    /// The arm every ratio is taken against.
    pub base: String,
    /// The timed arms, base first.
    pub arms: Vec<ArmRecord>,
    /// Exact outcome fields.
    pub outcome: Outcome,
    /// Peak RSS right after this record was measured (scale records).
    pub peak_rss_kb: Option<u64>,
}

impl BenchRecord {
    /// `series workload n=… [k=…] rounds=…`: the identity, for messages.
    pub fn label(&self) -> String {
        let k = self.k.map_or(String::new(), |k| format!(" k={k}"));
        format!(
            "{} {} n={}{k} rounds={}",
            self.series, self.workload, self.n, self.rounds
        )
    }

    /// Whether `other` measures the same cell.
    pub fn same_identity(&self, other: &BenchRecord) -> bool {
        self.label() == other.label()
    }

    /// The arm called `name`.
    pub fn arm(&self, name: &str) -> Option<&ArmRecord> {
        self.arms.iter().find(|a| a.name == name)
    }

    /// The outcome field called `name`.
    pub fn field(&self, name: &str) -> Option<&JsonValue> {
        self.outcome.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// `arm / base`, on figures.
    pub fn ratio(&self, arm: &ArmRecord) -> f64 {
        arm.figure() / self.arm(&self.base).map_or(f64::NAN, ArmRecord::figure)
    }

    /// Adds `outcome` as reported by `arm`; a field already present must
    /// carry the same value.
    ///
    /// # Panics
    ///
    /// Panics when a field disagrees: the arms did not run one workload,
    /// or a run is not deterministic.
    fn absorb(&mut self, arm: &str, outcome: Outcome) {
        for (key, value) in outcome {
            match self.field(&key) {
                None => self.outcome.push((key, value)),
                Some(seen) => assert!(
                    *seen == value,
                    "{}: arm {arm} reports {key} = {value}, earlier {seen}",
                    self.label()
                ),
            }
        }
    }

    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            field("series", self.series.as_str()),
            field("workload", self.workload.as_str()),
            field("n", self.n),
        ];
        if let Some(k) = self.k {
            fields.push(field("k", k));
        }
        fields.push(field("rounds", self.rounds));
        fields.push(field("base", self.base.as_str()));
        let numbers = |xs: &[f64]| JsonValue::Arr(xs.iter().map(|&x| x.into()).collect());
        let arms = self.arms.iter().map(|arm| {
            let mut fields = vec![
                field("ns_per_round", numbers(&arm.ns_per_round)),
                field("quartiles", numbers(&arm.quartiles())),
            ];
            if let Some(limit) = arm.limit {
                fields.push(field("limit", limit));
            }
            (arm.name.clone(), JsonValue::Obj(fields))
        });
        fields.push(field("arms", JsonValue::Obj(arms.collect())));
        fields.push(field("outcome", JsonValue::Obj(self.outcome.clone())));
        if let Some(kb) = self.peak_rss_kb {
            fields.push(field("peak_rss_kb", kb));
        }
        JsonValue::Obj(fields)
    }

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let text = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| malformed(key))
        };
        let arms = value
            .get("arms")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| malformed("arms"))?
            .iter()
            .map(|(name, arm)| {
                let samples = arm
                    .get("ns_per_round")
                    .and_then(JsonValue::as_arr)
                    .and_then(|xs| xs.iter().map(JsonValue::as_num).collect())
                    .ok_or_else(|| malformed(&format!("arm {name} ns_per_round")))?;
                Ok(ArmRecord {
                    name: name.clone(),
                    ns_per_round: samples,
                    limit: arm.get("limit").and_then(JsonValue::as_num),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(BenchRecord {
            series: text("series")?,
            workload: text("workload")?,
            n: uint(value, "n")?,
            k: value.get("k").map(|_| uint(value, "k")).transpose()?,
            rounds: uint(value, "rounds")?,
            base: text("base")?,
            arms,
            outcome: value
                .get("outcome")
                .and_then(JsonValue::as_obj)
                .ok_or_else(|| malformed("outcome"))?
                .to_vec(),
            peak_rss_kb: value
                .get("peak_rss_kb")
                .map(|_| uint(value, "peak_rss_kb"))
                .transpose()?,
        })
    }
}

/// The error for a missing or mistyped `what`.
fn malformed(what: &str) -> String {
    format!("missing or mistyped {what}")
}

/// `value[key]` as an unsigned integer.
fn uint(value: &JsonValue, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_num)
        .filter(|x| *x >= 0.0 && x.fract() == 0.0)
        .map(|x| x as u64)
        .ok_or_else(|| malformed(key))
}

/// A `BENCH_engine.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDocument {
    /// `available_parallelism` of the measuring host.
    pub cores: u64,
    /// Peak RSS after every record but scale's was measured.
    pub peak_rss_kb: Option<u64>,
    /// The records, in [`crate::SERIES`] order.
    pub records: Vec<BenchRecord>,
}

/// Renders `doc` as the [`crate::BENCH_SCHEMA`] document.
pub fn emit(doc: &BenchDocument) -> String {
    let value = JsonValue::Obj(vec![
        field("schema", crate::BENCH_SCHEMA),
        field("cores", doc.cores),
        field("peak_rss_kb", doc.peak_rss_kb),
        field(
            "records",
            JsonValue::Arr(doc.records.iter().map(BenchRecord::to_json).collect()),
        ),
    ]);
    value.pretty() + "\n"
}

/// Parses a document written by [`emit`], refusing other schema revisions
/// (their records may not be comparable).
///
/// # Errors
///
/// A message naming the syntax error, the foreign schema, or the missing
/// or mistyped field.
pub fn read(text: &str) -> Result<BenchDocument, String> {
    let doc = parse_json(text)?;
    let found = doc.get("schema").and_then(JsonValue::as_str).unwrap_or("");
    if found != crate::BENCH_SCHEMA {
        return Err(format!(
            "schema {found:?} does not match this build's {:?}; \
             regenerate the snapshot before comparing",
            crate::BENCH_SCHEMA
        ));
    }
    let records = doc
        .get("records")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| malformed("records"))?
        .iter()
        .map(BenchRecord::from_json)
        .collect::<Result<_, _>>()?;
    Ok(BenchDocument {
        cores: uint(&doc, "cores")?,
        peak_rss_kb: match doc.get("peak_rss_kb") {
            Some(JsonValue::Null) | None => None,
            Some(_) => Some(uint(&doc, "peak_rss_kb")?),
        },
        records,
    })
}

/// A record still to be measured: identity and fixed outcome, plus one
/// sampling closure per arm.
pub(crate) struct Cell<'a> {
    record: BenchRecord,
    runs: Vec<Box<dyn FnMut() -> Sample + 'a>>,
}

impl<'a> Cell<'a> {
    /// A cell with no arms yet.
    pub(crate) fn new(
        series: &str,
        workload: &str,
        n: usize,
        k: Option<usize>,
        rounds: u64,
    ) -> Self {
        Cell {
            record: BenchRecord {
                series: series.to_string(),
                workload: workload.to_string(),
                n: n as u64,
                k: k.map(|k| k as u64),
                rounds,
                base: String::new(),
                arms: Vec::new(),
                outcome: Vec::new(),
                peak_rss_kb: None,
            },
            runs: Vec::new(),
        }
    }

    /// Adds an arm; the first arm added is the base.
    pub(crate) fn arm(mut self, name: &str, run: impl FnMut() -> Sample + 'a) -> Self {
        if self.record.arms.is_empty() {
            self.record.base = name.to_string();
        }
        self.record.arms.push(ArmRecord {
            name: name.to_string(),
            ns_per_round: Vec::with_capacity(SAMPLES),
            limit: None,
        });
        self.runs.push(Box::new(run));
        self
    }

    /// Limits the last added arm, if `limit` is given: its `arm / base`
    /// ratio must stay ≤ `limit`.
    pub(crate) fn limit(mut self, limit: Option<f64>) -> Self {
        let arm = self.record.arms.last_mut().expect("limit follows an arm");
        arm.limit = limit;
        self
    }

    /// Adds outcome fields measured outside the arms (an untimed run).
    pub(crate) fn outcome(mut self, outcome: Outcome) -> Self {
        self.record.absorb("(untimed)", outcome);
        self
    }
}

/// Measures `cells`: every arm once as an unrecorded warm-up, then
/// [`SAMPLES`] passes over every arm of every cell, passes outermost.
///
/// # Panics
///
/// Panics when an arm's outcome disagrees with an earlier one.
pub(crate) fn measure(mut cells: Vec<Cell<'_>>) -> Vec<BenchRecord> {
    for pass in 0..=SAMPLES {
        for Cell { record, runs } in &mut cells {
            for (i, run) in runs.iter_mut().enumerate() {
                let sample = run();
                let arm = &mut record.arms[i];
                if pass > 0 {
                    arm.ns_per_round.push(sample.ns_per_round);
                }
                let name = arm.name.clone();
                record.absorb(&name, sample.outcome);
            }
        }
    }
    cells.into_iter().map(|c| c.record).collect()
}

/// Joins records of one cell measured arm by arm (each a single-arm
/// [`measure`] call) into one record; outcomes must agree as in
/// [`measure`].
///
/// # Panics
///
/// Panics when the records are not one cell or an outcome disagrees.
pub(crate) fn join(records: Vec<BenchRecord>) -> BenchRecord {
    let mut parts = records.into_iter();
    let mut joined = parts.next().expect("at least one record");
    for part in parts {
        assert!(joined.same_identity(&part), "join needs one cell");
        joined.absorb(&part.base, part.outcome);
        joined.arms.extend(part.arms);
    }
    joined
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Outcome field `name` of `record` as a number.
    pub(crate) fn num(record: &BenchRecord, name: &str) -> f64 {
        record
            .field(name)
            .and_then(JsonValue::as_num)
            .unwrap_or_else(|| panic!("{}: no numeric {name}", record.label()))
    }

    /// Every arm of `record` carries [`SAMPLES`] positive samples.
    pub(crate) fn assert_sampled(record: &BenchRecord) {
        assert!(!record.arms.is_empty(), "{}", record.label());
        assert_eq!(record.base, record.arms[0].name);
        for arm in &record.arms {
            assert_eq!(arm.ns_per_round.len(), SAMPLES, "{}", record.label());
            assert!(arm.figure() > 0.0, "{} {}", record.label(), arm.name);
        }
    }

    /// Two records that between them set every field: `k`, a limit, a
    /// record `peak_rss_kb`, and outcome strings, nulls, floats and ints.
    fn example() -> BenchDocument {
        let arm = |name: &str, ns_per_round: Vec<f64>, limit| ArmRecord {
            name: name.into(),
            ns_per_round,
            limit,
        };
        let byzantine = BenchRecord {
            series: "byzantine".into(),
            workload: "byzantine-churn8-equiv10pct-bursty".into(),
            n: 65,
            k: Some(32),
            rounds: 4000,
            base: "ackgap".into(),
            arms: vec![
                arm(
                    "ackgap",
                    vec![33533.4, 33600.1, 34000.0, 35000.9, 33999.9],
                    None,
                ),
                arm("quorum", vec![33938.7, 0.1, 1e9, 12.0, 7.5], Some(2.0)),
            ],
            outcome: vec![
                field("policy", "quorum(f=3,echo≥4,ready≥4)"),
                field("mean_accept_round", 1083.90625),
                field("completion_round", None::<u64>),
                field("sends", 123_456_789_u64),
            ],
            peak_rss_kb: None,
        };
        let scale = BenchRecord {
            series: "scale".into(),
            k: None,
            arms: vec![arm("ackgap", vec![60858830.0], None)],
            outcome: Vec::new(),
            peak_rss_kb: Some(877956),
            ..byzantine.clone()
        };
        BenchDocument {
            cores: 2,
            peak_rss_kb: Some(4332),
            records: vec![byzantine, scale],
        }
    }

    #[test]
    fn emit_then_read_round_trips_every_field() {
        let doc = example();
        let text = emit(&doc);
        assert!(text.contains("echo≥4"));
        assert_eq!(read(&text).unwrap(), doc);
    }

    #[test]
    fn emit_stores_quartiles_beside_the_samples() {
        let text = emit(&example());
        assert!(
            text.contains("\"quartiles\": [33600.1, 33999.9, 34000]"),
            "{text}"
        );
    }

    #[test]
    fn read_rejects_foreign_schemas_and_missing_fields() {
        let text = emit(&example());
        let foreign = text.replace(crate::BENCH_SCHEMA, "dualgraph-bench-engine/1");
        assert!(read(&foreign)
            .unwrap_err()
            .contains("\"dualgraph-bench-engine/1\""));
        let broken = text.replacen("\"base\"", "\"bass\"", 1);
        assert_eq!(read(&broken), Err("missing or mistyped base".to_string()));
    }

    #[test]
    fn figure_is_the_min_and_ratio_is_arm_over_base() {
        let doc = example();
        let r = &doc.records[0];
        assert_eq!(r.arms[0].figure(), 33533.4);
        assert_eq!(r.ratio(&r.arms[1]), 0.1 / 33533.4);
    }

    #[test]
    fn measure_samples_pass_major_and_checks_outcomes() {
        use std::cell::RefCell;
        let order = RefCell::new(Vec::new());
        let arm = |name: &'static str| {
            let order = &order;
            move || {
                order.borrow_mut().push(name);
                Sample::time(1, || {}).with(vec![field("sends", 7u64)])
            }
        };
        let cells = vec![
            Cell::new("engine", "a", 33, None, 10)
                .arm("enum", arm("a.enum"))
                .arm("boxed", arm("a.boxed"))
                .limit(Some(1.5)),
            Cell::new("engine", "b", 33, None, 10).arm("enum", arm("b.enum")),
        ];
        let records = measure(cells);
        let order = order.into_inner();
        assert_eq!(order.len(), 3 * (SAMPLES + 1));
        assert_eq!(order[..3], ["a.enum", "a.boxed", "b.enum"]);
        assert_eq!(order[3..6], ["a.enum", "a.boxed", "b.enum"]);
        assert_eq!(records[0].arms[1].ns_per_round.len(), SAMPLES);
        assert_eq!(records[0].arms[1].limit, Some(1.5));
        assert_eq!(num(&records[1], "sends"), 7.0);
    }

    #[test]
    fn peak_rss_reports_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb().unwrap_or(0) > 0);
        }
    }

    #[test]
    #[should_panic(expected = "reports sends")]
    fn measure_rejects_an_outcome_that_changes_between_samples() {
        let mut sends = 0u64;
        let cell = Cell::new("engine", "a", 33, None, 10).arm("enum", move || {
            sends += 1;
            Sample::time(1, || {}).with(vec![field("sends", sends)])
        });
        measure(vec![cell]);
    }
}
