//! Observability primitives shared by the simulator, the runtimes, and the
//! experiments engine: a string-keyed metric [`Registry`] (counters, gauges,
//! weighted histograms), a bounded structured [`EventLog`], and a
//! point-in-time [`Snapshot`] renderable in Prometheus text exposition
//! format.
//!
//! Design rules (DESIGN.md, "Observability"):
//!
//! * **Deterministic values.** Everything recorded *inside* the simulator is
//!   keyed to simulation time (`t_us`) and simulated state only, so a
//!   replayed run reproduces its telemetry byte-for-byte. Wall-clock
//!   diagnostics (trial latency, reorder-buffer depth) are permitted but
//!   must live under the `diag/` name prefix so comparisons can exclude
//!   them ([`Snapshot::deterministic`]).
//! * **No new dependencies.** `serde` only, which the workspace already
//!   carries; the registry is a `Mutex<BTreeMap>` updated at trial
//!   granularity, never inside the per-tick hot loop.
//! * **Bounded memory.** [`EventLog`] drops (and counts) events past its
//!   cap instead of growing without bound.

#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Default cap on buffered events per [`EventLog`].
pub const DEFAULT_EVENT_CAP: usize = 65_536;

/// One dynamically-typed event field value.
///
/// Serialized untagged, so JSON stays flat (`"fields":{"pkg":0,...}`).
/// Variant order matters for deserialization: booleans, then unsigned,
/// signed, float, string — `3` round-trips as `U64`, `-3` as `I64`,
/// `3.5` as `F64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum FieldValue {
    /// Boolean flag (e.g. `tune_event`).
    Bool(bool),
    /// Unsigned integer (counters, cycle numbers).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point reading (frequencies, throughputs).
    F64(f64),
    /// Symbolic value (trend / action names): borrowed when built from a
    /// literal, owned when read back from JSON.
    Str(Cow<'static, str>),
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        Self::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        Self::Str(Cow::Borrowed(v))
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        Self::Str(Cow::Owned(v))
    }
}

/// One structured telemetry event.
///
/// `t_us` is **simulation time** — never wall clock — so identical runs
/// emit identical events. Fields are a sorted map, which makes the JSON
/// serialization canonical (key order never depends on insertion order).
///
/// The kind, the field names and string values are `Cow<'static, str>`:
/// borrowed from the literals emitters pass to [`Event::new`] and
/// [`Event::with`], so building an event allocates only its field map,
/// and owned when an event is read back from JSON (the result cache).
/// Its serde derive writes every form: JSONL lines, cache entries and
/// `run --json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulation timestamp (µs since node construction).
    pub t_us: u64,
    /// Event kind (e.g. `magus_decision`, `uncore_limit_write`).
    pub kind: Cow<'static, str>,
    /// Event payload, sorted by field name.
    pub fields: BTreeMap<Cow<'static, str>, FieldValue>,
}

impl Event {
    /// New event of `kind` at simulation time `t_us` with no fields.
    #[must_use]
    pub fn new(t_us: u64, kind: &'static str) -> Self {
        Self {
            t_us,
            kind: Cow::Borrowed(kind),
            fields: BTreeMap::new(),
        }
    }

    /// Builder-style field append.
    #[must_use]
    pub fn with(mut self, name: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.insert(Cow::Borrowed(name), value.into());
        self
    }
}

/// Bounded in-memory event buffer.
///
/// Pushing past the cap drops the event and increments
/// [`dropped`](EventLog::dropped) instead of reallocating: a runaway
/// emitter costs a counter bump, not unbounded memory.
#[derive(Debug, Clone)]
pub struct EventLog {
    events: Vec<Event>,
    cap: usize,
    dropped: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::with_cap(DEFAULT_EVENT_CAP)
    }
}

impl EventLog {
    /// Empty log holding at most `cap` events.
    #[must_use]
    pub fn with_cap(cap: usize) -> Self {
        Self {
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Append `event`, or count it as dropped once the log is full.
    pub fn push(&mut self, event: Event) {
        if self.events.len() < self.cap {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Buffered events, oldest first.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Drain the buffer, leaving the drop counter intact.
    pub fn take(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Number of events rejected because the log was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One registered metric value.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter {
        /// Current count.
        value: u64,
    },
    /// Last-write-wins (or max-tracked) level.
    Gauge {
        /// Current level.
        value: f64,
    },
    /// Weighted histogram over fixed upper bounds.
    Histogram {
        /// Bucket upper bounds, ascending; an implicit `+Inf` bucket
        /// follows the last bound.
        bounds: Vec<f64>,
        /// Per-bucket weights (`bounds.len() + 1` entries, non-cumulative).
        counts: Vec<u64>,
        /// Total observed weight.
        total: u64,
        /// Weighted sum of observed values.
        sum: f64,
    },
}

impl MetricValue {
    fn new_histogram(bounds: &[f64]) -> Self {
        Self::Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
        }
    }
}

/// Thread-safe, string-keyed metric store.
///
/// Update costs are one mutex lock plus a `BTreeMap` probe — fine at
/// trial/decision granularity, deliberately *not* offered to the per-tick
/// simulator loop (nodes keep raw counters and fold them in afterwards).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, MetricValue>>,
}

impl Registry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, MetricValue>> {
        self.metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Add `by` to counter `name` (creating it at zero first).
    pub fn inc(&self, name: &str, by: u64) {
        let mut metrics = self.lock();
        let entry = metrics
            .entry(name.to_string())
            .or_insert(MetricValue::Counter { value: 0 });
        match entry {
            MetricValue::Counter { value } => *value += by,
            other => *other = MetricValue::Counter { value: by },
        }
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut metrics = self.lock();
        metrics.insert(name.to_string(), MetricValue::Gauge { value });
    }

    /// Observe `value` with integer `weight` in histogram `name`.
    ///
    /// `bounds` fixes the bucket layout on first use. The weight lets
    /// callers fold pre-aggregated data (e.g. µs of residency per
    /// frequency bin) in one call per bin.
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64, weight: u64) {
        let mut metrics = self.lock();
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::new_histogram(bounds));
        if !matches!(entry, MetricValue::Histogram { .. }) {
            *entry = MetricValue::new_histogram(bounds);
        }
        if let MetricValue::Histogram {
            bounds,
            counts,
            total,
            sum,
        } = entry
        {
            let idx = bounds.partition_point(|b| *b < value);
            counts[idx] += weight;
            *total += weight;
            *sum += value * weight as f64;
        }
    }

    /// Point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            metrics: self.lock().clone(),
        }
    }
}

/// Point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Snapshot {
    /// Metric name → value, sorted by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Counter value, if `name` is a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter { value }) => Some(*value),
            _ => None,
        }
    }

    /// Gauge level, if `name` is a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge { value }) => Some(*value),
            _ => None,
        }
    }

    /// Copy with every `diag/`-prefixed metric removed: the subset that
    /// must be identical across serial/parallel and fast/reference runs.
    #[must_use]
    pub fn deterministic(&self) -> Self {
        Self {
            metrics: self
                .metrics
                .iter()
                .filter(|(name, _)| !name.starts_with("diag/"))
                .map(|(name, value)| (name.clone(), value.clone()))
                .collect(),
        }
    }

    /// Render in Prometheus text exposition format (metric names are
    /// prefixed `magus_` and mangled to `[a-zA-Z0-9_:]`; histogram buckets
    /// are cumulative with an explicit `+Inf`).
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let n = prometheus_name(name);
            match value {
                MetricValue::Counter { value } => {
                    let _ = writeln!(out, "# TYPE {n} counter\n{n} {value}");
                }
                MetricValue::Gauge { value } => {
                    let _ = writeln!(out, "# TYPE {n} gauge\n{n} {value}");
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    total,
                    sum,
                } => {
                    let _ = writeln!(out, "# TYPE {n} histogram");
                    let mut cum = 0u64;
                    for (bound, count) in bounds.iter().zip(counts.iter()) {
                        cum += count;
                        let _ = writeln!(out, "{n}_bucket{{le=\"{bound}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {total}");
                    let _ = writeln!(out, "{n}_sum {sum}\n{n}_count {total}");
                }
            }
        }
        out
    }
}

/// Mangle a registry name into the Prometheus charset with a `magus_`
/// namespace prefix (`engine/cache_hits` → `magus_engine_cache_hits`).
#[must_use]
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("magus_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Deterministic per-node instrumentation counters, drained from a
/// simulated node at the end of a trial.
///
/// Lives here (not in `magus-hetsim`) so the experiments layer can carry
/// it in `TrialResult` as a portable value — `Some` exactly when the
/// trial's node was armed, `None` when nothing was going to read it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct NodeCounters {
    /// `wrmsr` writes to `MSR 0x620` (`UNCORE_RATIO_LIMIT`).
    pub uncore_msr_writes: u64,
    /// Fixed-point spans frozen by the macro-stepping fast path.
    pub fastpath_frozen_spans: u64,
    /// Ticks replayed from a frozen span instead of full evaluation.
    pub fastpath_replayed_ticks: u64,
    /// Frozen spans invalidated by monitoring/actuation state changes.
    pub fastpath_invalidations: u64,
    /// Uncore-frequency residency: `(bin, µs)` pairs sorted by bin, where
    /// bin `b` covers frequencies rounding to `b / 10` GHz, weighted by
    /// socket-µs (two sockets at 1.8 GHz for one 10 ms tick add
    /// 20 000 µs to bin 18).
    pub residency_us: Vec<(u16, u64)>,
    /// Events rejected by the node's bounded event log.
    pub events_dropped: u64,
}

impl NodeCounters {
    /// Total socket-µs across all residency bins.
    #[must_use]
    pub fn residency_total_us(&self) -> u64 {
        self.residency_us.iter().map(|&(_, us)| us).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_mismatches_reset() {
        let reg = Registry::new();
        reg.inc("engine/cache_hits", 1);
        reg.inc("engine/cache_hits", 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine/cache_hits"), Some(3));
        // A kind change replaces rather than corrupting.
        reg.set_gauge("engine/cache_hits", 7.0);
        assert_eq!(reg.snapshot().gauge("engine/cache_hits"), Some(7.0));
        reg.inc("engine/cache_hits", 5);
        assert_eq!(reg.snapshot().counter("engine/cache_hits"), Some(5));
    }

    #[test]
    fn histogram_buckets_by_bound_and_weights() {
        let reg = Registry::new();
        let bounds = [1.0, 2.0];
        reg.observe("node/uncore_residency_ghz", &bounds, 0.8, 10);
        reg.observe("node/uncore_residency_ghz", &bounds, 1.0, 5); // on-bound → first bucket
        reg.observe("node/uncore_residency_ghz", &bounds, 1.5, 2);
        reg.observe("node/uncore_residency_ghz", &bounds, 9.0, 1); // overflow bucket
        let snap = reg.snapshot();
        match snap.metrics.get("node/uncore_residency_ghz") {
            Some(MetricValue::Histogram {
                counts, total, sum, ..
            }) => {
                assert_eq!(counts, &vec![15, 2, 1]);
                assert_eq!(*total, 18);
                let expected = 0.8 * 10.0 + 1.0 * 5.0 + 1.5 * 2.0 + 9.0;
                assert!((sum - expected).abs() < 1e-9);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn prometheus_text_is_cumulative_and_mangled() {
        let reg = Registry::new();
        reg.inc("engine/trials_total", 4);
        reg.observe("node/uncore_residency_ghz", &[1.0, 2.0], 0.5, 3);
        reg.observe("node/uncore_residency_ghz", &[1.0, 2.0], 1.5, 2);
        let text = reg.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE magus_engine_trials_total counter"));
        assert!(text.contains("magus_engine_trials_total 4"));
        assert!(text.contains("# TYPE magus_node_uncore_residency_ghz histogram"));
        assert!(text.contains("magus_node_uncore_residency_ghz_bucket{le=\"1\"} 3"));
        // Cumulative: the le="2" bucket includes the le="1" weight.
        assert!(text.contains("magus_node_uncore_residency_ghz_bucket{le=\"2\"} 5"));
        assert!(text.contains("magus_node_uncore_residency_ghz_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("magus_node_uncore_residency_ghz_count 5"));
    }

    #[test]
    fn event_log_caps_and_counts_drops() {
        let mut log = EventLog::with_cap(2);
        log.push(Event::new(0, "a"));
        log.push(Event::new(1, "b"));
        log.push(Event::new(2, "c"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        let drained = log.take();
        assert_eq!(drained.len(), 2);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 1, "drain keeps the drop counter");
    }

    #[test]
    fn event_serde_round_trips_exactly() {
        let ev = Event::new(300_000, "magus_decision")
            .with("cycle", 3u64)
            .with("sample_mbs", 12_345.5)
            .with("trend", "increase")
            .with("tune_event", true)
            .with("delta", -2i64);
        let json = serde::to_string(&ev);
        let back: Event = serde::from_str(&json).expect("deserialize");
        assert_eq!(back, ev);
        // Canonical: serializing twice yields identical bytes.
        assert_eq!(json, serde::to_string(&back));
        // Untagged ordering: unsigned stays U64, negative I64, fraction F64.
        assert_eq!(back.fields.get("cycle"), Some(&FieldValue::U64(3)));
        assert_eq!(back.fields.get("delta"), Some(&FieldValue::I64(-2)));
        assert_eq!(
            back.fields.get("sample_mbs"),
            Some(&FieldValue::F64(12_345.5))
        );
    }

    /// splitmix64: a seeded stream of well-mixed words.
    fn next_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A string with quotes, backslashes, every control byte, DEL and
    /// multi-byte UTF-8 in reach.
    fn random_string(state: &mut u64) -> String {
        const ODD: [char; 8] = ['"', '\\', '/', '\u{7f}', 'é', '€', '😀', ' '];
        let len = next_u64(state) % 12;
        (0..len)
            .map(|_| match next_u64(state) % 4 {
                0 => char::from((next_u64(state) % 0x20) as u8),
                1 => ODD[(next_u64(state) % 8) as usize],
                _ => char::from(b'a' + (next_u64(state) % 26) as u8),
            })
            .collect()
    }

    fn random_value(state: &mut u64) -> FieldValue {
        let bits = next_u64(state);
        match next_u64(state) % 5 {
            0 => FieldValue::Bool(bits & 1 == 1),
            1 => FieldValue::U64(bits >> (bits % 64)),
            2 => FieldValue::I64((bits as i64) >> (bits % 64)),
            // Raw bit patterns: every exponent and subnormals. NaN and ±∞
            // write as `null`, which no field reads back.
            3 if f64::from_bits(bits).is_finite() => FieldValue::F64(f64::from_bits(bits)),
            _ => FieldValue::from(random_string(state)),
        }
    }

    /// Every byte below 0x20, `"`, `\`, `/`, DEL and multi-byte UTF-8.
    fn nasty() -> String {
        (0u8..0x20)
            .map(char::from)
            .chain("\"\\/\u{7f}é€😀".chars())
            .collect()
    }

    /// [`nasty`] as a JSON string's contents.
    const NASTY_JSON: &str = concat!(
        r"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r\u000e\u000f",
        r"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017",
        r"\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f",
        "\\\"\\\\/\u{7f}é€😀",
    );

    #[test]
    fn events_write_their_exact_json_bytes() {
        let mut owned = Event {
            t_us: u64::MAX,
            kind: Cow::Owned(format!("kind{}", nasty())),
            fields: BTreeMap::new(),
        };
        owned
            .fields
            .insert(Cow::Owned(nasty()), FieldValue::from(nasty()));
        owned
            .fields
            .insert(Cow::Owned("plain".into()), FieldValue::from("static"));
        let edges = Event::new(0, "edges")
            .with("f_zero", 0.0)
            .with("f_neg_zero", -0.0)
            .with("f_subnormal", 5e-324)
            .with("f_max", f64::MAX)
            .with("f_1e16", 1e16)
            .with("f_1e-7", 1e-7)
            .with("f_nan", f64::NAN)
            .with("f_inf", f64::INFINITY)
            .with("f_neg_inf", f64::NEG_INFINITY)
            .with("u_zero", 0u64)
            .with("u_max", u64::MAX)
            .with("i_min", i64::MIN)
            .with("i_minus_one", -1i64)
            .with("i_max", i64::MAX)
            .with("flag", true);
        let n = NASTY_JSON;
        for (event, json) in [
            (
                Event::new(7, "empty"),
                r#"{"t_us":7,"kind":"empty","fields":{}}"#.to_string(),
            ),
            (
                owned,
                format!(
                    r#"{{"t_us":18446744073709551615,"kind":"kind{n}","fields":{{"{n}":"{n}","plain":"static"}}}}"#
                ),
            ),
            (
                edges,
                concat!(
                    r#"{"t_us":0,"kind":"edges","fields":{"f_1e-7":1e-7,"f_1e16":1e16,"#,
                    r#""f_inf":null,"f_max":1.7976931348623157e308,"f_nan":null,"#,
                    r#""f_neg_inf":null,"f_neg_zero":-0.0,"f_subnormal":5e-324,"f_zero":0.0,"#,
                    r#""flag":true,"i_max":9223372036854775807,"#,
                    r#""i_min":-9223372036854775808,"i_minus_one":-1,"#,
                    r#""u_max":18446744073709551615,"u_zero":0}}"#,
                )
                .to_string(),
            ),
        ] {
            assert_eq!(serde::to_string(&event), json, "{event:?}");
        }

        // Generated events: the text reads back to an event that writes the
        // same text again.
        for case in 0..2_000u64 {
            let mut state = case;
            let mut event = Event {
                t_us: next_u64(&mut state),
                kind: Cow::Owned(random_string(&mut state)),
                fields: BTreeMap::new(),
            };
            for _ in 0..next_u64(&mut state) % 8 {
                let value = random_value(&mut state);
                event
                    .fields
                    .insert(Cow::Owned(random_string(&mut state)), value);
            }
            let json = serde::to_string(&event);
            let back: Event = serde::from_str(&json).expect("reads back");
            assert_eq!(serde::to_string(&back), json, "case {case}");
        }
    }

    #[test]
    fn deterministic_view_drops_diag_metrics() {
        let reg = Registry::new();
        reg.inc("engine/trials_total", 1);
        reg.set_gauge("diag/trial_wall_s", 0.25);
        let det = reg.snapshot().deterministic();
        assert!(det.metrics.contains_key("engine/trials_total"));
        assert!(!det.metrics.contains_key("diag/trial_wall_s"));
    }

    #[test]
    fn node_counters_serde_defaults_missing_fields() {
        let nc: NodeCounters = serde::from_str("{}").expect("defaults");
        assert_eq!(nc, NodeCounters::default());
        let nc: NodeCounters =
            serde::from_str(r#"{"uncore_msr_writes":2,"residency_us":[[18,20000]]}"#)
                .expect("partial");
        assert_eq!(nc.uncore_msr_writes, 2);
        assert_eq!(nc.residency_total_us(), 20_000);
    }
}
