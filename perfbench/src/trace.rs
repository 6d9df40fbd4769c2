//! The traced run's span recorder. It is also the engine's
//! `RoundObserver`: a phase opens a span at `on_phase`, and the phase's
//! first and last busy rounds split it into entry, loop and exit.

use crate::measure::ratio;
use energy_mis::MisReport;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One operation.
    Op,
    /// A call the benchmark makes into a layer (a stream's edit batch,
    /// repair plan, sub-run, merge or compaction).
    Piece,
    /// One engine run, from its `on_phase` to the next phase or the end
    /// of the enclosing span.
    Phase,
    /// Phase start to the end of its first busy round: scratch
    /// allocation and per-node `init`. A phase without busy rounds is
    /// all entry.
    Entry,
    /// End of the first busy round to the end of the last one.
    Loop,
    /// End of the last busy round to the phase's end: teardown plus the
    /// host work before the next phase.
    Exit,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Piece => "piece",
            Kind::Phase => "phase",
            Kind::Entry => "entry",
            Kind::Loop => "loop",
            Kind::Exit => "exit",
        }
    }
}

/// One recorded span; `parent` indexes the same operation's spans, whose
/// first is the operation itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The operation the span belongs to, counted from 0.
    pub op: u32,
    /// What the span covers.
    pub kind: Kind,
    /// Index into the tracer's name table.
    pub name: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The protocol families of `energy_mis`, as `(family, seconds metric,
/// runs metric)`.
pub const FAMILIES: [(&str, &str, &str); 5] = [
    ("alg2p1", "core.alg2p1_s", "core.alg2p1.runs"),
    ("shatter", "core.shatter_s", "core.shatter.runs"),
    ("cluster", "core.cluster_s", "core.cluster.runs"),
    ("merge", "core.merge_s", "core.merge.runs"),
    ("finish", "core.finish_s", "core.finish.runs"),
];

/// The benchmark's calls into a layer, as `(span name, seconds metric)`.
pub const PIECES: [(&str, &str); 5] = [
    ("delta_apply", "graphs.delta_apply_s"),
    ("repair_plan", "congest.repair_plan_s"),
    ("subrun", "runner.subrun_s"),
    ("repair_merge", "congest.repair_merge_s"),
    ("compact", "graphs.compact_s"),
];

/// The family of pipeline phase `name`: the prefix of its `energy_mis`
/// phase name, with Phase II's two protocols told apart. Algorithm 1's
/// Phase I and anything unknown fall under `phase1` and `other`.
pub fn family(name: &str) -> &'static str {
    let head = name.split(':').next().unwrap_or(name);
    match head {
        "alg2p1" => "alg2p1",
        "merge" => "merge",
        "finish" => "finish",
        "phase1" => "phase1",
        "phase2" if name == "phase2:shatter" => "shatter",
        "phase2" if name == "phase2:cluster" => "cluster",
        _ => "other",
    }
}

/// Counts the benchmark reads from the reports of observed runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counts {
    /// Σ over engine runs of the run graph's node count.
    node_slots: f64,
    messages: f64,
    busy_rounds: f64,
    awake_node_rounds: f64,
    finish_retries: f64,
    finish_fallback_nodes: f64,
    subruns: f64,
    affected: f64,
}

/// The per-layer totals of one traced operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpLayers {
    /// Per-layer metric values, keyed by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Self time (duration minus children) by label: `<family>.entry`,
    /// `<family>.loop`, `<family>.exit`, a piece's name, or `op` for the
    /// operation's own untraced gaps.
    pub self_time: BTreeMap<String, f64>,
}

/// A phase whose span is still open.
#[derive(Debug, Clone, Copy)]
struct OpenPhase {
    span: u32,
    first: Option<u64>,
    last: u64,
}

/// Records spans in memory, one operation at a time.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    names: Vec<String>,
    ids: BTreeMap<String, u32>,
    ops: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    phase: Option<OpenPhase>,
    counts: Counts,
    done: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            ids: BTreeMap::new(),
            ops: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            phase: None,
            counts: Counts::default(),
            done: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    fn push(
        &mut self,
        kind: Kind,
        name: &str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let name = self.intern(name);
        self.spans.push(Span {
            op: self.ops,
            kind,
            name,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn open(&mut self, name: &str) {
        let t = self.now();
        self.end_phase(t);
        let kind = if self.stack.is_empty() {
            Kind::Op
        } else {
            Kind::Piece
        };
        let parent = self.stack.last().copied();
        let id = self.push(kind, name, parent, t, t);
        self.stack.push(id);
    }

    /// Closes the innermost open span, and the phase open inside it.
    pub fn close(&mut self) {
        let t = self.now();
        self.end_phase(t);
        let id = self.stack.pop().expect("close() matches an open()");
        self.spans[id as usize].end_ns = t;
    }

    fn end_phase(&mut self, t: u64) {
        let Some(p) = self.phase.take() else {
            return;
        };
        let start = self.spans[p.span as usize].start_ns;
        self.spans[p.span as usize].end_ns = t;
        let parent = Some(p.span);
        match p.first {
            None => {
                self.push(Kind::Entry, "entry", parent, start, t);
            }
            Some(first) => {
                self.push(Kind::Entry, "entry", parent, start, first);
                self.push(Kind::Loop, "loop", parent, first, p.last);
                self.push(Kind::Exit, "exit", parent, p.last, t);
            }
        }
    }

    /// Starts a traced operation.
    pub fn begin_op(&mut self) {
        assert!(self.stack.is_empty(), "operations do not nest");
        self.spans.clear();
        self.counts = Counts::default();
        self.open("op");
    }

    /// Ends the traced operation and returns its layer totals; its spans
    /// are kept for [`Tracer::write_jsonl`].
    pub fn end_op(&mut self) -> OpLayers {
        self.close();
        assert!(self.stack.is_empty(), "a span was left open");
        let layers = self.layers();
        self.done.extend_from_slice(&self.spans);
        self.ops += 1;
        layers
    }

    /// Folds an observed engine run on an `n`-node graph into the
    /// operation's counts.
    pub fn count_run(&mut self, n: usize, report: &MisReport) {
        let c = &mut self.counts;
        let m = &report.metrics;
        c.node_slots += (n * report.phases.len()) as f64;
        c.messages += m.messages_sent as f64;
        c.busy_rounds += m.busy_rounds as f64;
        c.awake_node_rounds += m.total_awake() as f64;
        let extra = |k: &str| report.extras.get(k).copied().unwrap_or(0.0);
        c.finish_retries += extra("finish_retries");
        c.finish_fallback_nodes += extra("finish_fallback_nodes");
    }

    /// Counts one non-trivial repair sub-run that woke `affected` nodes.
    pub fn count_subrun(&mut self, affected: usize) {
        self.counts.subruns += 1.0;
        self.counts.affected += affected as f64;
    }

    fn layers(&self) -> OpLayers {
        let spans = &self.spans;
        let mut covered = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.secs();
            }
        }
        let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
        for key in OP_KEYS {
            v.insert(key, 0.0);
        }
        for (_, secs, runs) in FAMILIES {
            v.insert(secs, 0.0);
            v.insert(runs, 0.0);
        }
        for (_, secs) in PIECES {
            v.insert(secs, 0.0);
        }
        let mut self_time: BTreeMap<String, f64> = BTreeMap::new();
        let name = |s: &Span| self.names[s.name as usize].as_str();
        for (i, s) in spans.iter().enumerate() {
            let secs = s.secs();
            let label = match s.kind {
                Kind::Op => Some("op".to_string()),
                Kind::Piece => {
                    if let Some(&(_, metric)) = PIECES.iter().find(|(p, _)| *p == name(s)) {
                        *v.get_mut(metric).expect("piece metrics are preset") += secs;
                    }
                    if name(s) == "compact" {
                        *v.get_mut("graphs.compactions").expect("preset") += 1.0;
                    }
                    Some(name(s).to_string())
                }
                Kind::Phase => {
                    *v.get_mut("congest.runs").expect("preset") += 1.0;
                    let fam = family(name(s));
                    if let Some(&(_, fs, fr)) = FAMILIES.iter().find(|(f, _, _)| *f == fam) {
                        *v.get_mut(fs).expect("preset") += secs;
                        *v.get_mut(fr).expect("preset") += 1.0;
                    }
                    None // entry, loop and exit cover it exactly
                }
                Kind::Entry | Kind::Loop | Kind::Exit => {
                    let metric = match s.kind {
                        Kind::Entry => "congest.entry_s",
                        Kind::Loop => "congest.loop_s",
                        _ => "congest.exit_s",
                    };
                    *v.get_mut(metric).expect("preset") += secs;
                    let phase = &spans[s.parent.expect("parts have a phase") as usize];
                    Some(format!("{}.{}", family(name(phase)), s.kind.label()))
                }
            };
            if let Some(label) = label {
                *self_time.entry(label).or_insert(0.0) += secs - covered[i];
            }
        }
        let op_s = spans[0].secs();
        let c = &self.counts;
        v.insert("trace.op_s", op_s);
        v.insert("trace.span_coverage", ratio(covered[0], op_s));
        v.insert("congest.messages", c.messages);
        v.insert("congest.busy_rounds", c.busy_rounds);
        v.insert("congest.awake_node_rounds", c.awake_node_rounds);
        v.insert(
            "congest.awake_frac",
            ratio(c.awake_node_rounds, c.node_slots),
        );
        v.insert(
            "congest.ns_per_message",
            ratio(v["congest.loop_s"] * 1e9, c.messages),
        );
        v.insert("core.finish_retries", c.finish_retries);
        v.insert("core.finish_fallback_nodes", c.finish_fallback_nodes);
        v.insert("runner.subruns", c.subruns);
        v.insert("runner.affected", c.affected);
        OpLayers {
            values: v,
            self_time,
        }
    }

    /// Writes every finished operation's spans as JSON lines:
    /// `{"op", "id", "parent", "kind", "name", "start_ns", "end_ns"}`,
    /// where `id` and `parent` index the operation's spans.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, out: impl Write) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(out);
        let mut first = 0;
        for (i, s) in self.done.iter().enumerate() {
            if i > 0 && s.op != self.done[i - 1].op {
                first = i;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\": {}, \"id\": {}, \"parent\": {}, \"kind\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op,
                i - first,
                parent,
                s.kind.label(),
                self.names[s.name as usize],
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-operation keys that every [`OpLayers`] holds besides the family
/// and piece metrics.
const OP_KEYS: [&str; 5] = [
    "congest.runs",
    "congest.entry_s",
    "congest.loop_s",
    "congest.exit_s",
    "graphs.compactions",
];

impl congest_sim::RoundObserver for Tracer {
    fn on_round(&mut self, _event: &congest_sim::RoundEvent) {
        let t = self.now();
        if let Some(p) = self.phase.as_mut() {
            p.first.get_or_insert(t);
            p.last = t;
        }
    }

    fn on_phase(&mut self, name: &str) {
        let t = self.now();
        self.end_phase(t);
        let parent = self.stack.last().copied();
        let span = self.push(Kind::Phase, name, parent, t, t);
        self.phase = Some(OpenPhase {
            span,
            first: None,
            last: t,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{RoundEvent, RoundObserver};

    fn event() -> RoundEvent {
        RoundEvent {
            round: 0,
            awake: 1,
            messages_sent: 0,
            messages_delivered: 0,
            messages_dropped: 0,
            collisions: 0,
            bits_sent: 0,
        }
    }

    #[test]
    fn families_follow_phase_names() {
        assert_eq!(family("alg2p1:iter"), "alg2p1");
        assert_eq!(family("phase2:shatter"), "shatter");
        assert_eq!(family("phase2:cluster"), "cluster");
        assert_eq!(family("merge:star-m:up"), "merge");
        assert_eq!(family("finish:and-cvc"), "finish");
        assert_eq!(family("phase1:sync"), "phase1");
        assert_eq!(family("luby"), "other");
    }

    #[test]
    fn phases_split_into_entry_loop_exit_and_cover_the_op() {
        let mut t = Tracer::new();
        t.begin_op();
        t.on_phase("merge:ids");
        t.on_round(&event());
        t.on_round(&event());
        t.on_phase("finish:check"); // no busy round: all entry
        let layers = t.end_op();
        let kinds: Vec<Kind> = t.done.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                Kind::Op,
                Kind::Phase,
                Kind::Entry,
                Kind::Loop,
                Kind::Exit,
                Kind::Phase,
                Kind::Entry
            ]
        );
        let v = &layers.values;
        assert_eq!(v["congest.runs"], 2.0);
        assert_eq!(v["core.merge.runs"], 1.0);
        assert_eq!(v["core.finish.runs"], 1.0);
        let parts = v["congest.entry_s"] + v["congest.loop_s"] + v["congest.exit_s"];
        let phases = v["core.merge_s"] + v["core.finish_s"];
        assert!((parts - phases).abs() < 1e-9);
        assert!(v["trace.span_coverage"] <= 1.0);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 7);
    }

    #[test]
    fn pieces_nest_phases_and_count_compactions() {
        let mut t = Tracer::new();
        t.begin_op();
        t.open("subrun");
        t.on_phase("phase2:shatter");
        t.on_round(&event());
        t.close();
        t.open("compact");
        t.close();
        let layers = t.end_op();
        assert_eq!(layers.values["graphs.compactions"], 1.0);
        assert_eq!(layers.values["core.shatter.runs"], 1.0);
        assert!(layers.self_time.contains_key("shatter.loop"));
        assert!(layers.self_time.contains_key("subrun"));
        // The phase closed with its sub-run, not at the next piece.
        let phase = t.done.iter().find(|s| s.kind == Kind::Phase).unwrap();
        let subrun = &t.done[phase.parent.unwrap() as usize];
        assert_eq!(phase.end_ns, subrun.end_ns);
    }
}
