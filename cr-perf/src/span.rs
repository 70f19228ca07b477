//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls
//! into each layer's public functions (a phase hook inside
//! `Network::step` is a later issue). They stay in memory while the
//! workload runs and are written as JSON lines when it ends. A span
//! carries its name, start, end, the span that caused it (`parent`)
//! and the simulated run it belongs to (`run`: all spans of one rep or
//! sweep point share it).

use cr_sim::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its recorder.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The simulated run (rep or sweep point) this span belongs to.
    pub run: u32,
    /// Layer-qualified name, e.g. `network.assemble`, `network.step[7]`.
    pub name: String,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Work done inside the span, counted where it happens (simulated
    /// cycles for a `network.step` chunk; 0 where nothing is counted).
    pub count: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The name without a chunk index: `network.step[7]` →
    /// `network.step`.
    pub fn base_name(&self) -> &str {
        self.name.split('[').next().unwrap_or(&self.name)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id)),
            ("parent", self.parent.map_or(Json::Null, Json::from)),
            ("run", Json::from(self.run)),
            ("name", Json::from(self.name.as_str())),
            ("start_ns", Json::from(self.start_ns)),
            ("end_ns", Json::from(self.end_ns)),
            ("count", Json::from(self.count)),
        ])
    }
}

/// Collects spans against one epoch. A recorder that is off records
/// nothing and costs one branch per call, so the untraced reps run the
/// same code as the traced one.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder {
            epoch: None,
            spans: Vec::new(),
        }
    }

    /// A recorder measuring from `epoch`. Recorders that will be
    /// merged with [`Recorder::adopt`] must share their epoch.
    pub fn on(epoch: Instant) -> Recorder {
        Recorder {
            epoch: Some(epoch),
            spans: Vec::new(),
        }
    }

    /// A fresh recorder in the same state (on/off) and on the same
    /// epoch — what a sweep point on a worker thread records into.
    pub fn sibling(&self) -> Recorder {
        Recorder {
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> Option<u64> {
        self.epoch.map(|e| e.elapsed().as_nanos() as u64)
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<u32>, run: u32) -> u32 {
        let Some(now) = self.now_ns() else { return 0 };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            run,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        id
    }

    /// Closes the span [`Recorder::open`] returned `id` for.
    pub fn close(&mut self, id: u32) {
        self.close_counting(id, 0);
    }

    /// [`Recorder::close`], recording how much work the span did.
    pub fn close_counting(&mut self, id: u32, count: u64) {
        if let Some(now) = self.now_ns() {
            let span = &mut self.spans[id as usize];
            span.end_ns = now;
            span.count = count;
        }
    }

    /// Appends every span of `child` (recorded elsewhere against the
    /// same epoch), hanging its roots under `parent`.
    pub fn adopt(&mut self, child: Recorder, parent: Option<u32>) {
        let base = self.spans.len() as u32;
        for mut s in child.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base).or(parent);
            self.spans.push(s);
        }
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The span file: one JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&s.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover. Children may overlap each other
/// (sweep points on two threads under one `pool.run`), so the covered
/// part is the length of the *union* of the child intervals, clipped
/// to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of the durations of the spans whose base name is `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.base_name() == name)
        .map(Span::duration_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: format!("s[{id}]"),
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60), // overlaps span 1 by 10
            span(3, Some(0), 70, 80),
            span(4, Some(1), 10, 20),
            span(5, Some(0), 35, 38), // inside the 1 ∪ 2 union already
        ];
        // Root: 100 - (|10..60| + |70..80|) = 100 - 60 = 40.
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 10, 3]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(0, None, 10, 20),
            span(1, Some(0), 5, 15),
            span(2, Some(0), 18, 30),
        ];
        assert_eq!(self_times(&spans), vec![3, 10, 12]);
    }

    #[test]
    fn sequential_children_leave_self_times_summing_to_the_root() {
        let spans = vec![
            span(0, None, 0, 50),
            span(1, Some(0), 0, 20),
            span(2, Some(0), 20, 45),
            span(3, Some(2), 25, 30),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn off_recorder_records_nothing_and_adopt_rebases_ids() {
        let mut off = Recorder::off();
        let id = off.open("x", None, 0);
        off.close(id);
        assert!(off.spans().is_empty());

        let mut main = Recorder::on(Instant::now());
        let parent = main.open("pool.run", None, 0);
        let mut worker = main.sibling();
        let root = worker.open("run", None, 3);
        let leaf = worker.open("network.step[0]", Some(root), 3);
        worker.close(leaf);
        worker.close(root);
        main.adopt(worker, Some(parent));
        main.close(parent);
        let spans = main.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].base_name(), "network.step");
        assert_eq!(total_ns(spans, "network.step"), spans[2].duration_ns());
        let parsed = Json::parse(to_jsonl(spans).lines().nth(2).unwrap()).unwrap();
        assert_eq!(parsed.get("parent").and_then(Json::as_u64), Some(1));
        assert_eq!(parsed.get("run").and_then(Json::as_u64), Some(3));
    }
}
