//! Benchmark spans around calls into each layer's public functions.
//!
//! A span has a name, a start, an end and the span it ran inside; its
//! layer is the part of its name before the first dot (`core.run` is in
//! `core`). The program's own per-query spans (`QueryOutcome::trace`)
//! are attached under the benchmark span that produced them. Spans stay
//! in memory and are written out when the run ends. A span's self time
//! is its duration minus the part of it that its children cover; the
//! self times of a run whose spans never overlap their siblings add up
//! to the root span.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use trinit_obs::{now_ns, QueryTrace, Stage};

pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when on; when off, every call is one branch and the
/// clock is never read.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = now_ns();
        self.last_closed = Some(id);
        out
    }

    /// Records a finished span inside the open one, for work the program
    /// reports as a duration (a freeze inside an ingest call): it is
    /// placed to end now.
    pub fn ended_now(&mut self, name: &'static str, dur_ns: u64) {
        if !self.on {
            return;
        }
        let end = now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: end.saturating_sub(dur_ns),
            end,
            parent,
        });
    }

    /// Attaches the program's per-query spans under the span that closed
    /// last, the call that returned them. Each goes under the innermost
    /// earlier span still running when it starts; point events carry no
    /// time and are left out.
    pub fn attach(&mut self, trace: &QueryTrace, sharded: bool) {
        let Some(root) = self.last_closed.filter(|_| self.on) else {
            return;
        };
        let mut records: Vec<_> = trace.spans.iter().filter(|s| s.dur_ns > 0).collect();
        records.sort_by_key(|s| (s.start_ns, Reverse(s.dur_ns)));
        let mut stack: Vec<(usize, u64)> = vec![(root, self.spans[root].end)];
        for r in records {
            while stack.len() > 1 && stack.last().is_some_and(|&(_, end)| end <= r.start_ns) {
                stack.pop();
            }
            let parent = stack.last().map(|&(id, _)| id);
            let end = r.start_ns + r.dur_ns;
            stack.push((self.spans.len(), end));
            self.spans.push(Span {
                name: stage_span(r.stage, sharded),
                start: r.start_ns,
                end,
                parent,
            });
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's interval clipped to its parent's, so that a child
    /// never counts time outside the span it ran in.
    fn clipped(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let (mut a, mut b) = (s.start, s.end.max(s.start));
            if let Some(p) = s.parent {
                let (pa, pb) = out[p];
                a = a.clamp(pa, pb);
                b = b.clamp(a, pb);
            }
            out.push((a, b));
        }
        out
    }

    /// Self time per layer, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.clipped();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, &(a, b)) in spans.iter().enumerate() {
            let mut kids: Vec<(u64, u64)> = children[i].iter().map(|&c| spans[c]).collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, a);
            for (ka, kb) in kids {
                let ka = ka.max(reach);
                if kb > ka {
                    covered += kb - ka;
                    reach = kb;
                }
            }
            *out.entry(self.spans[i].layer()).or_insert(0) += (b - a) - covered;
        }
        out
    }

    /// Summed duration of the root spans, in nanoseconds.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end.saturating_sub(s.start))
            .sum()
    }

    /// The spans as JSON: `[{"name":..,"start_ns":..,"end_ns":..,"parent":..},..]`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            );
        }
        out.push(']');
        out
    }
}

/// The span name of a program stage, by the crate that records it. A
/// query's enclosing span is the engine's (`query`) on one store and the
/// shard executor's on a sharded one. Elections belong to the query
/// crate's partitioned merge, which serves shards and base-plus-delta
/// segments alike.
fn stage_span(stage: Stage, sharded: bool) -> &'static str {
    match stage {
        Stage::Query if sharded => "shard.exec",
        Stage::Query => "query.exec",
        Stage::Variant => "query.variant",
        Stage::JoinRound => "query.join_round",
        Stage::SeedTask => "shard.seed_task",
        Stage::Election => "query.election",
        Stage::Merge => "shard.merge",
        Stage::Ingest => "xkg.ingest",
        Stage::Compact => "xkg.compact",
        Stage::Threshold | Stage::Cutoff => "query.event",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_obs::SpanRecord;

    fn busy(n: u64) -> u64 {
        (0..n).fold(0u64, |acc, i| std::hint::black_box(acc.wrapping_add(i * i)))
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut tr = Tracer::new(true);
        tr.span("bench.run", |tr| {
            busy(20_000);
            let (start, mid, end) = tr.span("core.run", |_| {
                let start = now_ns();
                busy(50_000);
                let mid = now_ns();
                busy(50_000);
                (start, mid, now_ns())
            });
            let trace = QueryTrace {
                spans: vec![
                    SpanRecord {
                        stage: Stage::Query,
                        detail: 0,
                        start_ns: start,
                        dur_ns: end - start,
                    },
                    SpanRecord {
                        stage: Stage::Variant,
                        detail: 0,
                        start_ns: start,
                        dur_ns: mid - start,
                    },
                    // A window that runs past its variant is clipped to the query.
                    SpanRecord {
                        stage: Stage::JoinRound,
                        detail: 64,
                        start_ns: mid,
                        dur_ns: end - mid + 1_000_000,
                    },
                    SpanRecord {
                        stage: Stage::Threshold,
                        detail: 0,
                        start_ns: mid,
                        dur_ns: 0,
                    },
                ],
                dropped: 0,
            };
            tr.attach(&trace, false);
            tr.span("xkg.lookup", |_| busy(30_000));
        });
        let total: u64 = tr.self_times().values().sum();
        assert_eq!(total, tr.root_ns());
        assert!(tr.self_times()["query"] > 0);
        assert_eq!(tr.spans().len(), 6);
        assert_eq!(
            tr.spans()[3].parent,
            Some(2),
            "the variant runs inside the query span"
        );
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("core.run", |tr| {
            tr.ended_now("xkg.freeze", 10);
            7
        });
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.root_ns(), 0);
    }
}
