//! The harness's own span recorder: one span around each call (or chunk
//! of calls) into a layer's public functions. Spans live in memory and
//! are written out once, when the run ends, so recording costs two clock
//! reads and a `Vec` push.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span identifier: index into the recorder.
pub type SpanId = u32;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Layer boundary crossed (`cache.hn_record`, `sim.step.tree`, ...).
    pub name: String,
    /// Repetition the span belongs to.
    pub rep: u32,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Work done inside the span (references, lines, records, ...).
    pub count: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one traced run.
pub struct Tracer {
    t0: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `workload`; time zero is now.
    pub fn new(workload: &str) -> Self {
        Tracer { t0: Instant::now(), workload: workload.to_string(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, rep: u32) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            rep,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        id
    }

    /// Close span `id`, recording the work it covered.
    pub fn close(&mut self, id: SpanId, count: u64) {
        let end_ns = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.count = count;
    }

    /// Record a span measured elsewhere (a child process timed by the
    /// process runner): it ends now and lasted `duration_ns`.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        rep: u32,
        duration_ns: u64,
        count: u64,
    ) -> SpanId {
        let end_ns = self.now_ns();
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            rep,
            start_ns: end_ns.saturating_sub(duration_ns),
            end_ns,
            count,
        });
        id
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True before the first span.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Span `id`.
    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id as usize]
    }

    /// Duration of span `id`, ns.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans[id as usize].duration_ns()
    }

    /// Direct children of `id`, in recording order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Σ duration and Σ count over the direct children of `id` — the
    /// time inside the layer calls, without the loop set-up around them.
    pub fn child_totals(&self, id: SpanId) -> (u64, u64) {
        self.children(id).fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + s.count))
    }

    /// A span's self time: its duration minus the part of that interval
    /// its direct children cover (overlapping children are not counted
    /// twice, and a child reaching outside the parent is clipped).
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let me = &self.spans[id as usize];
        let mut kids: Vec<(u64, u64)> = self
            .children(id)
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut edge = me.start_ns;
        for (a, b) in kids {
            let a = a.max(edge);
            if b > a {
                covered += b - a;
                edge = b;
            }
        }
        me.duration_ns() - covered
    }

    /// Write every span as one JSON line:
    /// `id,parent,name,workload,rep,start_ns,end_ns,count`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// [`Tracer::write_jsonl`] into any writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{}\",\"rep\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, self.workload, s.rep, s.start_ns, s.end_ns, s.count
            )?;
        }
        Ok(())
    }

    #[cfg(test)]
    fn push_raw(&mut self, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> SpanId {
        self.spans.push(Span { parent, name: "t".into(), rep: 0, start_ns, end_ns, count: 1 });
        self.spans.len() as SpanId - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut t = Tracer::new("w");
        let root = t.push_raw(None, 100, 1100);
        assert_eq!(t.self_time_ns(root), 1000, "no children: all self time");
        t.push_raw(Some(root), 200, 400);
        t.push_raw(Some(root), 600, 700);
        assert_eq!(t.self_time_ns(root), 700);
        // Overlapping children count their union once.
        t.push_raw(Some(root), 300, 500);
        assert_eq!(t.self_time_ns(root), 600);
        // A child reaching outside the parent is clipped to it.
        t.push_raw(Some(root), 1000, 5000);
        assert_eq!(t.self_time_ns(root), 500);
        // Grandchildren belong to their own parent, not to the root.
        let kid = t.push_raw(Some(root), 100, 150);
        t.push_raw(Some(kid), 100, 150);
        assert_eq!(t.self_time_ns(root), 450);
        assert_eq!(t.self_time_ns(kid), 0);
        assert_eq!(t.child_totals(kid), (50, 1));
    }

    #[test]
    fn open_close_records_in_order_and_serializes() {
        let mut t = Tracer::new("sim-cad");
        let a = t.open("layer", None, 3);
        let b = t.open("layer/chunk", Some(a), 3);
        t.close(b, 50);
        t.close(a, 50);
        assert!(t.span(b).start_ns >= t.span(a).start_ns);
        assert!(t.span(b).end_ns <= t.span(a).end_ns);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().starts_with(
            "{\"id\":0,\"parent\":null,\"name\":\"layer\",\"workload\":\"sim-cad\",\"rep\":3,"
        ));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0,"));
        assert!(text.lines().nth(1).unwrap().ends_with("\"count\":50}"));
    }
}
